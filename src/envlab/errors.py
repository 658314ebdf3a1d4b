"""Exception hierarchy shared across the package."""


class EnvlabError(Exception):
    """Base class for all envlab errors."""


class InvalidInputError(EnvlabError):
    """Malformed input data (non-monotone grid, bad shapes, NaNs, ...)."""


class InvalidParameterError(EnvlabError):
    """A scalar parameter is outside its allowed range."""


class NoEnvelopeError(EnvlabError):
    """The competitor class for an envelope is empty."""


class PrecisionError(EnvlabError):
    """A quadrature did not reach the requested accuracy, or left the
    float range."""


class InvalidCoverError(EnvlabError):
    """A collection of chart boxes fails to cover the working interval."""


class GluingError(EnvlabError):
    """Dominance precondition for gluing fails; names the worst grid point."""

    def __init__(self, message, worst_point=None):
        super().__init__(message)
        self.worst_point = worst_point
