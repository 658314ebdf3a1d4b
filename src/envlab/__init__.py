"""Equilibrium envelope numerics for circle-invariant metric weights.

The package computes constrained convex envelopes of sampled weights in
one and two variables, builds the one-parameter family of envelope
offsets for a pair of model bundle weights and its fibered extension,
verifies closed-form fiber-measure identities, constructs section-based
approximants of the envelope, and glues chart weights with a regularized
maximum.  Every verification returns a :class:`~envlab.report.VerificationReport`.
"""

from .envelope import convexity_defect, equilibrium_envelope, hull_envelope
from .envelope2d import equilibrium_envelope_2d, grid_line_defects
from .errors import (EnvlabError, GluingError, InvalidCoverError,
                     InvalidInputError, InvalidParameterError, NoEnvelopeError,
                     PrecisionError)
from .family import (FamilyCurve, ModelBundlePair, cayley_polytope,
                     check_monotone_family, check_right_continuity,
                     default_t_grid, family_curve, fibered_weight,
                     minimal_singularity_gap, mix_weights, monotone_t_grid,
                     naive_fibered_weight)
from .fiber import (STATED_NORMALIZATION, FiberMeasure,
                    bergman_fiber_integral, fiber_volume, holder_fiber_chain,
                    oracle_normalization)
from .gluing import (GlueRegion, RegularizedMaxKernel, glue_weights,
                     hirzebruch_demo, regularized_max)
from .report import VerificationReport
from .sections import (ComparisonConstants, ToricSection, check_sandwich,
                       coefficient_inequality, comparison_constants,
                       psi1_approximant, psi2_approximant, unit_boxes)
from .weights import (SampledWeight, SampledWeight2D, SlopeInterval,
                      load_weight_csv, save_weight2d_csv, save_weight_csv)

__version__ = "0.1.0"

__all__ = [
    "convexity_defect", "equilibrium_envelope", "hull_envelope",
    "equilibrium_envelope_2d", "grid_line_defects",
    "EnvlabError", "InvalidInputError", "InvalidParameterError",
    "NoEnvelopeError", "PrecisionError", "InvalidCoverError", "GluingError",
    "FamilyCurve", "ModelBundlePair", "cayley_polytope",
    "check_monotone_family", "check_right_continuity", "default_t_grid",
    "family_curve", "fibered_weight", "minimal_singularity_gap", "mix_weights",
    "monotone_t_grid", "naive_fibered_weight",
    "STATED_NORMALIZATION", "FiberMeasure", "bergman_fiber_integral",
    "fiber_volume", "holder_fiber_chain", "oracle_normalization",
    "GlueRegion", "RegularizedMaxKernel", "glue_weights", "hirzebruch_demo",
    "regularized_max",
    "VerificationReport",
    "ComparisonConstants", "ToricSection", "check_sandwich",
    "coefficient_inequality", "comparison_constants", "psi1_approximant",
    "psi2_approximant", "unit_boxes",
    "SampledWeight", "SampledWeight2D", "SlopeInterval", "load_weight_csv",
    "save_weight2d_csv", "save_weight_csv",
    "__version__",
]
