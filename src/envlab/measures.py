"""The base probability measure on the s-line used for L2 section norms."""

from __future__ import annotations

import numpy as np


def base_density(s) -> np.ndarray:
    """Circle-averaged Fubini-Study volume: (e^{s/2} + e^{-s/2})^{-2} ds.

    Integrates to one exactly (antiderivative tanh(s/2) / 2).
    """
    return 1.0 / (4.0 * np.cosh(np.asarray(s, dtype=float) / 2.0) ** 2)
