"""The one-parameter envelope family and the fibered weight it induces.

For a pair of model weights (phi_A of degree d_A >= 1, phi_L of degree
d_L >= 0) the mixture t phi_A + (1-t) phi_L carries the slope interval
[0, t d_A + (1-t) d_L].  Its envelope offset psi_t <= 0 varies with t, the
rescalings psi_t / (1-t) increase in t and are right-continuous, and the
fibered weight

    phi(tau, s) = max_t ( t tau + (t phi_A + (1-t) phi_L)_e(s) )

is convex with tau-slopes in [0, 1].  This module builds the family and
the fibered weight and runs the quantitative checks on them, including the
comparison of the naive fibered weight log(e^{tau + phi_A} + e^{phi_L})
against phi after taking its 2-d envelope, whose bound C takes its
chart-box constants C1 and C2 from the sections module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope import equilibrium_envelope
from .envelope2d import equilibrium_envelope_2d
from .errors import InvalidInputError, InvalidParameterError
from .fiber import oracle_normalization
from .report import VerificationReport
from .sections import _box_constants, unit_boxes
from .weights import SampledWeight, SampledWeight2D, _is_integer

__all__ = [
    "ModelBundlePair",
    "FamilyCurve",
    "mix_weights",
    "family_curve",
    "default_t_grid",
    "monotone_t_grid",
    "check_monotone_family",
    "check_right_continuity",
    "fibered_weight",
    "naive_fibered_weight",
    "minimal_singularity_gap",
]

#: t-grid cap used by the monotonicity check; t = 1 is handled separately.
T_CAP = 1.0 - 1.0 / 1024.0

# offsets d of the right-continuity ladder, coarsest first
_DELTAS = (1 / 32, 1 / 64, 1 / 128, 1 / 256)


@dataclass(frozen=True, eq=False)
class ModelBundlePair:
    """Weights and degrees of the ample/pseudo-effective model pair."""

    phi_A: SampledWeight
    d_A: int
    phi_L: SampledWeight
    d_L: int

    def __post_init__(self):
        if not _is_integer(self.d_A) or self.d_A < 1:
            raise InvalidInputError(f"d_A must be an integer >= 1, got {self.d_A}")
        if not _is_integer(self.d_L) or self.d_L < 0:
            raise InvalidInputError(f"d_L must be an integer >= 0, got {self.d_L}")
        for w, d, name in ((self.phi_A, self.d_A, "phi_A"),
                           (self.phi_L, self.d_L, "phi_L")):
            if abs(w.slope_left) > 1e-9 or abs(w.slope_right - d) > 1e-9:
                raise InvalidInputError(
                    f"{name} slopes ({w.slope_left}, {w.slope_right}) do not "
                    f"match degree {d}")
        if not np.array_equal(self.phi_A.grid, self.phi_L.grid):
            raise InvalidInputError("phi_A and phi_L must share one grid")
        object.__setattr__(self, "d_A", int(self.d_A))
        object.__setattr__(self, "d_L", int(self.d_L))

    @property
    def grid(self) -> np.ndarray:
        return self.phi_A.grid


def mixed_degree(pair: ModelBundlePair, t: float) -> float:
    return t * pair.d_A + (1.0 - t) * pair.d_L


def _check_t(t):
    """Raise InvalidParameterError unless every t lies in [0, 1]."""
    t = np.asarray(t, dtype=float).ravel()
    bad = t[~((t >= 0.0) & (t <= 1.0))]
    if bad.size:
        raise InvalidParameterError(f"t must lie in [0, 1], got {bad[0]}")


def mix_weights(pair: ModelBundlePair, t: float) -> SampledWeight:
    """The mixture t phi_A + (1-t) phi_L with its interpolated slope data."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise InvalidParameterError(f"t must lie in [0, 1], got {t}")
    vals = t * pair.phi_A.values + (1.0 - t) * pair.phi_L.values
    return SampledWeight(pair.grid, vals, 0.0, mixed_degree(pair, t))


@dataclass(frozen=True, eq=False)
class FamilyCurve:
    """Envelope offsets psi_t <= 0 sampled along a t-grid: row i of the
    (n_t, n) array ``psi`` is psi at t_grid[i]."""

    pair: ModelBundlePair
    t_grid: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        if t.ndim != 1 or not np.all(np.diff(t) > 0):
            raise InvalidInputError("t_grid must be strictly increasing")
        if t[0] < 0.0 or t[-1] > 1.0:
            raise InvalidInputError("t_grid must lie in [0, 1]")
        psi = np.asarray(self.psi, dtype=float)
        if psi.shape != (t.size, self.pair.grid.size):
            raise InvalidInputError("psi must hold one row per t on the pair grid")
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "psi", psi)


def default_t_grid(n: int = 257) -> np.ndarray:
    """Chebyshev-like t-grid on [0, 1] including both endpoints."""
    return 0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, n)))


def monotone_t_grid(n: int = 101) -> np.ndarray:
    """Uniform t-grid capped below 1 for the division by 1 - t."""
    return np.linspace(0.0, T_CAP, n)


def _psi_row(pair: ModelBundlePair, t: float) -> np.ndarray:
    """psi_t = (mixture)_e - mixture, from one envelope call; t in [0, 1]."""
    mix = mix_weights(pair, t)
    return equilibrium_envelope(mix, mix.slope_interval).values - mix.values


def family_curve(pair: ModelBundlePair, t_grid=None) -> FamilyCurve:
    """Envelope offsets psi_t for every t in the grid."""
    t_grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    _check_t(t_grid)
    psi = np.empty((t_grid.size, pair.grid.size))
    for i, t in enumerate(t_grid.tolist()):
        psi[i] = _psi_row(pair, t)
    return FamilyCurve(pair, t_grid, psi)


def check_monotone_family(fc: FamilyCurve) -> VerificationReport:
    """psi_t / (1 - t) must be nondecreasing in t at every base sample.

    The rows are streamed: each drop h_prev - h_cur is folded into a
    running maximum, so no (n_t, n) array is built; a NaN sticks in it.
    """
    if fc.t_grid[-1] >= 1.0:
        raise InvalidParameterError(
            "monotonicity check requires a t-grid strictly below 1")
    scale = 1.0 - fc.t_grid
    worst = np.zeros(fc.pair.grid.size)
    prev = fc.psi[0] / scale[0]
    for row, sc in zip(fc.psi[1:], scale[1:]):
        cur = row / sc
        np.maximum(worst, prev - cur, out=worst)
        prev = cur
    violation = float(worst.max())
    return VerificationReport(
        check="family-monotonicity",
        max_violation=violation,
        grid={"t_points": int(fc.t_grid.size), "s_points": int(fc.pair.grid.size)},
        details={"t_max": float(fc.t_grid[-1])})


def check_right_continuity(fc: FamilyCurve) -> VerificationReport:
    """Residuals |psi_{t+d}/(1-t-d) - psi_t/(1-t)| must decay as d halves.

    t runs over about 8 points of the family's grid in (0, 1 - d_max), so
    psi_t is the family's own row; fresh envelopes are computed at each
    offset t + d.  The report records the residual ladder and the fitted
    dyadic decay rate.
    """
    inside = np.flatnonzero((fc.t_grid > 0.0) & (fc.t_grid + _DELTAS[0] < 1.0))
    ladders = {}
    worst_increase = 0.0
    for i in inside[:: max(1, inside.size // 8)].tolist():
        t = float(fc.t_grid[i])
        base = fc.psi[i] / (1.0 - t)
        resid = []
        for d in _DELTAS:
            ahead = _psi_row(fc.pair, t + d) / (1.0 - t - d)
            resid.append(float(np.abs(ahead - base).max()))
        for r_coarse, r_fine in zip(resid, resid[1:]):
            worst_increase = max(worst_increase, r_fine - r_coarse)
        ladders[t] = resid
    rates = [math.log2(r[0] / r[-1]) / (len(r) - 1)
             for r in ladders.values() if r[0] > 0 and r[-1] > 0]
    return VerificationReport(
        check="family-right-continuity",
        max_violation=worst_increase,
        grid={"deltas": list(_DELTAS), "t_values": list(ladders)},
        details={"residuals": ladders,
                 "fitted_decay": float(np.mean(rates)) if rates else 0.0})


def cayley_polytope(pair: ModelBundlePair) -> np.ndarray:
    """Gradient polygon of the fibered weight: tau-slope t in [0, 1], s-slope
    in [0, t d_A + (1-t) d_L]."""
    return np.array([[0.0, 0.0], [1.0, 0.0],
                     [1.0, float(pair.d_A)], [0.0, float(pair.d_L)]])


def fibered_weight(pair: ModelBundlePair, fc: FamilyCurve,
                   tau_grid) -> SampledWeight2D:
    """phi(tau, s) = max over the t-grid of t tau + (mixture envelope)(s).

    The t-grid must contain both endpoints so the tau -> +-inf asymptotics
    are represented, and ``fc`` must be the family curve of ``pair``.
    """
    if fc.pair is not pair:
        raise InvalidInputError("family curve was built on another pair")
    tau_grid = np.asarray(tau_grid, dtype=float)
    t = fc.t_grid
    if abs(t[0]) > 1e-12 or abs(t[-1] - 1.0) > 1e-12:
        raise InvalidParameterError("t-grid must include the endpoints 0 and 1")
    env = (t[:, None] * pair.phi_A.values + (1.0 - t)[:, None] * pair.phi_L.values
           + fc.psi)
    vals = np.empty((tau_grid.size, pair.grid.size))
    for i, tau in enumerate(tau_grid):
        vals[i] = (t[:, None] * tau + env).max(axis=0)
    return SampledWeight2D(tau_grid, pair.grid, vals, cayley_polytope(pair))


def naive_fibered_weight(pair: ModelBundlePair, tau_grid) -> SampledWeight2D:
    """The log-sum weight log(e^{tau + phi_A(s)} + e^{phi_L(s)})."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    vals = np.logaddexp(tau_grid[:, None] + pair.phi_A.values[None, :],
                        pair.phi_L.values[None, :])
    return SampledWeight2D(tau_grid, pair.grid, vals, cayley_polytope(pair))


def minimal_singularity_gap(pair: ModelBundlePair,
                            fw: SampledWeight2D) -> VerificationReport:
    """Envelope of the log-sum weight stays within C of the fibered weight.

    Builds phi_inf(tau, s) = log(e^{tau + phi_A} + e^{phi_L}) on the grids
    of ``fw``, takes its 2-d envelope, and verifies
    (phi_inf)_e <= phi + C with C = C1 + C2 + log 2, the chart-box
    constants over unit s-boxes, C1 across the 101-t reference family
    t phi_A + (1-t) phi_L - log(Gamma(1+t) Gamma(2-t) / K).
    """
    naive = naive_fibered_weight(pair, fw.grid_tau)
    if not np.array_equal(naive.grid_s, fw.grid_s):
        raise InvalidInputError("fibered weight must live on the pair grid")
    env = equilibrium_envelope_2d(naive)
    gap = float((env.values - fw.values).max())
    k = oracle_normalization()
    t = np.linspace(0.0, 1.0, 101)[:, None]
    gam = np.array([[math.log(math.gamma(1.0 + ti) * math.gamma(2.0 - ti) / k)]
                    for ti in t.ravel().tolist()])
    cc = _box_constants(
        pair.grid, lambda s: t * pair.phi_A(s) + (1.0 - t) * pair.phi_L(s) - gam,
        unit_boxes(pair.grid[0], pair.grid[-1]))
    c = cc.total + math.log(2.0)
    return VerificationReport(
        check="envelope-gap-bound",
        max_violation=gap - c,
        grid={"tau_points": int(fw.grid_tau.size),
              "s_points": int(fw.grid_s.size),
              "box_size": 1.0},
        details={"observed_gap": gap, "C": c, "C1": cc.c1, "C2": cc.c2, "K": k})
