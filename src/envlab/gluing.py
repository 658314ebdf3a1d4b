"""Regularized max and two-chart gluing on a Hirzebruch-style model.

The regularized max is the double mollification

    M_eps(x, y) = integral of max(x + eps h1, y + eps h2) theta(h1) theta(h2)

with theta a fixed smooth even probability bump on [-1, 1].  It squeezes
between max and max + eps, is convex and nondecreasing in each argument,
and agrees with the plain max as soon as |x - y| >= 2 eps, which is what
lets two weights defined on overlapping charts be spliced into one smooth
weight: wherever one chart's weight dominates by 2 eps the splice returns
it bit for bit, and the transition zone stays convex because M_eps is
convex and monotone in each slot.

With the bump sampled at Gauss nodes h_i with weights w_i, the identity
max(d + eps h_i, eps h_j) = eps h_j + (d + eps (h_i - h_j))_+ turns the
double sum into

    M_eps(x, y) = y + eps sum_j w_j h_j + E[(d + eps Z)_+],   d = x - y,

where Z = h_i - h_j takes its NODES^2 values with weights w_i w_j.  The
atoms of Z are sorted once and their tail sums of p and p z cached, so
E[(d + eps Z)_+] = d P_tail + eps Z_tail over the atoms with z > -d / eps
costs one binary search per point.

The demo glues an ambient weight of the form (convex in s) + k tau, the
log-norm term of a section cutting out a degree -k divisor at tau -> -inf,
against the fibered envelope weight built by the family module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .envelope2d import grid_line_defects
from .errors import EnvlabError, GluingError, InvalidInputError, InvalidParameterError
from .family import ModelBundlePair, family_curve, fibered_weight
from .report import VerificationReport
from .weights import SampledWeight, SampledWeight2D, _convex_hull, _is_number

__all__ = [
    "RegularizedMaxKernel",
    "GlueRegion",
    "regularized_max",
    "glue_weights",
    "hirzebruch_demo",
]


#: Gauss-Legendre nodes sampling the bump theta
NODES = 48


@dataclass(frozen=True)
class RegularizedMaxKernel:
    """Smoothing scale for the regularized max."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0.0) or not math.isfinite(self.epsilon):
            raise InvalidParameterError(f"epsilon must be positive, got {self.epsilon}")


@cache
def _difference_atoms():
    """Atoms of Z = h_i - h_j (weights w_i w_j) sorted, with tail sums; h_i
    and w_i are the Gauss-Legendre samples of the bump exp(-1/(1-h^2)),
    normalized.

    Returns ``(z, p_tail, zp_tail, mean_h)``: ``z`` ascending, and
    ``p_tail[k]``, ``zp_tail[k]`` the sums of p and p z over atoms k, k+1,
    ...; both tails end in a zero for the empty tail.  ``mean_h`` is
    sum_j w_j h_j.  The arrays are read-only because the cache shares them.
    """
    h, wq = np.polynomial.legendre.leggauss(NODES)
    w = wq * np.exp(-1.0 / (1.0 - h * h))
    w /= w.sum()
    z = (h[:, None] - h[None, :]).ravel()
    p = (w[:, None] * w[None, :]).ravel()
    order = np.argsort(z, kind="stable")
    z, p = z[order], p[order]
    p_tail = np.append(np.cumsum(p[::-1])[::-1], 0.0)
    zp_tail = np.append(np.cumsum((p * z)[::-1])[::-1], 0.0)
    for a in (z, p_tail, zp_tail):
        a.flags.writeable = False
    return z, p_tail, zp_tail, float(w @ h)


def regularized_max(k: RegularizedMaxKernel, x, y):
    """Smoothed maximum M_eps(x, y); accepts scalars or same-shape arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.broadcast_arrays(x, y)
    eps = k.epsilon
    # translation equivariance reduces to a one-variable profile in x - y
    delta = (x - y).ravel()
    out = np.maximum(x, y).ravel()
    # the mollified sum equals the plain max once |x - y| >= 2 eps; the
    # direct branch keeps that clause bit-exact
    mix = np.flatnonzero(np.abs(delta) < 2.0 * eps)
    if mix.size:
        z, p_tail, zp_tail, mean_h = _difference_atoms()
        d = delta[mix]
        # the atoms with d + eps z > 0 are the tail past -d / eps
        tail = np.searchsorted(z, -d / eps, side="right")
        out[mix] = y.ravel()[mix] + (d * p_tail[tail]
                                     + eps * (mean_h + zp_tail[tail]))
    out = out.reshape(x.shape)
    return float(out) if scalar else out


@dataclass(frozen=True)
class GlueRegion:
    """Transition annulus in the log-radius coordinate tau."""

    tau_boundary_inner: float
    tau_boundary_outer: float

    def __post_init__(self):
        if not self.tau_boundary_inner < self.tau_boundary_outer:
            raise InvalidInputError(
                "glue region needs tau_boundary_inner < tau_boundary_outer, got "
                f"[{self.tau_boundary_inner}, {self.tau_boundary_outer}]")


def glue_weights(outer: SampledWeight2D, inner: SampledWeight2D,
                 region: GlueRegion, k: RegularizedMaxKernel) -> SampledWeight2D:
    """Splice two chart weights: outer kept verbatim for tau past the outer
    boundary, regularized max below it.

    Requires outer >= inner + 2 eps on the transition annulus so that the
    splice is seamless; the worst offending grid point is reported when
    the margin fails.
    """
    if not (np.array_equal(outer.grid_tau, inner.grid_tau)
            and np.array_equal(outer.grid_s, inner.grid_s)):
        raise InvalidInputError("outer and inner weights must share their grids")
    tau = outer.grid_tau
    annulus = (tau > region.tau_boundary_inner) & (tau < region.tau_boundary_outer)
    margin = outer.values[annulus] - inner.values[annulus] - 2.0 * k.epsilon
    if margin.size and margin.min() < -1e-12:
        i_flat = int(np.argmin(margin))
        i_tau = np.nonzero(annulus)[0][i_flat // outer.grid_s.size]
        i_s = i_flat % outer.grid_s.size
        worst = (float(tau[i_tau]), float(outer.grid_s[i_s]))
        raise GluingError(
            "outer weight fails to dominate inner + 2*epsilon on the annulus; "
            f"worst margin {margin.min():.6g} at (tau, s) = {worst}",
            worst_point=worst)
    keep = tau >= region.tau_boundary_outer
    values = np.empty_like(outer.values)
    values[keep] = outer.values[keep]
    values[~keep] = regularized_max(k, outer.values[~keep], inner.values[~keep])
    hull = _convex_hull(np.vstack([outer.slope_polytope, inner.slope_polytope]))
    return SampledWeight2D(tau, outer.grid_s, values, hull)


def _bump(s):
    """The glue demo's Gaussian bump on phi_L: height 0.75 at s = 1, width 1."""
    return 0.75 * np.exp(-(s - 1.0) ** 2 / 2.0)


#: the glue demo's config; a caller's config overrides any of these keys
DEMO_CONFIG = {"k": 3, "d_A": 1, "d_L": 0, "grid": 128, "epsilon": 0.25}
#: the largest config grid: the demo holds several (grid, grid) float arrays
#: at once, and one of them is 32 MB at 2048
GRID_MAX = 2048

GLUING_TOL = 1e-9


def _config_number(config, key, kind):
    """``config[key]`` as ``kind`` (int or float), or a typed config error.
    Booleans and strings are not numbers, nor are NaN, the infinities and
    integers beyond the float range, and an int key takes integral values
    only."""
    value = config[key]
    try:
        finite = _is_number(value) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise InvalidParameterError(
            f"config {key} must be a finite number, got {value!r}")
    number = kind(value)
    if kind is int and number != value:
        raise InvalidParameterError(f"config {key} must be an integer, got {value!r}")
    return number


def hirzebruch_demo(config) -> tuple[VerificationReport, dict]:
    """End-to-end gluing run on the ruled-surface model.

    ``config`` overrides keys of :data:`DEMO_CONFIG`: k (positive twist of
    the ambient log-norm term), d_A, d_L (divisor degrees), grid (points
    per axis, 2 to :data:`GRID_MAX`), epsilon; any other key fails the
    config stage.
    Returns the verification report and the glued, outer and inner
    weights keyed by those names.
    """
    stage = "config"
    try:
        unknown = sorted(set(config) - set(DEMO_CONFIG))
        if unknown:
            raise InvalidParameterError(
                f"unknown config keys {unknown}; allowed: " + ", ".join(DEMO_CONFIG))
        config = {**DEMO_CONFIG, **config}
        k_twist = _config_number(config, "k", int)
        d_A = _config_number(config, "d_A", int)
        d_L = _config_number(config, "d_L", int)
        n = _config_number(config, "grid", int)
        eps = _config_number(config, "epsilon", float)
        if k_twist < 1:
            raise InvalidParameterError(f"twist k must be >= 1, got {k_twist}")
        if n < 2:
            raise InvalidParameterError(f"grid must be >= 2, got {n}")
        if n > GRID_MAX:
            raise InvalidParameterError(f"grid must be <= {GRID_MAX}, got {n}")

        stage = "pair"
        s_grid = np.linspace(-20.0, 20.0, n)
        phi_A = SampledWeight(
            s_grid,
            d_A * np.log1p(np.exp(-np.abs(s_grid))) + d_A * np.maximum(s_grid, 0.0),
            0.0, float(d_A))
        phi_L = SampledWeight(
            s_grid,
            d_L * np.log1p(np.exp(-np.abs(s_grid))) + d_L * np.maximum(s_grid, 0.0)
            + _bump(s_grid),
            0.0, float(d_L))
        pair = ModelBundlePair(phi_A, d_A, phi_L, d_L)

        stage = "family"
        tau_grid = np.linspace(-30.0, 10.0, n)
        inner = fibered_weight(pair, family_curve(pair), tau_grid)

        stage = "outer"
        outer_vals = k_twist * tau_grid[:, None] + phi_A.values[None, :]
        outer = SampledWeight2D(tau_grid, s_grid, outer_vals,
                                np.array([[float(k_twist), 0.0],
                                          [float(k_twist), float(d_A)]]))

        stage = "normalize"
        region = GlueRegion(-2.0, 0.0)
        annulus = (tau_grid > region.tau_boundary_inner) \
            & (tau_grid < region.tau_boundary_outer)
        if not annulus.any():
            raise InvalidParameterError(
                f"glue annulus ({region.tau_boundary_inner}, "
                f"{region.tau_boundary_outer}) holds no tau node at grid={n}; "
                "raise grid")
        margin = (outer.values[annulus] - inner.values[annulus]).min()
        shift = max(0.0, 2.0 * eps - margin + 1e-9)
        outer = SampledWeight2D(tau_grid, s_grid, outer.values + shift,
                                outer.slope_polytope)

        stage = "glue"
        kernel = RegularizedMaxKernel(eps)
        glued = glue_weights(outer, inner, region, kernel)

        stage = "verify"
        defect = grid_line_defects(glued.values, tau_grid, s_grid)
        keep = tau_grid >= region.tau_boundary_outer
        outer_exact = bool(np.array_equal(glued.values[keep], outer.values[keep]))
        second = np.abs(np.diff(glued.values, n=2, axis=0)).max() \
            + np.abs(np.diff(glued.values, n=2, axis=1)).max()
        report = VerificationReport(
            check="hirzebruch-gluing",
            max_violation=defect if outer_exact else math.inf,
            tolerance=GLUING_TOL,
            grid={"tau_points": n, "s_points": n},
            details={"k": k_twist, "d_A": d_A, "d_L": d_L, "epsilon": eps,
                     "normalization_shift": shift,
                     "line_convexity_defect": defect,
                     "outer_region_exact": outer_exact,
                     "max_second_difference": float(second)})
    except EnvlabError as exc:
        raise GluingError(f"stage '{stage}' failed: {exc}",
                          worst_point=getattr(exc, "worst_point", None)) from exc
    return report, {"glued": glued, "outer": outer, "inner": inner}
