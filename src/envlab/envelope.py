"""Equilibrium envelopes of 1-d sampled weights.

The envelope of u over a slope interval I is the largest convex function
below u whose derivative stays in I.  Two independent routes are provided:

* :func:`equilibrium_envelope` goes through Legendre duality.  The conjugate
  u* is assembled exactly as the upper envelope of the lines
  ``sigma -> sigma * s_i - u_i`` (convex-hull-trick stack over crossing
  points), and the back transform maximises ``sigma * s - u*(sigma)`` over
  the kinks of u* clipped to I.  Both steps are exact for sampled data, so
  the route carries no slope-discretization error.

* :func:`hull_envelope` builds the lower convex hull of the sampled graph
  by a monotone chain with cross-product predicates and then clamps the
  hull slopes to I.  It serves as the independent oracle.

Both stacks convert their inputs to lists of Python floats before the loop:
indexing a list is several times cheaper than pulling numpy scalars one at
a time, and a Python float is an IEEE double, so every comparison and
division gives the same bits as numpy float64 arithmetic.

Affine extrapolation tails never cut below either construction as long as
I sits inside [slope_left, slope_right], which is enforced.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NoEnvelopeError, UnboundedTransformError
from .weights import SampledWeight, SlopeInterval

__all__ = [
    "legendre_values",
    "legendre_transform",
    "equilibrium_envelope",
    "hull_envelope",
    "convexity_defect",
]


def legendre_values(w: SampledWeight, sigmas) -> np.ndarray:
    """Exact conjugate w*(sigma) = sup_s (sigma*s - u(s)) at given slopes.

    Finite exactly for sigma in [slope_left, slope_right]; outside that
    range the supremum diverges along an extrapolation tail.
    """
    sig = np.atleast_1d(np.asarray(sigmas, dtype=float))
    lo, hi = w.slope_left, w.slope_right
    if np.any(sig < lo - 1e-12) or np.any(sig > hi + 1e-12):
        raise UnboundedTransformError(
            f"slopes outside [{lo}, {hi}] make the transform infinite")
    # For admissible sigma the tails only decrease going outward, so the
    # supremum is attained at a grid point.
    out = np.empty(sig.size)
    chunk = max(1, int(2**22 // max(w.grid.size, 1)))
    for k in range(0, sig.size, chunk):
        block = sig[k:k + chunk, None] * w.grid[None, :] - w.values[None, :]
        out[k:k + chunk] = block.max(axis=1)
    return out if np.ndim(sigmas) else float(out[0])


def legendre_transform(w: SampledWeight, interval: SlopeInterval,
                       num: int | None = None) -> SampledWeight:
    """Sample the conjugate on a uniform slope grid over ``interval``."""
    if interval.width == 0.0:
        # Width-zero interval: the conjugate restricted to I is one number.
        sigma = interval.sigma_min
        v = legendre_values(w, sigma)
        g = np.array([sigma, sigma + 1e-9])
        return SampledWeight(g, np.array([v, v]), 0.0, 0.0)
    n = num if num is not None else min(w.grid.size, 1025)
    sig = np.linspace(interval.sigma_min, interval.sigma_max, n)
    vals = legendre_values(w, sig)
    # The conjugate's derivative is the maximising s, so the sampled s-range
    # bounds the output slopes.
    return SampledWeight(sig, vals, float(w.grid[0]), float(w.grid[-1]))


def _upper_line_envelope(slopes, intercepts):
    """Upper envelope of lines y = slopes[i]*x + intercepts[i].

    Slopes must be nondecreasing, with equal slopes ordered by increasing
    intercept.  Returns (kept indices, crossing points between consecutive
    kept lines).
    """
    slopes = np.asarray(slopes, dtype=float).tolist()
    intercepts = np.asarray(intercepts, dtype=float).tolist()
    keep: list[int] = []
    cross: list[float] = []
    for i in range(len(slopes)):
        while keep:
            j = keep[-1]
            if slopes[i] == slopes[j]:
                if intercepts[i] <= intercepts[j]:
                    break
                keep.pop()
                if cross:
                    cross.pop()
                continue
            x = (intercepts[j] - intercepts[i]) / (slopes[i] - slopes[j])
            if cross and x <= cross[-1]:
                keep.pop()
                cross.pop()
                continue
            keep.append(i)
            cross.append(x)
            break
        else:
            keep.append(i)
    return np.array(keep, dtype=int), np.array(cross, dtype=float)


def equilibrium_envelope(w: SampledWeight, interval: SlopeInterval) -> SampledWeight:
    """Largest convex minorant of u with derivative in ``interval``.

    Double Legendre transform with slope clamping; exact at the grid points.
    The returned weight carries the clamped slopes as its extrapolation
    slopes, so the envelope offset psi = u_e - u is <= 0 everywhere.
    """
    lo, hi = interval.sigma_min, interval.sigma_max
    if lo > hi:
        raise NoEnvelopeError("empty competitor class: empty slope interval")
    if lo < w.slope_left - 1e-12 or hi > w.slope_right + 1e-12:
        raise NoEnvelopeError(
            f"slope interval [{lo}, {hi}] not contained in "
            f"[{w.slope_left}, {w.slope_right}]")

    s, u = w.grid, w.values
    # Dual lines sigma -> s_i * sigma - u_i; their upper envelope is u*.
    keep, cross = _upper_line_envelope(s, -u)
    # Candidate slopes: interval endpoints plus kinks of u* inside I.
    inside = (cross > lo) & (cross < hi)
    cand = np.concatenate(([lo], cross[inside], [hi]))
    # Active line at each candidate (for kinks either neighbour works).
    pos = np.searchsorted(cross, cand, side="right")
    act = keep[np.minimum(pos, keep.size - 1)]
    ustar = cand * s[act] - u[act]
    # Back transform: the maximiser over sigma sits at a kink or endpoint,
    # and the optimal candidate index is monotone in s.
    act_s = s[act]
    idx = np.clip(np.searchsorted(act_s, s), 0, cand.size - 1)
    best = cand[idx] * s - ustar[idx]
    for off in (-1, 1):
        j = np.clip(idx + off, 0, cand.size - 1)
        best = np.maximum(best, cand[j] * s - ustar[j])
    env = np.minimum(best, u)
    return SampledWeight(s, env, lo, hi)


def _monotone_chain_lower(s, u):
    """Indices of the lower convex hull of the graph, collinear points kept."""
    s = np.asarray(s, dtype=float).tolist()
    u = np.asarray(u, dtype=float).tolist()
    hull: list[int] = []
    for i in range(len(s)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # pop only on a strictly concave turn, so affine runs survive
            cross = (s[b] - s[a]) * (u[i] - u[a]) - (s[i] - s[a]) * (u[b] - u[a])
            if cross < 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return np.array(hull, dtype=int)


def hull_envelope(w: SampledWeight, interval: SlopeInterval) -> SampledWeight:
    """Graph convex-hull oracle for :func:`equilibrium_envelope`."""
    lo, hi = interval.sigma_min, interval.sigma_max
    if lo > hi:
        raise NoEnvelopeError("empty competitor class: empty slope interval")
    if lo < w.slope_left - 1e-12 or hi > w.slope_right + 1e-12:
        raise NoEnvelopeError(
            f"slope interval [{lo}, {hi}] not contained in "
            f"[{w.slope_left}, {w.slope_right}]")
    s, u = w.grid, w.values
    h = _monotone_chain_lower(s, u)
    hs, hu = s[h], u[h]
    # Clamp hull slopes to [lo, hi]: outside the pinch vertices the envelope
    # follows the boundary slopes.
    ia = int(np.argmin(hu - lo * hs))
    ib = int(np.argmin(hu - hi * hs))
    env = np.interp(s, hs, hu)
    left = s <= hs[ia]
    env[left] = hu[ia] + lo * (s[left] - hs[ia])
    right = s >= hs[ib]
    env[right] = hu[ib] + hi * (s[right] - hs[ib])
    env = np.minimum(env, u)
    return SampledWeight(s, env, lo, hi)


def convexity_defect(w: SampledWeight) -> float:
    """Largest violation of discrete convexity.

    Returns the maximum over interior grid points of the negative part of
    twice the second divided difference (the discrete second derivative);
    zero exactly when the sampled values are convex.
    """
    s, u = w.grid, w.values
    if s.size < 3:
        raise InvalidInputError("convexity_defect needs at least 3 grid points")
    d1 = np.diff(u) / np.diff(s)
    second = 2.0 * np.diff(d1) / (s[2:] - s[:-2])
    return float(np.maximum(0.0, -second).max())
