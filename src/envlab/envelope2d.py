"""Constrained convex envelopes of 2-d sampled weights.

The envelope of u(tau, s) over a gradient polytope P is the double Legendre
transform restricted to P:

    u_e(x) = max over sigma in P of (sigma . x - u*(sigma)),
    u*(sigma) = max_i (sigma . x_i - u_i).

u* is convex and piecewise linear, so for each x the maximum over P sits at
a vertex of u*'s linearity cells cut by P (discrete Legendre transform,
Lucet 1997).  :func:`equilibrium_envelope_2d` collects every such vertex:

(a) gradients of the lower-hull facets of the lifted cloud (tau, s, u) that
    lie in P; they are the vertices of the cells (Qhull);
(b) kinks of u* along each edge of P, from the 1-d upper line envelope;
(c) the vertices of P.

u* is then evaluated exactly at every candidate slope, so each candidate
plane is a minorant of u at every node by construction.

The independent oracle :func:`hull_envelope_2d` evaluates the lower-hull
facet planes themselves and ignores P.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .envelope import _upper_line_envelope
from .errors import InvalidInputError
from .weights import SampledWeight2D

__all__ = [
    "equilibrium_envelope_2d",
    "hull_envelope_2d",
    "grid_line_defects",
]


def _node_arrays(w: SampledWeight2D):
    """Grid nodes as (n, 2) rows (tau, s) and the values u at them."""
    tt, ss = np.meshgrid(w.grid_tau, w.grid_s, indexing="ij")
    return np.stack([tt.ravel(), ss.ravel()], axis=1), w.values.ravel()


def _lower_facet_planes(nodes, uu):
    """Gradients (k, 2) and offsets (k,) of the lower-hull facet planes."""
    try:
        eqs = ConvexHull(np.column_stack([nodes, uu]), qhull_options="Qt").equations
    except QhullError as exc:
        if "QH6154" not in str(exc):
            raise InvalidInputError(f"Qhull failed on the lifted grid: {exc}") from exc
        # Flat initial simplex.  The grid has at least two points per axis,
        # so a coplanar lifted cloud means u is affine: one plane.
        coef = np.linalg.lstsq(np.column_stack([nodes, np.ones_like(uu)]), uu,
                               rcond=None)[0]
        return coef[None, :2], coef[2:]
    lower = eqs[eqs[:, 2] < -1e-12]
    return -lower[:, :2] / lower[:, 2:3], -lower[:, 3] / lower[:, 2]


def _max_of_planes(grad, offset, pts):
    """max_k (grad_k . p + offset_k) at every row p of ``pts``, chunked."""
    out = np.full(pts.shape[0], -np.inf)
    chunk = max(1, int(2**23 // pts.shape[0]))
    for k in range(0, offset.size, chunk):
        block = grad[k:k + chunk] @ pts.T
        block += offset[k:k + chunk, None]
        out = np.maximum(out, block.max(axis=0))
    return out


def _in_polygon(pts, poly):
    """Rows of ``pts`` inside the closed CCW polygon ``poly`` (m >= 3)."""
    d = np.roll(poly, -1, axis=0) - poly
    rel = pts[:, None, :] - poly[None, :, :]
    cross = d[None, :, 0] * rel[:, :, 1] - d[None, :, 1] * rel[:, :, 0]
    return np.all(cross >= 0.0, axis=1)


def _edge_kinks(p, q, nodes, uu):
    """Kinks of u* on the open edge (p, q), as slope pairs.

    Along sigma = p + lam (q - p) the conjugate is the upper envelope of
    the lines lam -> (d . x_i) lam + (p . x_i - u_i).
    """
    d = q - p
    slope = nodes @ d
    icpt = nodes @ p - uu
    order = np.lexsort((icpt, slope))
    _, cross = _upper_line_envelope(slope[order], icpt[order])
    lam = cross[(cross > 0.0) & (cross < 1.0)]
    return p + lam[:, None] * d


def equilibrium_envelope_2d(w: SampledWeight2D) -> SampledWeight2D:
    """Largest convex minorant of u with gradient in ``w.slope_polytope``.

    Exact at the grid nodes; the result is below the input and convex
    along every grid line.
    """
    nodes, uu = _node_arrays(w)
    poly = w.slope_polytope
    cand = [poly]
    if poly.shape[0] >= 3:
        # a segment or point P has no interior, so (b) and (c) suffice
        grad, _ = _lower_facet_planes(nodes, uu)
        cand.append(grad[_in_polygon(grad, poly)])
        edges = zip(poly, np.roll(poly, -1, axis=0))
    else:
        edges = zip(poly[:-1], poly[1:])
    cand += [_edge_kinks(p, q, nodes, uu) for p, q in edges]
    cand = np.unique(np.concatenate(cand), axis=0)
    ustar = _max_of_planes(nodes, -uu, cand)
    env = _max_of_planes(cand, -ustar, nodes)
    return w.with_values(np.minimum(env, uu).reshape(w.values.shape))


def hull_envelope_2d(w: SampledWeight2D) -> np.ndarray:
    """Lower convex hull of the lifted grid cloud, evaluated at the nodes.

    Gradient constraints are ignored, so this is an oracle for inputs whose
    envelope gradients stay inside the polytope.
    """
    nodes, uu = _node_arrays(w)
    grad, offset = _lower_facet_planes(nodes, uu)
    # each lower facet plane supports the hull from below, so the hull
    # function is the max of the facet planes
    out = _max_of_planes(grad, offset, nodes)
    return np.minimum(out, uu).reshape(w.values.shape)


def grid_line_defects(values, grid_tau, grid_s) -> float:
    """Worst discrete-convexity violation along grid rows and columns."""
    u = np.asarray(values, dtype=float)
    worst = 0.0
    dt = np.diff(grid_tau)
    d1 = np.diff(u, axis=0) / dt[:, None]
    if d1.shape[0] >= 2:
        second = 2.0 * np.diff(d1, axis=0) / (grid_tau[2:] - grid_tau[:-2])[:, None]
        worst = max(worst, float(np.maximum(0.0, -second).max()))
    ds = np.diff(grid_s)
    d1 = np.diff(u, axis=1) / ds[None, :]
    if d1.shape[1] >= 2:
        second = 2.0 * np.diff(d1, axis=1) / (grid_s[2:] - grid_s[:-2])[None, :]
        worst = max(worst, float(np.maximum(0.0, -second).max()))
    return worst
