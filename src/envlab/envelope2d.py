"""Constrained convex envelopes of 2-d sampled weights.

The envelope of u(tau, s) over a gradient polytope P is the double Legendre
transform restricted to P:

    u_e(x) = max over sigma in P of (sigma . x - u*(sigma)),
    u*(sigma) = max_i (sigma . x_i - u_i).

u* is convex and piecewise linear, so for each x the maximum over P sits at
a vertex of u*'s linearity cells cut by P (discrete Legendre transform,
Lucet 1997).  Those vertices are

(a) gradients of the lower-hull facets of the lifted cloud (tau, s, u) that
    lie in P; they are the vertices of the cells (Qhull);
(b) kinks of u* along each edge of P;
(c) the vertices of P.

:func:`equilibrium_envelope_2d` needs u* at (b) and (c) only.  A facet with
gradient in P carries a plane that is an admissible competitor (affine,
gradient in P, below u at every node), and the unconstrained lower hull,
an upper bound for the envelope, equals that plane over the facet's
projected triangle.  So every node inside or on such a triangle takes the
facet's plane, and its vertices take u exactly; the triangles are scanned
row by row over the grid.  At every other node no maximiser lies at an
(a) slope, since a maximiser there would put the node in that facet's
triangle, so the maximum over the boundary of P is exact.

That maximum is taken one edge [p, q] at a time.  With d = q - p and
sigma = p + lam d,

    sigma . x - u*(sigma) = p . x + lam (d . x) - v*(lam),
    v*(lam) = max_i (lam (d . x_i) - (u_i - p . x_i)),

so the edge's maximum at a node is p . x plus the 1-d back transform over
lam in [0, 1] of the projected cloud (d . x_i, u_i - p . x_i) at the
node's own point: the per-edge search of Lucet 1997, by the 1-d
envelope's kernel ``envelope._back_transform``.  A segment P is walked
both ways and a point P is one edge of length zero, so one loop over the
edges serves every shape of P.  Near 1e308 the projections overflow, and
the result check reports that as one typed error.

scipy is imported on first use, by the Qhull call, so importing this
module (and the CLI commands that never reach a 2-d envelope) costs numpy
time only.
"""

from __future__ import annotations

import numpy as np

from .envelope import _back_transform, _finite, _second_difference_defect
from .errors import InvalidInputError
from .weights import SampledWeight2D

__all__ = [
    "equilibrium_envelope_2d",
    "grid_line_defects",
]


def _node_arrays(w: SampledWeight2D):
    """Grid nodes as (n, 2) rows (tau, s) and the values u at them."""
    tt, ss = np.meshgrid(w.grid_tau, w.grid_s, indexing="ij")
    return np.stack([tt.ravel(), ss.ravel()], axis=1), w.values.ravel()


def _lower_facet_planes(nodes, uu):
    """Gradients (k, 2), offsets (k,) and node indices (k, m) of the
    lower-hull facets."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(np.column_stack([nodes, uu]), qhull_options="Qt")
    except QhullError as exc:
        if "QH6154" not in str(exc):
            raise InvalidInputError(f"Qhull failed on the lifted grid: {exc}") from exc
        # Flat initial simplex.  The grid has at least two points per axis,
        # so a coplanar lifted cloud means u is affine: one plane through
        # every node.
        coef = np.linalg.lstsq(np.column_stack([nodes, np.ones_like(uu)]), uu,
                               rcond=None)[0]
        return coef[None, :2], coef[2:], np.arange(uu.size)[None, :]
    is_lower = hull.equations[:, 2] < -1e-12
    lower = hull.equations[is_lower]
    return (-lower[:, :2] / lower[:, 2:3], -lower[:, 3] / lower[:, 2],
            hull.simplices[is_lower])


def _in_polygon(pts, poly):
    """Rows of ``pts`` inside the closed CCW polygon ``poly`` (m >= 3)."""
    d = np.roll(poly, -1, axis=0) - poly
    rel = pts[:, None, :] - poly[None, :, :]
    cross = d[None, :, 0] * rel[:, :, 1] - d[None, :, 1] * rel[:, :, 0]
    return np.all(cross >= 0.0, axis=1)


def _edge_back_transform(p, q, nodes, uu):
    """max over sigma on the edge [p, q] of sigma . x - u*(sigma), at every
    node x: the 1-d back transform over [0, 1] of the projected cloud
    (d . x_i, u_i - p . x_i), d = q - p, plus p . x."""
    base = nodes @ p
    s, u = nodes @ (q - p), uu - base
    # by d . x, equal ones by decreasing u, as the kernel takes them
    order = np.lexsort((-u, s))
    back = np.empty_like(s)
    back[order] = _back_transform(s[order], u[order], 0.0, 1.0)
    return base + back


def _facet_cover(w: SampledWeight2D, grad, offset, tri):
    """Largest plane grad_k . x + offset_k among the projected triangles
    ``tri`` (k, 3 flat node indices) that cover each node; -inf at a node
    no triangle covers.

    Each triangle is scanned row by row in (tau, s) coordinates: on grid
    row tau_i its s-range runs from the long edge (lowest to highest tau
    vertex) to the edge through the middle vertex.  The range is widened
    by 1e-12 of the s-span, so rounding never drops a node; a node only
    the widening adds takes another in-P plane, a minorant there too.
    """
    gt, gs = w.grid_tau, w.grid_s
    i, j = np.divmod(tri, gs.size)
    # a triangle inside one grid cell covers no node but its vertices; one
    # with every vertex on one row has no area, and the other triangles of
    # its facet cover that row
    rows = np.ptp(i, axis=1)
    wide = (rows > 1) | ((rows == 1) & (np.ptp(j, axis=1) > 1))
    order = np.argsort(i[wide], axis=1)
    i = np.take_along_axis(i[wide], order, axis=1)
    j = np.take_along_axis(j[wide], order, axis=1)
    grad, offset = grad[wide], offset[wide]
    # one (triangle, row) pair per grid row from the lowest vertex up
    rows = rows[wide] + 1
    k = np.repeat(np.arange(rows.size), rows)
    r = np.arange(k.size) - np.repeat(np.cumsum(rows) - rows - i[:, 0], rows)
    tau = gt[r]
    (t0, t1, t2), (s0, s1, s2) = gt[i[k]].T, gs[j[k]].T
    long = s0 + (s2 - s0) * ((tau - t0) / (t2 - t0))
    # below the middle vertex the edge v0 v1 (all of it when it is flat),
    # above it the edge v1 v2
    lam01 = np.divide(tau - t0, t1 - t0, out=np.ones_like(tau), where=t1 > t0)
    lam12 = np.divide(tau - t1, t2 - t1, out=np.zeros_like(tau), where=t2 > t1)
    short = np.where(tau <= t1, s0 + (s1 - s0) * lam01, s1 + (s2 - s1) * lam12)
    pad = 1e-12 * (gs[-1] - gs[0])
    lo = np.searchsorted(gs, np.minimum(long, short) - pad)
    n = np.searchsorted(gs, np.maximum(long, short) + pad, side="right") - lo
    k, r = np.repeat(k, n), np.repeat(r, n)
    col = np.arange(k.size) - np.repeat(np.cumsum(n) - n - lo, n)
    out = np.full(gt.size * gs.size, -np.inf)
    np.maximum.at(out, r * gs.size + col,
                  grad[k, 0] * gt[r] + grad[k, 1] * gs[col] + offset[k])
    return out


def equilibrium_envelope_2d(w: SampledWeight2D) -> SampledWeight2D:
    """Largest convex minorant of u with gradient in ``w.slope_polytope``.

    Exact at the grid nodes; the result is below the input and convex
    along every grid line.
    """
    nodes, uu = _node_arrays(w)
    poly = w.slope_polytope
    env = uu.copy()
    rest = np.ones(uu.size, dtype=bool)
    # a segment or point P has no interior: every node goes to its edges
    if poly.shape[0] >= 3:
        grad, offset, simplices = _lower_facet_planes(nodes, uu)
        inside = _in_polygon(grad, poly)
        if simplices.shape[1] == 3:
            # (the affine fallback's one plane has every node as a vertex)
            env = np.minimum(_facet_cover(w, grad[inside], offset[inside],
                                          simplices[inside]), uu)
            rest = env == -np.inf
        # an in-P facet plane touches u at the facet's vertices
        exact = simplices[inside].ravel()
        env[exact] = uu[exact]
        rest[exact] = False
    back = np.full(uu.size, -np.inf)
    # near 1e308 the projections overflow; the check below reports it once
    with np.errstate(over="ignore", invalid="ignore"):
        for p, q in zip(poly, np.roll(poly, -1, axis=0)):
            np.maximum(back, _edge_back_transform(p, q, nodes, uu), out=back)
    env[rest] = np.minimum(back[rest], uu[rest])
    return w.with_values(_finite(env).reshape(w.values.shape))


def grid_line_defects(values, grid_tau, grid_s) -> float:
    """Worst discrete-convexity violation along grid rows and columns."""
    u = np.asarray(values, dtype=float)
    return max(0.0, _second_difference_defect(u, grid_tau),
               _second_difference_defect(u.T, grid_s))
