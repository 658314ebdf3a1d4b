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
plane is a minorant of u at every node by construction.  The evaluation
separates the axes, the 2-d step of Lucet's linear-time Legendre
transform (Lucet 1997, Numerical Algorithms 16):

    u*(sigma) = max_j (sigma_2 s_j + c_j(sigma_1)),
    c_j(sigma_1) = max_i (sigma_1 tau_i - u_ij),

where each c_j is the 1-d conjugate of grid column j, read off its upper
line envelope by the same lookup the 1-d envelope uses, so u* costs one
line-envelope pass per column and one binary search per candidate and
column instead of a plane maximum over every node.  With the axes swapped
the same holds row by row; the loop runs over whichever axis has fewer
nodes.

The back transform is localized.  A lower-hull facet whose gradient lies in
P carries a plane that is an admissible competitor (affine, gradient in P,
below u at every node) and touches u at the facet's vertices, so the
envelope equals u at those nodes exactly; only the remaining nodes take the
maximum over every candidate plane.

The independent oracle :func:`hull_envelope_2d` evaluates the lower-hull
facet planes themselves and ignores P.

scipy is imported on first use, by the Qhull call that both routes share,
so importing this module (and the CLI commands that never reach a 2-d
envelope) costs numpy time only.
"""

from __future__ import annotations

import numpy as np

from .envelope import (_conjugate_1d, _second_difference_defect,
                       _upper_line_envelope)
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


def _max_of_planes(grad, offset, pts):
    """max_k (grad_k . p + offset_k) at every row p of ``pts``.

    One matrix product per chunk of planes, with the offset carried as a
    third coordinate against a row of ones; chunks of about 1 MB are
    reduced while they are still in cache.
    """
    out = np.full(pts.shape[0], -np.inf)
    planes = np.column_stack([grad, offset])
    lifted = np.vstack([pts.T, np.ones(pts.shape[0])])
    chunk = max(1, 2**17 // max(pts.shape[0], 1))
    for k in range(0, offset.size, chunk):
        np.maximum(out, (planes[k:k + chunk] @ lifted).max(axis=0), out=out)
    return out


def _conjugate(w: SampledWeight2D, sigmas):
    """u*(sigma) at every row of ``sigmas``, one grid line at a time.

    u*(sigma) = max_j (sigma_2 s_j + c_j(sigma_1)), where c_j is the exact
    1-d conjugate of column j over tau: the upper envelope of the lines
    sigma_1 -> tau_i sigma_1 - u_ij, read off by one binary search.  The
    roles of the axes swap when tau has fewer nodes than s, so the loop
    runs over the shorter axis (columns on a tie).
    """
    grid_in, grid_out, values = w.grid_tau, w.grid_s, w.values
    sig_in, sig_out = sigmas[:, 0], sigmas[:, 1]
    if w.grid_tau.size < w.grid_s.size:
        grid_in, grid_out, values = w.grid_s, w.grid_tau, w.values.T
        sig_in, sig_out = sig_out, sig_in
    out = np.full(sig_in.size, -np.inf)
    for j, x in enumerate(grid_out.tolist()):
        c = _conjugate_1d(grid_in, values[:, j], sig_in)[0]
        np.maximum(out, c + sig_out * x, out=out)
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


def _candidates(poly, nodes, uu):
    """Candidate slopes (a)-(c), and the nodes where the envelope is u."""
    cand = [poly]
    exact = np.zeros(uu.size, dtype=bool)
    if poly.shape[0] >= 3:
        # a segment or point P has no interior, so (b) and (c) suffice
        grad, _, simplices = _lower_facet_planes(nodes, uu)
        inside = _in_polygon(grad, poly)
        cand.append(grad[inside])
        # an in-P facet plane is an admissible minorant touching u at the
        # facet's vertices
        exact[simplices[inside].ravel()] = True
        edges = zip(poly, np.roll(poly, -1, axis=0))
    else:
        edges = zip(poly[:-1], poly[1:])
    cand += [_edge_kinks(p, q, nodes, uu) for p, q in edges]
    return np.unique(np.concatenate(cand), axis=0), exact


def equilibrium_envelope_2d(w: SampledWeight2D) -> SampledWeight2D:
    """Largest convex minorant of u with gradient in ``w.slope_polytope``.

    Exact at the grid nodes; the result is below the input and convex
    along every grid line.
    """
    nodes, uu = _node_arrays(w)
    cand, exact = _candidates(w.slope_polytope, nodes, uu)
    rest = ~exact
    env = uu.copy()
    back = _max_of_planes(cand, -_conjugate(w, cand), nodes[rest])
    env[rest] = np.minimum(back, uu[rest])
    return w.with_values(env.reshape(w.values.shape))


def hull_envelope_2d(w: SampledWeight2D) -> np.ndarray:
    """Lower convex hull of the lifted grid cloud, evaluated at the nodes.

    Gradient constraints are ignored, so this is an oracle for inputs whose
    envelope gradients stay inside the polytope.
    """
    nodes, uu = _node_arrays(w)
    grad, offset, _ = _lower_facet_planes(nodes, uu)
    # each lower facet plane supports the hull from below, so the hull
    # function is the max of the facet planes
    out = _max_of_planes(grad, offset, nodes)
    return np.minimum(out, uu).reshape(w.values.shape)


def grid_line_defects(values, grid_tau, grid_s) -> float:
    """Worst discrete-convexity violation along grid rows and columns."""
    u = np.asarray(values, dtype=float)
    return max(0.0, _second_difference_defect(u, grid_tau),
               _second_difference_defect(u.T, grid_s))
