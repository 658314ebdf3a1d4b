import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from envlab import (InvalidInputError, SampledWeight2D,
                    equilibrium_envelope_2d, grid_line_defects,
                    naive_fibered_weight)
from envlab.envelope2d import (_edge_back_transform, _in_polygon,
                               _lower_facet_planes, _node_arrays)
from conftest import _stack_line_envelope, model_pair

BOX = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def _grid2d(n=48, span=4.0):
    t = np.linspace(-span, span, n)
    s = np.linspace(-span, span, n)
    return t, s, np.meshgrid(t, s, indexing="ij")


def _max_of_planes(grad, offset, pts):
    """max_k (grad_k . p + offset_k) at every row p of ``pts``, one matrix
    product per chunk of planes."""
    out = np.full(pts.shape[0], -np.inf)
    planes = np.column_stack([grad, offset])
    lifted = np.vstack([pts.T, np.ones(pts.shape[0])])
    chunk = max(1, 2**17 // max(pts.shape[0], 1))
    for k in range(0, offset.size, chunk):
        np.maximum(out, (planes[k:k + chunk] @ lifted).max(axis=0), out=out)
    return out


def hull_envelope_2d(w):
    """Oracle: the lower convex hull of the lifted grid cloud at the nodes,
    the max of its facet planes.  It ignores P, so it is the envelope only
    where the gradient constraints do not bind."""
    nodes, uu = _node_arrays(w)
    grad, offset, _ = _lower_facet_planes(nodes, uu)
    return np.minimum(_max_of_planes(grad, offset, nodes),
                      uu).reshape(w.values.shape)


def _lp_envelope(w, nodes):
    """Independent oracle: one linear program per node over every node row.

    The unknowns are convex weights mu on the vertices of P and the offset
    alpha; the plane (sum_k mu_k v_k) . x + alpha must stay below u at every
    node, and its value at the target node is maximised.
    """
    tt, ss = np.meshgrid(w.grid_tau, w.grid_s, indexing="ij")
    x = np.stack([tt.ravel(), ss.ravel()], axis=1)
    verts = w.slope_polytope
    m = verts.shape[0]
    rows = np.hstack([x @ verts.T, np.ones((x.shape[0], 1))])
    a_eq = np.append(np.ones(m), 0.0)[None, :]
    out = []
    for v in nodes:
        res = linprog(c=-rows[v], A_ub=rows, b_ub=w.values.ravel(),
                      A_eq=a_eq, b_eq=[1.0],
                      bounds=[(0.0, None)] * m + [(None, None)], method="highs")
        assert res.success, res.message
        out.append(-res.fun)
    return np.array(out)


def test_convex_fixed_point():
    t, s, (tt, ss) = _grid2d()
    vals = np.maximum(0.1 * (tt ** 2 + ss ** 2),
                      0.45 * (np.abs(tt) + np.abs(ss)) - 1.0)  # kinked, convex
    # gradient range of this function sits inside [-1,1]^2
    w = SampledWeight2D(t, s, vals, BOX)
    env = equilibrium_envelope_2d(w)
    assert np.abs(env.values - vals).max() <= 1e-9


def test_matches_hull_oracle_on_bumpy_weight(rng):
    t, s, (tt, ss) = _grid2d()
    vals = 0.25 * (tt ** 2 + ss ** 2) \
        + 1.5 * np.exp(-((tt - 1) ** 2 + ss ** 2)) \
        - 0.8 * np.exp(-2 * ((tt + 1) ** 2 + (ss - 1) ** 2))
    w = SampledWeight2D(t, s, vals, 3.0 * BOX)
    env = equilibrium_envelope_2d(w)
    oracle = hull_envelope_2d(w)
    assert np.abs(env.values - oracle).max() <= 1e-6
    assert (env.values - vals).max() <= 1e-10


def test_slope_constraint_binds():
    t, s, (tt, ss) = _grid2d(n=32, span=2.0)
    vals = tt ** 2 + ss ** 2
    w = SampledWeight2D(t, s, vals, 0.5 * BOX)
    env = equilibrium_envelope_2d(w)
    # constrained envelope must flatten the steep outer region
    assert env.values.max() < vals.max() - 0.5
    assert grid_line_defects(env.values, t, s) <= 1e-9


def test_singleton_polytope_gives_affine_envelope():
    t, s, (tt, ss) = _grid2d(n=24, span=2.0)
    vals = np.abs(tt) + np.abs(ss)
    w = SampledWeight2D(t, s, vals, np.array([[0.0, 0.0]]))
    env = equilibrium_envelope_2d(w)
    assert np.abs(env.values - vals.min()).max() <= 1e-9


def _tiny_box_paraboloid():
    t, s, (tt, ss) = _grid2d(n=32, span=2.0)
    return SampledWeight2D(t, s, tt ** 2 + ss ** 2, 0.5 * BOX)


def _naive_on_small_trapezoid():
    pair = model_pair(n=24, d_A=2, d_L=1)
    return naive_fibered_weight(pair, np.linspace(-30.0, 10.0, 24))


@pytest.mark.parametrize("make", [_tiny_box_paraboloid, _naive_on_small_trapezoid],
                         ids=["tiny-box-paraboloid", "naive-cayley-trapezoid"])
def test_matches_lp_oracle_where_polytope_binds(make):
    w = make()
    env = equilibrium_envelope_2d(w).values.ravel()
    # P binds: the unconstrained hull sits strictly above somewhere
    assert (hull_envelope_2d(w).ravel() - env).max() > 1e-3
    nodes = np.random.default_rng(20261018).choice(env.size, size=24,
                                                   replace=False)
    scale = max(1.0, float(np.abs(w.values).max()))
    assert np.abs(_lp_envelope(w, nodes) - env[nodes]).max() <= 1e-7 * scale


_T9, _S7 = np.linspace(-1.0, 1.0, 9), np.linspace(-2.0, 1.0, 7)
_TT, _SS = np.meshgrid(_T9, _S7, indexing="ij")
_AFFINE = 0.3 * _TT - 0.2 * _SS
_BUMPY = np.abs(_TT) + np.abs(_SS) + np.sin(2.0 * _TT * _SS)


@pytest.mark.parametrize("vals, poly", [
    (_AFFINE, BOX),
    (_AFFINE, np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0]])),
    (_BUMPY, np.array([[0.2, -0.5], [0.9, 0.4]])),
    (_BUMPY, np.array([[0.3, 0.1]])),
], ids=["affine-inside-P", "affine-outside-P", "segment-P", "point-P"])
def test_degenerate_inputs_match_lp_oracle(vals, poly):
    w = SampledWeight2D(_T9, _S7, vals, poly)
    env = equilibrium_envelope_2d(w).values
    oracle = _lp_envelope(w, range(vals.size)).reshape(vals.shape)
    assert np.abs(env - oracle).max() <= 1e-9
    assert (env - vals).max() <= 1e-12


def test_segment_polytope_in_either_vertex_order():
    seg = np.array([[0.2, -0.5], [0.9, 0.4]])
    a = equilibrium_envelope_2d(SampledWeight2D(_T9, _S7, _BUMPY, seg)).values
    b = equilibrium_envelope_2d(SampledWeight2D(_T9, _S7, _BUMPY, seg[::-1])).values
    assert np.array_equal(a, b)


_T9S9 = np.linspace(-2.0, 2.0, 9), np.linspace(-1.0, 1.0, 9)


@pytest.mark.parametrize("u, poly, ends", [
    (2.0 * _T9S9[0][:, None] + 5.0 * np.abs(_T9S9[1])[None, :],
     [[2.0, 0.0], [2.0, 0.5], [2.0, 1.0], [2.0, 2.0]], [[2.0, 0.0], [2.0, 2.0]]),
    (5.0 * np.abs(_T9S9[0])[:, None] + 0.0 * _T9S9[1][None, :],
     [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]),
    (np.cos(_T9S9[0])[:, None] * np.sin(3.0 * _T9S9[1])[None, :],
     [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0]]),
], ids=["4-vertex-segment", "3-vertex-segment", "3-vertex-point"])
def test_zero_area_polytope_is_its_segment_or_point(u, poly, ends):
    # collinear vertices pass the convexity check; as a polygon they would
    # let every facet gradient on their line count as inside P
    many = SampledWeight2D(*_T9S9, u, poly)
    assert np.array_equal(
        equilibrium_envelope_2d(many).values,
        equilibrium_envelope_2d(SampledWeight2D(*_T9S9, u, ends)).values)
    assert many.slope_polytope.tolist() == ends


@pytest.mark.parametrize("poly, stored", [
    ([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0], [0.0, 0.0]],
     [[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]]),
    ([[1.0, 1.0], [0.5, 0.5], [1.0, 1.0]], [[1.0, 1.0], [0.5, 0.5]]),
    ([[0.0, 1.0], [-0.0, 1.0]], [[0.0, 1.0]]),
], ids=["cayley-d_L-0", "segment", "signed-zero-point"])
def test_repeated_polytope_vertices_are_stored_once(poly, stored):
    # the d_L = 0 Cayley polytope repeats (0, 0); a repeat would be a
    # zero-length edge of the 2-d envelope's edge loop
    u = np.cos(_T9S9[0])[:, None] * np.sin(3.0 * _T9S9[1])[None, :]
    assert SampledWeight2D(*_T9S9, u, poly).slope_polytope.tolist() == stored


@pytest.mark.parametrize("poly", [[[1.0, 1.0], [0.5, 0.5]], [[1.0, 1.0]]],
                         ids=["segment-P", "point-P"])
def test_envelope_2d_out_of_float_range_is_a_typed_error(poly):
    # on a grid spanning +-1e308 the projections p . x overflow; no Qhull
    # call for these shapes, so the edge loop itself must report it, once
    g = np.linspace(-1.0, 1.0, 5) * 1e308
    w = SampledWeight2D(g, g, np.arange(25.0).reshape(5, 5) % 3, poly)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="overflows the float range"):
            equilibrium_envelope_2d(w)


def _edge_kinks(p, q, nodes, uu):
    """Kinks of u* inside the edge (p, q), as slope pairs, from the
    one-line-at-a-time stack over the lines
    lam -> ((q - p) . x_i) lam + (p . x_i - u_i)."""
    d = q - p
    slope, icpt = nodes @ d, nodes @ p - uu
    order = np.lexsort((icpt, slope))
    cross = _stack_line_envelope(slope[order], icpt[order])[1]
    lam = cross[(cross > 0.0) & (cross < 1.0)]
    return p + lam[:, None] * d


def _dense_back_transform(cand, nodes, uu):
    """max over the slopes ``cand`` of sigma . x - u*(sigma) at every node,
    with u*(sigma) = max_i (x_i . sigma - u_i) itself a plane maximum."""
    ustar = _max_of_planes(nodes, -uu, cand)
    return _max_of_planes(cand, -ustar, nodes)


def _edges(poly):
    return zip(poly, np.roll(poly, -1, axis=0))


def _dense_two_pass(w):
    """Oracle: every vertex of u*'s linearity cells cut by P as a candidate
    slope (in-P lower-facet gradients, kinks of u* along the edges of P and
    P's vertices), u* a plane maximum over every node and the back
    transform a plane maximum over every candidate.  It shares only the
    Qhull call with the primary route."""
    nodes, uu = _node_arrays(w)
    poly = w.slope_polytope
    cand = [poly]
    if poly.shape[0] >= 3:
        grad = _lower_facet_planes(nodes, uu)[0]
        cand.append(grad[_in_polygon(grad, poly)])
    cand += [_edge_kinks(p, q, nodes, uu) for p, q in _edges(poly)]
    env = _dense_back_transform(np.concatenate(cand), nodes, uu)
    return np.minimum(env, uu).reshape(w.values.shape)


def _in_p_facet_vertices(w):
    """Flat indices of the vertices of lower facets with gradient in P
    (none when P is a segment or a point)."""
    if w.slope_polytope.shape[0] < 3:
        return np.empty(0, dtype=int)
    nodes, uu = _node_arrays(w)
    grad, _, simplices = _lower_facet_planes(nodes, uu)
    return np.unique(simplices[_in_polygon(grad, w.slope_polytope)])


def _naive_64():
    return naive_fibered_weight(model_pair(n=64, d_A=2, d_L=1),
                                np.linspace(-30.0, 10.0, 64))


def _naive_wide_tau():
    """Far from tau = 0 the log-sum weight is affine in tau, so Qhull's
    lower facets there are large and coplanar, spanning many cells."""
    return naive_fibered_weight(model_pair(n=40, d_A=2, d_L=1),
                                np.linspace(-300.0, 100.0, 40))


def _naive_nonuniform_tau():
    tau = np.concatenate(([-30.0], np.sort(np.random.default_rng(5).uniform(
        -30.0, 10.0, 38)), [10.0]))
    return naive_fibered_weight(model_pair(n=40, d_A=2, d_L=1), tau)


def _bumpy_nonuniform(seed):
    """Random grids on both axes, P a triangle."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(-3.0, 3.0, 30))
    s = np.sort(rng.uniform(-2.0, 2.0, 41))
    tt, ss = np.meshgrid(t, s, indexing="ij")
    vals = 0.3 * (tt ** 2 + ss ** 2) + rng.normal(0.0, 0.5, tt.shape)
    return SampledWeight2D(t, s, vals, [[-1.0, -1.5], [1.2, -0.5], [0.4, 1.3]])


def _bumpy_rect(n_t, n_s):
    """Non-square grid, longer in s or in tau."""
    t, s = np.linspace(-1.5, 1.0, n_t), np.linspace(-2.0, 2.5, n_s)
    tt, ss = np.meshgrid(t, s, indexing="ij")
    vals = 0.4 * (tt ** 2 + ss ** 2) + np.sin(3.0 * tt * ss) + 0.2 * np.cos(5.0 * ss)
    return SampledWeight2D(t, s, vals, [[-1.0, -1.5], [1.2, -0.5], [0.4, 1.3]])


_OFF_P = np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0]])
_WITH_FACETS = [_naive_64, _naive_wide_tau, _naive_nonuniform_tau,
                lambda: _bumpy_nonuniform(1), lambda: _bumpy_nonuniform(2)]
_WITH_FACETS_IDS = ["naive-cayley-64", "naive-wide-tau", "naive-nonuniform-tau",
                    "nonuniform-1", "nonuniform-2"]


@pytest.mark.parametrize("make", _WITH_FACETS + [
    lambda: SampledWeight2D(_T9, _S7, _BUMPY, [[0.2, -0.5], [0.9, 0.4]]),
    lambda: SampledWeight2D(_T9, _S7, _BUMPY, [[0.3, 0.1]]),
    lambda: _bumpy_rect(7, 23),
    lambda: _bumpy_rect(23, 7),
    lambda: SampledWeight2D(_T9, _S7, _AFFINE, BOX),
    lambda: SampledWeight2D(_T9, _S7, _AFFINE, _OFF_P),
], ids=_WITH_FACETS_IDS + ["segment-P", "point-P", "rows-7x23", "columns-23x7",
                           "affine-inside-P", "affine-outside-P"])
def test_matches_dense_two_pass(make):
    w = make()
    env = equilibrium_envelope_2d(w).values
    scale = max(1.0, float(np.abs(w.values).max()))
    assert np.abs(env - _dense_two_pass(w)).max() <= 1e-12 * scale
    assert np.all(env <= w.values)
    exact = _in_p_facet_vertices(w)
    assert np.array_equal(env.ravel()[exact], w.values.ravel()[exact])


@pytest.mark.parametrize("make", _WITH_FACETS, ids=_WITH_FACETS_IDS)
def test_nodes_under_in_p_facets_take_the_facet_plane(make):
    """Brute force: the barycentric coordinates of every node in every
    projected in-P facet; a node under a facet takes the plane through the
    facet's three lifted vertices."""
    w = make()
    nodes, uu = _node_arrays(w)
    grad, _, simplices = _lower_facet_planes(nodes, uu)
    tri = simplices[_in_polygon(grad, w.slope_polytope)]
    env = equilibrium_envelope_2d(w).values.ravel()
    scale = max(1.0, float(np.abs(uu).max()))
    a, b, c = (nodes[tri[:, k]] for k in range(3))
    ab, ac = b - a, c - a
    area = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
    under = np.zeros(uu.size, dtype=bool)
    for k in np.flatnonzero(area != 0.0):
        rel = nodes - a[k]
        lb = (rel[:, 0] * ac[k, 1] - rel[:, 1] * ac[k, 0]) / area[k]
        lc = (ab[k, 0] * rel[:, 1] - ab[k, 1] * rel[:, 0]) / area[k]
        la = 1.0 - lb - lc
        hit = (la >= -1e-12) & (lb >= -1e-12) & (lc >= -1e-12)
        plane = la * uu[tri[k, 0]] + lb * uu[tri[k, 1]] + lc * uu[tri[k, 2]]
        assert np.abs(env[hit] - plane[hit]).max() <= 1e-12 * scale
        under |= hit
    # the check bites: some nodes under an in-P facet are not its vertices
    under[tri.ravel()] = False
    assert under.sum() >= 10


def test_every_node_exact():
    t, s, (tt, ss) = _grid2d(n=6, span=1.0)
    # strictly convex with gradients inside 3 * BOX: every node is a vertex
    # of an in-P lower facet, so no node is left for the back transform
    w = SampledWeight2D(t, s, tt ** 2 + ss ** 2, 3.0 * BOX)
    assert _in_p_facet_vertices(w).size == w.values.size
    env = equilibrium_envelope_2d(w).values
    assert np.array_equal(env, w.values)
    assert np.abs(env - _dense_two_pass(w)).max() <= 1e-12 * w.values.max()


def test_other_qhull_errors_become_invalid_input(monkeypatch):
    def fail(*args, **kwargs):
        raise QhullError("QH6019 qhull input error")

    monkeypatch.setattr("scipy.spatial.ConvexHull", fail)
    t, s, (tt, ss) = _grid2d(n=8)
    w = SampledWeight2D(t, s, tt ** 2 + ss ** 2, BOX)
    with pytest.raises(InvalidInputError):
        equilibrium_envelope_2d(w)


def test_grid_line_defects():
    t = np.linspace(0, 1, 11)
    s = np.linspace(0, 1, 11)
    tt, ss = np.meshgrid(t, s, indexing="ij")
    assert grid_line_defects(tt ** 2 + ss ** 2, t, s) == 0.0
    assert grid_line_defects(-(tt ** 2), t, s) > 1.0


def _spaced(rng, lo, hi, n):
    """n grid points from lo to hi, neighbouring cells up to 7:1 apart."""
    steps = np.cumsum(rng.uniform(0.25, 1.75, n - 1))
    return lo + (hi - lo) * np.append(0.0, steps / steps[-1])


@st.composite
def bumpy_weights_2d(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n_t = draw(st.integers(min_value=2, max_value=16))
    n_s = draw(st.integers(min_value=2, max_value=16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        t, s = _spaced(rng, -3.0, 3.0, n_t), _spaced(rng, -2.0, 2.0, n_s)
    else:
        t, s = np.linspace(-3.0, 3.0, n_t), np.linspace(-2.0, 2.0, n_s)
    tt, ss = np.meshgrid(t, s, indexing="ij")
    vals = 0.3 * (tt ** 2 + ss ** 2) + rng.normal(0.0, 0.5, tt.shape)
    cloud = rng.uniform(-1.5, 1.5, (6, 2))
    # P is mostly a polygon, now and then a segment or a point
    k = draw(st.sampled_from([6, 6, 6, 2, 1]))
    poly = cloud[ConvexHull(cloud).vertices] if k == 6 else cloud[:k]
    return SampledWeight2D(t, s, vals, poly)


def _tol(w):
    return 1e-10 * max(1.0, float(np.abs(w.values).max()))


@settings(max_examples=25, deadline=None)
@given(bumpy_weights_2d())
def test_envelope_2d_matches_dense_two_pass(w):
    env = equilibrium_envelope_2d(w).values
    scale = max(1.0, float(np.abs(w.values).max()))
    assert np.abs(env - _dense_two_pass(w)).max() <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(bumpy_weights_2d())
def test_edge_back_transform_matches_dense_edge_maximum(w):
    # each edge on its own, both ends included: the maximum over the closed
    # edge, against a plane maximum over the edge's ends and stack kinks
    nodes, uu = _node_arrays(w)
    scale = max(1.0, float(np.abs(uu).max()))
    for p, q in _edges(w.slope_polytope):
        cand = np.concatenate([p[None], _edge_kinks(p, q, nodes, uu), q[None]])
        got = _edge_back_transform(p, q, nodes, uu)
        assert np.abs(got - _dense_back_transform(cand, nodes, uu)).max() <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(bumpy_weights_2d())
def test_envelope_2d_idempotent(w):
    env = equilibrium_envelope_2d(w)
    again = equilibrium_envelope_2d(env)
    assert np.abs(again.values - env.values).max() <= _tol(w)


@settings(max_examples=25, deadline=None)
@given(bumpy_weights_2d(), st.floats(min_value=-5.0, max_value=5.0,
                                     allow_nan=False))
def test_envelope_2d_translation_equivariant(w, c):
    a = equilibrium_envelope_2d(w.with_values(w.values + c)).values
    b = equilibrium_envelope_2d(w).values + c
    assert np.abs(a - b).max() <= _tol(w)


@settings(max_examples=25, deadline=None)
@given(bumpy_weights_2d())
def test_envelope_2d_monotone_in_weight(w):
    lower = equilibrium_envelope_2d(w).values
    bumped = w.with_values(w.values + np.abs(np.sin(3.0 * w.values)))
    upper = equilibrium_envelope_2d(bumped).values
    assert (lower - upper).max() <= _tol(w)


@settings(max_examples=25, deadline=None)
@given(bumpy_weights_2d(),
       st.tuples(*[st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)] * 2))
def test_envelope_2d_affine_shift_moves_polytope(w, a):
    tt, ss = np.meshgrid(w.grid_tau, w.grid_s, indexing="ij")
    ax = a[0] * tt + a[1] * ss
    shifted = SampledWeight2D(w.grid_tau, w.grid_s, w.values + ax,
                              w.slope_polytope + np.asarray(a))
    lhs = equilibrium_envelope_2d(shifted).values
    rhs = equilibrium_envelope_2d(w).values + ax
    assert np.abs(lhs - rhs).max() <= _tol(w)
