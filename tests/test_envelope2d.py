import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

import envlab.envelope2d
from envlab import (InvalidInputError, SampledWeight2D,
                    equilibrium_envelope_2d, grid_line_defects,
                    hull_envelope_2d, naive_fibered_weight)
from conftest import model_pair

BOX = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def _grid2d(n=48, span=4.0):
    t = np.linspace(-span, span, n)
    s = np.linspace(-span, span, n)
    return t, s, np.meshgrid(t, s, indexing="ij")


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


def test_other_qhull_errors_become_invalid_input(monkeypatch):
    def fail(*args, **kwargs):
        raise QhullError("QH6019 qhull input error")

    monkeypatch.setattr(envlab.envelope2d, "ConvexHull", fail)
    t, s, (tt, ss) = _grid2d(n=8)
    w = SampledWeight2D(t, s, tt ** 2 + ss ** 2, BOX)
    with pytest.raises(InvalidInputError):
        equilibrium_envelope_2d(w)
    with pytest.raises(InvalidInputError):
        hull_envelope_2d(w)


def test_grid_line_defects():
    t = np.linspace(0, 1, 11)
    s = np.linspace(0, 1, 11)
    tt, ss = np.meshgrid(t, s, indexing="ij")
    assert grid_line_defects(tt ** 2 + ss ** 2, t, s) == 0.0
    assert grid_line_defects(-(tt ** 2), t, s) > 1.0


@st.composite
def bumpy_weights_2d(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n_t = draw(st.integers(min_value=2, max_value=16))
    n_s = draw(st.integers(min_value=2, max_value=16))
    rng = np.random.default_rng(seed)
    t, s = np.linspace(-3.0, 3.0, n_t), np.linspace(-2.0, 2.0, n_s)
    tt, ss = np.meshgrid(t, s, indexing="ij")
    vals = 0.3 * (tt ** 2 + ss ** 2) + rng.normal(0.0, 0.5, tt.shape)
    cloud = rng.uniform(-1.5, 1.5, (6, 2))
    return SampledWeight2D(t, s, vals, cloud[ConvexHull(cloud).vertices])


def _tol(w):
    return 1e-10 * max(1.0, float(np.abs(w.values).max()))


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
