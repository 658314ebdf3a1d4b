import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlab import (SampledWeight, SlopeInterval, UnboundedTransformError,
                    checks, convexity_defect, equilibrium_envelope,
                    legendre_values)
from envlab.envelope import _monotone_chain_lower, _upper_line_envelope
from conftest import bumpy_model_weight, piecewise_quadratic_weight


def _softplus_weight(n=4097):
    s = np.linspace(-20, 20, n)
    u = np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0)  # log(1+e^s), stable
    return SampledWeight(s, u, 0.0, 1.0)


def test_conjugate_of_softplus():
    # sup_s(s/2 - log(1+e^s)) = -log 2, attained at s = 0
    w = _softplus_weight()
    val = legendre_values(w, [0.5])[0]
    assert val == pytest.approx(-np.log(2.0), abs=1e-8)


def test_conjugate_unbounded_outside_slope_range():
    w = _softplus_weight()
    with pytest.raises(UnboundedTransformError):
        legendre_values(w, [1.5])
    with pytest.raises(UnboundedTransformError):
        legendre_values(w, [-0.1])


def test_degenerate_interval():
    w = _softplus_weight()
    env = equilibrium_envelope(w, SlopeInterval(0.0, 0.0))
    assert np.allclose(env.values, w.values.min(), atol=1e-12)


def test_convex_weight_is_fixed_point():
    w = _softplus_weight()
    env = equilibrium_envelope(w, SlopeInterval(0.0, 1.0))
    assert np.abs(env.values - w.values).max() <= 1e-10


def test_envelope_below_weight_and_convex(rng):
    for _ in range(5):
        w = bumpy_model_weight(rng)
        env = equilibrium_envelope(w, SlopeInterval(0.0, 1.0))
        assert (env.values - w.values).max() <= 1e-12
        assert convexity_defect(env) <= 1e-10


def test_dual_routes_agree(rng, monkeypatch):
    def draw(rng, i):
        return piecewise_quadratic_weight(rng, n=1024, d=i + 1), i + 1
    battery = checks.check_envelope_oracle_equivalence
    assert battery(rng, draw, 3, 1e-10).passed
    monkeypatch.setattr(checks, "hull_envelope", lambda w, iv: w)
    assert not battery(rng, draw, 3, 1e-10).passed


def test_convexity_defect_values():
    s = np.linspace(-1, 1, 101)
    assert convexity_defect(SampledWeight(s, s * s, -2.0, 2.0)) == 0.0
    w = SampledWeight(s, -s * s, -2.0, 2.0)
    assert convexity_defect(w) == pytest.approx(2.0, rel=1e-6)


def test_upper_line_envelope_brute_force():
    rng = np.random.default_rng(7)
    # integer slopes repeat, and one line is duplicated, as in envelope2d
    slopes = rng.integers(-6, 7, 60).astype(float)
    icpts = np.round(rng.normal(0.0, 5.0, 60), 3)
    slopes[-1], icpts[-1] = slopes[0], icpts[0]
    order = np.lexsort((icpts, slopes))
    slopes, icpts = slopes[order], icpts[order]
    keep, cross = _upper_line_envelope(slopes, icpts)
    assert keep.size == cross.size + 1 and np.all(np.diff(cross) > 0.0)
    assert slopes[keep[0]] == slopes.min() and slopes[keep[-1]] == slopes.max()
    # the kept lines meet at their crossings
    a, b = keep[:-1], keep[1:]
    assert np.abs(slopes[a] * cross + icpts[a]
                  - slopes[b] * cross - icpts[b]).max() <= 1e-12
    # between crossings (and past both ends) the kept line is the max over
    # all lines, strictly above every line of another slope
    pts = np.concatenate(([cross[0] - 1.0], 0.5 * (cross[:-1] + cross[1:]),
                          [cross[-1] + 1.0]))
    every = slopes[None, :] * pts[:, None] + icpts[None, :]
    mine = slopes[keep] * pts + icpts[keep]
    assert np.all(mine >= every.max(axis=1))
    other = slopes[None, :] != slopes[keep][:, None]
    assert np.all(mine[:, None] - every > 1e-9, where=other)
    # integer and list inputs give the float64 result
    for s_in, c_in in ((slopes.astype(int), icpts.tolist()),
                       (slopes.tolist(), icpts)):
        k2, c2 = _upper_line_envelope(s_in, c_in)
        assert np.array_equal(k2, keep) and np.array_equal(c2, cross)
    # three lines through (1, 2): the middle one only touches the envelope
    keep, cross = _upper_line_envelope(np.array([-1.0, 0.0, 1.0]),
                                       np.array([3.0, 2.0, 1.0]))
    assert keep.tolist() == [0, 2] and cross.tolist() == [1.0]


def test_monotone_chain_lower_brute_force():
    rng = np.random.default_rng(11)
    # integer data keeps every cross product exact: |s - 20| is two
    # collinear runs, and lifting some points takes them off the hull
    s = np.arange(41)
    u = np.abs(s - 20) + np.where(rng.random(41) < 0.3,
                                  rng.integers(1, 4, 41), 0)
    hull = _monotone_chain_lower(s.astype(float), u.astype(float))
    assert hull[0] == 0 and hull[-1] == 40 and np.all(np.diff(hull) > 0)
    a, b = hull[:-1], hull[1:]
    turn = ((s[b] - s[a])[:, None] * (u[None, :] - u[a][:, None])
            - (s[None, :] - s[a][:, None]) * (u[b] - u[a])[:, None])
    assert np.all(turn >= 0)  # every point on or above every hull edge
    on_hull = u == np.interp(s, s[hull], u[hull])
    assert np.array_equal(np.flatnonzero(on_hull), hull)  # collinear kept
    for s_in, u_in in ((s, u), (s.tolist(), u.tolist())):
        assert np.array_equal(_monotone_chain_lower(s_in, u_in), hull)


@st.composite
def bumpy_weights(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    d = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(seed)
    return bumpy_model_weight(rng, n=257, d=d)


@settings(max_examples=25, deadline=None)
@given(bumpy_weights())
def test_envelope_idempotent(w):
    iv = SlopeInterval(0.0, w.slope_right)
    env = equilibrium_envelope(w, iv)
    again = equilibrium_envelope(env, iv)
    assert np.abs(again.values - env.values).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(bumpy_weights(), st.floats(min_value=-5.0, max_value=5.0,
                                  allow_nan=False))
def test_envelope_translation_equivariant(w, c):
    iv = SlopeInterval(0.0, w.slope_right)
    a = equilibrium_envelope(w.with_values(w.values + c), iv).values
    b = equilibrium_envelope(w, iv).values + c
    assert np.abs(a - b).max() <= 1e-10


@settings(max_examples=25, deadline=None)
@given(bumpy_weights())
def test_envelope_monotone_in_weight(w):
    iv = SlopeInterval(0.0, w.slope_right)
    lower = equilibrium_envelope(w, iv).values
    bumped = w.with_values(w.values + np.abs(np.sin(w.grid)))
    upper = equilibrium_envelope(bumped, iv).values
    assert (lower - upper).max() <= 1e-10
