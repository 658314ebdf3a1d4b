import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlab import (InvalidInputError, NoEnvelopeError, SampledWeight,
                    SlopeInterval, checks, convexity_defect,
                    equilibrium_envelope, hull_envelope)
from envlab import envelope
from envlab.envelope import (_back_transform, _conjugate_1d,
                             _monotone_chain_lower, _upper_line_envelope)
from conftest import (_stack_line_envelope, bumpy_model_weight, noise_weight,
                      piecewise_quadratic_weight, soft_plus,
                      ulp_collinear_weights, weights_of_degree)


def _softplus_weight(n=4097):
    s = np.linspace(-20, 20, n)
    u = np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0)  # log(1+e^s), stable
    return SampledWeight(s, u, 0.0, 1.0)


def test_conjugate_of_softplus():
    # sup_s(s/2 - log(1+e^s)) = -log 2, attained at s = 0
    w = _softplus_weight()
    val, at = _conjugate_1d(w.grid, w.values, np.array([0.5]))
    assert val[0] == pytest.approx(-np.log(2.0), abs=1e-8)
    assert w.grid[at[0]] == 0.0


@pytest.mark.parametrize("route", [equilibrium_envelope, hull_envelope])
@pytest.mark.parametrize("lo, hi", [(-0.5, 1.0), (0.0, 1.5), (-1.0, 2.0)])
def test_interval_outside_slope_range_has_no_envelope(route, lo, hi):
    # the affine tails would cut below any envelope with slopes outside [0, 1]
    with pytest.raises(NoEnvelopeError):
        route(_softplus_weight(65), SlopeInterval(lo, hi))


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
    assert battery(rng, draw, 3).max_violation <= 1e-10
    monkeypatch.setattr(checks, "hull_envelope", lambda w, iv: w)
    assert battery(rng, draw, 3).max_violation > 1e-10


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


def _line_cases():
    """(id, slopes, intercepts) in the order _upper_line_envelope takes."""
    rng = np.random.default_rng(31)
    cases = []
    for n in range(4):
        cases += [(f"n{n}-distinct", np.arange(n) - 1.0, rng.normal(size=n)),
                  (f"n{n}-one-slope", np.zeros(n), np.sort(rng.normal(size=n))),
                  (f"n{n}-one-line", np.ones(n), np.full(n, 2.0))]
    s = np.arange(-6.0, 7.0)
    # every line through (-2, 3): only the end slopes are kept
    cases.append(("collinear", s, 2.0 * s + 3.0))
    # |s| as dual points: two collinear runs and a corner
    cases.append(("two-collinear-runs", s, -np.abs(s)))
    # integer slopes and intercepts with repeats and duplicate lines
    slopes = rng.integers(-4, 5, 80).astype(float)
    icpts = rng.integers(-3, 4, 80).astype(float)
    order = np.lexsort((icpts, slopes))
    cases.append(("integer-duplicates", slopes[order], icpts[order]))
    # dual points (s, -c): the bridge from (4, -2) ties exactly with the
    # crossing into (2, 0), so (2, 0) is popped; small integer walks make
    # many such exact ties
    cases.append(("collinear-bridge", np.arange(5.0),
                  np.array([-4.0, -1.0, 0.0, -5.0, 2.0])))
    for n in (40, 400):
        cases.append((f"integer-walk-{n}", np.arange(float(n)),
                      np.cumsum(rng.integers(-2, 3, n)).astype(float)))
    for n in (64, 513, 4096):
        s = np.linspace(-20.0, 20.0, n)
        cases += [(f"convex-{n}", s, -soft_plus(s)),
                  (f"concave-{n}", s, np.sqrt(1.0 + s * s)),
                  (f"noise-{n}", s, -noise_weight(rng, n, 1, False).values),
                  (f"walk-{n}", s, -noise_weight(rng, n, 2, True).values),
                  (f"bumpy-{n}", s, -bumpy_model_weight(rng, n, d=2).values)]
        w = piecewise_quadratic_weight(rng, n=n, d=3)
        cases.append((f"piecewise-quadratic-{n}", w.grid, -w.values))
    return cases


@pytest.mark.parametrize("slopes, icpts", [pytest.param(s, c, id=name)
                                           for name, s, c in _line_cases()])
def test_upper_line_envelope_matches_stack(slopes, icpts):
    keep, cross = _upper_line_envelope(slopes, icpts)
    want_keep, want_cross = _stack_line_envelope(slopes, icpts)
    assert keep.dtype == want_keep.dtype and cross.dtype == want_cross.dtype
    assert np.array_equal(keep, want_keep)
    assert np.array_equal(cross, want_cross)


def test_upper_line_envelope_matches_stack_on_exact_ties():
    # integer parabolas with integer dips: every crossing is a small
    # rational, so bridges tie exactly with crossings on the envelope at
    # every depth the merge reaches
    rng = np.random.default_rng(47)
    for _ in range(300):
        n = int(rng.integers(8, 60))
        s = np.arange(float(n))
        u = (s - rng.integers(0, n)) ** 2 // int(rng.integers(1, 4))
        u += np.where(rng.random(n) < 0.15, rng.integers(-30, 30, n), 0)
        keep, cross = _upper_line_envelope(s, -u)
        want_keep, want_cross = _stack_line_envelope(s, -u)
        assert np.array_equal(keep, want_keep)
        assert np.array_equal(cross, want_cross)


def test_duplicate_lines_keep_the_first():
    slopes = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 2.0])
    icpts = np.array([0.0, 4.0, 5.0, 5.0, 5.0, 0.0])
    keep, cross = _upper_line_envelope(slopes, icpts)
    assert keep.tolist() == [0, 2, 5] and cross.tolist() == [-5.0, 5.0]


def _chain_lower_hull(s, u):
    """One point at a time: before pushing a point, pop every hull point
    strictly above the chord from its predecessor to the new point.

    The route ``_monotone_chain_lower`` had before it became a
    level-synchronous quickhull, kept as its differential oracle.
    """
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


def test_monotone_chain_lower_brute_force():
    rng = np.random.default_rng(11)
    # integer data keeps every cross product exact: |s - 20| is two
    # collinear runs, and lifting some points takes them off the hull
    s = np.arange(41)
    u = np.abs(s - 20) + np.where(rng.random(41) < 0.3,
                                  rng.integers(1, 4, 41), 0)
    for lower_hull in (_monotone_chain_lower, _chain_lower_hull):
        hull = lower_hull(s.astype(float), u.astype(float))
        assert hull[0] == 0 and hull[-1] == 40 and np.all(np.diff(hull) > 0)
        a, b = hull[:-1], hull[1:]
        turn = ((s[b] - s[a])[:, None] * (u[None, :] - u[a][:, None])
                - (s[None, :] - s[a][:, None]) * (u[b] - u[a])[:, None])
        assert np.all(turn >= 0)  # every point on or above every hull edge
        on_hull = u == np.interp(s, s[hull], u[hull])
        assert np.array_equal(np.flatnonzero(on_hull), hull)  # collinear kept
        for s_in, u_in in ((s, u), (s.tolist(), u.tolist())):
            assert np.array_equal(lower_hull(s_in, u_in), hull)


def _hull_cases():
    """(id, s, u, hull or None) for shapes a chord-splitting hull can get
    wrong: few points, ties everywhere, one long convex run, many levels."""
    s41 = np.arange(41.0)
    spike = np.zeros(41)
    spike[17] = 5.0
    big = 65536
    s_big = np.linspace(-20.0, 20.0, big)
    lifted = np.exp(s_big) + np.where(np.arange(big) % 2 == 1, 1e-3, 0.0)
    return [("n2", np.array([0.0, 1.0]), np.array([3.0, -1.0]), [0, 1]),
            ("n3-above", np.arange(3.0), np.array([0.0, 1.0, 0.0]), [0, 2]),
            ("n3-below", np.arange(3.0), np.array([0.0, -1.0, 0.0]), [0, 1, 2]),
            ("n3-collinear", np.arange(3.0), np.array([0.0, 1.0, 2.0]),
             [0, 1, 2]),
            ("affine", s41, 3.0 * s41 - 7.0, np.arange(41)),
            ("constant", s41, np.full(41, 2.5), np.arange(41)),
            ("spike", s41, spike, np.delete(np.arange(41), 17)),
            ("two-collinear-runs", s41, np.abs(s41 - 20.0), np.arange(41)),
            # one convex run: the first level takes every point at once
            ("parabola-65536", np.arange(float(big)),
             (np.arange(float(big)) - big // 2) ** 2, np.arange(big)),
            # the convex points are not consecutive, so every chord splits
            # and the hull takes many levels
            ("exp-alternate-lifted-65536", s_big, lifted, None)]


@pytest.mark.parametrize("s, u, want", [pytest.param(s, u, h, id=name)
                                        for name, s, u, h in _hull_cases()])
def test_monotone_chain_lower_degenerate_shapes(s, u, want):
    hull = _monotone_chain_lower(s, u)
    assert hull.dtype == int
    assert np.array_equal(hull, _chain_lower_hull(s, u))
    if want is not None:
        assert np.array_equal(hull, want)


def _extreme_cases():
    """(id, s, u, hull route too): inputs at the ends of the float range."""
    top = np.array([1e308, -1e308, 1e308, 0.0, -1e308, 1e308, 5e307,
                    -1e308, 1e308])
    bumps = np.array([0.0, 1.0, 0.0, 2.0, 0.0, 1.0, 3.0, 0.0, 1.0])
    return [("values-1e308", np.linspace(-1.0, 1.0, 9), top, True),
            ("spacing-5e-324", np.arange(9) * 5e-324, bumps, True),
            ("spacing-5e-324-values-1e308", np.arange(9) * 5e-324, top, True),
            ("span-1e308", np.linspace(-1.0, 1.0, 9) * 1e308, bumps, True)]


@pytest.mark.parametrize("s, u, hull_too", [
    pytest.param(s, u, h, id=name) for name, s, u, h in _extreme_cases()])
def test_extreme_inputs_overflow_silently(s, u, hull_too):
    # differences of values near 1e308 and crossings of slopes 5e-324 apart
    # overflow to +-inf; no warning reaches the caller, and the routes still
    # match their per-point oracles
    iv = SlopeInterval(0.0, 1.0)
    w = SampledWeight(s, u, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keep, cross = _upper_line_envelope(s, -u)
        dual = equilibrium_envelope(w, iv).values
        if hull_too:
            hull = _monotone_chain_lower(s, u)
            primal = hull_envelope(w, iv).values
    want_keep, want_cross = _stack_line_envelope(s, -u)
    assert np.array_equal(keep, want_keep) and np.array_equal(cross, want_cross)
    assert np.all(np.isfinite(dual)) and np.all(dual <= u)
    assert np.array_equal(dual, _searchsorted_envelope(w, iv))
    if hull_too:
        assert np.array_equal(hull, _chain_lower_hull(s, u))
        assert np.array_equal(dual, primal)


@pytest.mark.parametrize("route", [equilibrium_envelope, hull_envelope])
def test_envelope_out_of_float_range_is_a_typed_error(route):
    # with slope 1 on a grid spanning +-1e308 the envelope at the left end is
    # about -2e308: one typed error that names the overflow, no warning
    s = np.linspace(-1.0, 1.0, 9) * 1e308
    w = SampledWeight(s, np.array([0.0, 1.0, 0.0, 2.0, 0.0, 1.0, 3.0, 0.0, 1.0]),
                      0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="overflows the float range"):
            route(w, SlopeInterval(1.0, 1.0))


@pytest.mark.parametrize("seed", range(20))
def test_hull_route_on_mixed_1e308_values(seed):
    # chords between -1e308 and 1e308 overflow every product of the turn
    # predicate unless the hull route scales u down by 2**-514 first
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 300))
    s = np.linspace(-1.0, 1.0, n)
    u = rng.choice([-1e308, 0.0, 1e308], n)
    w, iv = SampledWeight(s, u, 0.0, 1.0), SlopeInterval(0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hull = _monotone_chain_lower(s, u)
        primal = hull_envelope(w, iv).values
        dual = equilibrium_envelope(w, iv).values
    assert np.array_equal(hull, _chain_lower_hull(s, np.ldexp(u, -514)))
    assert np.array_equal(primal, dual)
    assert np.array_equal(dual, _searchsorted_envelope(w, iv))


def test_turn_still_warns_on_invalid():
    # inf - inf is not an overflow: that warning still reaches the caller
    s = np.array([-1e308, 5e307, 1e308])
    u = np.array([0.0, 1e308, 1e308])
    with pytest.warns(RuntimeWarning, match="invalid"):
        assert np.isnan(envelope._turn(s, u, 0, 1, 2))


def _searchsorted_envelope(w, interval):
    """The back transform :func:`equilibrium_envelope` had before it counted
    active indices: a binary search of the active grid points per node and
    three clipped candidate indices, kept as its differential oracle."""
    lo, hi = interval.sigma_min, interval.sigma_max
    s, u = w.grid, w.values
    cross = _upper_line_envelope(s, -u)[1]
    inside = (cross > lo) & (cross < hi)
    cand = np.concatenate(([lo], cross[inside], [hi]))
    ustar, act = _conjugate_1d(s, u, cand)
    idx = np.clip(np.searchsorted(s[act], s), 0, cand.size - 1)
    best = cand[idx] * s - ustar[idx]
    for off in (-1, 1):
        j = np.clip(idx + off, 0, cand.size - 1)
        best = np.maximum(best, cand[j] * s - ustar[j])
    return np.minimum(best, u)


def _assert_back_transform_matches_searchsorted(s, u, rng):
    """The envelope of (s, u) equals the oracle's bit for bit over slope
    intervals around all crossings of u*, from one crossing to another,
    zero-width at a crossing and between crossings, and with random ends."""
    cross = _upper_line_envelope(s, -u)[1]
    if cross.size == 0:
        cross = np.array([0.0])
    a, b = np.sort(rng.choice(cross, 2))
    c = float(rng.choice(cross))
    mid = float(rng.uniform(cross[0], cross[-1]))
    lo, hi = np.sort(rng.uniform(cross[0] - 1.0, cross[-1] + 1.0, 2))
    for ends in [(cross[0] - 1.0, cross[-1] + 1.0), (cross[0], cross[-1]),
                 (a, b), (c, c), (mid, mid), (min(a, mid), max(a, mid)),
                 (lo, hi)]:
        w, iv = SampledWeight(s, u, *ends), SlopeInterval(*ends)
        got = equilibrium_envelope(w, iv).values
        assert np.array_equal(got, _searchsorted_envelope(w, iv))


def _back_transform_cases():
    """(id, s, u): few points and non-uniform grids."""
    rng = np.random.default_rng(53)
    geometric = np.cumsum(1.1 ** np.arange(64))
    clustered = np.sort(rng.uniform(-5.0, 5.0, 513))
    cases = [("n2-up", np.array([0.0, 1.0]), np.array([0.0, 1.0])),
             ("n2-flat", np.array([-1.0, 2.0]), np.array([3.0, 3.0])),
             ("n3-above", np.arange(3.0), np.array([0.0, 1.0, 0.0])),
             ("n3-below", np.arange(3.0), np.array([0.0, -1.0, 0.0])),
             ("n3-collinear", np.arange(3.0), np.array([0.0, 1.0, 2.0])),
             ("geometric-walk", geometric, np.cumsum(rng.normal(size=64))),
             ("geometric-ties", geometric, rng.integers(-3, 4, 64) * 1.0),
             ("clustered-noise", clustered, rng.normal(size=513)),
             ("clustered-bumps", clustered,
              soft_plus(clustered) - np.exp(-clustered ** 2))]
    # within an ulp of collinear, candidates beyond a node's nearest ones
    # win by an ulp, so the three candidates tried must be the oracle's
    for seed in range(4):
        r = np.random.default_rng(seed)
        n = int(r.integers(3, 65))
        span = r.uniform(1.0, 40.0)
        s = np.linspace(-span, span, n)
        jitter = r.choice([-1e-15, 0.0, 1e-15], n)
        cases.append((f"ulp-collinear-{seed}", s, 0.1 * s + 0.3 + jitter))
    return cases


@pytest.mark.parametrize("s, u", [pytest.param(s, u, id=name)
                                  for name, s, u in _back_transform_cases()])
def test_back_transform_matches_searchsorted(s, u):
    _assert_back_transform_matches_searchsorted(s, u, np.random.default_rng(59))


@st.composite
def weights(draw):
    """A weight of degree 1 to 3 from :func:`conftest.weights_of_degree`."""
    return draw(weights_of_degree())[0]


@settings(max_examples=100, deadline=None)
@given(weights())
def test_envelope_idempotent(w):
    iv = SlopeInterval(0.0, w.slope_right)
    env = equilibrium_envelope(w, iv)
    again = equilibrium_envelope(env, iv)
    assert np.abs(again.values - env.values).max() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(weights(), st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_envelope_translation_equivariant(w, c):
    iv = SlopeInterval(0.0, w.slope_right)
    a = equilibrium_envelope(w.with_values(w.values + c), iv).values
    b = equilibrium_envelope(w, iv).values + c
    assert np.abs(a - b).max() <= 1e-10


@settings(max_examples=100, deadline=None)
@given(weights())
def test_envelope_monotone_in_weight(w):
    iv = SlopeInterval(0.0, w.slope_right)
    lower = equilibrium_envelope(w, iv).values
    bumped = w.with_values(w.values + np.abs(np.sin(w.grid)))
    upper = equilibrium_envelope(bumped, iv).values
    assert (lower - upper).max() <= 1e-10


def _ulp_tolerance(w):
    return 1e-15 * max(1.0, float(np.abs(w.values).max()))


@settings(max_examples=100, deadline=None)
@given(weights(), ulp_collinear_weights())
def test_dual_routes_agree_on_drawn_weights(w, near):
    iv = SlopeInterval(0.0, w.slope_right)
    a = equilibrium_envelope(w, iv).values
    b = hull_envelope(w, iv).values
    assert np.abs(a - b).max() <= 1e-8
    keep, cross = _upper_line_envelope(w.grid, -w.values)
    want_keep, want_cross = _stack_line_envelope(w.grid, -w.values)
    assert np.array_equal(keep, want_keep) and np.array_equal(cross, want_cross)
    # within an ulp of collinear the two may keep different touching lines,
    # but the envelopes agree at every crossing of either and beyond them
    s, c = near.grid, -near.values
    keep, cross = _upper_line_envelope(s, c)
    want_keep, want_cross = _stack_line_envelope(s, c)
    x = np.concatenate((cross, want_cross, [cross.min() - 1.0, cross.max() + 1.0]))
    got = (s[keep] * x[:, None] + c[keep]).max(axis=1)
    want = (s[want_keep] * x[:, None] + c[want_keep]).max(axis=1)
    assert np.abs(got - want).max() <= _ulp_tolerance(near)


@settings(max_examples=100, deadline=None)
@given(weights(), ulp_collinear_weights())
def test_lower_hull_matches_chain(w, near):
    assert np.array_equal(_monotone_chain_lower(w.grid, w.values),
                          _chain_lower_hull(w.grid, w.values))
    # integer data: every cross product exact, with many exact ties
    s = np.arange(w.grid.size, dtype=float)
    u = np.round(8.0 * w.values)
    assert np.array_equal(_monotone_chain_lower(s, u), _chain_lower_hull(s, u))
    # within an ulp of collinear the index sets may differ, the values not
    iv = SlopeInterval(0.0, 1.0)
    got = hull_envelope(near, iv).values
    with mock.patch.object(envelope, "_monotone_chain_lower", _chain_lower_hull):
        want = hull_envelope(near, iv).values
    assert np.abs(got - want).max() <= _ulp_tolerance(near)


@settings(max_examples=100, deadline=None)
@given(weights(), ulp_collinear_weights(),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_back_transform_matches_searchsorted_on_drawn_weights(w, near, seed):
    rng = np.random.default_rng(seed)
    _assert_back_transform_matches_searchsorted(w.grid, w.values, rng)
    # integer data: many exact ties among the crossings
    s = np.arange(w.grid.size, dtype=float)
    _assert_back_transform_matches_searchsorted(s, np.round(8.0 * w.values), rng)
    _assert_back_transform_matches_searchsorted(near.grid, near.values, rng)


def _brute_back_transform(s, u, lo, hi):
    """max over sigma in [lo, hi] of sigma s_i - u*(sigma) at every point,
    over lo, hi and every pairwise crossing, with u* a brute-force maximum."""
    i, j = np.triu_indices(s.size, 1)
    apart = s[i] != s[j]
    sigma = (u[j] - u[i])[apart] / (s[j] - s[i])[apart]
    sigma = np.concatenate(([lo, hi], sigma[(sigma > lo) & (sigma < hi)]))
    ustar = (sigma[:, None] * s - u).max(axis=1)
    return (sigma[:, None] * s - ustar[:, None]).max(axis=0)


@st.composite
def tied_clouds(draw):
    """(s, u, lo, hi): up to 40 points on a few abscissae, many of them
    exact duplicates, sorted as the kernel takes them (equal abscissae by
    decreasing u), with [lo, hi] around, between or at crossings of u*."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 41))
    levels = rng.uniform(-3.0, 3.0, int(rng.integers(1, 6)))
    s = rng.choice(levels, n)
    u = rng.choice(np.round(rng.uniform(-4.0, 4.0, int(rng.integers(1, 8))), 1), n)
    order = np.lexsort((-u, s))
    s, u = s[order], u[order]
    cross = _upper_line_envelope(s, -u)[1]
    ends = rng.uniform(-5.0, 5.0, 2)
    if cross.size:
        pick = draw(st.sampled_from(["random", "cross", "at-cross"]))
        if pick == "cross":
            ends = rng.choice(cross, 2)
        elif pick == "at-cross":
            ends = np.full(2, rng.choice(cross))
    lo, hi = np.sort(ends)
    return s, u, float(lo), float(hi)


@settings(max_examples=200, deadline=None)
@given(tied_clouds())
def test_back_transform_on_tied_and_duplicate_points(cloud):
    # the edge clouds of the 2-d envelope share abscissae (a whole tau row
    # on the d = (1, 0) edge) and repeat points; the 1-d grids never do
    s, u, lo, hi = cloud
    got = _back_transform(s, u, lo, hi)
    want = _brute_back_transform(s, u, lo, hi)
    # an end at a crossing of near-equal abscissae is large, and so is sigma s
    scale = max(1.0, np.abs(u).max(), max(-lo, hi) * np.abs(s).max())
    assert np.abs(got - want).max() <= 1e-14 * scale


def test_dual_routes_agree_at_fine_grid_size(rng):
    w = piecewise_quadratic_weight(rng, n=65536, d=2)
    iv = SlopeInterval(0.0, 2.0)
    a = equilibrium_envelope(w, iv).values
    b = hull_envelope(w, iv).values
    assert np.abs(a - b).max() <= 1e-8
