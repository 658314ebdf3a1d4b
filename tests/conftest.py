"""Shared fixtures and random-weight generators for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

from envlab import ModelBundlePair, SampledWeight


def piecewise_quadratic_weight(rng, n=4096, d=1, span=20.0):
    """Random non-convex piecewise-quadratic weight with slope data (v0, v1).

    The derivative is a continuous piecewise-linear interpolation through
    random knot values, rescaled so the endpoint slopes satisfy v0 <= 0
    and v1 >= d; integrating it gives a piecewise-quadratic weight whose
    envelope over [0, d] is nontrivial.
    """
    s = np.linspace(-span, span, n)
    knots = np.sort(rng.uniform(-span, span, rng.integers(4, 9)))
    knots = np.concatenate([[-span], knots, [span]])
    raw = rng.uniform(-2.0, float(d) + 2.0, knots.size)
    v0 = rng.uniform(-1.0, 0.0)
    v1 = rng.uniform(float(d), float(d) + 1.0)
    if abs(raw[-1] - raw[0]) < 1e-3:
        raw[-1] += 1.0
    v_knots = v0 + (raw - raw[0]) * (v1 - v0) / (raw[-1] - raw[0])
    v = np.interp(s, knots, v_knots)
    u = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(s))])
    return SampledWeight(s, u, float(v[0]), float(v[-1]))


def bumpy_model_weight(rng, n=2049, d=1, span=20.0):
    """Smooth non-convex weight with slope data exactly (0, d)."""
    s = np.linspace(-span, span, n)
    u = d * (np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0))
    for _ in range(rng.integers(2, 6)):
        c = rng.uniform(-8.0, 8.0)
        u += rng.uniform(-1.5, 1.5) * np.exp(-((s - c) / rng.uniform(0.5, 3.0)) ** 2)
    return SampledWeight(s, u, 0.0, float(d))


def soft_plus(s):
    return np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0)


def noise_weight(rng, n, d, walk):
    """d * softplus plus white noise, or plus a random walk: many short
    convex runs."""
    s = np.linspace(-20.0, 20.0, n)
    steps = rng.normal(0.0, 0.3 if walk else 0.5, n)
    u = d * soft_plus(s) + (np.cumsum(steps) if walk else steps)
    return SampledWeight(s, u, 0.0, float(d))


@st.composite
def weights_of_degree(draw, min_degree=1):
    """(w, d): a bumpy weight (a few long convex runs), or a noise,
    random-walk or piecewise-quadratic weight (many runs, or long concave
    stretches), on 257 points with slope data containing [0, d] and
    min_degree <= d <= 3.  100 examples hold about 25 of each kind."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    d = draw(st.integers(min_value=min_degree, max_value=3))
    kind = draw(st.sampled_from(["bumpy", "noise", "walk", "quadratic"]))
    rng = np.random.default_rng(seed)
    if kind == "bumpy":
        return bumpy_model_weight(rng, n=257, d=d), d
    if kind == "quadratic":
        return piecewise_quadratic_weight(rng, n=257, d=d), d
    return noise_weight(rng, 257, d, kind == "walk"), d


@st.composite
def ulp_collinear_weights(draw):
    """u = 0.1 s + 0.3 on a uniform grid of 3 to 64 points, each value moved
    by -1e-15, 0 or 1e-15: every triple of points is collinear to within an
    ulp or two, so rounding decides each cross product and each crossing."""
    n = draw(st.integers(min_value=3, max_value=64))
    span = draw(st.floats(min_value=1.0, max_value=40.0))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    s = np.linspace(-span, span, n)
    jitter = np.random.default_rng(seed).choice([-1e-15, 0.0, 1e-15], n)
    return SampledWeight(s, 0.1 * s + 0.3 + jitter, 0.0, 1.0)


def _stack_line_envelope(slopes, intercepts):
    """One line at a time: push each line and pop the lines it covers.

    The route ``envelope._upper_line_envelope`` had before it merged convex
    runs, kept as the differential oracle of that function and of the 2-d
    envelope's edge kinks.
    """
    slopes = np.asarray(slopes, dtype=float).tolist()
    intercepts = np.asarray(intercepts, dtype=float).tolist()
    keep, cross = [], []
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


def model_pair(n=513, d_A=2, d_L=1, seed=None):
    """Model bundle pair: convex phi_A, bumpy phi_L."""
    s = np.linspace(-20.0, 20.0, n)
    soft = np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0)
    rng = np.random.default_rng(0 if seed is None else seed)
    bumps = -0.6 * np.exp(-2.0 * (s + 2.0) ** 2) + 0.9 * np.exp(-(s - 3.0) ** 2)
    if seed is not None:
        bumps = np.zeros_like(s)
        for _ in range(3):
            c = rng.uniform(-6.0, 6.0)
            bumps += rng.uniform(-1.0, 1.0) * np.exp(-((s - c) / rng.uniform(0.8, 2.5)) ** 2)
    phi_A = SampledWeight(s, d_A * soft, 0.0, float(d_A))
    phi_L = SampledWeight(s, d_L * soft + bumps, 0.0, float(d_L))
    return ModelBundlePair(phi_A, d_A, phi_L, d_L)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def bump_pair():
    return model_pair()
