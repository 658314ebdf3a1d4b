import json
import os

import numpy as np
import pytest

from envlab import (GlueRegion, GluingError, InvalidInputError,
                    InvalidParameterError, RegularizedMaxKernel,
                    SampledWeight2D, checks, glue_weights, gluing,
                    grid_line_defects, hirzebruch_demo, regularized_max)
from envlab.cli import main


def test_kernel_validation():
    with pytest.raises(InvalidParameterError):
        RegularizedMaxKernel(0.0)
    with pytest.raises(InvalidParameterError):
        RegularizedMaxKernel(-1.0)


def test_exact_branch():
    k = RegularizedMaxKernel(1.0)
    assert regularized_max(k, 5.0, 0.0) == pytest.approx(5.0, abs=1e-12)
    assert regularized_max(k, 0.0, 5.0) == pytest.approx(5.0, abs=1e-12)
    assert regularized_max(k, -3.0, -1.0) == pytest.approx(-1.0, abs=1e-12)


def test_contract_clauses(rng, monkeypatch):
    # every clause within 1e-12 on 200 scalar draws, convexity on 100 pairs
    rep = checks.check_regularized_max_contract(rng, 200)
    assert rep.passed and rep.max_violation <= 1e-12

    def broken(k, x, y):  # scalars shifted (not exact), arrays zigzag
        m = regularized_max(k, x, y)
        return m + 0.1 if np.ndim(m) == 0 else m + 0.01 * (-1.0) ** np.arange(m.size)
    monkeypatch.setattr(checks, "regularized_max", broken)
    rep = checks.check_regularized_max_contract(rng, 200)
    assert rep.max_violation > rep.details["convexity_defect"] > 1e-12


def _double_gauss_sum(eps, x, y):
    """The mollified max as the plain double sum over the kernel's Gauss
    nodes."""
    h, wq = np.polynomial.legendre.leggauss(gluing.NODES)
    w = wq * np.exp(-1.0 / (1.0 - h * h))
    w /= w.sum()
    d = x - y
    acc = np.zeros_like(d)
    for hi, wi in zip(h, w):
        acc += wi * (w[None, :] * np.maximum(d[:, None] + eps * hi,
                                             eps * h[None, :])).sum(axis=1)
    return np.where(np.abs(d) < 2.0 * eps, y + acc, np.maximum(x, y))


@pytest.mark.parametrize("eps", [1e-3, 0.25, 3.0])
def test_matches_double_gauss_sum(eps):
    rng = np.random.default_rng(48)
    h, _ = np.polynomial.legendre.leggauss(gluing.NODES)
    two = np.nextafter(2.0 * eps, 0.0)
    # y = 0 keeps x - y equal to the chosen delta: atom ties
    # d + eps (h_i - h_j) = 0, d = 0 and |d| on either side of 2 eps
    special = np.concatenate([(eps * (h[None, :] - h[:, None])).ravel(),
                              [0.0, two, -two, 2.0 * eps, -2.0 * eps]])
    y_rand = rng.uniform(-10.0 + 2.5 * eps, 10.0 - 2.5 * eps, 400)
    y = np.concatenate([y_rand, np.zeros(special.size)])
    x = np.concatenate([y_rand + rng.uniform(-2.5 * eps, 2.5 * eps, 400),
                        special])
    got = regularized_max(RegularizedMaxKernel(eps), x, y)
    assert np.abs(got - _double_gauss_sum(eps, x, y)).max() <= 1e-13
    far = np.abs(x - y) >= 2.0 * eps
    assert np.array_equal(got[far], np.maximum(x, y)[far])
    assert isinstance(regularized_max(RegularizedMaxKernel(eps),
                                      float(x[0]), float(y[0])), float)


def test_diagonal_strictly_above():
    k = RegularizedMaxKernel(1.0)
    m = regularized_max(k, 2.0, 2.0)
    assert 2.0 < m <= 3.0


def test_convexity_preservation(rng):
    s = np.linspace(-3.0, 3.0, 101)
    for _ in range(20):
        f = rng.uniform(0.1, 1.0) * s * s + rng.normal() * s + rng.normal()
        g = rng.uniform(0.1, 1.0) * np.abs(s - rng.normal()) + rng.normal()
        m = regularized_max(RegularizedMaxKernel(rng.uniform(0.05, 1.0)), f, g)
        assert -np.diff(m, n=2).min() <= 1e-10


def test_epsilon_to_zero_limit(rng):
    x, y = rng.normal(0.0, 2.0, size=(2, 50))
    for eps in (0.1, 0.01, 0.001):
        m = regularized_max(RegularizedMaxKernel(eps), x, y)
        assert np.abs(m - np.maximum(x, y)).max() <= eps + 1e-12


def _weights2d(n=33):
    tau = np.linspace(-4.0, 4.0, n)
    s = np.linspace(-4.0, 4.0, n)
    tt, ss = np.meshgrid(tau, s, indexing="ij")
    outer = 2.0 * tt + 0.1 * ss * ss
    inner = 0.05 * (tt * tt + ss * ss) - 4.0
    poly = np.array([[0.0, -2.0], [2.0, -2.0], [2.0, 2.0], [0.0, 2.0]])
    return (SampledWeight2D(tau, s, outer, poly),
            SampledWeight2D(tau, s, inner, poly), tau, s)


def test_glue_region_validation():
    with pytest.raises(InvalidInputError):
        GlueRegion(1.0, 1.0)


def test_glue_dominance_everywhere_returns_outer():
    outer, _, tau, s = _weights2d()
    eps = 0.2
    inner = outer.with_values(outer.values - 3.0 * eps)
    glued = glue_weights(outer, inner, GlueRegion(-1.0, 1.0),
                         RegularizedMaxKernel(eps))
    assert np.array_equal(glued.values, outer.values)


def test_glue_outer_region_bit_exact_and_convex():
    outer, inner, tau, s = _weights2d()
    region = GlueRegion(-1.0, 1.0)
    glued = glue_weights(outer, inner, region, RegularizedMaxKernel(0.2))
    keep = tau >= region.tau_boundary_outer
    assert np.array_equal(glued.values[keep], outer.values[keep])
    assert grid_line_defects(glued.values, tau, s) <= 1e-10
    # deep inside, the inner weight wins
    assert np.abs(glued.values[0] - inner.values[0]).max() <= 1e-10


def test_glue_dominance_failure_names_worst_point():
    outer, inner, tau, s = _weights2d()
    bad_inner = inner.with_values(inner.values + 50.0)
    with pytest.raises(GluingError) as err:
        glue_weights(outer, bad_inner, GlueRegion(-1.0, 1.0),
                     RegularizedMaxKernel(0.2))
    assert err.value.worst_point is not None


def test_glue_grid_mismatch():
    outer, inner, tau, s = _weights2d()
    other = SampledWeight2D(tau + 1.0, s, inner.values, inner.slope_polytope)
    with pytest.raises(InvalidInputError):
        glue_weights(outer, other, GlueRegion(-1.0, 1.0),
                     RegularizedMaxKernel(0.2))


def test_glue_merges_collinear_segment_polytopes():
    outer, inner, tau, s = _weights2d()
    outer = SampledWeight2D(tau, s, outer.values, [[2.0, 0.0], [2.0, 1.0]])
    inner = SampledWeight2D(tau, s, inner.values, [[2.0, 0.5], [2.0, 2.0]])
    glued = glue_weights(outer, inner, GlueRegion(-1.0, 1.0),
                         RegularizedMaxKernel(0.2))
    # the collinear hull is stored as its segment's two ends
    assert glued.slope_polytope.tolist() == [[2.0, 0.0], [2.0, 2.0]]


def test_glue_merges_polytopes_into_their_hull():
    outer, inner, tau, s = _weights2d()
    # (0, 2) is shared with the outer square and (1, -2), (1, 2) lie on its
    # edges, so neither may come back as a vertex
    inner = SampledWeight2D(tau, s, inner.values,
                            [[1.0, -2.0], [4.0, 0.0], [1.0, 2.0], [0.0, 2.0]])
    glued = glue_weights(outer, inner, GlueRegion(-1.0, 1.0),
                         RegularizedMaxKernel(0.2))
    assert sorted(map(tuple, glued.slope_polytope)) == \
        [(0.0, -2.0), (0.0, 2.0), (2.0, -2.0), (2.0, 2.0), (4.0, 0.0)]
    point = [[1.0, 0.5]]
    glued = glue_weights(SampledWeight2D(tau, s, outer.values, point),
                         SampledWeight2D(tau, s, inner.values, point),
                         GlueRegion(-1.0, 1.0), RegularizedMaxKernel(0.2))
    assert glued.slope_polytope.tolist() == point


def test_glue_translation_covariance():
    outer, inner, tau, s = _weights2d()
    region = GlueRegion(-1.0, 1.0)
    k = RegularizedMaxKernel(0.2)
    a = glue_weights(outer, inner, region, k).values + 1.5
    b = glue_weights(outer.with_values(outer.values + 1.5),
                     inner.with_values(inner.values + 1.5), region, k).values
    assert np.abs(a - b).max() <= 1e-10


def test_hirzebruch_demo_small(tmp_path):
    config = {"k": 3, "d_A": 1, "d_L": 0, "grid": 64, "epsilon": 0.25}
    rep, weights = hirzebruch_demo(config)
    assert rep.passed
    assert rep.details["outer_region_exact"]
    assert rep.details["line_convexity_defect"] <= 1e-9
    assert sorted(weights) == ["glued", "inner", "outer"]
    # the CLI writes each weight as CSV beside the report
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["glue-demo", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == [
        "glued.csv", "hirzebruch-gluing.json", "inner.csv", "outer.csv"]


@pytest.mark.parametrize("config", [
    {}, {"grid": 48}, {"grid": 64}, {"grid": 2048}, {"k": 30, "grid": 2048},
    {"k": 10000}])
def test_hirzebruch_demo_rounding_floor_below_tolerance(config):
    # 2 spacing(max |glued|) / h^2 bounds the rounding in a second divided
    # difference; on these configs it stays under the check's tolerance
    rep, _ = hirzebruch_demo(config)
    assert rep.passed
    assert 0.0 < rep.details["rounding_floor"] < rep.tolerance


def test_hirzebruch_demo_bad_config():
    with pytest.raises(GluingError) as err:
        hirzebruch_demo({"k": 0, "d_A": 1, "d_L": 0})
    assert "config" in str(err.value)


def test_hirzebruch_demo_missing_key():
    # a missing key takes its value from DEMO_CONFIG
    rep, weights = hirzebruch_demo({"grid": 48})
    full_rep, full = hirzebruch_demo({**gluing.DEMO_CONFIG, "grid": 48})
    assert rep.to_dict() == full_rep.to_dict()
    for name, w in full.items():
        assert np.array_equal(weights[name].values, w.values)


def test_corrupted_inner_breaks_convexity():
    outer, inner, tau, s = _weights2d()
    bump = 20.0 * np.exp(-((tau[:, None] + 3.5) ** 2 + s[None, :] ** 2))
    corrupted = inner.with_values(inner.values + bump)
    glued = glue_weights(outer, corrupted, GlueRegion(-1.0, 1.0),
                         RegularizedMaxKernel(0.2))
    assert grid_line_defects(glued.values, tau, s) > 1e-6
