import itertools

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from envlab import (InvalidInputError, SampledWeight, SampledWeight2D,
                    SlopeInterval, load_weight_csv, save_weight_csv)
from envlab.weights import _convex_hull, save_weight2d_csv


def test_slope_interval():
    iv = SlopeInterval(0.0, 3.0)
    assert (iv.sigma_min, iv.sigma_max) == (0.0, 3.0)
    with pytest.raises(InvalidInputError):
        SlopeInterval(1.0, 0.0)


def test_weight_validation():
    g = np.linspace(0, 1, 5)
    with pytest.raises(InvalidInputError):
        SampledWeight(g, np.zeros(4), 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        SampledWeight(g, np.full(5, np.nan), 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        SampledWeight(g[::-1], np.zeros(5), 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        SampledWeight(g, np.zeros(5), 2.0, 1.0)


nan, inf = float("nan"), float("inf")
NON_FINITE = "contains non-finite entries"
INCREASING = "must be strictly increasing"
GRID_CASES = [
    pytest.param([0.0, nan, 2.0, 3.0], NON_FINITE, id="nan-inside"),
    pytest.param([nan, 1.0, 2.0, 3.0], NON_FINITE, id="nan-first"),
    pytest.param([-inf, 1.0, 2.0, 3.0], NON_FINITE, id="minus-inf-first"),
    pytest.param([inf, 1.0, 2.0, 3.0], NON_FINITE, id="inf-first"),
    pytest.param([0.0, 1.0, 2.0, inf], NON_FINITE, id="inf-last"),
    pytest.param([0.0, 1.0, 2.0, -inf], NON_FINITE, id="minus-inf-last"),
    pytest.param([0.0, inf, 2.0, 3.0], NON_FINITE, id="inf-inside"),
    pytest.param([0.0, 1.0, 1.0, 3.0], INCREASING, id="tie"),
    pytest.param([3.0, 2.0, 1.0, 0.0], INCREASING, id="decreasing"),
    # the non-finite entry is named even where the order also fails
    pytest.param([3.0, nan, 1.0, 1.0], NON_FINITE, id="nan-and-tie"),
]


@pytest.mark.parametrize("grid, message", GRID_CASES)
def test_weight_grid_rejections(grid, message):
    with pytest.raises(InvalidInputError, match=f"^grid {message}$"):
        SampledWeight(np.array(grid), np.zeros(4), 0.0, 1.0)
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    ok = np.arange(3.0)
    with pytest.raises(InvalidInputError, match=f"^grid_tau {message}$"):
        SampledWeight2D(np.array(grid), ok, np.zeros((4, 3)), square)
    with pytest.raises(InvalidInputError, match=f"^grid_s {message}$"):
        SampledWeight2D(ok, np.array(grid), np.zeros((3, 4)), square)


@pytest.mark.parametrize("bad", [nan, inf, -inf])
def test_weight_value_and_slope_rejections(bad):
    g = np.arange(4.0)
    values = np.array([0.0, 1.0, bad, 3.0])
    with pytest.raises(InvalidInputError,
                       match="^values contain non-finite entries$"):
        SampledWeight(g, values, 0.0, 1.0)
    with pytest.raises(InvalidInputError,
                       match="^values contain non-finite entries$"):
        SampledWeight2D(g[:2], g, np.vstack((values, np.zeros(4))))
    for slopes in ((bad, 1.0), (0.0, bad), (np.float64(bad), 1.0)):
        with pytest.raises(InvalidInputError, match="^slopes must be finite$"):
            SampledWeight(g, np.zeros(4), *slopes)


def test_weight_call_interpolates_and_extrapolates():
    w = SampledWeight(np.array([0.0, 1.0]), np.array([0.0, 2.0]), -1.0, 3.0)
    assert w(0.5) == pytest.approx(1.0)
    # affine continuation with the declared slopes
    assert w(-2.0) == pytest.approx(0.0 + (-1.0) * (-2.0))
    assert w(3.0) == pytest.approx(2.0 + 3.0 * 2.0)
    out = w(np.array([0.25, 0.75]))
    assert out.shape == (2,)


def test_weight_helpers():
    w = SampledWeight(np.linspace(-1, 1, 11), np.zeros(11), 0.0, 0.0)
    w2 = w.with_values(np.ones(11), slope_right=1.0)
    assert w2.slope_right == 1.0
    assert w.slope_interval == SlopeInterval(0.0, 0.0)


def test_weight2d_validation():
    gt = np.linspace(0, 1, 3)
    gs = np.linspace(0, 1, 4)
    with pytest.raises(InvalidInputError):
        SampledWeight2D(gt, gs, np.zeros((4, 3)))
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    w = SampledWeight2D(gt, gs, np.zeros((3, 4)), square)
    assert w.slope_polytope.shape == (4, 2)
    nonconvex = np.array([[0, 0], [2, 0], [1, 0.2], [0, 2], [2, 2.0]])
    with pytest.raises(InvalidInputError):
        SampledWeight2D(gt, gs, np.zeros((3, 4)), nonconvex)


def test_convex_hull_and_convexity_check_match_qhull():
    # the hull is Qhull's counter-clockwise vertex cycle from its
    # lexicographically smallest vertex, and a cloud is rejected exactly
    # when one of its points is strictly inside Qhull's hull
    gt, gs = np.linspace(0, 1, 3), np.linspace(0, 1, 4)
    rng = np.random.default_rng(2025)
    for _ in range(300):
        pts = rng.integers(-4, 5, size=(int(rng.integers(3, 10)), 2)).astype(float)
        d = pts[1:] - pts[0]
        if not np.any(d[:, 0] * d[:, None, 1] - d[:, 1] * d[:, None, 0]):
            continue  # all on one line: no 2-d hull for Qhull
        qhull = ConvexHull(pts)
        cycle = pts[qhull.vertices]
        start = np.lexsort(cycle.T[::-1])[0]
        assert _convex_hull(pts).tolist() == np.roll(cycle, -start, axis=0).tolist()
        eq = qhull.equations
        if (pts @ eq[:, :2].T + eq[:, 2] < -1e-9).all(axis=1).any():
            with pytest.raises(InvalidInputError, match="not convex"):
                SampledWeight2D(gt, gs, np.zeros((3, 4)), pts)
        else:
            stored = SampledWeight2D(gt, gs, np.zeros((3, 4)), pts).slope_polytope
            assert stored.tolist() == _convex_hull(pts).tolist()


@pytest.mark.parametrize("poly, stored", [
    ([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [1.0, 0.0], [2.0, 2.0]],
     [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]),
    ([[2.0, 0.0], [0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [-1.0, 0.0]],
     [[-1.0, 0.0], [2.0, 0.0]]),
    ([[-3.0, 1.0], [-0.3, 0.1], [3.0, -1.0], [0.0, 3.0]],
     [[-3.0, 1.0], [3.0, -1.0], [0.0, 3.0]]),
], ids=["square", "segment", "float-mid-edge"])
def test_stored_polytope_does_not_depend_on_vertex_order(poly, stored):
    # a vertex on an edge, within a 1e-12 turn of its neighbours' chord, is
    # no corner and is not stored: (1, 0) exactly, and (-0.3, 0.1) at a
    # turn of about 1e-17 in floats
    gt, gs = np.linspace(0, 1, 3), np.linspace(0, 1, 4)
    for order in itertools.permutations(poly):
        w = SampledWeight2D(gt, gs, np.zeros((3, 4)), list(order))
        assert w.slope_polytope.tolist() == stored


def test_weight_csv_roundtrip(tmp_path, rng):
    g = np.linspace(-5, 5, 64)
    w = SampledWeight(g, rng.normal(size=64), -0.5, 2.5)
    path = tmp_path / "w.csv"
    save_weight_csv(w, path)
    back = load_weight_csv(path)
    assert np.array_equal(back.grid, w.grid)
    assert np.array_equal(back.values, w.values)
    assert back.slope_left == w.slope_left
    assert back.slope_right == w.slope_right


def test_weight_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("s,u\n1,2,3\n")
    with pytest.raises(InvalidInputError):
        load_weight_csv(bad)
    with pytest.raises(InvalidInputError):
        load_weight_csv(tmp_path / "missing.csv")


@pytest.mark.parametrize("sidecar", [
    '{"slope_left": false, "slope_right": true}',
    '{"slope_left": "0", "slope_right": 1}',
    '{"slope_left": 0, "slope_right": null}',
    '{"slope_left": 0, "slope_right": 1' + "0" * 400 + '}',
    '[0, 1]',
], ids=["bools", "string", "null", "int-past-float-range", "list"])
def test_weight_csv_sidecar_slopes_must_be_numbers(tmp_path, sidecar):
    # the same number rule as the glue-demo config: bools are not numbers
    path = tmp_path / "w.csv"
    save_weight_csv(SampledWeight(np.linspace(0.0, 1.0, 5), np.zeros(5), 0, 1), path)
    (tmp_path / "w.csv.json").write_text(sidecar)
    with pytest.raises(InvalidInputError, match="bad slope sidecar"):
        load_weight_csv(path)
    (tmp_path / "w.csv.json").write_text('{"slope_left": 0, "slope_right": 1}')
    assert load_weight_csv(path).slope_interval == SlopeInterval(0.0, 1.0)


def test_weight2d_csv_layout(tmp_path):
    gt = np.linspace(0, 1, 3)
    gs = np.linspace(0, 1, 2)
    w = SampledWeight2D(gt, gs, np.arange(6.0).reshape(3, 2))
    path = tmp_path / "w2.csv"
    save_weight2d_csv(w, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "tau,s,phi"
    assert len(lines) == 1 + 6


AWKWARD = [-0.0, 5e-324, 0.1, 1 / 3, 1e300, -2.5e-17]


def test_csv_writers_match_per_element_format(tmp_path):
    # reference: one f-string per element on numpy scalars
    grid = np.concatenate([np.linspace(-3.0, -1.0, 5000),
                           np.sort(np.array(AWKWARD))])
    w = SampledWeight(grid, np.resize(np.array(AWKWARD), grid.size), -0.0, 1e300)
    expected = "s,u\n" + "".join(f"{float(s)!r},{float(u)!r}\n"
                                 for s, u in zip(w.grid, w.values))
    save_weight_csv(w, tmp_path / "w.csv")
    assert (tmp_path / "w.csv").read_text() == expected

    axis = np.sort(np.array(AWKWARD))
    vals = np.array([np.roll(AWKWARD, i) for i in range(axis.size)])
    w2 = SampledWeight2D(axis, axis, vals)
    expected = "tau,s,phi\n" + "".join(
        f"{float(tau)!r},{float(s)!r},{float(w2.values[i, j])!r}\n"
        for i, tau in enumerate(w2.grid_tau) for j, s in enumerate(w2.grid_s))
    save_weight2d_csv(w2, tmp_path / "w2.csv")
    assert (tmp_path / "w2.csv").read_text() == expected
    assert "-0.0," in expected and "5e-324" in expected
