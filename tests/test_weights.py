import numpy as np
import pytest

from envlab import (InvalidInputError, SampledWeight, SampledWeight2D,
                    SlopeInterval, load_weight_csv, save_weight_csv)
from envlab.weights import save_weight2d_csv


def test_slope_interval():
    iv = SlopeInterval(0.0, 3.0)
    assert iv.width == 3.0
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
    assert w.slope_interval.width == 0.0


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
