import tracemalloc

import numpy as np
import pytest

from envlab import (FamilyCurve, InvalidInputError, InvalidParameterError,
                    check_monotone_family, check_right_continuity,
                    equilibrium_envelope, family_curve, fibered_weight,
                    hull_envelope, minimal_singularity_gap, mix_weights,
                    monotone_t_grid, naive_fibered_weight, cayley_polytope,
                    default_t_grid, SlopeInterval)
from envlab import family
from envlab.report import CHECKS
from conftest import model_pair


@pytest.fixture(scope="module")
def pair():
    return model_pair(n=257)


@pytest.fixture(scope="module")
def fc(pair):
    return family_curve(pair, monotone_t_grid())


def test_mix_endpoints(pair):
    assert np.array_equal(mix_weights(pair, 0.0).values, pair.phi_L.values)
    assert np.array_equal(mix_weights(pair, 1.0).values, pair.phi_A.values)
    mid = mix_weights(pair, 0.5)
    assert mid.slope_right == pytest.approx(0.5 * (pair.d_A + pair.d_L))
    for bad in (1.5, -0.25, float("nan")):
        with pytest.raises(InvalidParameterError,
                           match=rf"^t must lie in \[0, 1\], got {bad}$"):
            mix_weights(pair, bad)


def test_family_curve_nonpositive(fc):
    assert fc.psi.shape == (fc.t_grid.size, fc.pair.grid.size)
    assert fc.psi.max() <= 1e-12


def test_family_offset_matches_hull_oracle(pair, fc):
    i = np.argmin(np.abs(fc.t_grid - 0.3))
    t = float(fc.t_grid[i])
    mix = mix_weights(pair, t)
    oracle = hull_envelope(mix, SlopeInterval(0.0, mix.slope_right))
    assert np.abs(fc.psi[i] - (oracle.values - mix.values)).max() <= 1e-8


def test_convex_pair_gives_zero_family():
    p = model_pair(n=129, d_A=1, d_L=1)  # default bumps...
    s = p.grid
    convex = p.phi_A  # d_A * softplus, convex
    from envlab import ModelBundlePair
    p0 = ModelBundlePair(convex, 1, convex, 1)
    fc0 = family_curve(p0, monotone_t_grid(11))
    assert np.abs(fc0.psi).max() <= 1e-10


def test_monotone_family(fc):
    rep = check_monotone_family(fc)
    assert rep.passed
    assert rep.max_violation <= 1e-9


def test_monotone_family_rejects_t_equal_one(pair):
    fc_bad = family_curve(pair, np.array([0.0, 0.5, 1.0]))
    with pytest.raises(InvalidParameterError):
        check_monotone_family(fc_bad)


def test_corrupted_family_fails(fc):
    from envlab import FamilyCurve
    psi = fc.psi.copy()
    psi[[10, 60]] = psi[[60, 10]]
    rep = check_monotone_family(FamilyCurve(fc.pair, fc.t_grid, psi))
    assert not rep.passed


def _dense_monotone_violation(fc):
    """The monotonicity violation by the dense formula over stacked rows."""
    h = fc.psi / (1.0 - fc.t_grid)[:, None]
    return float(np.maximum(0.0, -np.diff(h, axis=0)).max())


def test_streamed_monotone_check_matches_dense_formula(fc):
    rng = np.random.default_rng(7)
    swapped = fc.psi.copy()
    swapped[[10, 60]] = swapped[[60, 10]]
    # exact ties and signed zeros, where -(a - b) and b - a must agree
    ties = rng.choice([0.0, -0.0, -0.5, -1.0], size=fc.psi.shape)
    nan_row, nan_last = fc.psi.copy(), fc.psi.copy()
    nan_row[40, 17] = np.nan
    nan_last[-1, 3] = np.nan
    for psi in (fc.psi, swapped, ties, nan_row, nan_last):
        curve = FamilyCurve(fc.pair, fc.t_grid, psi)
        rep = check_monotone_family(curve)
        dense = _dense_monotone_violation(curve)
        assert np.float64(rep.max_violation).tobytes() == np.float64(dense).tobytes()
    # a NaN anywhere, the last row too, fails the check
    for psi in (nan_row, nan_last):
        assert not check_monotone_family(FamilyCurve(fc.pair, fc.t_grid, psi)).passed


def test_monotone_check_stays_below_one_stacked_array(fc):
    psi = np.repeat(fc.psi, 4, axis=0)
    curve = FamilyCurve(fc.pair, monotone_t_grid(psi.shape[0]), psi)
    tracemalloc.start()
    try:
        check_monotone_family(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < psi.nbytes


def test_right_continuity(pair, fc):
    rep = check_right_continuity(fc)
    assert rep.passed
    # about 8 t of the family's grid, each with room for the largest offset
    t_values = rep.grid["t_values"]
    assert len(t_values) == 8 and set(t_values) <= set(fc.t_grid.tolist())
    assert 0.0 < min(t_values) and max(t_values) + 1 / 32 < 1.0
    for ladder in rep.details["residuals"].values():
        assert all(b <= a + 1e-9 for a, b in zip(ladder, ladder[1:]))


def _count_envelopes(monkeypatch):
    """Record the slope interval of every 1-d envelope the family takes."""
    calls = []
    envelope = family.equilibrium_envelope
    monkeypatch.setattr(family, "equilibrium_envelope",
                        lambda w, iv: calls.append(iv) or envelope(w, iv))
    return calls


def test_right_continuity_reuses_family_psi(pair, fc, monkeypatch):
    # psi_t is the family's own row, so each checked t takes exactly one
    # envelope per offset t + d, and the ladder starts from that row
    calls = _count_envelopes(monkeypatch)
    rep = check_right_continuity(fc)
    t_values = rep.grid["t_values"]
    assert len(calls) == 4 * len(t_values)
    t, d = t_values[0], 1 / 32
    row = fc.psi[fc.t_grid.tolist().index(t)]
    mix = mix_weights(pair, t + d)
    ahead = equilibrium_envelope(mix, mix.slope_interval).values - mix.values
    assert rep.details["residuals"][t][0] == \
        np.abs(ahead / (1.0 - t - d) - row / (1.0 - t)).max()


def test_family_curve_takes_one_envelope_per_t(pair, monkeypatch):
    calls = _count_envelopes(monkeypatch)
    fcc = family_curve(pair, [0.0, 0.25, 1.0])
    assert [iv.sigma_max for iv in calls] == [
        family.mixed_degree(pair, t) for t in (0.0, 0.25, 1.0)]
    # an out-of-range t is refused before any envelope is taken
    with pytest.raises(InvalidParameterError):
        family_curve(pair, [0.0, 0.5, 1.5])
    assert len(calls) == 3
    mix = mix_weights(pair, 0.25)
    env = equilibrium_envelope(mix, SlopeInterval(0.0, mix.slope_right))
    assert np.array_equal(fcc.psi[1], env.values - mix.values)


def test_family_curve_rows_must_match_the_grid(fc):
    with pytest.raises(InvalidInputError):
        FamilyCurve(fc.pair, fc.t_grid, fc.psi[:, 1:])
    with pytest.raises(InvalidInputError):
        FamilyCurve(fc.pair, fc.t_grid[1:], fc.psi)


def test_fibered_weight_structure(pair):
    fcc = family_curve(pair, default_t_grid(65))
    tau = np.linspace(-200.0, 200.0, 41)
    fw = fibered_weight(pair, fcc, tau)
    assert np.array_equal(fw.slope_polytope.shape, (4, 2))
    # tau-slope of the max lies in [0, 1]
    dtau = np.diff(fw.values, axis=0) / np.diff(tau)[:, None]
    assert dtau.min() >= -1e-12 and dtau.max() <= 1.0 + 1e-12
    # asymptotics: phi - tau -> (phi_A)_e as tau -> +inf, phi -> (phi_L)_e as tau -> -inf
    env_A = equilibrium_envelope(pair.phi_A, SlopeInterval(0.0, pair.d_A))
    env_L = equilibrium_envelope(pair.phi_L, SlopeInterval(0.0, pair.d_L))
    assert np.abs(fw.values[-1] - tau[-1] - env_A.values).max() <= 1e-9
    assert np.abs(fw.values[0] - env_L.values).max() <= 1e-9


def test_fibered_weight_needs_endpoints(pair):
    fcc = family_curve(pair, monotone_t_grid(11))
    with pytest.raises(InvalidParameterError):
        fibered_weight(pair, fcc, np.linspace(-1, 1, 5))


def test_fibered_weight_needs_its_own_family_curve(pair):
    # another pair on the same grid: its psi rows would be mixed with
    # pair's values into a wrong weight
    other = model_pair(n=257, seed=1)
    assert np.array_equal(other.grid, pair.grid)
    with pytest.raises(InvalidInputError):
        fibered_weight(pair, family_curve(other, default_t_grid(9)),
                       np.linspace(-1, 1, 5))


def test_t_grid_refinement_never_decreases(pair):
    tau = np.linspace(-10.0, 10.0, 21)
    prev = None
    sup_diffs = []
    for n in (9, 17, 33, 65):
        fw = fibered_weight(pair, family_curve(pair, default_t_grid(n)), tau)
        if prev is not None:
            assert (prev - fw.values).max() <= 1e-12
            sup_diffs.append(np.abs(fw.values - prev).max())
        prev = fw.values
    assert sup_diffs[-1] <= sup_diffs[0] + 1e-12


def test_naive_weight_dominates_by_at_most_log2_when_convex():
    from envlab import ModelBundlePair, SampledWeight
    s = np.linspace(-20, 20, 129)
    soft = np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0)
    p = ModelBundlePair(SampledWeight(s, 2 * soft, 0.0, 2.0), 2,
                        SampledWeight(s, soft, 0.0, 1.0), 1)
    tau = np.linspace(-40.0, 40.0, 33)
    fw = fibered_weight(p, family_curve(p, default_t_grid(129)), tau)
    naive = naive_fibered_weight(p, tau)
    gap = naive.values - fw.values
    assert gap.min() >= -1e-9            # log-sum dominates the max over t
    assert gap.max() <= np.log(2.0) + 1e-6


def test_minimal_singularity_gap():
    sub = model_pair(n=64)
    fw = fibered_weight(sub, family_curve(sub, default_t_grid(65)),
                        np.linspace(-30.0, 10.0, 48))
    rep = minimal_singularity_gap(sub, fw)
    assert rep.passed
    assert rep.details["observed_gap"] <= rep.details["C"]
    assert rep.details["K"] == pytest.approx(2.0)
    assert rep.tolerance == CHECKS["envelope-gap-bound"].tol


def test_cayley_polytope(pair):
    poly = cayley_polytope(pair)
    assert poly.shape == (4, 2)
    assert poly[:, 0].min() == 0.0 and poly[:, 0].max() == 1.0
