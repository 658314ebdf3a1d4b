"""Acceptance suite: one test per primary criterion, each printing a single
pass/fail line and enforcing the stated tolerance and runtime budget."""

import math
import time

import numpy as np
import pytest

from envlab import (check_monotone_family, check_sandwich,
                    comparison_constants, default_t_grid, family_curve,
                    fibered_weight, hirzebruch_demo, minimal_singularity_gap,
                    monotone_t_grid, unit_boxes)
from envlab import checks
from conftest import bumpy_model_weight, model_pair, piecewise_quadratic_weight


_capman = None


@pytest.fixture(autouse=True)
def _live_report(request):
    # Pass/fail lines must reach the terminal even under pytest's capture.
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


def _quadratic_case(rng, i):
    return piecewise_quadratic_weight(rng, n=4096, d=1 + i % 3), 1 + i % 3


def test_envelope_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    rep = checks.check_envelope_oracle_equivalence(rng, _quadratic_case, 50)
    elapsed = time.time() - t0
    _report("envelope-oracle-equivalence", rep.passed and elapsed < 30.0,
            f"sup-norm {rep.max_violation:.3e} (tol 1e-08), "
            f"{elapsed:.1f}s (budget 30s)")


def test_family_monotonicity():
    worst = 0.0
    for seed in range(10):
        pair = model_pair(n=513, d_A=1 + seed % 3, d_L=seed % 2, seed=seed)
        fc = family_curve(pair, monotone_t_grid(101))
        worst = max(worst, check_monotone_family(fc).max_violation)
    _report("family-monotonicity", worst <= 1e-9,
            f"max violation {worst:.3e} (tol 1e-09) over 10 seeded pairs")


def test_fiber_volume_unit_mass():
    rep = checks.check_fiber_volume(np.random.default_rng(1003), 100)
    _report("fiber-unit-mass", rep.passed,
            f"max |volume - 1| = {rep.max_violation:.3e} (tol 1e-10), 100 cases")


def test_fiber_gamma_identity():
    rep = checks.check_fiber_normalization(np.random.default_rng(1004), 20)
    d = rep.details
    _report("fiber-gamma-identity", rep.passed,
            f"max rel error {rep.max_violation:.3e} (tol 1e-08); "
            f"K_oracle={d['K_oracle']:g} vs stated K={d['K_stated']:g} -> "
            f"{'agree' if d['normalizations_agree'] else 'DISAGREE'}")


@pytest.fixture(scope="module")
def gap_bound():
    """The 128 x 128 gap-bound problem: its report and wall time."""
    t0 = time.time()
    pair = model_pair(n=128, d_A=2, d_L=1)
    fw = fibered_weight(pair, family_curve(pair, default_t_grid(129)),
                        np.linspace(-30.0, 10.0, 128))
    rep = minimal_singularity_gap(pair, fw)
    return rep, time.time() - t0


def test_envelope_gap_bound(gap_bound):
    rep, elapsed = gap_bound
    _report("envelope-gap-bound", rep.passed and elapsed < 60.0,
            f"observed gap {rep.details['observed_gap']:.4f} <= "
            f"C {rep.details['C']:.4f}, {elapsed:.1f}s (budget 60s)")


def test_envelope_gap_value(gap_bound):
    # gap <= C leaves room for any drift in the family, fibered-weight or
    # 2-d envelope arithmetic; the observed gap itself is pinned
    gap = gap_bound[0].details["observed_gap"]
    assert abs(gap - 0.6919354635176505) <= 1e-12


def test_envelope_gap_constants(gap_bound):
    # every unit box is sampled at its ends as well as its grid points
    d = gap_bound[0].details
    assert d["C1"] == pytest.approx(20.999999998476454, abs=1e-12)
    assert d["C2"] == pytest.approx(20.000000004122306, abs=1e-12)
    assert d["C"] == d["C1"] + d["C2"] + math.log(2.0)


def test_section_sandwich():
    w = bumpy_model_weight(np.random.default_rng(1006), n=2049, d=1)
    cc = comparison_constants(w, unit_boxes(w.grid[0], w.grid[-1]))
    worst = 0.0
    eps_values, abs_gaps = [], []
    for m in (8, 64, 256):
        rep = check_sandwich(w, 1, m, cc)
        worst = max(worst, rep.max_violation)
        eps_values.append(rep.details["epsilon_m"])
        abs_gaps.append(rep.details["abs_gap"])
    eps_ok = all(b <= a + 1e-12 for a, b in zip(eps_values, eps_values[1:]))
    gap_ok = abs_gaps[0] > abs_gaps[1] > abs_gaps[2]
    _report("section-sandwich", worst <= 1e-9 and eps_ok and gap_ok,
            f"chain violation {worst:.3e} (tol 1e-09); gap ladder "
            + " > ".join(f"{g:.4f}" for g in abs_gaps))


def test_coefficient_parseval():
    rep = checks.check_coefficient_parseval(
        np.random.default_rng(1007), model_pair(n=257, d_A=1, d_L=2), 100)
    _report("coefficient-parseval", rep.passed,
            f"max violation {rep.max_violation:.3e} (tol 1e-08), "
            "100 random sections")


def test_regularized_max_contract():
    rep = checks.check_regularized_max_contract(np.random.default_rng(1008),
                                                1000)
    _report("regularized-max-contract", rep.passed,
            f"max violation {rep.max_violation:.3e}, convexity defect "
            f"{rep.details['convexity_defect']:.3e} (tol 1e-10)")


def test_hirzebruch_demo():
    t0 = time.time()
    rep, _ = hirzebruch_demo({"k": 3, "d_A": 1, "d_L": 0, "grid": 128,
                              "epsilon": 0.25})
    elapsed = time.time() - t0
    ok = (rep.passed and rep.details["outer_region_exact"]
          and rep.details["line_convexity_defect"] <= 1e-9
          and elapsed < 120.0)
    _report("hirzebruch-demo", ok,
            f"convexity defect {rep.details['line_convexity_defect']:.3e} "
            f"(tol 1e-09), outer region exact="
            f"{rep.details['outer_region_exact']}, {elapsed:.1f}s (budget 120s)")
