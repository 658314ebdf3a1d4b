import math

import numpy as np
import pytest

from envlab import (ComparisonConstants, InvalidCoverError, InvalidInputError,
                    SampledWeight, SlopeInterval, ToricSection,
                    VerificationReport, check_sandwich, checks,
                    coefficient_inequality, comparison_constants,
                    equilibrium_envelope, legendre_values, psi1_approximant,
                    psi2_approximant, unit_boxes)
from envlab.measures import base_density
from envlab.sections import _fiber_quadrature, _segment_nodes
from conftest import bumpy_model_weight, model_pair


@pytest.fixture(scope="module")
def bumpy():
    return bumpy_model_weight(np.random.default_rng(5), n=1025, d=1)


def test_psi1_exact_on_lattice_slopes():
    s = np.linspace(-20, 20, 2001)
    u = np.maximum.reduce([np.zeros_like(s), 0.5 * s, s - 2.0])
    w = SampledWeight(s, u, 0.0, 1.0)
    psi1 = psi1_approximant(w, 1, 2)
    assert np.abs(psi1.values - u).max() <= 1e-12


def test_psi1_matches_direct_enumeration(bumpy):
    m = 8
    lattice = np.arange(m + 1) / m
    conj = legendre_values(bumpy, lattice)
    s0 = 0.0
    direct = max(sig * s0 - c for sig, c in zip(lattice, conj))
    assert psi1_approximant(bumpy, 1, m)(s0) == pytest.approx(direct, abs=1e-12)


def test_psi1_below_envelope_and_monotone(bumpy):
    env = equilibrium_envelope(bumpy, SlopeInterval(0.0, 1.0))
    prev = None
    for m in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        psi1 = psi1_approximant(bumpy, 1, m)
        assert (psi1.values - env.values).max() <= 1e-9
        if prev is not None:
            assert (prev - psi1.values).max() <= 1e-12
        prev = psi1.values


def test_psi1_degree_zero_is_constant(bumpy):
    w0 = bumpy.with_values(np.abs(np.tanh(bumpy.grid)), 0.0, 0.0)
    psi1 = psi1_approximant(w0, 0, 4)
    assert np.allclose(psi1.values, w0.values.min())


def test_psi2_zero_weight_normalized_measure():
    s = np.linspace(-20, 20, 501)
    w = SampledWeight(s, np.zeros_like(s), 0.0, 0.0)
    psi2 = psi2_approximant(w, 0, 1)
    assert np.abs(psi2.values).max() <= 1e-9


def test_psi2_dominates_psi1(bumpy):
    p1 = psi1_approximant(bumpy, 1, 8)
    p2 = psi2_approximant(bumpy, 1, 8)
    assert (p1.values - p2.values).max() <= 1e-12


def test_comparison_constants():
    s = np.linspace(0.0, 1.0, 101)
    w = SampledWeight(s, s.copy(), 1.0, 1.0)
    cc = comparison_constants(w, [(0.0, 1.0)])
    assert cc.c1 == pytest.approx(1.0)
    assert cc.total == cc.c1 + cc.c2
    flat = comparison_constants(w.with_values(np.zeros_like(s)), [(0.0, 1.0)])
    assert flat.c1 == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidInputError):
        ComparisonConstants(-1.0, 0.0)


def test_comparison_constants_cover_errors(bumpy):
    with pytest.raises(InvalidCoverError):
        comparison_constants(bumpy, [(-20.0, 0.0), (5.0, 20.0)])
    with pytest.raises(InvalidCoverError):
        comparison_constants(bumpy, [(-20.0, 10.0)])
    with pytest.raises(InvalidCoverError):
        comparison_constants(bumpy, [])


def test_sandwich(bumpy):
    cc = comparison_constants(bumpy, unit_boxes(bumpy.grid[0], bumpy.grid[-1]))
    gaps = []
    for m in (8, 64, 256):
        rep = check_sandwich(bumpy, 1, m, cc)
        assert rep.passed
        gaps.append(rep.details["abs_gap"])
        assert rep.details["epsilon_m"] >= 0.0
    assert gaps[0] > gaps[1] > gaps[2]


def test_sandwich_degree_zero_skips_big_case(bumpy):
    w0 = bumpy.with_values(np.abs(np.tanh(bumpy.grid)), 0.0, 0.0)
    cc = comparison_constants(w0, unit_boxes(w0.grid[0], w0.grid[-1]))
    rep = check_sandwich(w0, 0, 8, cc)
    assert rep.passed
    assert "epsilon_m" not in rep.details


def test_toric_section_validation():
    with pytest.raises(InvalidInputError):
        ToricSection(0, {(0, 0): 1.0})
    with pytest.raises(InvalidInputError):
        ToricSection(2, {(3, 0): 1.0})
    with pytest.raises(InvalidInputError):
        ToricSection(2, {(1, 0): 0.0})
    sec = ToricSection(2, {(1, 0): 1.0, (2, 1): 0.0})
    assert (2, 1) not in sec.coefficients


@pytest.fixture(scope="module")
def pair():
    return model_pair(n=257, d_A=1, d_L=2)


def test_coefficient_inequality_single_term(pair):
    rep = coefficient_inequality(ToricSection(4, {(2, 1): 1 + 1j}), pair)
    assert rep.passed
    assert rep.details["terms"]["2"] == pytest.approx(rep.details["total"])


def test_coefficient_inequality_two_equal_terms(pair):
    sec = ToricSection(4, {(1, 0): 1.0, (3, 0): 1.0})
    rep = coefficient_inequality(sec, pair)
    assert rep.passed
    total = rep.details["total"]
    for v in rep.details["terms"].values():
        assert v <= total * (1 + 1e-12)


def test_coefficient_inequality_random(pair, rng, monkeypatch):
    # each section's worst term excess and Parseval mismatch within 1e-8
    assert checks.check_coefficient_parseval(rng, pair, 10, 1e-8).passed
    broken = VerificationReport("coefficient-parseval", 1e-6, 1e-8)
    monkeypatch.setattr(checks, "coefficient_inequality", lambda s, p: broken)
    assert not checks.check_coefficient_parseval(rng, pair, 10, 1e-8).passed


def test_scaling_shifts_log_norm(pair):
    sec = ToricSection(4, {(1, 1): 1.0, (2, 0): 2.0})
    lam = 3.0
    scaled = ToricSection(4, {k: lam * c for k, c in sec.coefficients.items()})
    r1 = coefficient_inequality(sec, pair)
    r2 = coefficient_inequality(scaled, pair)
    # |lam F|^2 integrals scale by lam^2 exactly
    assert r2.details["total"] == pytest.approx(lam ** 2 * r1.details["total"],
                                                rel=1e-12)


def _literal_average_oracle(section, pair):
    """Terms and total by the plain theta/l broadcast loop over the angle grid.

    Same nodes and kernel as ``coefficient_inequality``; the total averages
    np.abs(F)**2 over phi, then over theta, one fiber degree at a time.
    """
    m = section.m
    s_nodes, s_wt = _segment_nodes(pair.grid, order=2)
    meas = base_density(s_nodes) * s_wt
    a = np.exp(pair.phi_A(s_nodes))
    b = np.exp(pair.phi_L(s_nodes))
    r, r_wt = _fiber_quadrature()
    core = (r[:, None] ** 2 * a[None, :] + b[None, :])
    kernel = core ** (-(m + 2.0)) * (2.0 * r[:, None] * a[None, :] * b[None, :])
    kernel *= r_wt[:, None] * meas[None, :]
    by_l = {}
    for (l, k), c in section.coefficients.items():
        by_l.setdefault(l, {})[k] = c
    terms = {}
    for l, coeffs in sorted(by_l.items()):
        avg = np.zeros(s_nodes.size)
        for k, c in coeffs.items():
            avg += abs(c) ** 2 * np.exp(k * s_nodes)
        terms[l] = float((r[:, None] ** (2 * l) * avg[None, :] * kernel).sum())
    k_max = max(k for (_, k) in section.coefficients)
    n_theta, n_phi = 2 * m + 3, 2 * k_max + 3
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    base = {}
    for l, coeffs in by_l.items():
        bl = np.zeros((s_nodes.size, n_phi), dtype=complex)
        for k, c in coeffs.items():
            bl += c * np.exp(k * s_nodes / 2.0)[:, None] * np.exp(1j * k * phi)[None, :]
        base[l] = bl
    avg_sq = np.zeros((r.size, s_nodes.size))
    for th in theta:
        f_th = np.zeros((r.size, s_nodes.size, n_phi), dtype=complex)
        for l, bl in base.items():
            f_th += (r ** l * np.exp(1j * l * th))[:, None, None] * bl[None, :, :]
        avg_sq += (np.abs(f_th) ** 2).mean(axis=2)
    avg_sq /= n_theta
    return {str(l): v for l, v in terms.items()}, float((avg_sq * kernel).sum())


@pytest.mark.parametrize("k_max", [0, 3])
@pytest.mark.parametrize("m", [1, 2, 4, 7])
def test_literal_average_matches_broadcast_loop(pair, m, k_max):
    rng = np.random.default_rng(1000 * m + k_max)
    draw = lambda: complex(rng.normal(), rng.normal())
    single = {(int(rng.integers(0, m + 1)), k_max): draw()}
    every = {(l, int(rng.integers(0, k_max + 1))): draw() for l in range(m + 1)}
    every[(m, k_max)] = draw()
    mixed = {(int(rng.integers(0, m + 1)), int(rng.integers(0, k_max + 1))): draw()
             for _ in range(6)}
    mixed[(0, k_max)] = draw()
    for coeffs in (single, every, mixed):
        sec = ToricSection(m, coeffs)
        rep = coefficient_inequality(sec, pair)
        terms, total = _literal_average_oracle(sec, pair)
        assert rep.details["terms"] == terms
        assert abs(rep.details["total"] - total) <= 1e-13 * total
        assert rep.grid["angles"] == [2 * m + 3, 2 * k_max + 3]
