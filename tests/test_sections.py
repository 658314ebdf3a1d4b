import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlab import (ComparisonConstants, FiberMeasure, InvalidCoverError,
                    InvalidInputError, InvalidParameterError, ModelBundlePair,
                    NoEnvelopeError, SampledWeight, SlopeInterval,
                    ToricSection, VerificationReport, check_sandwich, checks,
                    coefficient_inequality, comparison_constants,
                    equilibrium_envelope, holder_fiber_chain, psi1_approximant,
                    psi2_approximant, unit_boxes)
from envlab.measures import base_density
from envlab.cli import _bump_pair
from envlab.sections import (PARSEVAL_TOL, _angle_sum_sq, _fiber_quadrature,
                             _lattice_max, _log_norms_squared, _parseval_kernel,
                             _segment_nodes, _tail_nodes)
from conftest import bumpy_model_weight, model_pair, weights_of_degree


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
    conj = [max(sig * s - u for s, u in zip(bumpy.grid, bumpy.values))
            for sig in lattice]
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


def _dense_lattice_max(w, lattice, c):
    return (lattice[:, None] * w.grid[None, :] - c[:, None]).max(axis=0)


@settings(max_examples=100, deadline=None)
@given(weights_of_degree(min_degree=0), st.integers(1, 16))
def test_psi_approximants_are_dense_lattice_maxima(wd, m):
    # psi1 against a dense conjugate at every k/m, psi2 against its L2 norms
    w, d = wd
    lattice = np.arange(m * d + 1) / m
    conj = (lattice[:, None] * w.grid[None, :] - w.values[None, :]).max(axis=1)
    norms = _log_norms_squared(w, lattice, m) / m
    for psi, c in ((psi1_approximant(w, d, m), conj),
                   (psi2_approximant(w, d, m), norms)):
        assert (psi.slope_left, psi.slope_right) == (0.0, float(d))
        assert psi.values.tobytes() == _dense_lattice_max(w, lattice, c).tobytes()


def test_lattice_max_matches_dense_maximum_on_signed_zeros():
    # 0 * s is -0.0 for s < 0, so rows tie at +-0 and the running maximum
    # must keep the zero the dense reduction keeps
    rng = np.random.default_rng(3)
    w = SampledWeight(np.linspace(-2.0, 2.0, 9), np.zeros(9), 0.0, 1.0)
    for _ in range(200):
        size = int(rng.integers(1, 12))
        lattice = np.sort(rng.choice([0.0, -0.0, 0.5, 1.0], size=size))
        c = rng.choice([0.0, -0.0, 1.0, -1.0], size=size)
        assert (_lattice_max(w, lattice, c).values.tobytes()
                == _dense_lattice_max(w, lattice, c).tobytes())


def test_lattice_max_stays_below_one_stacked_array(bumpy):
    lattice = np.arange(257) / 256.0
    c = _log_norms_squared(bumpy, lattice, 256) / 256
    tracemalloc.start()
    try:
        _lattice_max(bumpy, lattice, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < lattice.size * bumpy.grid.size * 8


def _exp_everywhere_log_norms(w, lattice, m):
    """log L2^2 monomial norms with exp taken over every node."""
    nodes_mid, wt_mid = _segment_nodes(w.grid)
    nodes_lo, wt_lo = _tail_nodes(w.grid[0], -1.0)
    nodes_hi, wt_hi = _tail_nodes(w.grid[-1], +1.0)
    nodes = np.concatenate([nodes_lo, nodes_mid, nodes_hi])
    wt = np.concatenate([wt_lo, wt_mid, wt_hi])
    log_meas = np.log(np.maximum(base_density(nodes), 1e-300)) + np.log(wt)
    expo = (m * lattice[:, None] * nodes[None, :] - m * w(nodes)[None, :]
            + log_meas[None, :])
    top = expo.max(axis=1)
    sums = np.exp(expo - top[:, None]).sum(axis=1)
    return np.array([t + math.log(v) for t, v in zip(top, sums)])


def test_exp_is_exactly_zero_below_the_underflow_cut():
    # the psi2 norms skip exp at or below -746 and write 0.0 there instead
    sweep = np.concatenate([
        np.nextafter(-746.0, -np.inf) - np.arange(1000) * 1e-12,
        np.linspace(-746.0, -800.0, 200_001),
        -np.logspace(np.log10(800.0), 300.0, 1000), [-np.inf]])
    assert np.exp(sweep).tobytes() == np.zeros_like(sweep).tobytes()


@pytest.mark.parametrize("m", [1, 8, 256])
def test_log_norms_match_exp_everywhere(bumpy, m):
    lattice = np.arange(m + 1) / m
    norms = _log_norms_squared(bumpy, lattice, m)
    assert norms.tobytes() == _exp_everywhere_log_norms(bumpy, lattice, m).tobytes()


@pytest.mark.parametrize("approximant", [psi1_approximant, psi2_approximant])
def test_empty_slope_lattice_has_no_approximant(bumpy, approximant):
    # no k/64 lies in [0.501, 0.51]
    w = bumpy.with_values(bumpy.values, 0.501, 0.51)
    with pytest.raises(NoEnvelopeError):
        approximant(w, 1, 64)


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


_SMALL_PAIR = model_pair(n=33)


@pytest.mark.parametrize("build, error", [
    (lambda v: ModelBundlePair(_SMALL_PAIR.phi_A, v, _SMALL_PAIR.phi_L, 1),
     InvalidInputError),
    (lambda v: ModelBundlePair(_SMALL_PAIR.phi_A, 2, _SMALL_PAIR.phi_A, v),
     InvalidInputError),
    (lambda v: ToricSection(v, {(0, 0): 1.0}), InvalidInputError),
    (lambda v: ToricSection(2, {(v, 0): 1.0}), InvalidInputError),
    (lambda v: ToricSection(2, {(0, v): 1.0}), InvalidInputError),
    (lambda v: psi1_approximant(_SMALL_PAIR.phi_A, v, 2), InvalidParameterError),
    (lambda v: psi2_approximant(_SMALL_PAIR.phi_A, 2, v), InvalidParameterError),
    (lambda v: holder_fiber_chain(FiberMeasure(1.0, 1.0), 0.5, v),
     InvalidParameterError),
], ids=["d_A", "d_L", "section-power", "fiber-exponent", "base-exponent",
        "degree", "power", "holder-power"])
@pytest.mark.parametrize("value", [1.5, 2.5, math.nan, math.inf, -math.inf, True],
                         ids=["1.5", "2.5", "nan", "inf", "-inf", "True"])
def test_integer_parameters_reject_non_integers(build, error, value):
    # a fraction is not truncated, a boolean is not a number, and NaN and
    # the infinities give the site's typed error, not a raw one
    with pytest.raises(error):
        build(value)
    for whole in (2, 2.0, np.int64(2)):
        build(whole)


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


@pytest.mark.parametrize("exponent", [-480, -500])
def test_coefficient_inequality_is_scale_free(pair, exponent):
    # scaling every coefficient by a power of two scales every term and the
    # total by its square exactly; at 2^-500 the total is about 3e-302,
    # still a normal float, and the violation keeps every bit
    coeffs = {(2, 1): 1 + 1j, (0, 0): 0.3 - 2j, (3, 2): 0.5}
    unit = coefficient_inequality(ToricSection(4, coeffs), pair)
    scaled = coefficient_inequality(ToricSection(4, {
        lk: c * 2.0 ** exponent for lk, c in coeffs.items()}), pair)
    assert 0.0 < scaled.details["total"] < 1e-288
    assert scaled.max_violation == unit.max_violation


def test_coefficient_inequality_random(pair, rng, monkeypatch):
    # each section's worst term excess and Parseval mismatch within 1e-8
    assert checks.check_coefficient_parseval(rng, pair, 10, 1e-8).passed
    broken = VerificationReport("coefficient-parseval", 1e-6, 1e-8)
    monkeypatch.setattr(checks, "coefficient_inequality", lambda s, p: broken)
    assert not checks.check_coefficient_parseval(rng, pair, 10, 1e-8).passed


@st.composite
def sections(draw):
    """Degree m in 1..7, base degree <= 3, 1 to 6 nonzero coefficients."""
    m = draw(st.integers(1, 7))
    polar = st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 2.0 * math.pi))
    coeffs = draw(st.dictionaries(st.tuples(st.integers(0, m), st.integers(0, 3)),
                                  polar, min_size=1, max_size=6))
    return ToricSection(m, {lk: rho * complex(math.cos(a), math.sin(a))
                            for lk, (rho, a) in coeffs.items()})


@settings(max_examples=50, deadline=None)
@given(sections(), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0))
def test_parseval_phase_invariant_and_quadratic(pair, sec, alpha, beta, lam):
    rep = coefficient_inequality(sec, pair)
    total = rep.details["total"]
    # c_lk -> c_lk e^{i(l alpha + k beta)} rotates F in both angles, and the
    # angle grids integrate |F|^2 exactly, so nothing may move
    turned = coefficient_inequality(ToricSection(sec.m, {
        (l, k): c * complex(math.cos(l * alpha + k * beta),
                            math.sin(l * alpha + k * beta))
        for (l, k), c in sec.coefficients.items()}), pair)
    assert abs(turned.details["total"] - total) <= 1e-13 * total
    assert turned.details["terms"].keys() == rep.details["terms"].keys()
    for l, v in rep.details["terms"].items():
        assert abs(turned.details["terms"][l] - v) <= 1e-13 * v
    # |lam F|^2 integrals scale by |lam|^2
    scaled = coefficient_inequality(ToricSection(
        sec.m, {lk: lam * c for lk, c in sec.coefficients.items()}), pair)
    assert abs(scaled.details["total"] - abs(lam) ** 2 * total) \
        <= 1e-13 * abs(lam) ** 2 * total


def _dense_angle_sum_sq(factors, base):
    """sum over the fiber angles of |factor @ base|^2, all columns at once."""
    sq_sum = np.zeros((factors[0].shape[0], base.shape[1]))
    for factor in factors:
        f = factor @ base
        sq_sum += f.real ** 2 + f.imag ** 2
    return sq_sum


def test_blocked_parseval_sum_matches_dense_product(monkeypatch):
    # the CLI battery's 20 seeded sections on its 257-point pair, one call
    # per angle phi of each
    calls, angles = [], []

    def spy(factors, base):
        out = _angle_sum_sq(factors, base)
        calls.append(out.tobytes() == _dense_angle_sum_sq(factors, base).tobytes())
        return out

    def counted(section, pair):
        rep = coefficient_inequality(section, pair)
        angles.append(rep.grid["angles"][1])
        return rep

    monkeypatch.setattr("envlab.sections._angle_sum_sq", spy)
    monkeypatch.setattr(checks, "coefficient_inequality", counted)
    rep = checks.check_coefficient_parseval(
        np.random.default_rng(42), _bump_pair(257), 20, PARSEVAL_TOL)
    assert rep.passed
    assert len(angles) == 20 and len(calls) == sum(angles) and all(calls)


def test_parseval_battery_builds_one_kernel():
    # 20 degree-4 sections on one pair: one (pair, 4) key, one build
    _parseval_kernel.cache_clear()
    checks.check_coefficient_parseval(
        np.random.default_rng(42), _bump_pair(65), 20, PARSEVAL_TOL)
    info = _parseval_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 19, 1)


def _fresh_kernel_and_terms(section, pair):
    """s nodes, r nodes, a kernel built for this call, the coefficients by
    fiber degree and the component terms, by the formulas of
    ``coefficient_inequality`` with plain temporaries."""
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
    return s_nodes, r, kernel, by_l, terms


def _stacked_parseval_report(section, pair):
    """The report by a fresh kernel and one (r, phi s) |F|^2 sum.

    Same formulas as ``coefficient_inequality`` term for term, but the
    kernel is built for this call, F is the product against all (phi, s)
    columns at once, and the (r, phi s) sum is reshaped and summed over phi.
    """
    m = section.m
    s_nodes, r, kernel, by_l, terms = _fresh_kernel_and_terms(section, pair)
    k_max = max(k for (_, k) in section.coefficients)
    n_theta, n_phi = m + 1, k_max + 1
    n_r, n_s = r.size, s_nodes.size
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    degrees = np.array(sorted(by_l))
    base = np.zeros((degrees.size, n_phi, n_s), dtype=complex)
    for i, l in enumerate(degrees.tolist()):
        for k, c in by_l[l].items():
            base[i] += c * np.exp(1j * k * phi)[:, None] * np.exp(k * s_nodes / 2.0)[None, :]
    base = base.reshape(degrees.size, n_phi * n_s)
    r_pow = r[:, None] ** degrees[None, :]
    factors = [r_pow * np.exp(1j * th * degrees)[None, :] for th in theta]
    sq_sum = _dense_angle_sum_sq(factors, base)
    avg_sq = sq_sum.reshape(n_r, n_phi, n_s).sum(axis=1) / (n_theta * n_phi)
    total = float((avg_sq * kernel).sum())
    scale = total or sum(terms.values()) or 1.0
    term_violation = max((v - total) / scale for v in terms.values())
    parseval = abs(sum(terms.values()) - total) / scale
    return VerificationReport(
        check="coefficient-parseval",
        max_violation=max(term_violation, parseval), tolerance=PARSEVAL_TOL,
        grid={"s_points": int(pair.grid.size), "r_nodes": n_r,
              "angles": [n_theta, n_phi],
              "nodes": n_theta * n_phi * n_r * n_s},
        details={"total": total,
                 "terms": {str(l): v for l, v in sorted(terms.items())},
                 "parseval_mismatch": parseval})


def _report_bytes(rep):
    return json.dumps(rep.to_dict(), sort_keys=True)


def test_parseval_reports_match_stacked_formula(monkeypatch, pair):
    # the CLI battery's 20 sections share one kernel on their pair
    seen = []

    def compared(section, pair):
        rep = coefficient_inequality(section, pair)
        seen.append(_report_bytes(rep)
                    == _report_bytes(_stacked_parseval_report(section, pair)))
        return rep

    monkeypatch.setattr(checks, "coefficient_inequality", compared)
    checks.check_coefficient_parseval(
        np.random.default_rng(42), _bump_pair(257), 20, PARSEVAL_TOL)
    assert len(seen) == 20 and all(seen)
    # alternating powers on one pair need a kernel each, and a second pair
    # at the same power needs its own
    coeffs = {(0, 2): 1 - 0.5j, (1, 0): 0.25, (3, 1): -2j}
    for m, p in ((4, pair), (3, pair), (4, pair), (4, _bump_pair(257))):
        sec = ToricSection(m, coeffs)
        assert (_report_bytes(coefficient_inequality(sec, p))
                == _report_bytes(_stacked_parseval_report(sec, p)))


def test_warm_parseval_call_stays_below_one_stacked_buffer():
    # five angles phi: the stacked (r, phi s) |F|^2 sum alone is five (r, s)
    # float arrays; the kernel is built by the first call
    pair = _bump_pair(257)
    sec = ToricSection(4, {(l, k): complex(l + 1, k) for l in range(5)
                           for k in range(5)})
    coefficient_inequality(sec, pair)
    tracemalloc.start()
    try:
        coefficient_inequality(sec, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_r, n_s = _fiber_quadrature()[0].size, 2 * (pair.grid.size - 1)
    assert peak < n_r * 5 * n_s * 8


def _literal_average_oracle(section, pair):
    """Terms and total by the plain theta/l broadcast loop over the angle grid.

    Same nodes and kernel as ``coefficient_inequality``, but the denser
    (2m + 3) x (2k_max + 3) angle grid; the total averages np.abs(F)**2
    over phi, then over theta, one fiber degree at a time.
    """
    m = section.m
    s_nodes, r, kernel, by_l, terms = _fresh_kernel_and_terms(section, pair)
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


@pytest.mark.parametrize("k_max", [0, 2, 3])
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
        assert rep.grid["angles"] == [m + 1, k_max + 1]
    n_r, n_s = _fiber_quadrature()[0].size, 2 * (pair.grid.size - 1)
    assert rep.grid["nodes"] == (m + 1) * (k_max + 1) * n_s * n_r
