import math

import numpy as np
import pytest
from scipy.integrate import quad

from envlab import (FiberMeasure, InvalidInputError, PrecisionError,
                    STATED_NORMALIZATION, bergman_fiber_integral, checks,
                    fiber, fiber_volume, holder_fiber_chain,
                    oracle_normalization)
from envlab.fiber import _Quadrature, _integrate_halfline


def test_fiber_measure_validation():
    with pytest.raises(InvalidInputError):
        FiberMeasure(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        FiberMeasure(1.0, -2.0)


def test_fiber_volume_unit_mass(rng, monkeypatch):
    assert checks.check_fiber_volume(rng, 30).passed
    monkeypatch.setattr(fiber, "fiber_volume",
                        lambda m: _Quadrature(1.0 + 1e-9, 0.0))
    assert not checks.check_fiber_volume(rng, 30).passed


def test_oracle_normalization_routes_agree():
    # the closed form against I(0) at a = b = 1 re-derived by quadrature
    closed = oracle_normalization()
    density = FiberMeasure(1.0, 1.0).density
    i0, err = _integrate_halfline(lambda r: density(r) / (r * r + 1.0), 1.0)
    assert err <= 1e-10
    assert closed == pytest.approx(2.0, abs=1e-14)
    assert math.gamma(1.0) * math.gamma(2.0) / i0 == pytest.approx(closed,
                                                              rel=1e-10)


def test_stated_constant_disagrees_with_oracle():
    # both constants are reported side by side; they do not match
    assert STATED_NORMALIZATION == 4.0
    assert abs(oracle_normalization() - STATED_NORMALIZATION) > 1.0


def test_gamma_identity_random_parameters(rng, monkeypatch):
    assert checks.check_fiber_normalization(rng, 10).max_violation <= 1e-10
    monkeypatch.setattr(fiber, "bergman_fiber_integral", lambda m, t: _Quadrature(
        bergman_fiber_integral(m, t) + 1e-9, 0.0))
    assert checks.check_fiber_normalization(rng, 10).max_violation > 1e-10


def test_bergman_integral_closed_values():
    m = FiberMeasure(1.0, 1.0)
    # I(0) = 1/2 and I(1/2) = pi/8 for a = b = 1
    assert math.exp(-bergman_fiber_integral(m, 0.0)) == pytest.approx(0.5, rel=1e-12)
    assert math.exp(-bergman_fiber_integral(m, 0.5)) == pytest.approx(math.pi / 8.0,
                                                                      rel=1e-12)


def test_holder_chain(rng):
    for _ in range(5):
        a, b = rng.uniform(0.5, 5.0, size=2)
        rep = holder_fiber_chain(FiberMeasure(a, b), 0.5, 2)
        assert rep.passed


def _quadpack(f, r0):
    """int_0^inf f(r) dr by QUADPACK, split at r0 = sqrt(b / a)."""
    left = quad(f, 0.0, r0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return left + quad(f, r0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def test_exp_sinh_rule_matches_quadpack():
    # QUADPACK on scalar integrands is the reference for every integral
    def moment(m, t):
        return lambda r: r ** (2.0 * t) / (r * r * m.a + m.b) * m.density(r)

    def chain(m, t, p):
        def g(r):
            return r ** (2.0 * t) / (r * r * m.a + m.b)
        r0 = math.sqrt(m.b / m.a)
        lhs = _quadpack(lambda r: g(r) ** p * m.density(r), r0)
        mean = _quadpack(lambda r: g(r) * m.density(r), r0)
        return lhs, mean ** p * _quadpack(m.density, r0) ** (-(p - 1))

    rng = np.random.default_rng(4242)
    for _ in range(6):
        m = FiberMeasure(*rng.uniform(0.1, 10.0, size=2))
        r0 = math.sqrt(m.b / m.a)
        assert fiber_volume(m) == pytest.approx(_quadpack(m.density, r0), rel=1e-12)
        for t in (0.0, 0.125, 0.25, 0.6, 1.0):
            assert math.exp(-bergman_fiber_integral(m, t)) == pytest.approx(
                _quadpack(moment(m, t), r0), rel=1e-12)
        rep = holder_fiber_chain(m, 0.5, 2)
        lhs, rhs = chain(m, 0.5, 2)
        assert rep.details["lhs"] == pytest.approx(lhs, rel=1e-12)
        assert rep.details["rhs"] == pytest.approx(rhs, rel=1e-12)
        assert rep.grid["quadrature"] == "exp-sinh centred at sqrt(b / a)"


def test_wide_ratios_match_closed_forms(monkeypatch):
    # unit mass and I(t) = a^-t b^(t-1) Gamma(1+t) Gamma(2-t) / 2 over
    # a, b in 10^[-8, 8], the two extreme corners included; centred at
    # sqrt(b / a), the rule evaluates the density at as many nodes as at
    # a = b = 1
    nodes = []
    density = FiberMeasure.density
    monkeypatch.setattr(FiberMeasure, "density",
                        lambda m, r: nodes.append(np.size(r)) or density(m, r))
    fiber_volume(FiberMeasure(1.0, 1.0))
    unit_nodes = sum(nodes)
    rng = np.random.default_rng(808)
    exponents = [(-8.0, 8.0), (8.0, -8.0), *rng.uniform(-8.0, 8.0, size=(10, 2))]
    for ea, eb in exponents:
        a, b = 10.0 ** ea, 10.0 ** eb
        m = FiberMeasure(a, b)
        nodes.clear()
        assert fiber_volume(m) == pytest.approx(1.0, rel=1e-12)
        assert sum(nodes) == unit_nodes, (a, b)
        for t in (0.0, 0.3, 0.5, 1.0):
            closed = (a ** -t * b ** (t - 1.0) * math.gamma(1.0 + t)
                      * math.gamma(2.0 - t) / 2.0)
            assert math.exp(-bergman_fiber_integral(m, t)) == pytest.approx(
                closed, rel=1e-12), (a, b, t)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [1e-300, 1e120, 1e140, 1e150, 1e200])
def test_extreme_equal_parameters_match_closed_forms(a):
    # (r^2 a + b)^2 overflows, or underflows to 0, at the rule's outer
    # nodes, where the density itself is finite and its weight zero
    m = FiberMeasure(a, a)
    assert fiber_volume(m) == pytest.approx(1.0, rel=1e-12)
    for t in (0.0, 0.5, 1.0):
        closed = math.log(a) - math.log(
            math.gamma(1.0 + t) * math.gamma(2.0 - t) / 2.0)
        assert bergman_fiber_integral(m, t) == pytest.approx(closed, abs=1e-12), t


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [1e100, 1e145, 1e150])
def test_holder_violation_is_scale_free(a):
    # both sides scale as a^-2: at a = b = 1e150 they are about 1.6e-301,
    # exact, and below any fixed floor on the denominator
    unit = holder_fiber_chain(FiberMeasure(1.0, 1.0), 0.5, 2).max_violation
    rep = holder_fiber_chain(FiberMeasure(a, a), 0.5, 2)
    assert rep.max_violation == pytest.approx(unit, rel=1e-12)
    assert rep.max_violation < 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, b", [(1e-300, 1e300), (1e300, 1e-300),
                                  (1e-300, 1e-300)])
def test_out_of_float_range_is_a_precision_error(a, b):
    # no raw OverflowError, no NaN and no warning: a typed error
    m = FiberMeasure(a, b)
    if a != b:
        # the centre sqrt(b / a) is out of range
        with pytest.raises(PrecisionError):
            fiber_volume(m)
        with pytest.raises(PrecisionError):
            bergman_fiber_integral(m, 0.3)
    # at a = b = 1e-300, g^2 reaches 1e600
    with pytest.raises(PrecisionError):
        holder_fiber_chain(m, 0.5, 2)


def test_error_estimates_are_reported():
    rng = np.random.default_rng(5)
    vol = checks.check_fiber_volume(rng, 5).details["max_error_estimate"]
    norm = checks.check_fiber_normalization(rng, 2).details["max_error_estimate"]
    assert 0.0 < vol <= 1e-13 and 0.0 < norm <= 1e-12
    m = FiberMeasure(2.0, 0.5)
    assert fiber_volume(m).error <= 1e-13
    errors = holder_fiber_chain(m, 0.5, 2).grid["errors"]
    assert len(errors) == 3 and max(errors) <= 1e-13
