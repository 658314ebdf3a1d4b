import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as scipy_gamma

from envlab import (FiberMeasure, InvalidInputError, InvalidParameterError,
                    STATED_NORMALIZATION, bergman_fiber_integral, checks,
                    fiber, fiber_volume, gamma, holder_fiber_chain,
                    oracle_normalization)
from envlab.fiber import _integrate_halfline, _scalar_density


def test_fiber_measure_validation():
    with pytest.raises(InvalidInputError):
        FiberMeasure(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        FiberMeasure(1.0, -2.0)


def test_fiber_volume_unit_mass(rng, monkeypatch):
    assert checks.check_fiber_volume(rng, 30, 1e-10).passed
    monkeypatch.setattr(fiber, "fiber_volume", lambda m: 1.0 + 1e-9)
    assert not checks.check_fiber_volume(rng, 30, 1e-10).passed


def test_gamma_against_scipy():
    for x in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 7.5, 10.0):
        assert gamma(x) == pytest.approx(scipy_gamma(x), rel=1e-13)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    with pytest.raises(InvalidParameterError):
        gamma(0.0)
    with pytest.raises(InvalidParameterError):
        gamma(-2.0)


def test_oracle_normalization_routes_agree():
    # the closed form against I(0) at a = b = 1 re-derived by quadrature
    closed = oracle_normalization()
    density = _scalar_density(FiberMeasure(1.0, 1.0))
    i0, err = _integrate_halfline(lambda r: density(r) / (r * r + 1.0))
    assert err <= 1e-10
    assert closed == pytest.approx(2.0, abs=1e-14)
    assert gamma(1.0) * gamma(2.0) / i0 == pytest.approx(closed, rel=1e-10)


def test_stated_constant_disagrees_with_oracle():
    # both constants are reported side by side; they do not match
    assert STATED_NORMALIZATION == 4.0
    assert abs(oracle_normalization() - STATED_NORMALIZATION) > 1.0


def test_gamma_identity_random_parameters(rng, monkeypatch):
    assert checks.check_fiber_normalization(rng, 10, 1e-10).passed
    monkeypatch.setattr(fiber, "bergman_fiber_integral",
                        lambda m, t: bergman_fiber_integral(m, t) + 1e-9)
    assert not checks.check_fiber_normalization(rng, 10, 1e-10).passed


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


def test_python_float_integrands_match_numpy_density():
    # test-local integrands that call the vectorized density per node
    def volume(m):
        return _integrate_halfline(lambda r: float(m.density(r)))[0]

    def moment(m, t):
        def integrand(r):
            return r ** (2.0 * t) / (r * r * m.a + m.b) * float(m.density(r))
        if t >= 0.25:
            return -math.log(_integrate_halfline(integrand)[0])
        r0 = math.sqrt(m.b / m.a)
        v1 = quad(integrand, 0.0, r0, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        v2 = _integrate_halfline(lambda r: integrand(r + r0))[0]
        return -math.log(v1 + v2)

    def chain(m, t, p):
        def g(r):
            return r ** (2.0 * t) / (r * r * m.a + m.b)
        lhs = _integrate_halfline(lambda r: g(r) ** p * float(m.density(r)))[0]
        mean = _integrate_halfline(lambda r: g(r) * float(m.density(r)))[0]
        return lhs, mean ** p * volume(m) ** (-(p - 1))

    rng = np.random.default_rng(4242)
    for _ in range(6):
        a, b = rng.uniform(0.1, 10.0, size=2)
        m = FiberMeasure(a, b)
        density = _scalar_density(m)
        for r in rng.exponential(3.0, 2000).tolist():
            assert density(r) == float(m.density(r))
        assert fiber_volume(m) == volume(m)
        for t in (0.0, 0.125, 0.25, 0.6, 1.0):
            assert bergman_fiber_integral(m, t) == moment(m, t)
        rep = holder_fiber_chain(m, 0.5, 2)
        assert (rep.details["lhs"], rep.details["rhs"]) == chain(m, 0.5, 2)
