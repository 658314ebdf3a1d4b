"""Fiber measure and fiber integrals over the model P^1 fibers.

At a base point with weight values phi_A, phi_L the fiber carries the
radial density

    rho(r) = 2 r a b / (r^2 a + b)^2,      a = e^{phi_A}, b = e^{phi_L},

which integrates to one over (0, inf).  The weighted moments

    I(t) = int_0^inf r^{2t} (r^2 a + b)^{-1} rho(r) dr

reduce by the substitution v = r^2 a / b to a Beta integral, giving the
closed form

    -log I(t) = t phi_A + (1 - t) phi_L - log(Gamma(1+t) Gamma(2-t) / K)

with a normalization constant K that is the same for every (a, b, t).  The
t = 0 moment has an elementary antiderivative, which pins K = 2; the
reference derivation this artifact follows states K = 4 instead, and
:func:`bergman_fiber_integral` reports are expected to surface both values
(see :func:`oracle_normalization` and the fiber-check report in the CLI).

The integrals are computed by one vectorized exp-sinh rule (Takahasi and
Mori's double-exponential substitution) centred at the density's median
r0 = sqrt(b / a): with r = r0 exp(pi/2 sinh x) every integrand here,
which behaves like r^{2t+1} at 0 and r^{2t-5} or faster at infinity,
decays double-exponentially in x, so trapezoidal sums on a fixed x
interval converge in 63 or 127 nodes for every (a, b).  Centring at r0
makes the rule scale-free: r = r0 u turns rho(r) dr into 2u / (u^2 + 1)^2 du
whatever a and b are.  The rule uses numpy and math only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, PrecisionError
from .report import VerificationReport
from .weights import _is_integer

__all__ = [
    "FiberMeasure",
    "fiber_volume",
    "bergman_fiber_integral",
    "oracle_normalization",
    "STATED_NORMALIZATION",
    "holder_fiber_chain",
]

#: Normalization constant printed in the source derivation of the Gamma
#: identity.  The t = 0 oracle disagrees; both are reported, never silently
#: reconciled.
STATED_NORMALIZATION = 4.0


@dataclass(frozen=True)
class FiberMeasure:
    """Fiber density parameters a = e^{phi_A(x)}, b = e^{phi_L(x)}."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and np.isfinite(self.a)):
            raise InvalidInputError(f"a must be positive and finite, got {self.a}")
        if not (self.b > 0.0 and np.isfinite(self.b)):
            raise InvalidInputError(f"b must be positive and finite, got {self.b}")

    def density(self, r):
        r = np.asarray(r, dtype=float)
        # two ratios in [0, 1]: q ** 2 overflows once q passes 1e154
        q = r * r * self.a + self.b
        return 2.0 * r * (self.a / q) * (self.b / q)


#: half-width of the exp-sinh rule's x interval.  At its ends r / r0 is
#: e^{+-42.9}, where every integrand here, falling like (r / r0)^{+-2} or
#: faster under dr, is below 1e-35 of its peak.
_X_MAX = 4.0
#: the first level's step; each later level halves it, down to 2^-8.
#: These integrands converge at 2^-3 or 2^-4 (63 or 127 nodes).
_H0 = 0.25
_LEVELS = 6
#: two levels agreeing to this relative difference end the rule
_RTOL = 1e-13


def _rule_nodes():
    """Per level of the exp-sinh rule, the new nodes' r / r0 = e^{pi/2 sinh x}
    and dr/dx / r0 there: level 0 holds the multiples of _H0 inside
    (-_X_MAX, _X_MAX), level k the odd multiples of h = _H0 2^-k."""
    levels = []
    for k in range(_LEVELS + 1):
        h = _H0 * 2.0 ** -k
        x = np.arange(h - _X_MAX, _X_MAX, h if k == 0 else 2.0 * h)
        u = np.exp(0.5 * math.pi * np.sinh(x))
        levels.append((u, 0.5 * math.pi * np.cosh(x) * u))
    return levels


_NODES = _rule_nodes()


class _Quadrature(float):
    """A quadrature result that carries its error estimate as ``error``."""

    def __new__(cls, value, error):
        out = super().__new__(cls, value)
        out.error = error
        return out


def _integrate_halfline(f, r0):
    """int_0^inf f(r) dr by the exp-sinh rule r = r0 exp(pi/2 sinh x).

    ``f`` maps an array of r to an array.  The trapezoidal sum over
    x in (-_X_MAX, _X_MAX) starts at step _H0 and halves it level by level:
    each level adds its new odd nodes to half the previous sum, until two
    levels agree to _RTOL relative.  Returns (value, |difference of the
    last two levels|).  A node or integrand value that leaves the float
    range raises PrecisionError.
    """
    if not 0.0 < r0 < math.inf:
        raise PrecisionError(
            f"exp-sinh centre r0 = sqrt(b / a) = {r0} is not a positive float")
    try:
        with np.errstate(all="raise", under="ignore"):
            h, value = _H0, 0.0
            for u, du in _NODES:
                new = 0.5 * value + h * r0 * float((f(r0 * u) * du).sum())
                err, value, h = abs(new - value), new, 0.5 * h
                if err <= _RTOL * abs(value):
                    break
    except FloatingPointError as exc:
        raise PrecisionError(
            f"fiber integrand leaves the float range near r0 = {r0:.3g} ({exc})"
        ) from None
    if not value > 0.0:
        raise PrecisionError(
            f"fiber integral {value} near r0 = {r0:.3g} is not positive: "
            "its integrand underflows")
    return value, err


def _centre(m: FiberMeasure) -> float:
    """sqrt(b / a), the exp-sinh rule's centre: the fiber density's median
    and the peak of r rho(r), its density in log r."""
    return math.sqrt(m.b / m.a)


def fiber_volume(m: FiberMeasure) -> float:
    """Total mass of the fiber density; equals 1 by construction.  The
    result carries the quadrature's error estimate as ``error``."""
    value, err = _integrate_halfline(m.density, _centre(m))
    if err > 1e-10:
        raise PrecisionError(
            f"fiber volume quadrature error {err:.2e} exceeds 1.0e-10")
    return _Quadrature(value, err)


def oracle_normalization() -> float:
    """Normalization constant K pinned by the t = 0 moment at a = b = 1.

    The contract -log I(0) = -log(Gamma(1) Gamma(2) / K) gives
    K = Gamma(1) Gamma(2) / I(0), and I(0) = 1/2 from the antiderivative
    -(r^2 + 1)^{-2} / 2; the tests re-derive I(0) by quadrature.
    """
    return math.gamma(1.0) * math.gamma(2.0) / 0.5


def bergman_fiber_integral(m: FiberMeasure, t: float) -> float:
    """-log of the weighted fiber moment I(t); see the module docstring.
    The result carries its error estimate, I(t)'s relative quadrature
    error, as ``error``; past 1e-10 it raises PrecisionError."""
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise InvalidParameterError(f"t must lie in [0, 1], got {t}")

    def integrand(r):
        return r ** (2.0 * t) / (r * r * m.a + m.b) * m.density(r)

    value, err = _integrate_halfline(integrand, _centre(m))
    err /= value  # the error of -log I(t), I(t)'s relative error
    if err > 1e-10:
        raise PrecisionError(
            f"fiber moment quadrature relative error {err:.2e} exceeds 1.0e-10")
    return _Quadrature(-math.log(value), err)


def holder_fiber_chain(m: FiberMeasure, t: float,
                       m_pow: int) -> VerificationReport:
    """Power-mean inequality for g(r) = r^{2t} e^{-log(r^2 a + b)}.

    Verifies int g^m dnu >= (int g dnu)^m (int dnu)^{-(m-1)} against the
    unit-mass fiber measure nu, reporting both sides.
    """
    if not _is_integer(m_pow) or m_pow < 1:
        raise InvalidParameterError(f"power must be an integer >= 1, got {m_pow}")
    m_pow = int(m_pow)
    ell = t * m_pow
    if abs(ell - round(ell)) > 1e-9 or not (0.0 <= t <= 1.0):
        raise InvalidParameterError(
            f"t must be ell/{m_pow} for an integer 0 <= ell <= {m_pow}, got {t}")

    def g(r):
        return r ** (2.0 * t) / (r * r * m.a + m.b)

    r0 = _centre(m)
    lhs, e1 = _integrate_halfline(lambda r: g(r) ** m_pow * m.density(r), r0)
    mean, e2 = _integrate_halfline(lambda r: g(r) * m.density(r), r0)
    mass, e3 = _integrate_halfline(m.density, r0)
    rhs = mean ** m_pow * mass ** (-(m_pow - 1))
    # relative to the larger side; both sides 0 read 0
    scale = max(abs(lhs), abs(rhs)) or 1.0
    return VerificationReport(
        check="fiber-power-mean",
        max_violation=(rhs - lhs) / scale,
        grid={"quadrature": "exp-sinh centred at sqrt(b / a)",
              "errors": [e1, e2, e3]},
        details={"lhs": lhs, "rhs": rhs, "t": t, "power": m_pow,
                 "a": m.a, "b": m.b})
