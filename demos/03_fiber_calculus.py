#!/usr/bin/env python3
"""Closed-form fiber integrals versus adaptive quadrature.

The fiber density rho(r) = 2 r a b / (r^2 a + b)^2 integrates to one on
(0, infinity) for any positive a, b.  Weighted moments of this density
against r^(2t) reduce to Euler Beta values, giving a chain of identities
between Gamma functions and numerical integrals.  A normalization
constant K enters the stated identity: the quadrature oracle pins it to
K = 2, while the value carried alongside in the library is K = 4, and
the library reports both rather than silently picking one.
"""

import math

import numpy as np
from scipy.integrate import quad

from envlab import (
    STATED_NORMALIZATION,
    FiberMeasure,
    bergman_fiber_integral,
    fiber_volume,
    holder_fiber_chain,
    oracle_normalization,
)


def main() -> None:
    rng = np.random.default_rng(7)
    print("unit mass of the fiber density (10 random (a, b) pairs):")
    worst = 0.0
    for _ in range(10):
        a, b = np.exp(rng.uniform(-3.0, 3.0, size=2))
        worst = max(worst, abs(fiber_volume(FiberMeasure(a, b)) - 1.0))
    print(f"  max |integral - 1| = {worst:.3e}")

    print("\nGamma function spot checks:")
    for x in (0.5, 1.0, 4.5, 10.0):
        print(f"  gamma({x:4}) = {math.gamma(x):.12g}")

    m = FiberMeasure(a=1.7, b=0.4)
    print("\nHolder chain for weighted moments, t = ell/4:")
    for t in np.linspace(0.0, 1.0, 5):
        rep = holder_fiber_chain(m, float(t), m_pow=4)
        print(f"  t = {t:5.3f}  {rep.status}  max violation {rep.max_violation:.3e}")

    print("\nnormalization constant in the moment identity:")
    # K = Gamma(1) Gamma(2) / I(0), with I(0) at a = b = 1 by quadrature
    unit = FiberMeasure(1.0, 1.0)
    i0 = quad(lambda r: unit.density(r) / (r * r + 1.0), 0.0, np.inf,
              epsabs=1e-12, epsrel=1e-12)[0]
    k_quad = math.gamma(1.0) * math.gamma(2.0) / i0
    print(f"  closed-form oracle : {oracle_normalization():.12g}")
    print(f"  quadrature oracle  : {k_quad:.12g}")
    print(f"  stated value       : {STATED_NORMALIZATION:.12g}")
    if abs(k_quad - STATED_NORMALIZATION) > 1e-8:
        print("  -> the two DISAGREE; the quadrature value is what the")
        print("     integrals actually produce (see bergman_fiber_integral).")
    print(f"  example integral at t = 0.5: {bergman_fiber_integral(m, 0.5):.12g}")


if __name__ == "__main__":
    main()
