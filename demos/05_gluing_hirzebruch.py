#!/usr/bin/env python3
"""Regularized max and the end-to-end gluing run on a ruled surface.

M_eps(x, y) is a smooth, convex, symmetric regularization of max(x, y)
that is exactly max(x, y) once |x - y| >= 2*eps.  Those properties let
two plurisubharmonic weights defined on overlapping regions be glued
into a single global weight: wherever the outer weight dominates the
inner one by at least 2*eps on the seam annulus, the glued weight is
convex along grid lines and agrees bit-for-bit with the outer weight
outside the seam.  The final stage assembles the whole pipeline on the
ruled-surface model: build the weight pair, run the envelope family,
form the fibered weight, attach the ambient outer weight, and glue.
"""

import numpy as np

from envlab import RegularizedMaxKernel, hirzebruch_demo, regularized_max


def main() -> None:
    eps = 0.25
    k = RegularizedMaxKernel(epsilon=eps)
    rng = np.random.default_rng(3)
    x = rng.normal(size=2000)
    y = rng.normal(size=2000)
    m = regularized_max(k, x, y)

    apart = np.abs(x - y) >= 2.0 * eps
    print("regularized max M_eps, eps = 0.25, 2000 random pairs:")
    print(f"  exact once apart  : {np.array_equal(m[apart], np.maximum(x, y)[apart])}")
    print(f"  lower bound       : min(M - max(x,y)) = {float(np.min(m - np.maximum(x, y))):.3e}")
    print(f"  upper bound       : max(M - max(x,y) - eps) = "
          f"{float(np.max(m - np.maximum(x, y) - eps)):.3e}")
    sym = float(np.max(np.abs(m - regularized_max(k, y, x))))
    print(f"  symmetry          : {sym:.3e}")

    print("\nend-to-end ruled-surface gluing run:")
    report, _ = hirzebruch_demo(
        {"k": 3, "d_A": 1, "d_L": 0, "grid": 128, "epsilon": eps}
    )
    print(f"  status            : {report.status}")
    print(f"  line-convexity defect of the glued weight: "
          f"{report.max_violation:.3e}")
    for key, val in sorted(report.details.items()):
        print(f"  {key:18}: {val}")
    raise SystemExit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
