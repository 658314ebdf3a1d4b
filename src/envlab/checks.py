"""The check registry and the randomized batteries.

``CHECKS`` maps each check name to its report's anchor phrase, ``--tol``
name (None when the reporting module fixes the tolerance) and default
tolerance.  The ``check_*`` functions are the one copy of each battery:
the CLI and the acceptance suite call them with their own generators, case
counts and tolerances, and each records its generator's seed in
``details["seed"]``.  Checks that are one call live in their own modules.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from . import fiber
from .envelope import equilibrium_envelope, hull_envelope
from .family import GAP_BOUND_TOL, MONOTONE_TOL, RIGHT_CONTINUITY_TOL
from .gluing import GLUING_TOL, RegularizedMaxKernel, regularized_max
from .report import VerificationReport
from .sections import (PARSEVAL_TOL, SANDWICH_TOL, ToricSection,
                       coefficient_inequality)
from .weights import SlopeInterval


REGULARIZED_MAX_TOL = 1e-10


class Check(NamedTuple):
    anchor: str
    tol_name: Optional[str]   # the --tol name, or None when it is fixed
    tol: float                # the tolerance its report carries by default


CHECKS = {
    "envelope-oracle-equivalence": Check(
        "dual-route equilibrium envelope agreement", "envelope", 1e-8),
    "family-monotonicity": Check(
        "normalized family curve monotone in t", "family", MONOTONE_TOL),
    "family-right-continuity": Check(
        "family curve right-continuous in t", None, RIGHT_CONTINUITY_TOL),
    "fiber-volume": Check(
        "fiber probability density has unit mass", "fiber", 1e-10),
    "fiber-normalization": Check(
        "closed-form fiber moment identity", "fiber_rel", 1e-8),
    "fiber-power-mean": Check(
        "power-mean inequality for the fiber integrand", None, fiber.POWER_MEAN_TOL),
    "section-sandwich": Check(
        "two-sided section approximant bounds", "sandwich", SANDWICH_TOL),
    "coefficient-parseval": Check(
        "fiber-degree coefficient inequality", "parseval", PARSEVAL_TOL),
    "regularized-max-contract": Check(
        "smoothed maximum contract clauses", None, REGULARIZED_MAX_TOL),
    "hirzebruch-gluing": Check(
        "two-chart glued weight positivity", None, GLUING_TOL),
    "envelope-run": Check(
        "single equilibrium envelope computation", "envelope", 1e-8),
    "envelope-gap-bound": Check(
        "constrained envelope gap against weight bound", None, GAP_BOUND_TOL),
}

# every name --tol accepts, in registry order
TOLERANCE_NAMES = tuple(dict.fromkeys(
    c.tol_name for c in CHECKS.values() if c.tol_name is not None))


def _seed(rng) -> int:
    return rng.bit_generator.seed_seq.entropy


def _oracle_gap(w, env, iv) -> float:
    """Sup distance between a primary envelope and the lower-hull oracle."""
    return float(np.abs(env.values - hull_envelope(w, iv).values).max())


def check_envelope_oracle_equivalence(rng, draw, cases: int,
                                      tol: float) -> VerificationReport:
    """Both 1D envelope routes agree on ``cases`` weights.

    ``draw(rng, i)`` returns the i-th weight and the degree d of its slope
    interval [0, d].
    """
    worst = 0.0
    for i in range(cases):
        w, d = draw(rng, i)
        iv = SlopeInterval(0.0, float(d))
        worst = max(worst, _oracle_gap(w, equilibrium_envelope(w, iv), iv))
    return VerificationReport(
        check="envelope-oracle-equivalence", max_violation=worst,
        tolerance=tol, grid={"cases": cases}, details={"seed": _seed(rng)})


def check_envelope_run(w, env, source: str, tol: float) -> VerificationReport:
    """``env``, the primary envelope of ``w`` read from ``source``, matches
    the oracle on ``w``'s own slope interval."""
    return VerificationReport(
        check="envelope-run", max_violation=_oracle_gap(w, env, w.slope_interval),
        tolerance=tol, grid={"s_points": int(w.grid.size)},
        details={"input": source})


def check_fiber_volume(rng, cases: int, tol: float) -> VerificationReport:
    """|fiber volume - 1| over ``cases`` random fiber measures, with the
    worst quadrature error estimate."""
    worst = worst_err = 0.0
    for _ in range(cases):
        a, b = rng.uniform(0.1, 10.0, size=2)
        volume = fiber.fiber_volume(fiber.FiberMeasure(a, b))
        worst = max(worst, abs(volume - 1.0))
        worst_err = max(worst_err, volume.error)
    return VerificationReport(
        check="fiber-volume", max_violation=worst, tolerance=tol,
        grid={"cases": cases},
        details={"seed": _seed(rng), "max_error_estimate": worst_err})


def check_fiber_normalization(rng, cases: int, tol: float) -> VerificationReport:
    """Relative error of the Gamma moment identity at 9 t values per case,
    with the oracle's K, the stated K, whether the two agree and the worst
    quadrature error estimate of -log I(t)."""
    k_oracle = fiber.oracle_normalization()
    worst = worst_err = 0.0
    for _ in range(cases):
        a, b = rng.uniform(0.1, 10.0, size=2)
        m = fiber.FiberMeasure(a, b)
        for t in np.linspace(0.0, 1.0, 9):
            moment = fiber.bergman_fiber_integral(m, float(t))
            lhs = np.exp(-moment + t * np.log(a) + (1.0 - t) * np.log(b))
            rhs = fiber.gamma(1.0 + t) * fiber.gamma(2.0 - t) / k_oracle
            worst = max(worst, abs(lhs - rhs) / rhs)
            worst_err = max(worst_err, moment.error)
    return VerificationReport(
        check="fiber-normalization", max_violation=worst, tolerance=tol,
        grid={"cases": cases, "t_points": 9},
        details={"seed": _seed(rng), "max_error_estimate": worst_err,
                 "K_oracle": k_oracle,
                 "K_stated": fiber.STATED_NORMALIZATION,
                 "normalizations_agree": bool(
                     abs(k_oracle - fiber.STATED_NORMALIZATION) < 1e-9)})


def check_coefficient_parseval(rng, pair, cases: int,
                               tol: float) -> VerificationReport:
    """Coefficient inequality for ``cases`` random degree-4 sections on ``pair``."""
    worst = 0.0
    for _ in range(cases):
        coeffs = {}
        while len(coeffs) < rng.integers(1, 7):
            lk = (int(rng.integers(0, 5)), int(rng.integers(0, 3)))
            coeffs[lk] = complex(rng.normal(), rng.normal())
        worst = max(worst, coefficient_inequality(
            ToricSection(4, coeffs), pair).max_violation)
    return VerificationReport(
        check="coefficient-parseval", max_violation=worst, tolerance=tol,
        grid={"cases": cases}, details={"seed": _seed(rng)})


def check_regularized_max_contract(rng, cases: int) -> VerificationReport:
    """The regularized-max clauses on ``cases`` scalar draws, then convexity
    of M_eps(f, g) for 100 convex pairs on a 101-point grid."""
    worst = 0.0
    for _ in range(cases):
        x, y = rng.normal(0.0, 4.0, size=2)
        eps = rng.uniform(0.01, 2.0)
        c = rng.normal()
        k = RegularizedMaxKernel(eps)
        m = regularized_max(k, x, y)
        worst = max(worst,
                    max(x, y) - m,                              # lower bound
                    m - max(x, y) - eps,                        # upper bound
                    abs(m - regularized_max(k, y, x)),          # symmetry
                    abs(regularized_max(k, x + c, y + c) - m - c),
                    m - regularized_max(k, x + abs(c), y),
                    abs(m - max(x, y)) if abs(x - y) >= 2 * eps else 0.0)
    convex_worst = 0.0
    s = np.linspace(-3.0, 3.0, 101)
    for _ in range(100):
        a1, a2 = rng.uniform(0.1, 1.0, size=2)
        f = a1 * s * s + rng.normal() * s + rng.normal()
        g = a2 * np.abs(s - rng.normal()) + rng.normal()
        m = regularized_max(RegularizedMaxKernel(rng.uniform(0.05, 1.0)), f, g)
        convex_worst = max(convex_worst, -np.diff(m, n=2).min(), 0.0)
    return VerificationReport(
        check="regularized-max-contract",
        max_violation=max(worst, convex_worst), tolerance=REGULARIZED_MAX_TOL,
        grid={"cases": cases, "convex_pairs": 100},
        details={"seed": _seed(rng), "convexity_defect": convex_worst})
