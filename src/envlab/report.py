"""Pass/fail records for the quantitative checks, and the check registry.

``CHECKS`` maps each check name to its report's anchor phrase, its
``--tol`` name (None when no override applies) and its default tolerance.
It is the one place a default is set: a report built without a tolerance
carries its check's default, and ``cli.run`` applies a ``--tol`` override
to each report before exporting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional


class Check(NamedTuple):
    anchor: str
    tol_name: Optional[str]   # the --tol name, or None when it is fixed
    tol: float                # the tolerance its report carries by default


CHECKS = {
    "envelope-oracle-equivalence": Check(
        "dual-route equilibrium envelope agreement", "envelope", 1e-8),
    "family-monotonicity": Check(
        "normalized family curve monotone in t", "family", 1e-9),
    "family-right-continuity": Check(
        "family curve right-continuous in t", None, 1e-9),
    "fiber-volume": Check(
        "fiber probability density has unit mass", "fiber", 1e-10),
    "fiber-normalization": Check(
        "closed-form fiber moment identity", "fiber_rel", 1e-8),
    "fiber-power-mean": Check(
        "power-mean inequality for the fiber integrand", None, 1e-10),
    "section-sandwich": Check(
        "two-sided section approximant bounds", "sandwich", 1e-9),
    "coefficient-parseval": Check(
        "fiber-degree coefficient inequality", "parseval", 1e-8),
    "regularized-max-contract": Check(
        "smoothed maximum contract clauses", None, 1e-10),
    "hirzebruch-gluing": Check(
        "two-chart glued weight positivity", None, 1e-9),
    "envelope-run": Check(
        "single equilibrium envelope computation", "envelope", 1e-8),
    "envelope-gap-bound": Check(
        "constrained envelope gap against weight bound", None, 0.0),
}

# every name --tol accepts, in registry order
TOLERANCE_NAMES = tuple(dict.fromkeys(
    c.tol_name for c in CHECKS.values() if c.tol_name is not None))


@dataclass
class VerificationReport:
    """Outcome of one quantitative check.

    ``max_violation`` is the worst observed violation of the inequality the
    check verifies (non-positive values mean the inequality held with
    margin); the check passes when it does not exceed ``tolerance``, which
    defaults to the check's registry entry.  ``grid`` records grid metadata,
    ``details`` any auxiliary numbers worth keeping (constants, both sides
    of an inequality, ...).  A check outside ``CHECKS`` raises KeyError.
    """

    check: str
    max_violation: float
    tolerance: Optional[float] = None
    grid: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        entry = CHECKS[self.check]  # KeyError for an unregistered check
        if self.tolerance is None:
            self.tolerance = entry.tol

    @property
    def status(self) -> str:
        return "pass" if self.max_violation <= self.tolerance else "fail"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "max_violation": float(self.max_violation),
            "tolerance": float(self.tolerance),
            "grid": self.grid,
            "details": self.details,
        }

    def __str__(self) -> str:
        return (f"[{self.status}] {self.check}: max violation "
                f"{self.max_violation:.3e} (tol {self.tolerance:.1e})")
