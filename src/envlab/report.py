"""Pass/fail records for the quantitative checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """Outcome of one quantitative check.

    ``max_violation`` is the worst observed violation of the inequality the
    check verifies (non-positive values mean the inequality held with
    margin); the check passes when it does not exceed ``tolerance``.
    ``grid`` records grid metadata, ``details`` any auxiliary numbers worth
    keeping (constants, both sides of an inequality, ...).
    """

    check: str
    max_violation: float
    tolerance: float
    grid: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

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
