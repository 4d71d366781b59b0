"""Lightweight result records shared by the verification-style operations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Relative slack allowed when checking operator inequalities.
INEQUALITY_SLACK = 1e-9
#: Number of random sample vectors on which a bound suite checks its inequalities.
BOUND_SAMPLES = 100


@dataclass
class CheckResult:
    """Outcome of a single named check.

    ``max_violation`` is an absolute magnitude for identity checks and a
    ratio overshoot (max LHS/RHS - 1, clipped at 0) for inequality checks.
    ``skipped`` marks checks whose preconditions did not hold; a skipped
    check never fails.
    """

    name: str
    passed: bool
    max_violation: float
    tolerance: float
    skipped: bool = False
    details: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        if self.skipped:
            return "SKIPPED"
        return "PASS" if self.passed else "FAIL"


@dataclass
class CheckSuite:
    """A named bundle of :class:`CheckResult` rows."""

    name: str
    results: list = field(default_factory=list)

    def add(self, result: CheckResult) -> None:
        self.results.append(result)

    @property
    def passed(self) -> bool:
        return all(r.passed or r.skipped for r in self.results)

    def worst(self) -> float:
        active = [r.max_violation for r in self.results if not r.skipped]
        return max(active) if active else 0.0

    def summary_lines(self):
        for r in self.results:
            yield f"{self.name}/{r.name}: {r.verdict} (max violation {r.max_violation:.3e}, tol {r.tolerance:.1e})"


def bound_check(name: str, lhs, rhs) -> CheckResult:
    """Verdict on the inequality LHS <= RHS over its samples.

    ``lhs`` and ``rhs`` are scalars or equal-length per-sample arrays.  The
    worst ratio is max(LHS/RHS), where a sample with RHS = 0 counts as 0
    when LHS <= 1e-300 and as infinity otherwise; with no samples the
    worst ratio is 0.  The check passes iff the worst ratio is at most
    1 + ``INEQUALITY_SLACK``; its violation is the worst ratio - 1,
    clipped at 0.
    """
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    zero = rhs == 0.0
    ratios = np.where(zero, np.where(lhs <= 1e-300, 0.0, np.inf), lhs / np.where(zero, 1.0, rhs))
    worst = float(np.max(ratios, initial=0.0))
    return CheckResult(
        name, worst <= 1 + INEQUALITY_SLACK, max(worst - 1.0, 0.0), INEQUALITY_SLACK
    )
