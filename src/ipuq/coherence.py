"""Coherence checks for verbalized probability reports.

A betting-style report is *coherent* when no combination of bets priced at
the reported numbers guarantees a loss.  For a mutually exclusive and
exhaustive candidate list this reduces to simple arithmetic on the reported
numbers, which is what these verifiers check.  Each verifier collects every
violation it finds (it never stops at the first one), so a retry loop can
echo the full diagnosis back to the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import PROB_TOL, IpuqError, PossibilityAssignment, ProbabilityIntervalSet

#: Violation codes, stable across releases; retry prompts and logs key on them.
NEGATIVE = "NEGATIVE"
VALUE_RANGE = "VALUE_RANGE"
SUM = "SUM"
LOWER_SUM = "LOWER_SUM"
UPPER_SUM = "UPPER_SUM"
ALL_ZERO = "ALL_ZERO"

#: Index used by violations that concern the whole report rather than one slot.
GLOBAL_INDEX = -1


class AllZeroError(IpuqError, ValueError):
    """Raised when a possibility assignment has no positive score to scale by."""


@dataclass(frozen=True)
class Violation:
    """One failed check: which rule, where, what was seen, what was required."""

    code: str
    index: int
    observed: float
    bound: float

    def describe(self) -> str:
        where = "overall" if self.index == GLOBAL_INDEX else f"answer {self.index + 1}"
        return f"{self.code} ({where}): observed {self.observed!r}, required bound {self.bound!r}"


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of one verification pass: every violation it found."""

    violations: tuple[Violation, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.passed:
            return "passed"
        return "; ".join(v.describe() for v in self.violations)


def verify_axioms(prices: Sequence[float]) -> VerdictReport:
    """Check a price/probability vector for the two betting axioms.

    Every entry must lie in [0, 1] (a price above 1 or below 0 is a sure
    loss on a single bet) and the entries must sum to 1 within ``PROB_TOL``
    (otherwise a book can be made against the whole slate).  For a mutually
    exclusive, exhaustive candidate list these two checks already imply
    additivity over disjoint unions, so nothing else needs verifying.
    """
    prices = [float(p) for p in prices]
    violations: list[Violation] = []
    for i, p in enumerate(prices):
        if p < 0.0:
            violations.append(Violation(NEGATIVE, i, observed=p, bound=0.0))
        elif not p <= 1.0 + PROB_TOL:
            violations.append(Violation(VALUE_RANGE, i, observed=p, bound=1.0))
    total = sum(prices)
    if abs(total - 1.0) > PROB_TOL:
        violations.append(Violation(SUM, GLOBAL_INDEX, observed=total, bound=1.0))
    return VerdictReport(tuple(violations))


def verify_interval_coherence(intervals: ProbabilityIntervalSet) -> VerdictReport:
    """Check that per-answer probability intervals admit any distribution at all.

    The box of intervals holds a distribution exactly when the lower bounds
    sum to at most 1 and the upper bounds to at least 1.  Otherwise a book
    is a sure loss: buying every answer at its lower price costs more than
    the sure payout of 1, or selling every answer at its upper price brings
    in less.  Per-answer ordering and range are enforced by the type itself
    at construction.
    """
    violations: list[Violation] = []
    lower_total = sum(intervals.lowers)
    if lower_total > 1.0 + PROB_TOL:
        violations.append(Violation(LOWER_SUM, GLOBAL_INDEX, observed=lower_total, bound=1.0))
    upper_total = sum(intervals.uppers)
    if upper_total < 1.0 - PROB_TOL:
        violations.append(Violation(UPPER_SUM, GLOBAL_INDEX, observed=upper_total, bound=1.0))
    return VerdictReport(tuple(violations))


def normalize_possibility(assignment: PossibilityAssignment) -> PossibilityAssignment:
    """Rescale possibility scores so the largest one equals exactly 1.

    The divisor is the maximum over candidate scores *and* the
    none-of-the-above slot.  Normalizing an already-normalized assignment is
    a no-op, and the result is invariant to any positive rescaling of the
    input.  An all-zero assignment has nothing to scale by and raises
    :class:`AllZeroError`.
    """
    combined = assignment.combined()
    peak = max(combined)
    if peak <= 0.0:
        raise AllZeroError("all possibility scores are zero; nothing to normalize")
    if peak == 1.0:
        return assignment
    return PossibilityAssignment(
        candidates=assignment.candidates,
        scores=tuple(min(s / peak, 1.0) for s in assignment.scores),
        none_of_above=min(assignment.none_of_above / peak, 1.0),
    )


__all__ = [
    "NEGATIVE",
    "VALUE_RANGE",
    "SUM",
    "LOWER_SUM",
    "UPPER_SUM",
    "ALL_ZERO",
    "GLOBAL_INDEX",
    "AllZeroError",
    "Violation",
    "VerdictReport",
    "verify_axioms",
    "verify_interval_coherence",
    "normalize_possibility",
]
