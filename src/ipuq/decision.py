"""Decision rules over precise and imprecise probability reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    CandidateSet,
    CredalSet,
    PrecisePMF,
    ProbabilityIntervalSet,
)

#: Two candidate scores closer than this are treated as tied.
TIE_TOL = 1e-9

RULE_PRECISE_ARGMAX = "precise_argmax"
RULE_MAXIMIN = "maximin"
RULE_MAXIMAX = "maximax"


@dataclass(frozen=True)
class DecisionOutcome:
    """A committed answer: which rule picked which candidate.

    ``tie_broken`` is set when at least two candidates scored within
    ``TIE_TOL`` of the optimum; ties always resolve to the lowest index so
    decisions are reproducible.
    """

    rule: str
    chosen_index: int
    chosen_answer: str
    tie_broken: bool = False


def _argmax(rule: str, scores: Sequence[float], candidates: CandidateSet) -> DecisionOutcome:
    """``rule``'s pick: the lowest index scoring within ``TIE_TOL`` of the best."""
    best = max(scores)
    winners = [i for i, s in enumerate(scores) if best - s <= TIE_TOL]
    return DecisionOutcome(rule=rule, chosen_index=winners[0],
                           chosen_answer=candidates.answers[winners[0]],
                           tie_broken=len(winners) > 1)


def precise_argmax(pmf: PrecisePMF) -> DecisionOutcome:
    """Pick the most probable answer of a single distribution."""
    return _argmax(RULE_PRECISE_ARGMAX, pmf.probs, pmf.candidates)


def maximin(intervals: ProbabilityIntervalSet) -> DecisionOutcome:
    """Pick the answer with the best worst case (largest lower bound)."""
    return _argmax(RULE_MAXIMIN, intervals.lowers, intervals.candidates)


def maximax(intervals: ProbabilityIntervalSet) -> DecisionOutcome:
    """Pick the answer with the best best case (largest upper bound)."""
    return _argmax(RULE_MAXIMAX, intervals.uppers, intervals.candidates)


def utilitarian_aggregate(credal: CredalSet) -> PrecisePMF:
    """Equal-weight arithmetic mean of the credal members.

    The mean of PMFs is itself a PMF, so the result is a valid precise
    distribution; its argmax is the group's utilitarian choice.  Note this
    can disagree with per-member majority vote: two members mildly
    favouring B lose to one member strongly favouring A.  The mean is built
    once per credal set (:attr:`~ipuq.core.CredalSet.mean`), so a record's
    decision and its scores share it.
    """
    return credal.mean


__all__ = [
    "TIE_TOL",
    "RULE_PRECISE_ARGMAX",
    "RULE_MAXIMIN",
    "RULE_MAXIMAX",
    "DecisionOutcome",
    "precise_argmax",
    "maximin",
    "maximax",
    "utilitarian_aggregate",
]
