"""Decision rules over precise and imprecise probability reports."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .core import (
    CandidateSet,
    CredalSet,
    LengthMismatchError,
    PrecisePMF,
    ProbabilityIntervalSet,
    fold_equal,
)

logger = logging.getLogger(__name__)

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


def alignment_rate(
    model_choices: Sequence[str],
    rule_choices: Sequence[DecisionOutcome],
) -> float:
    """Fraction of positions where the model's own answer matches the rule's.

    Comparison folds case and surrounding whitespace.  A model answer that
    matches no candidate simply counts as misaligned (and is logged), since
    the rule by construction picked a listed candidate.
    """
    if len(model_choices) != len(rule_choices):
        raise LengthMismatchError("model and rule choice lists must align")
    if not model_choices:
        raise LengthMismatchError("alignment over zero choices is undefined")
    hits = 0
    for picked, outcome in zip(model_choices, rule_choices):
        if fold_equal(picked, outcome.chosen_answer):
            hits += 1
        else:
            logger.debug("misaligned: model chose %r, %s chose %r",
                         picked, outcome.rule, outcome.chosen_answer)
    return hits / len(model_choices)


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
    "alignment_rate",
]
