"""Second-order uncertainty scores: maximum mean imprecision (MMI).

For an imprecise report every event ``A`` over the candidate set carries a
lower and an upper probability.  The MMI under total variation is the widest
such gap::

    MMI = max over events A of ( upper(A) - lower(A) )

i.e. the probability mass that stays genuinely undecided no matter which
event you ask about.  It is 0 for a precise distribution and 1 for complete
ignorance.  Each report type admits its own route to this number:

* a single answer's probability interval: the gap is just ``upper - lower``
  (the two-outcome event space has nothing wider);
* a full interval set: ``1 - sum(lowers)`` upper-bounds the MMI and is the
  score used when only lower bounds are trusted;
* a credal set: event bounds are minima/maxima over the member PMFs (event
  probability is linear, so extrema sit at the members), hence the exact MMI
  is the largest total-variation distance between two members, found in
  ``O(m^2 * n)`` for ``m`` members and ``n`` candidates;
* a possibility assignment: after scaling the peak to 1, the second-largest
  score is exactly the widest gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .core import PROB_TOL, CredalSet, InvalidValueError, PossibilityAssignment
from .coherence import AllZeroError

@dataclass(frozen=True)
class MmiScore:
    """An MMI value plus the number of events evaluated to reach it.

    ``event_count`` is ``m * (m - 1)`` for an exact credal score (one event
    per ordered member pair), 4 for one answer's interval (the two-outcome
    event space) and ``None`` for the other closed forms.
    """

    value: float
    event_count: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"MMI must lie in [0, 1], got {self.value!r}")


def interval_width_mmi(lower: float, upper: float) -> MmiScore:
    """Exact MMI for one answer's probability interval.

    With a single answer the only non-trivial events are "correct" and
    "not correct", and both show the same gap, so the MMI equals the
    interval width with no slack.
    """
    lower = float(lower)
    upper = float(upper)
    if not (0.0 <= lower <= upper <= 1.0):
        raise InvalidValueError(f"need 0 <= lower <= upper <= 1, got [{lower!r}, {upper!r}]")
    return MmiScore(value=upper - lower, event_count=4)


def mmi_upper_bound(lowers: Sequence[float]) -> MmiScore:
    """Upper bound on the MMI from lower probabilities alone.

    Whatever the event, its upper probability is at most 1 and its lower
    probability is at least the sum of the lower bounds of its singletons,
    so no gap can exceed ``1 - sum(lowers)``.  The bound is tight when all
    the slack can concentrate on one event.
    """
    lowers = [float(x) for x in lowers]
    for i, lo in enumerate(lowers):
        if lo < 0.0:
            raise InvalidValueError(f"negative lower bound at index {i}: {lo!r}")
    total = sum(lowers)
    if total > 1.0 + PROB_TOL:
        raise InvalidValueError(f"lower bounds sum to {total!r} > 1")
    return MmiScore(value=min(1.0, max(0.0, 1.0 - total)))


def exact_mmi_credal(credal: CredalSet) -> MmiScore:
    """Exact MMI of a credal set: the largest gap between two members.

    For the ordered member pair ``(j, k)`` the event with the widest gap
    ``P_j(A) - P_k(A)`` is ``A* = {i : p_j[i] > p_k[i]}``, so the MMI is the
    largest such gap over all ordered pairs.  Both event masses accumulate
    in increasing candidate order, the order a naive ``2^n`` enumerator
    adds them in.  The two orders of a pair give the same gap in exact
    arithmetic but round differently; an enumerator sees both events, so
    both orders are evaluated.
    """
    best = 0.0
    pairs = 0
    for pj, pk in permutations([m.probs for m in credal.members], 2):
        pairs += 1
        upper = lower = 0.0
        for a, b in zip(pj, pk):
            if a > b:
                upper += a
                lower += b
        gap = upper - lower
        if gap > best:
            best = gap
    return MmiScore(value=best, event_count=pairs)


def possibility_mmi(assignment: PossibilityAssignment) -> MmiScore:
    """MMI of a possibility assignment: its second-largest normalized score.

    After scaling so the top score is 1 the widest event gap is attained by
    the most plausible answer against everything else, and equals the
    runner-up score.  Computed as ``second_raw / top_raw``, which is the same
    number as normalizing first and sorting after.  The none-of-the-above
    slot competes like any other entry.  Invariant under positive rescaling
    of the input.
    """
    combined = assignment.combined()
    if len(combined) == 1:
        return MmiScore(value=0.0)
    ranked = sorted(combined, reverse=True)
    top, second = ranked[0], ranked[1]
    if top <= 0.0:
        raise AllZeroError("all possibility scores are zero; MMI is undefined")
    return MmiScore(value=second / top)


def possibility_binary_mmi(score_for: float, score_against: float) -> MmiScore:
    """MMI when only an answer's and its complement's possibility are known.

    The normalized runner-up of a two-entry assignment is simply
    ``min / max``; 1 means maximal conflict (both fully plausible), 0 means
    one side is impossible.
    """
    score_for = float(score_for)
    score_against = float(score_against)
    for s in (score_for, score_against):
        if not (0.0 <= s <= 1.0):
            raise InvalidValueError(f"possibility scores must lie in [0, 1], got {s!r}")
    top = max(score_for, score_against)
    if top <= 0.0:
        raise AllZeroError("both possibility scores are zero; MMI is undefined")
    return MmiScore(value=min(score_for, score_against) / top)


__all__ = [
    "MmiScore",
    "interval_width_mmi",
    "mmi_upper_bound",
    "exact_mmi_credal",
    "possibility_mmi",
    "possibility_binary_mmi",
]
