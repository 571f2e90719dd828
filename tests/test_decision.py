import random

import pytest

from ipuq.core import (
    CandidateSet,
    CredalSet,
    PrecisePMF,
    ProbabilityIntervalSet,
    build_pmf,
)
from ipuq.decision import (
    RULE_MAXIMAX,
    RULE_MAXIMIN,
    RULE_PRECISE_ARGMAX,
    maximax,
    maximin,
    precise_argmax,
    utilitarian_aggregate,
)


def cands(n):
    return CandidateSet(answers=tuple(chr(ord("A") + i) for i in range(n)))


def interval_set(lowers, uppers):
    return ProbabilityIntervalSet(
        candidates=cands(len(lowers)), lowers=tuple(lowers), uppers=tuple(uppers)
    )


def test_precise_argmax_picks_mode():
    pmf = PrecisePMF(candidates=cands(3), probs=(0.2, 0.5, 0.3))
    out = precise_argmax(pmf)
    assert out.rule == RULE_PRECISE_ARGMAX
    assert out.chosen_index == 1
    assert out.chosen_answer == "B"
    assert not out.tie_broken


def test_argmax_ties_resolve_to_lowest_index():
    pmf = PrecisePMF(candidates=cands(3), probs=(0.4, 0.4, 0.2))
    out = precise_argmax(pmf)
    assert out.chosen_index == 0
    assert out.tie_broken


def test_maximin_and_maximax_diverge_on_crossed_intervals():
    # A has the higher ceiling, B the higher floor
    ivs = interval_set([0.3, 0.4], [0.6, 0.5])
    assert maximin(ivs).chosen_answer == "B"
    assert maximax(ivs).chosen_answer == "A"
    assert maximin(ivs).rule == RULE_MAXIMIN
    assert maximax(ivs).rule == RULE_MAXIMAX


def test_rules_collapse_on_degenerate_intervals():
    rng = random.Random(31337)
    for _ in range(200):
        n = rng.randint(2, 7)
        weights = [rng.random() + 1e-9 for _ in range(n)]
        total = sum(weights)
        probs = tuple(w / total for w in weights)
        c = cands(n)
        pmf = build_pmf(c, probs, renormalize=True)
        ivs = ProbabilityIntervalSet(candidates=c, lowers=pmf.probs, uppers=pmf.probs)
        want = precise_argmax(pmf).chosen_index
        assert maximin(ivs).chosen_index == want
        assert maximax(ivs).chosen_index == want


def _credal(member_probs):
    c = cands(len(member_probs[0]))
    return CredalSet(
        candidates=c,
        members=tuple(PrecisePMF(candidates=c, probs=tuple(p)) for p in member_probs),
    )


def test_utilitarian_aggregate_is_member_mean():
    credal = _credal([[0.9, 0.1], [0.2, 0.8], [0.1, 0.9]])
    agg = utilitarian_aggregate(credal)
    assert agg.probs[0] == pytest.approx(0.4, abs=1e-12)
    assert agg.probs[1] == pytest.approx(0.6, abs=1e-12)


def test_utilitarian_aggregate_can_beat_majority_vote():
    # two members mildly favour B, one strongly favours A; the mean favours A
    credal = _credal([[0.94, 0.06], [0.45, 0.55], [0.45, 0.55]])
    votes = [precise_argmax(m).chosen_index for m in credal.members]
    assert votes.count(1) > votes.count(0)
    assert precise_argmax(utilitarian_aggregate(credal)).chosen_index == 0
