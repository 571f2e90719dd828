import math
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipuq.core import (
    CandidateSet,
    CredalSet,
    InvalidValueError,
    InvertedIntervalError,
    PossibilityAssignment,
    PrecisePMF,
    ProbabilityIntervalSet,
    QARecord,
    build_pmf,
    interval_from_credal,
    is_finite_number,
)


def cs(*answers, **kw):
    return CandidateSet(answers=tuple(answers), **kw)


# ---------------------------------------------------------------------------
# CandidateSet
# ---------------------------------------------------------------------------


def test_candidate_set_trims_and_dedups_case_insensitively():
    c = cs(" Paris ", "paris", "PARIS", "London")
    assert c.answers == ("Paris", "London")
    assert len(c) == 2


def test_candidate_set_first_occurrence_wins():
    c = cs("berlin", "Berlin")
    assert c.answers == ("berlin",)


def test_candidate_set_rejects_empty():
    with pytest.raises(InvalidValueError, match="a candidate set needs at least one answer"):
        cs()
    with pytest.raises(InvalidValueError, match="candidate answers must be non-empty strings"):
        cs("  ")


def test_index_of_folds_case_and_whitespace():
    c = cs("Paris", "London")
    assert c.index_of(" paris ") == 0
    assert c.index_of("LONDON") == 1
    assert c.index_of("Rome") is None


def test_case_sensitive_mode_keeps_casing_variants():
    c = cs("ab", "Ab", "AB", case_sensitive=True)
    assert c.answers == ("ab", "Ab", "AB")
    assert c.index_of("Ab") == 1
    assert c.index_of("aB") is None


@pytest.mark.parametrize("a, b, folded, exact", [
    ("Paris", "Paris", True, True),
    (" Paris", "Paris ", True, True),
    ("\tParis\n", "Paris", True, True),
    ("Paris", "paris", True, False),
    (" bqqmf ", "BQQMF", True, False),
    ("Straße", "STRASSE", True, False),
    ("Paris", "London", False, False),
    ("BQQMX", "BQQMF", False, False),
    ("New York", "NewYork", False, False),
])
@pytest.mark.parametrize("open_ended", [False, True])
@pytest.mark.parametrize("case_sensitive", [False, True])
def test_matches_trims_and_folds_case_unless_case_sensitive(
    a, b, folded, exact, open_ended, case_sensitive
):
    c = cs("x", open_ended=open_ended, case_sensitive=case_sensitive)
    want = exact if case_sensitive else folded
    assert c.matches(a, b) is want
    assert c.matches(b, a) is want


@pytest.mark.parametrize("case_sensitive, kept", [
    (False, ("Ab", "b", "ß")),
    (True, ("Ab", "ab", "AB", "b", "B", "ß", "SS")),
])
def test_dedup_and_index_of_follow_matches(case_sensitive, kept):
    raw = ("Ab", " ab", "AB ", "b", "B", "ß", "SS")
    c = cs(*raw, case_sensitive=case_sensitive)
    assert c.answers == kept
    for a in raw:
        assert c.index_of(a) == next(i for i, k in enumerate(kept) if c.matches(a, k))


@given(st.lists(st.text(min_size=1).filter(lambda s: s.strip()), min_size=1, max_size=8))
def test_candidate_set_is_idempotent(answers):
    once = CandidateSet(answers=tuple(answers))
    twice = CandidateSet(answers=once.answers)
    assert once.answers == twice.answers


# ---------------------------------------------------------------------------
# PrecisePMF
# ---------------------------------------------------------------------------


def test_pmf_accepts_valid_distribution():
    pmf = PrecisePMF(candidates=cs("a", "b"), probs=(0.25, 0.75))
    assert pmf.probs[1] == 0.75


def test_pmf_length_mismatch():
    with pytest.raises(InvalidValueError, match="1 probabilities for 2 candidates"):
        PrecisePMF(candidates=cs("a", "b"), probs=(1.0,))


def test_pmf_rejects_out_of_range_entries():
    with pytest.raises(InvalidValueError, match=r"prob at index 0 outside \[0, 1\]: -0\.1"):
        PrecisePMF(candidates=cs("a", "b"), probs=(-0.1, 1.1))


def test_pmf_rejects_bad_sum():
    with pytest.raises(InvalidValueError, match="probabilities sum to 1.2, expected 1"):
        PrecisePMF(candidates=cs("a", "b"), probs=(0.6, 0.6))


def test_pmf_tolerates_tiny_sum_noise():
    PrecisePMF(candidates=cs("a", "b"), probs=(0.5, 0.5 + 5e-7))


def test_pmf_rejects_nan_wherever_it_sits():
    for probs, index in (((math.nan, 1.0), 0), ((1.0, math.nan), 1)):
        with pytest.raises(InvalidValueError, match=f"prob at index {index} outside"):
            PrecisePMF(candidates=cs("a", "b"), probs=probs)


# ---------------------------------------------------------------------------
# ProbabilityIntervalSet
# ---------------------------------------------------------------------------


def test_interval_set_round_trip_and_width():
    ivs = ProbabilityIntervalSet(
        candidates=cs("a", "b"), lowers=(0.2, 0.1), uppers=(0.5, 0.9)
    )
    assert ivs.uppers[0] - ivs.lowers[0] == 0.5 - 0.2
    assert ivs.uppers[1] - ivs.lowers[1] == pytest.approx(0.8)


def test_interval_set_rejects_inverted():
    with pytest.raises(InvertedIntervalError):
        ProbabilityIntervalSet(candidates=cs("a",), lowers=(0.7,), uppers=(0.3,))


def test_interval_set_rejects_out_of_range():
    with pytest.raises(InvalidValueError, match=re.escape("outside [0, 1]: [-0.2, 0.3]")):
        ProbabilityIntervalSet(candidates=cs("a",), lowers=(-0.2,), uppers=(0.3,))
    with pytest.raises(InvalidValueError, match=re.escape("outside [0, 1]: [0.2, 1.3]")):
        ProbabilityIntervalSet(candidates=cs("a",), lowers=(0.2,), uppers=(1.3,))


def test_interval_set_rejects_nan():
    for lowers, uppers in (((math.nan,), (0.3,)), ((0.2,), (math.nan,))):
        with pytest.raises(InvalidValueError, match=r"interval at index 0 outside \[0, 1\]"):
            ProbabilityIntervalSet(candidates=cs("a",), lowers=lowers, uppers=uppers)


# ---------------------------------------------------------------------------
# CredalSet / PossibilityAssignment
# ---------------------------------------------------------------------------


def _member(c, probs):
    return PrecisePMF(candidates=c, probs=probs)


def test_credal_set_needs_members():
    with pytest.raises(InvalidValueError, match="a credal set needs at least one member PMF"):
        CredalSet(candidates=cs("a", "b"), members=())


def test_credal_set_members_share_candidates():
    c1, c2 = cs("a", "b"), cs("x", "y")
    with pytest.raises(InvalidValueError, match="member PMFs must share the candidate set"):
        CredalSet(candidates=c1, members=(_member(c2, (0.5, 0.5)),))


def test_interval_from_credal_is_componentwise_envelope():
    c = cs("a", "b", "c")
    credal = CredalSet(
        candidates=c,
        members=(
            _member(c, (0.2, 0.3, 0.5)),
            _member(c, (0.4, 0.1, 0.5)),
            _member(c, (0.3, 0.3, 0.4)),
        ),
    )
    env = interval_from_credal(credal)
    assert env.lowers == (0.2, 0.1, 0.4)
    assert env.uppers == (0.4, 0.3, 0.5)


def test_possibility_assignment_validates_range_including_nota():
    c = cs("a", "b")
    with pytest.raises(InvalidValueError, match=re.escape("outside [0, 1] at slot 1: 1.2")):
        PossibilityAssignment(candidates=c, scores=(0.5, 1.2))
    with pytest.raises(InvalidValueError, match=re.escape("outside [0, 1] at slot 2: -0.1")):
        PossibilityAssignment(candidates=c, scores=(0.5, 0.5), none_of_above=-0.1)
    pa = PossibilityAssignment(candidates=c, scores=(1.0, 0.3), none_of_above=0.2)
    assert pa.combined() == (1.0, 0.3, 0.2)


def test_possibility_assignment_rejects_nan():
    c = cs("a", "b")
    with pytest.raises(InvalidValueError, match="slot 1"):
        PossibilityAssignment(candidates=c, scores=(0.5, math.nan))
    with pytest.raises(InvalidValueError, match="slot 2"):
        PossibilityAssignment(candidates=c, scores=(0.5, 0.5), none_of_above=math.nan)


def test_possibility_assignment_all_zero_is_representable():
    pa = PossibilityAssignment(candidates=cs("a",), scores=(0.0,))
    assert pa.combined() == (0.0, 0.0)


# ---------------------------------------------------------------------------
# build_pmf
# ---------------------------------------------------------------------------


def test_build_pmf_strict_mode():
    pmf = build_pmf(cs("a", "b"), [0.5, 0.5])
    assert pmf.probs == (0.5, 0.5)
    with pytest.raises(InvalidValueError, match="weights sum to 1.2, expected 1 within 1e-06"):
        build_pmf(cs("a", "b"), [0.6, 0.6])


def test_build_pmf_renormalizes_when_asked():
    pmf = build_pmf(cs("a", "b"), [0.6, 0.6], renormalize=True)
    assert pmf.probs == (0.5, 0.5)


def test_build_pmf_rejects_negative_and_zero_mass():
    with pytest.raises(InvalidValueError, match="negative weight at index 0: -0.1"):
        build_pmf(cs("a", "b"), [-0.1, 1.1])
    with pytest.raises(InvalidValueError, match="weights sum to zero; no distribution"):
        build_pmf(cs("a", "b"), [0.0, 0.0], renormalize=True)


def test_build_pmf_rejects_non_finite_weights():
    for weights in ([math.nan, 1.0], [1.0, math.nan], [0.0, math.inf]):
        for renormalize in (False, True):
            with pytest.raises(InvalidValueError, match="is not finite"):
                build_pmf(cs("a", "b"), weights, renormalize=renormalize)


@given(st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=6))
def test_build_pmf_renormalize_is_idempotent(weights):
    c = CandidateSet(answers=tuple(f"cand{i}" for i in range(len(weights))))
    once = build_pmf(c, weights, renormalize=True)
    twice = build_pmf(c, once.probs, renormalize=True)
    assert once.probs == pytest.approx(twice.probs, abs=1e-15)
    assert sum(once.probs) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# QARecord
# ---------------------------------------------------------------------------


def test_qarecord_reference_must_be_in_truth_set():
    with pytest.raises(InvalidValueError, match="reference answer must be a member of"):
        QARecord(
            question="q",
            candidates=cs("a", "b"),
            truth_set=("a",),
            reference_answer="b",
        )


@pytest.mark.parametrize("case_sensitive", [False, True])
def test_qarecord_reference_matches_the_truth_set_under_the_candidate_rule(case_sensitive):
    def record(reference):
        return QARecord(question="q", candidates=cs("abc", case_sensitive=case_sensitive),
                        truth_set=(" ABC ",), reference_answer=reference)

    assert record("ABC\n").truth_set == ("ABC",)
    if case_sensitive:
        with pytest.raises(InvalidValueError, match="reference answer must be a member of"):
            record("abc")
    else:
        assert record("abc").reference_answer == "abc"


@pytest.mark.parametrize("pstar", [
    (0.5, 0.5), (), (-0.5,), (math.nan,), (math.inf,), (True,), ("1",), "1", {"a": 1.0},
], ids=repr)
def test_qarecord_pstar_aligned_with_truth_set(pstar):
    with pytest.raises(InvalidValueError, match="pstar must be null or one finite non-negative"):
        QARecord(question="q", candidates=cs("a"), truth_set=("a",), pstar=pstar)


@pytest.mark.parametrize("pstar, stored", [((1.0,), (1.0,)), ([1], (1.0,)), (None, None)])
def test_qarecord_pstar_is_stored_as_floats(pstar, stored):
    rec = QARecord(question="q", candidates=cs("a"), truth_set=("a",), pstar=pstar)
    assert rec.pstar == stored and all(type(p) is float for p in rec.pstar or ())


@pytest.mark.parametrize("field, value, reason", [
    ("question", 7, "question must be a string, got 7"),
    ("question", None, "question must be a string, got None"),
    ("reference_answer", 7, "reference_answer must be a string, got 7"),
    ("prediction", ["a"], "prediction must be a string, got ['a']"),
    ("truth_set", ("a", 7), "answer must be a string, got 7"),
    ("question", "q\ud800?", "question holds a lone surrogate at index 1"),
    ("reference_answer", "a\udfff", "reference_answer holds a lone surrogate at index 1"),
    ("prediction", "\ud83d", "prediction holds a lone surrogate at index 0"),
    ("truth_set", ("a\ud800",), "answer holds a lone surrogate at index 1"),
    ("candidates", cs("a", "b\ud800"), "answer holds a lone surrogate at index 1"),
], ids=repr)
def test_qarecord_refuses_text_a_record_cannot_hold(field, value, reason):
    fields = dict(question="q", candidates=cs("a"), truth_set=("a",),
                  reference_answer="a", prediction="a")
    with pytest.raises(InvalidValueError) as info:
        QARecord(**{**fields, field: value})
    assert str(info.value).startswith(reason)


def test_qarecord_keeps_text_outside_the_basic_plane():
    rec = QARecord(question="q \U0001f600", candidates=cs("\U0001f600"),
                   truth_set=("\U0001f600",), reference_answer="\U0001f600")
    assert rec.truth_set == ("\U0001f600",)


@pytest.mark.parametrize("answer", [7, None, b"a", ("a",)], ids=repr)
def test_candidate_answers_must_be_strings(answer):
    with pytest.raises(InvalidValueError, match="candidate answers must be strings"):
        cs("a", answer)


@pytest.mark.parametrize("value, ok", [
    (0, True), (-3, True), (0.5, True), (sys.float_info.max, True),
    (-sys.float_info.max, True), (int(sys.float_info.max), True),
    (10**400, False), (-10**400, False), (math.nan, False), (math.inf, False),
    (-math.inf, False), (True, False), ("1", False), (None, False),
], ids=["0", "-3", "0.5", "max", "-max", "int max", "401 digits", "-401 digits", "nan", "inf",
        "-inf", "true", "string", "null"])
def test_a_json_number_is_finite_when_a_float_holds_it(value, ok):
    assert is_finite_number(value) is ok
