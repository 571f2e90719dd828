import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipuq.coherence import (
    ALL_ZERO,
    GLOBAL_INDEX,
    LOWER_SUM,
    NEGATIVE,
    SUM,
    UPPER_SUM,
    VALUE_RANGE,
    AllZeroError,
    VerdictReport,
    Violation,
    normalize_possibility,
    verify_axioms,
    verify_interval_coherence,
)
from ipuq.core import CandidateSet, PossibilityAssignment, ProbabilityIntervalSet


def codes(report: VerdictReport) -> tuple[str, ...]:
    return tuple(v.code for v in report.violations)


def test_verify_axioms_passes_valid_prices():
    report = verify_axioms([0.2, 0.3, 0.5])
    assert report.passed
    assert report.violations == ()


def test_verify_axioms_flags_sum_violation():
    report = verify_axioms([0.6, 0.6])
    assert not report.passed
    assert codes(report) == (SUM,)
    (v,) = report.violations
    assert v.index == GLOBAL_INDEX
    assert v.observed == pytest.approx(1.2)


def test_verify_axioms_flags_negative_and_range_but_not_sum():
    # the two violations cancel in the total, so no SUM entry may appear
    report = verify_axioms([1.1, -0.1])
    assert not report.passed
    assert set(codes(report)) == {VALUE_RANGE, NEGATIVE}
    assert SUM not in codes(report)
    by_code = {v.code: v for v in report.violations}
    assert by_code[VALUE_RANGE].index == 0
    assert by_code[NEGATIVE].index == 1


def test_verify_axioms_tolerates_rounding_noise():
    assert verify_axioms([0.1] * 10).passed
    assert verify_axioms([1.0 + 5e-7]).passed


def test_verdict_report_describe_mentions_each_violation():
    report = verify_axioms([1.5, -0.5])
    text = report.describe()
    assert "answer 1" in text
    assert "answer 2" in text


def test_verdict_report_passes_iff_it_has_no_violations():
    assert VerdictReport(()).passed
    assert not VerdictReport((Violation(SUM, GLOBAL_INDEX, 2.0, 1.0),)).passed


def test_verify_axioms_reports_nan_as_out_of_range():
    # a NaN sum trips no SUM check, so the VALUE_RANGE row is the only one
    for prices, index in (([math.nan, 1.0], 0), ([1.0, math.nan], 1)):
        report = verify_axioms(prices)
        assert not report.passed
        assert [(v.code, v.index) for v in report.violations] == [(VALUE_RANGE, index)]


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10))
def test_verify_axioms_in_range_lists_only_trip_the_sum_check(prices):
    report = verify_axioms(prices)
    for v in report.violations:
        assert v.code == SUM


# ---------------------------------------------------------------------------
# Interval coherence
# ---------------------------------------------------------------------------


def _ivs(lowers, uppers):
    c = CandidateSet(answers=tuple(f"a{i}" for i in range(len(lowers))))
    return ProbabilityIntervalSet(candidates=c, lowers=tuple(lowers), uppers=tuple(uppers))


def test_interval_coherence_accepts_feasible_box():
    assert verify_interval_coherence(_ivs([0.2, 0.3], [0.5, 0.8])).passed


def test_interval_coherence_rejects_lower_sum_above_one():
    report = verify_interval_coherence(_ivs([0.7, 0.6], [0.8, 0.9]))
    assert codes(report) == (LOWER_SUM,)
    assert report.violations[0].observed == pytest.approx(1.3)


def test_interval_coherence_rejects_upper_sum_below_one():
    report = verify_interval_coherence(_ivs([0.0, 0.0], [0.3, 0.4]))
    assert codes(report) == (UPPER_SUM,)
    assert report.violations[0].observed == pytest.approx(0.7)
    assert verify_interval_coherence(_ivs([0.0, 0.0], [0.3, 0.7])).passed  # sums to 1


# ---------------------------------------------------------------------------
# Possibility normalization
# ---------------------------------------------------------------------------


def _pa(scores, nota=0.0):
    c = CandidateSet(answers=tuple(f"a{i}" for i in range(len(scores))))
    return PossibilityAssignment(candidates=c, scores=tuple(scores), none_of_above=nota)


def test_normalize_possibility_scales_peak_to_one():
    out = normalize_possibility(_pa([0.5, 0.25], nota=0.1))
    assert out.scores == (1.0, 0.5)
    assert out.none_of_above == pytest.approx(0.2)


def test_normalize_possibility_noop_when_already_normalized():
    pa = _pa([1.0, 0.3], nota=0.2)
    assert normalize_possibility(pa) is pa


def test_normalize_possibility_peak_may_sit_in_nota_slot():
    out = normalize_possibility(_pa([0.2, 0.1], nota=0.4))
    assert out.none_of_above == 1.0
    assert out.scores == (0.5, 0.25)


def test_normalize_possibility_all_zero_raises():
    with pytest.raises(AllZeroError):
        normalize_possibility(_pa([0.0, 0.0], nota=0.0))


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_normalize_possibility_properties(scores, nota):
    if max([*scores, nota]) == 0.0:
        with pytest.raises(AllZeroError):
            normalize_possibility(_pa(scores, nota))
        return
    out = normalize_possibility(_pa(scores, nota))
    combined = out.combined()
    assert max(combined) == 1.0
    assert all(0.0 <= s <= 1.0 for s in combined)
    # order is preserved
    ranks_in = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks_out = sorted(range(len(out.scores)), key=lambda i: out.scores[i])
    assert [scores[i] for i in ranks_in] == sorted(scores)
    assert [out.scores[i] for i in ranks_out] == sorted(out.scores)


def test_all_zero_violation_code_exists():
    # the retry loop reports infeasible possibility replies under this code
    v = Violation(ALL_ZERO, GLOBAL_INDEX, observed=0.0, bound=0.0)
    assert "overall" in v.describe()
    assert not math.isnan(v.observed)
