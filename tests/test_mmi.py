import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipuq
from ipuq.coherence import AllZeroError
from ipuq.core import CandidateSet, CredalSet, PossibilityAssignment, PrecisePMF, build_pmf
from ipuq.mmi import (
    InvalidIntervalError,
    LowerSumExceedsOneError,
    exact_mmi_credal,
    interval_width_mmi,
    mmi_upper_bound,
    possibility_binary_mmi,
    possibility_mmi,
)

# ---------------------------------------------------------------------------
# Independent oracle, written first: a naive 2^n event enumerator with no
# vectorization.  Event mass is accumulated in increasing candidate order so
# that float addition order matches any straightforward implementation.
# ---------------------------------------------------------------------------


def brute_force_mmi(member_probs):
    n = len(member_probs[0])
    best = 0.0
    for mask in range(2**n):
        lo = hi = None
        for probs in member_probs:
            total = 0.0
            for k in range(n):
                if (mask >> k) & 1:
                    total += probs[k]
            lo = total if lo is None else min(lo, total)
            hi = total if hi is None else max(hi, total)
        gap = hi - lo
        if gap > best:
            best = gap
    return best


def second_largest_ratio(scores):
    ranked = sorted(scores, reverse=True)
    return ranked[1] / ranked[0]


def make_credal(member_probs):
    n = len(member_probs[0])
    c = CandidateSet(answers=tuple(f"a{i}" for i in range(n)))
    return CredalSet(
        candidates=c,
        members=tuple(PrecisePMF(candidates=c, probs=tuple(p)) for p in member_probs),
    )


def random_member_probs(rng, n, m):
    out = []
    for _ in range(m):
        weights = [rng.random() + 1e-9 for _ in range(n)]
        total = sum(weights)
        probs = [w / total for w in weights]
        out.append(probs)
    return out


# ---------------------------------------------------------------------------
# Closed forms with frozen figures
# ---------------------------------------------------------------------------


def test_interval_width_worked_figure_is_exact():
    score = interval_width_mmi(0.2, 0.5)
    assert score.value == 0.3  # 0.5 - 0.2 is exactly representable


def test_upper_bound_worked_figure_is_exact():
    score = mmi_upper_bound([0.4])
    assert score.value == 0.6


def test_interval_width_validation():
    with pytest.raises(InvalidIntervalError):
        interval_width_mmi(0.7, 0.3)
    with pytest.raises(InvalidIntervalError):
        interval_width_mmi(-0.1, 0.5)


def test_upper_bound_validation():
    with pytest.raises(InvalidIntervalError):
        mmi_upper_bound([0.2, -0.1])
    with pytest.raises(LowerSumExceedsOneError):
        mmi_upper_bound([0.7, 0.7])


def test_upper_bound_clamps_tiny_overshoot_to_zero():
    # a lower-bound sum a hair above 1 (within tolerance) must not go negative
    assert mmi_upper_bound([0.5, 0.5 + 5e-7]).value == 0.0


def test_precise_distribution_has_zero_upper_bound():
    assert mmi_upper_bound([0.25, 0.25, 0.25, 0.25]).value == 0.0


# ---------------------------------------------------------------------------
# Exact credal MMI
# ---------------------------------------------------------------------------


def test_exact_mmi_frozen_two_member_example():
    credal = make_credal([[0.2, 0.8], [0.5, 0.5]])
    score = exact_mmi_credal(credal)
    # widest gap sits on the singleton events: 0.5 - 0.2 vs 0.8 - 0.5
    assert score.value == 0.30000000000000004
    assert score.event_count == 2  # one event per ordered member pair


def test_exact_mmi_single_member_is_zero():
    credal = make_credal([[0.1, 0.2, 0.7]])
    assert exact_mmi_credal(credal).value == 0.0


def test_exact_mmi_matches_brute_force_bit_for_bit():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 5)
        member_probs = random_member_probs(rng, n, m)
        ours = exact_mmi_credal(make_credal(member_probs))
        assert ours.value == brute_force_mmi(member_probs)
        assert ours.event_count == m * (m - 1)


def test_exact_mmi_on_two_decimal_pmfs_never_exceeds_enumerator():
    # Chat replies carry two-decimal probabilities.  The enumerator keeps the
    # largest rounding error over all 2^n events, so the closed form may sit
    # a few ulps below it, never above and never beyond the 1e-12 tolerance
    # that stored scores are recomputed to.
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(2, 7)
        m = rng.randint(2, 5)
        member_probs = []
        for _ in range(m):
            cuts = sorted(rng.randint(0, 100) for _ in range(n - 1))
            edges = [0, *cuts, 100]
            member_probs.append([(edges[i + 1] - edges[i]) / 100 for i in range(n)])
        ours = exact_mmi_credal(make_credal(member_probs)).value
        want = brute_force_mmi(member_probs)
        assert ours <= want
        assert want - ours <= 1e-12


def test_exact_mmi_dominated_by_lower_bound_score():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 6)
        m = rng.randint(2, 5)
        credal = make_credal(random_member_probs(rng, n, m))
        exact = exact_mmi_credal(credal).value
        lowers = [
            min(mem.probs[i] for mem in credal.members) for i in range(n)
        ]
        assert exact <= mmi_upper_bound(lowers).value + 1e-9


@st.composite
def credal_sets(draw, max_n=5, max_m=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    c = CandidateSet(answers=tuple(f"a{i}" for i in range(n)))
    members = []
    for _ in range(m):
        weights = draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n
            )
        )
        members.append(build_pmf(c, weights, renormalize=True))
    return CredalSet(candidates=c, members=tuple(members))


@given(credal_sets())
@settings(max_examples=60)
def test_exact_mmi_invariant_under_candidate_permutation(credal):
    n = len(credal.candidates)
    order = list(range(n))
    random.Random(0).shuffle(order)
    permuted = make_credal(
        [[m.probs[i] for i in order] for m in credal.members]
    )
    assert exact_mmi_credal(permuted).value == pytest.approx(
        exact_mmi_credal(credal).value, abs=1e-12
    )


@given(credal_sets())
@settings(max_examples=60)
def test_exact_mmi_at_least_envelope_singleton_width(credal):
    exact = exact_mmi_credal(credal).value
    n = len(credal.candidates)
    for i in range(n):
        col = [m.probs[i] for m in credal.members]
        assert exact >= max(col) - min(col) - 1e-15


def test_package_imports_without_numpy_or_requests():
    code = (
        "import sys, ipuq, ipuq.campaign, ipuq.cli, ipuq.mock; "
        "assert 'numpy' not in sys.modules, 'numpy was imported'; "
        "assert 'requests' not in sys.modules, 'requests was imported'"
    )
    src = os.path.dirname(os.path.dirname(ipuq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


# ---------------------------------------------------------------------------
# Possibility MMI
# ---------------------------------------------------------------------------


def _pa(scores, nota=0.0):
    c = CandidateSet(answers=tuple(f"a{i}" for i in range(len(scores))))
    return PossibilityAssignment(candidates=c, scores=tuple(scores), none_of_above=nota)


def test_possibility_mmi_is_second_order_statistic():
    score = possibility_mmi(_pa([1.0, 0.4, 0.1], nota=0.0))
    assert score.value == 0.4


def test_possibility_mmi_nota_competes():
    assert possibility_mmi(_pa([1.0, 0.1], nota=0.7)).value == 0.7


def test_possibility_mmi_single_entry_no_nota_mass():
    # one candidate, zero none-of-the-above: runner-up is the zero slot
    assert possibility_mmi(_pa([1.0], nota=0.0)).value == 0.0


def test_possibility_mmi_all_zero_raises():
    with pytest.raises(AllZeroError):
        possibility_mmi(_pa([0.0, 0.0], nota=0.0))


def test_possibility_mmi_matches_sort_oracle_on_random_inputs():
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randint(1, 10)
        scores = [rng.random() for _ in range(n)]
        nota = rng.random()
        got = possibility_mmi(_pa([s / 2 for s in scores], nota=nota / 2))
        want = second_largest_ratio([*(s / 2 for s in scores), nota / 2])
        assert got.value == want


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=8),
    st.floats(min_value=0.1, max_value=1.0),
)
def test_possibility_mmi_scale_invariance(raw, scale):
    top = max(raw)
    base = _pa([s / top for s in raw])
    scaled = _pa([s / top * scale for s in raw])
    assert possibility_mmi(scaled).value == pytest.approx(
        possibility_mmi(base).value, abs=1e-12
    )


def test_possibility_binary_mmi():
    assert possibility_binary_mmi(1.0, 0.25).value == 0.25
    assert possibility_binary_mmi(0.25, 1.0).value == 0.25
    assert possibility_binary_mmi(0.5, 0.5).value == 1.0
    with pytest.raises(AllZeroError):
        possibility_binary_mmi(0.0, 0.0)
    with pytest.raises(InvalidIntervalError):
        possibility_binary_mmi(1.5, 0.5)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-6, max_value=1.0),
)
def test_possibility_binary_matches_two_entry_assignment(a, b):
    via_binary = possibility_binary_mmi(a, b).value
    via_full = possibility_mmi(_pa([a], nota=b)).value
    assert via_binary == via_full
