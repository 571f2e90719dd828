import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipuq.core import CandidateSet, CandidateSetMismatchError, PrecisePMF, build_pmf
from ipuq.scores import (
    DECOMPOSITION_TOL,
    Decomposition,
    NegativeScoreError,
    bernoulli_entropy,
    ce_kl_decomposition,
    combined_score,
    entropy,
)


def pmf(probs):
    c = CandidateSet(answers=tuple(f"a{i}" for i in range(len(probs))))
    return PrecisePMF(candidates=c, probs=tuple(probs))


def pair(ref, pred):
    c = CandidateSet(answers=tuple(f"a{i}" for i in range(len(ref))))
    return (
        PrecisePMF(candidates=c, probs=tuple(ref)),
        PrecisePMF(candidates=c, probs=tuple(pred)),
    )


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------


def test_entropy_of_fair_coin_is_ln2():
    assert entropy(pmf([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-15)


def test_entropy_of_point_mass_is_zero():
    assert entropy(pmf([1.0, 0.0, 0.0])) == 0.0
    # -0.0 == 0.0, so only the sign shows it; JSON would write it as -0.0
    assert math.copysign(1, entropy([1.0])) == 1


def test_entropy_accepts_raw_sequences():
    assert entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)


def test_uniform_maximizes_entropy():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 16)
        weights = [rng.random() + 1e-9 for _ in range(n)]
        total = sum(weights)
        h = entropy([w / total for w in weights])
        assert h <= math.log(n) + 1e-12


def test_bernoulli_entropy():
    assert bernoulli_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)
    assert bernoulli_entropy(0.0) == 0.0
    assert bernoulli_entropy(1.0) == 0.0
    assert bernoulli_entropy(0.2) == bernoulli_entropy(0.8)
    with pytest.raises(ValueError):
        bernoulli_entropy(1.5)


# ---------------------------------------------------------------------------
# Cross-entropy decomposition
# ---------------------------------------------------------------------------


def test_decomposition_against_direct_formulas():
    ref, pred = pair([0.5, 0.5], [0.25, 0.75])
    d = ce_kl_decomposition(ref, pred)
    want_ce = -(0.5 * math.log(0.25) + 0.5 * math.log(0.75))
    want_h = math.log(2)
    assert d.cross_entropy == pytest.approx(want_ce, abs=1e-15)
    assert d.entropy_au == pytest.approx(want_h, abs=1e-15)
    assert d.kl_eu == pytest.approx(want_ce - want_h, abs=1e-12)
    assert not d.smoothed


def test_decomposition_identity_and_zero_kl_for_perfect_prediction():
    ref, pred = pair([0.3, 0.7], [0.3, 0.7])
    d = ce_kl_decomposition(ref, pred)
    assert d.kl_eu == 0.0
    assert d.cross_entropy == pytest.approx(d.entropy_au, abs=1e-15)


def test_decomposition_requires_shared_candidates():
    ref = pmf([0.5, 0.5])
    other = PrecisePMF(
        candidates=CandidateSet(answers=("x", "y")), probs=(0.5, 0.5)
    )
    with pytest.raises(CandidateSetMismatchError):
        ce_kl_decomposition(ref, other)


def test_support_mismatch_smoothing_marks_result():
    ref, pred = pair([0.5, 0.5], [1.0, 0.0])
    d = ce_kl_decomposition(ref, pred)
    assert d.smoothed
    assert d.kl_eu > 1.0  # half the mass was floored at ~1e-9
    assert abs(d.cross_entropy - (d.entropy_au + d.kl_eu)) <= DECOMPOSITION_TOL


def test_zero_reference_mass_needs_no_smoothing():
    # prediction may be zero wherever the reference is zero too
    ref, pred = pair([1.0, 0.0], [1.0, 0.0])
    d = ce_kl_decomposition(ref, pred)
    assert not d.smoothed
    assert d.cross_entropy == 0.0


def test_identity_on_many_random_pairs():
    rng = random.Random(123)
    for _ in range(2000):
        n = rng.randint(2, 16)
        c = CandidateSet(answers=tuple(f"a{i}" for i in range(n)))
        ref = build_pmf(c, [rng.random() + 1e-9 for _ in range(n)], renormalize=True)
        pred = build_pmf(c, [rng.random() + 1e-9 for _ in range(n)], renormalize=True)
        d = ce_kl_decomposition(ref, pred)
        assert abs(d.cross_entropy - (d.entropy_au + d.kl_eu)) <= DECOMPOSITION_TOL
        assert d.kl_eu >= 0.0


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_identity_property(n, seed):
    rng = random.Random(seed)
    c = CandidateSet(answers=tuple(f"a{i}" for i in range(n)))
    ref = build_pmf(c, [rng.random() + 1e-6 for _ in range(n)], renormalize=True)
    pred = build_pmf(c, [rng.random() + 1e-6 for _ in range(n)], renormalize=True)
    d = ce_kl_decomposition(ref, pred)
    assert abs(d.cross_entropy - (d.entropy_au + d.kl_eu)) <= DECOMPOSITION_TOL
    assert d.kl_eu >= 0.0


def test_decomposition_type_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        Decomposition(cross_entropy=1.0, entropy_au=0.2, kl_eu=0.2)
    with pytest.raises(ValueError):
        Decomposition(cross_entropy=-0.1, entropy_au=0.0, kl_eu=0.0)


# ---------------------------------------------------------------------------
# Combined score
# ---------------------------------------------------------------------------


def test_combined_score_is_product():
    assert combined_score(2.0, 0.25) == 0.5
    assert combined_score(0.0, 0.9) == 0.0


def test_combined_score_rejects_negative():
    with pytest.raises(NegativeScoreError):
        combined_score(-0.1, 0.5)
    with pytest.raises(NegativeScoreError):
        combined_score(0.5, -0.1)


@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=3.0),
)
def test_combined_score_preserves_ranking_under_rescaling(a, b, scale):
    # scaling one factor scales the product, never reorders it
    assert combined_score(a * scale, b) == pytest.approx(
        combined_score(a, b) * scale, rel=1e-12
    )
