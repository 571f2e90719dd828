import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipuq.metrics import (
    AllRefsTiedError,
    DegenerateLabelsError,
    MissingRefError,
    ScoredExample,
    auroc,
    concordance_index,
)

# ---------------------------------------------------------------------------
# Brute-force oracles (written before the tests that use them): enumerate
# every pair and count, with 0.5 credit on score ties.
# ---------------------------------------------------------------------------


def auroc_by_pairs(examples):
    pos = [e.score for e in examples if e.label == 1]
    neg = [e.score for e in examples if e.label == 0]
    credit = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                credit += 1.0
            elif p == q:
                credit += 0.5
    return credit / (len(pos) * len(neg))


def concordance_by_pairs(examples):
    comparable = 0
    credit = 0.0
    for i in range(len(examples)):
        for j in range(i + 1, len(examples)):
            a, b = examples[i], examples[j]
            if a.ref_value == b.ref_value:
                continue
            comparable += 1
            if a.score == b.score:
                credit += 0.5
            elif (a.score > b.score) == (a.ref_value > b.ref_value):
                credit += 1.0
    return credit / comparable


def random_examples(rng, n, *, tie_scores=False):
    out = []
    for _ in range(n):
        score = rng.choice([0.1, 0.25, 0.5, 0.75]) if tie_scores else rng.random()
        out.append(
            ScoredExample(score=score, label=rng.randint(0, 1), ref_value=rng.random())
        )
    return out


# ---------------------------------------------------------------------------
# AUROC
# ---------------------------------------------------------------------------


def test_auroc_perfect_separation():
    examples = [ScoredExample(0.9, 1), ScoredExample(0.1, 0)]
    assert auroc(examples) == 1.0


def test_auroc_inverted_separation():
    examples = [ScoredExample(0.1, 1), ScoredExample(0.9, 0)]
    assert auroc(examples) == 0.0


def test_auroc_all_ties_is_half():
    examples = [ScoredExample(0.5, lab) for lab in (1, 0, 1, 0, 0)]
    assert auroc(examples) == 0.5


def test_auroc_needs_both_classes():
    with pytest.raises(DegenerateLabelsError):
        auroc([ScoredExample(0.5, 1), ScoredExample(0.2, 1)])


def test_auroc_matches_pair_oracle_exactly():
    rng = random.Random(1001)
    for trial in range(300):
        n = rng.randint(2, 60)
        examples = random_examples(rng, n, tie_scores=trial % 2 == 0)
        if not any(e.label == 1 for e in examples) or not any(
            e.label == 0 for e in examples
        ):
            continue
        assert auroc(examples) == auroc_by_pairs(examples)


def test_auroc_label_flip_symmetry():
    rng = random.Random(77)
    examples = random_examples(rng, 40)
    flipped = [ScoredExample(e.score, 1 - e.label, e.ref_value) for e in examples]
    assert auroc(examples) + auroc(flipped) == pytest.approx(1.0, abs=1e-12)


@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1)), min_size=2, max_size=30))
@settings(max_examples=80)
def test_auroc_invariant_under_monotone_transform(rows):
    # integer-grid scores so the affine map cannot collapse distinct values
    examples = [ScoredExample(s / 1000, lab) for s, lab in rows]
    if len({e.label for e in examples}) < 2:
        return
    squashed = [ScoredExample(2.0 * e.score + 1.0, e.label) for e in examples]
    assert auroc(examples) == pytest.approx(auroc(squashed), abs=1e-12)


def test_scored_example_label_validation():
    with pytest.raises(ValueError):
        ScoredExample(score=0.5, label=2)


# ---------------------------------------------------------------------------
# Concordance
# ---------------------------------------------------------------------------


def test_concordance_monotone_is_one():
    examples = [ScoredExample(s, 0, ref_value=s * 2) for s in (0.1, 0.4, 0.9)]
    assert concordance_index(examples) == 1.0


def test_concordance_antimonotone_is_zero():
    examples = [ScoredExample(s, 0, ref_value=-s) for s in (0.1, 0.4, 0.9)]
    assert concordance_index(examples) == 0.0


def test_concordance_ref_ties_excluded():
    examples = [
        ScoredExample(0.1, 0, ref_value=1.0),
        ScoredExample(0.9, 0, ref_value=1.0),  # tied refs: not comparable
        ScoredExample(0.5, 0, ref_value=2.0),
    ]
    # comparable pairs: (0,2) concordant, (1,2) discordant
    assert concordance_index(examples) == 0.5


def test_concordance_requires_refs_and_variation():
    with pytest.raises(MissingRefError):
        concordance_index([ScoredExample(0.5, 0), ScoredExample(0.2, 0, ref_value=1.0)])
    with pytest.raises(AllRefsTiedError):
        concordance_index(
            [ScoredExample(0.5, 0, ref_value=1.0), ScoredExample(0.2, 0, ref_value=1.0)]
        )


def test_concordance_matches_pair_oracle_exactly():
    rng = random.Random(2002)
    for trial in range(300):
        n = rng.randint(2, 60)
        examples = random_examples(rng, n, tie_scores=trial % 3 == 0)
        if len({e.ref_value for e in examples}) < 2:
            continue
        assert concordance_index(examples) == concordance_by_pairs(examples)


def test_concordance_orders_scores_whose_difference_underflows():
    # (5e-200 - 0) * (5e-200 - 0) underflows to 0.0; the pair is still concordant.
    examples = [ScoredExample(0.0, 0, ref_value=0.0), ScoredExample(5e-200, 0, ref_value=5e-200)]
    assert concordance_index(examples) == concordance_by_pairs(examples) == 1.0
    flipped = [ScoredExample(5e-200, 0, ref_value=0.0), ScoredExample(0.0, 0, ref_value=5e-200)]
    assert concordance_index(flipped) == concordance_by_pairs(flipped) == 0.0


def shuffled_blocks_of_four(n, seed):
    """refs 0..n-1 in blocks of four scored (2k, 2k+1, 2k, 2k+1), shuffled.

    Each block holds two score ties and one discordant pair (its middle
    two); every other pair is concordant.
    """
    examples = [
        ScoredExample(float(2 * (i // 4) + (i % 2)), 0, ref_value=float(i)) for i in range(n)
    ]
    random.Random(seed).shuffle(examples)
    comparable = n * (n - 1) // 2
    ties = n // 2
    discordant = n // 4
    return examples, (comparable - discordant - ties + 0.5 * ties) / comparable


def test_concordance_block_construction_matches_pair_oracle():
    examples, expected = shuffled_blocks_of_four(200, seed=7)
    assert concordance_by_pairs(examples) == expected


def test_concordance_at_twenty_thousand_examples():
    examples, expected = shuffled_blocks_of_four(20_000, seed=20_000)
    assert concordance_index(examples) == expected
