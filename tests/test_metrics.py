import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipuq.metrics import (
    AllRefsTiedError,
    DegenerateLabelsError,
    auroc,
    concordance_index,
)

# ---------------------------------------------------------------------------
# Brute-force oracles (written before the tests that use them): enumerate
# every pair and count, with 0.5 credit on score ties.
# ---------------------------------------------------------------------------


def auroc_by_pairs(pairs):
    pos = [score for score, label in pairs if label == 1]
    neg = [score for score, label in pairs if label == 0]
    credit = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                credit += 1.0
            elif p == q:
                credit += 0.5
    return credit / (len(pos) * len(neg))


def concordance_by_pairs(pairs):
    comparable = 0
    credit = 0.0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            (a_score, a_ref), (b_score, b_ref) = pairs[i], pairs[j]
            if a_ref == b_ref:
                continue
            comparable += 1
            if a_score == b_score:
                credit += 0.5
            elif (a_score > b_score) == (a_ref > b_ref):
                credit += 1.0
    return credit / comparable


def random_examples(rng, n, *, tie_scores=False):
    """``n`` (score, label, reference) triples."""
    out = []
    for _ in range(n):
        score = rng.choice([0.1, 0.25, 0.5, 0.75]) if tie_scores else rng.random()
        out.append((score, rng.randint(0, 1), rng.random()))
    return out


def labelled(examples):
    return [(score, label) for score, label, _ in examples]


def referenced(examples):
    return [(score, ref) for score, _, ref in examples]


# ---------------------------------------------------------------------------
# AUROC
# ---------------------------------------------------------------------------


def test_auroc_perfect_separation():
    assert auroc([(0.9, 1), (0.1, 0)]) == 1.0


def test_auroc_inverted_separation():
    assert auroc([(0.1, 1), (0.9, 0)]) == 0.0


def test_auroc_all_ties_is_half():
    assert auroc([(0.5, lab) for lab in (1, 0, 1, 0, 0)]) == 0.5


def test_auroc_needs_both_classes():
    with pytest.raises(DegenerateLabelsError):
        auroc([(0.5, 1), (0.2, 1)])


def test_auroc_matches_pair_oracle_exactly():
    rng = random.Random(1001)
    for trial in range(300):
        n = rng.randint(2, 60)
        pairs = labelled(random_examples(rng, n, tie_scores=trial % 2 == 0))
        if {label for _, label in pairs} != {0, 1}:
            continue
        assert auroc(pairs) == auroc_by_pairs(pairs)


def test_auroc_label_flip_symmetry():
    rng = random.Random(77)
    pairs = labelled(random_examples(rng, 40))
    flipped = [(score, 1 - label) for score, label in pairs]
    assert auroc(pairs) + auroc(flipped) == pytest.approx(1.0, abs=1e-12)


@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1)), min_size=2, max_size=30))
@settings(max_examples=80)
def test_auroc_invariant_under_monotone_transform(rows):
    # integer-grid scores so the affine map cannot collapse distinct values
    pairs = [(s / 1000, lab) for s, lab in rows]
    if len({label for _, label in pairs}) < 2:
        return
    squashed = [(2.0 * score + 1.0, label) for score, label in pairs]
    assert auroc(pairs) == pytest.approx(auroc(squashed), abs=1e-12)


@pytest.mark.parametrize("pairs", [[(0.5, 2), (0.9, 1), (0.1, 0)], [(0.5, 2), (0.9, 1)]],
                         ids=["both classes", "one class"])
def test_auroc_label_validation(pairs):
    # a label other than 0 or 1 is refused before the classes are counted
    with pytest.raises(ValueError, match="label must be 0 or 1, got 2") as info:
        auroc(pairs)
    assert not isinstance(info.value, DegenerateLabelsError)


# ---------------------------------------------------------------------------
# Concordance
# ---------------------------------------------------------------------------


def test_concordance_monotone_is_one():
    assert concordance_index([(s, s * 2) for s in (0.1, 0.4, 0.9)]) == 1.0


def test_concordance_antimonotone_is_zero():
    assert concordance_index([(s, -s) for s in (0.1, 0.4, 0.9)]) == 0.0


def test_concordance_ref_ties_excluded():
    pairs = [
        (0.1, 1.0),
        (0.9, 1.0),  # tied refs: not comparable
        (0.5, 2.0),
    ]
    # comparable pairs: (0,2) concordant, (1,2) discordant
    assert concordance_index(pairs) == 0.5


def test_concordance_requires_ref_variation():
    with pytest.raises(AllRefsTiedError):
        concordance_index([(0.5, 1.0), (0.2, 1.0)])


def test_concordance_matches_pair_oracle_exactly():
    rng = random.Random(2002)
    for trial in range(300):
        n = rng.randint(2, 60)
        pairs = referenced(random_examples(rng, n, tie_scores=trial % 3 == 0))
        if len({ref for _, ref in pairs}) < 2:
            continue
        assert concordance_index(pairs) == concordance_by_pairs(pairs)


def test_concordance_orders_scores_whose_difference_underflows():
    # (5e-200 - 0) * (5e-200 - 0) underflows to 0.0; the pair is still concordant.
    pairs = [(0.0, 0.0), (5e-200, 5e-200)]
    assert concordance_index(pairs) == concordance_by_pairs(pairs) == 1.0
    flipped = [(5e-200, 0.0), (0.0, 5e-200)]
    assert concordance_index(flipped) == concordance_by_pairs(flipped) == 0.0


def shuffled_blocks_of_four(n, seed):
    """refs 0..n-1 in blocks of four scored (2k, 2k+1, 2k, 2k+1), shuffled.

    Each block holds two score ties and one discordant pair (its middle
    two); every other pair is concordant.
    """
    pairs = [(float(2 * (i // 4) + (i % 2)), float(i)) for i in range(n)]
    random.Random(seed).shuffle(pairs)
    comparable = n * (n - 1) // 2
    ties = n // 2
    discordant = n // 4
    return pairs, (comparable - discordant - ties + 0.5 * ties) / comparable


def test_concordance_block_construction_matches_pair_oracle():
    pairs, expected = shuffled_blocks_of_four(200, seed=7)
    assert concordance_by_pairs(pairs) == expected


def test_concordance_at_twenty_thousand_examples():
    pairs, expected = shuffled_blocks_of_four(20_000, seed=20_000)
    assert concordance_index(pairs) == expected
