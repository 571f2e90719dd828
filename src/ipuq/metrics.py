"""Evaluation metrics.

The ranking metrics answer one question: does a higher uncertainty score
pick out the examples that deserve it (ambiguous ones, wrong ones, or ones
with a larger reference value)?  Ties are credited half a pair throughout,
which keeps scores comparable across methods with different granularity.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Sequence

from .core import IpuqError


class DegenerateLabelsError(IpuqError, ValueError):
    pass


class AllRefsTiedError(IpuqError, ValueError):
    pass


def auroc(pairs: Sequence[tuple[float, int]]) -> float:
    """Probability that a random positive outscores a random negative, over
    ``(score, label)`` pairs; label 1 is the class the score should rank higher.

    Computed from average ranks (Mann-Whitney form), which credits tied
    score pairs exactly 0.5 and therefore agrees to the last bit with a
    direct enumeration of all positive-negative pairs.
    """
    for _, label in pairs:
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label!r}")
    n_pos = sum(1 for _, label in pairs if label == 1)
    n_neg = len(pairs) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("AUROC needs at least one positive and one negative")
    scores = [score for score, _ in pairs]
    order = sorted(range(len(scores)), key=scores.__getitem__)
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        # 1-based ranks; every member of a tie block gets the block's mean rank.
        avg = (i + 1 + j + 1) / 2
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    pos_rank_sum = sum(r for r, (_, label) in zip(ranks, pairs) if label == 1)
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def _tied_pairs(ordered: Iterable[object]) -> int:
    """Pairs of equal items in an iterable whose equal items are adjacent."""
    total = 0
    for _, run in groupby(ordered):
        t = sum(1 for _ in run)
        total += t * (t - 1) // 2
    return total


def _sort_counting_inversions(values: list[float]) -> tuple[list[float], int]:
    """``values`` in ascending order, plus the count of pairs ``i < j`` with
    ``values[i] > values[j]`` (equal values are not inversions)."""
    if len(values) < 2:
        return values, 0
    mid = len(values) // 2
    left, inversions = _sort_counting_inversions(values[:mid])
    right, right_inversions = _sort_counting_inversions(values[mid:])
    inversions += right_inversions
    merged: list[float] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            merged.append(right[j])
            inversions += len(left) - i
            j += 1
        else:
            merged.append(left[i])
            i += 1
    merged += left[i:]
    merged += right[j:]
    return merged, inversions


def concordance_index(pairs: Sequence[tuple[float, float]]) -> float:
    """Fraction of reference-ordered pairs the scores order the same way;
    each example is a ``(score, reference)`` tuple.

    Pairs whose reference values tie are not comparable and leave the
    denominator; pairs whose scores tie count half.  Pairs are counted, not
    enumerated (Knight's method, O(n log n)): after sorting by (reference,
    score), a discordant pair is a strict score inversion, counted by merge
    sort, and tied pairs are counted from runs of equal sorted values.  Scores
    are only compared, never subtracted, so arbitrarily close values order
    correctly, and on finite inputs the result is bit-identical to summing
    the credit over every pair.
    """
    n = len(pairs)
    by_ref = sorted((ref, score) for score, ref in pairs)
    comparable = n * (n - 1) // 2 - _tied_pairs(ref for ref, _ in by_ref)
    if comparable == 0:
        raise AllRefsTiedError("no pair of examples has distinct reference values")
    scores, discordant = _sort_counting_inversions([score for _, score in by_ref])
    # score ties between comparable pairs: all score ties less those whose refs tie too
    half = _tied_pairs(scores) - _tied_pairs(by_ref)
    return (comparable - discordant - half + 0.5 * half) / comparable


__all__ = [
    "DegenerateLabelsError",
    "AllRefsTiedError",
    "auroc",
    "concordance_index",
]
