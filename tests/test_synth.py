import math
import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipuq.core import InvalidValueError
from ipuq.synth import (
    IclTask,
    NoiseSpec,
    TransformSpec,
    apply_cyclic_shift,
    apply_rotation,
    apply_transform,
    count_demonstrations,
    format_icl_prompt,
    generate_icl_task,
    ground_truth_variants,
)

# ---------------------------------------------------------------------------
# Independent oracle for letter rotation, built as a literal lookup table
# (no modular arithmetic shared with the implementation).
# ---------------------------------------------------------------------------

ROT13_TABLE = dict(
    zip(
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
        "NOPQRSTUVWXYZABCDEFGHIJKLM",
    )
)

upper_words = st.text(alphabet=string.ascii_uppercase, min_size=1, max_size=12)


def rot13_oracle(text):
    return "".join(ROT13_TABLE[c] for c in text)


# ---------------------------------------------------------------------------
# Rotation / cyclic shift
# ---------------------------------------------------------------------------


def test_rotation_worked_example():
    assert apply_rotation("APPLE", 1) == "BQQMF"


def test_rotation_wraps_alphabet():
    assert apply_rotation("Z", 1) == "A"
    assert apply_rotation("A", 26) == "A"
    assert apply_rotation("A", 27) == "B"
    assert apply_rotation("B", -1) == "A"


def test_rotation_rejects_non_alphabet():
    with pytest.raises(InvalidValueError, match="defined on uppercase A-Z only: 'apple'"):
        apply_rotation("apple", 1)
    with pytest.raises(InvalidValueError, match="defined on uppercase A-Z only: 'AB C'"):
        apply_rotation("AB C", 1)


@given(upper_words)
def test_rotation_13_matches_lookup_oracle(word):
    assert apply_rotation(word, 13) == rot13_oracle(word)


@given(upper_words, st.integers(min_value=-60, max_value=60))
def test_rotation_round_trips(word, k):
    assert apply_rotation(apply_rotation(word, k), -k) == word


def test_cyclic_shift_left_and_right():
    assert apply_cyclic_shift("NCCYR", 1) == "CCYRN"
    assert apply_cyclic_shift("NCCYR", 1, direction="right") == "RNCCY"
    assert apply_cyclic_shift("ABC", 3) == "ABC"
    assert apply_cyclic_shift("ABC", 4) == "BCA"


def test_cyclic_shift_rejects_empty_and_bad_direction():
    with pytest.raises(InvalidValueError, match="cannot cyclically shift an empty string"):
        apply_cyclic_shift("", 1)
    with pytest.raises(ValueError):
        apply_cyclic_shift("ABC", 1, direction="up")


@given(upper_words, st.integers(min_value=0, max_value=40))
def test_cyclic_shift_round_trips(word, k):
    shifted = apply_cyclic_shift(word, k)
    assert apply_cyclic_shift(shifted, len(word) - (k % len(word))) == word
    assert apply_cyclic_shift(word, k, direction="right") == apply_cyclic_shift(
        word, len(word) - (k % len(word))
    )


@given(upper_words, st.integers(min_value=0, max_value=40))
def test_cyclic_shift_preserves_multiset(word, k):
    assert sorted(apply_cyclic_shift(word, k)) == sorted(word)


# ---------------------------------------------------------------------------
# TransformSpec pipelines
# ---------------------------------------------------------------------------


def test_transform_pipeline_composition():
    spec = TransformSpec(steps=(("rotation", 13), ("cyclic_shift", 1)))
    assert apply_transform(spec, "APPLE") == "CCYRN"  # NCCYR shifted left once


def test_transform_spec_validation_and_round_trip():
    with pytest.raises(ValueError):
        TransformSpec(steps=(("caesar", 1),))
    with pytest.raises(ValueError):
        TransformSpec(steps=(("rotation", 1),), shift_direction="sideways")
    spec = TransformSpec(steps=(("rotation", 3), ("cyclic_shift", 2)), shift_direction="right")
    assert TransformSpec.from_dict(spec.to_dict()) == spec


@given(upper_words, st.integers(min_value=0, max_value=25), st.integers(min_value=0, max_value=10))
def test_transform_pipeline_equals_manual_composition(word, rot, shift):
    spec = TransformSpec(steps=(("rotation", rot), ("cyclic_shift", shift)))
    assert apply_transform(spec, word) == apply_cyclic_shift(apply_rotation(word, rot), shift)


# ---------------------------------------------------------------------------
# Case noise
# ---------------------------------------------------------------------------


def test_noise_spec_validates_p():
    with pytest.raises(ValueError):
        NoiseSpec(p=1.5)


# ---------------------------------------------------------------------------
# Ground-truth casing distribution
# ---------------------------------------------------------------------------


def test_variant_probabilities_for_quarter_noise():
    variants = ground_truth_variants("ROCK", 0.25)
    assert len(variants) == 16
    by_count = {}
    for v in variants:
        by_count.setdefault(v.lowercase_count, set()).add(v.prob)
    # every variant with the same lowercase count shares one exact probability
    assert all(len(probs) == 1 for probs in by_count.values())
    assert by_count[0] == {0.31640625}
    assert by_count[1] == {0.10546875}
    assert by_count[2] == {0.03515625}
    assert by_count[3] == {0.01171875}
    assert by_count[4] == {0.00390625}
    assert sum(v.prob for v in variants) == 1.0


def test_variants_order_and_texts():
    variants = ground_truth_variants("AB", 0.5)
    assert [v.text for v in variants] == ["AB", "aB", "Ab", "ab"]
    assert all(v.prob == 0.25 for v in variants)


def test_variants_degenerate_noise_levels():
    clean = ground_truth_variants("WORD", 0.0)
    assert len(clean) == 1 and clean[0].text == "WORD" and clean[0].prob == 1.0
    lower = ground_truth_variants("WORD", 1.0)
    assert len(lower) == 1 and lower[0].text == "word" and lower[0].prob == 1.0


def test_variants_validation():
    with pytest.raises(InvalidValueError, match="expected an uppercase A-Z string: 'Up!'"):
        ground_truth_variants("Up!", 0.5)
    with pytest.raises(ValueError):
        ground_truth_variants("UP", 1.5)
    with pytest.raises(InvalidValueError, match=re.escape("2^21 casings exceed the enumeration cap")):
        ground_truth_variants("A" * 21, 0.5)


@given(
    st.text(alphabet=string.ascii_uppercase, min_size=1, max_size=10),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=60)
def test_variant_probabilities_sum_to_one(word, p):
    variants = ground_truth_variants(word, p)
    assert math.fsum(v.prob for v in variants) == pytest.approx(1.0, abs=1e-9)
    assert len({v.text for v in variants}) == len(variants)


# ---------------------------------------------------------------------------
# Task generation and prompting
# ---------------------------------------------------------------------------


def _spec():
    return TransformSpec(steps=(("rotation", 1),))


def test_generate_icl_task_is_deterministic():
    kw = dict(m=4, word_length=5, rng_seed=11)
    a = generate_icl_task(_spec(), NoiseSpec(p=0.3, rng_seed=2), **kw)
    b = generate_icl_task(_spec(), NoiseSpec(p=0.3, rng_seed=2), **kw)
    assert a == b
    c = generate_icl_task(_spec(), NoiseSpec(p=0.3, rng_seed=3), **kw)
    assert a.examples != c.examples
    assert a.query_input == c.query_input  # inputs depend only on rng_seed


def test_generate_icl_task_inputs_distinct_and_query_held_out():
    task = generate_icl_task(
        _spec(), NoiseSpec(p=0.5, rng_seed=0), m=8, word_length=3, rng_seed=5
    )
    inputs = [x for x, _ in task.examples]
    assert len(set(inputs)) == len(inputs) == 8
    assert task.query_input not in inputs
    assert task.clean_query_output == apply_rotation(task.query_input, 1)


def test_generate_icl_task_outputs_carry_noise_only_in_casing():
    task = generate_icl_task(
        _spec(), NoiseSpec(p=0.7, rng_seed=1), m=20, word_length=4, rng_seed=9
    )
    for x, y in task.examples:
        assert y.upper() == apply_rotation(x, 1)
    assert task.clean_query_output.isupper()


def test_generate_icl_task_noise_rate_tracks_p():
    def lowered_share(p, rng_seed):
        task = generate_icl_task(
            _spec(), NoiseSpec(p=p, rng_seed=rng_seed), m=40, word_length=10, rng_seed=rng_seed
        )
        outputs = "".join(y for _, y in task.examples)
        return sum(ch.islower() for ch in outputs) / len(outputs)

    assert lowered_share(0.0, 1) == 0.0
    assert lowered_share(1.0, 1) == 1.0
    shares = [lowered_share(0.3, seed) for seed in range(10)]
    assert abs(sum(shares) / len(shares) - 0.3) < 0.03


def test_generate_icl_task_zero_examples():
    task = generate_icl_task(
        _spec(), NoiseSpec(p=0.5, rng_seed=0), m=0, word_length=4, rng_seed=1
    )
    assert task.examples == ()


def test_generate_icl_task_vocabulary_exhaustion():
    with pytest.raises(InvalidValueError, match="cannot draw 27 distinct strings of length 1"):
        generate_icl_task(
            _spec(), NoiseSpec(p=0.0, rng_seed=0), m=26, word_length=1, rng_seed=0
        )


def test_icl_task_serialization_round_trip():
    task = generate_icl_task(
        _spec(), NoiseSpec(p=0.25, rng_seed=3), m=3, word_length=4, rng_seed=17
    )
    assert IclTask.from_dict(task.to_dict()) == task


def test_format_icl_prompt_shape():
    task = generate_icl_task(
        _spec(), NoiseSpec(p=0.25, rng_seed=3), m=3, word_length=4, rng_seed=17
    )
    text = format_icl_prompt(task)
    lines = text.split("\n")
    assert len(lines) == 4
    for line, (x, y) in zip(lines, task.examples):
        assert line == f"Input: {x} → Output: {y}"
    assert lines[-1] == f"Input: {task.query_input} → Output: ?"
    # demonstration count is recoverable from the text itself
    assert text.count("→ Output:") - 1 == task.m


@pytest.mark.parametrize("m", range(6))
def test_count_demonstrations_reads_m_back_from_the_prompt(m):
    task = generate_icl_task(_spec(), NoiseSpec(p=0.5, rng_seed=m), m=m, word_length=3,
                             rng_seed=m)
    assert count_demonstrations(format_icl_prompt(task)) == m


def test_a_plain_question_has_no_demonstrations():
    assert count_demonstrations("Which mountain is the tallest on Earth?\nInput: none") == 0
