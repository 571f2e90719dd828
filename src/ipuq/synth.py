"""Synthetic in-context string tasks with controllable ambiguity.

A task shows ``m`` examples of a hidden string transformation and asks for
the output on a fresh input.  Two dials shape the uncertainty:

* ``m`` controls how well the rule is pinned down (epistemic: more examples,
  less model uncertainty);
* a per-letter lowercase noise probability ``p`` applied to the example
  outputs controls the spread of correct-looking answers (aleatoric: the
  clean output admits ``2^L`` casings with known probabilities).

Because the casing distribution is analytic, first-order scores elicited on
these tasks can be checked against exact ground truth.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from .core import ConfigError, IpuqError, JsonForm

TRANSFORM_ROTATION = "rotation"
TRANSFORM_CYCLIC_SHIFT = "cyclic_shift"

SHIFT_LEFT = "left"
SHIFT_RIGHT = "right"

_ALPHABET = string.ascii_uppercase

#: Longest word ``ground_truth_variants`` enumerates, at 2**20 casings.
MAX_WORD_LENGTH = 20


class NonAlphabetInputError(IpuqError, ValueError):
    pass


class EmptyStringError(IpuqError, ValueError):
    pass


class VocabularyExhaustedError(IpuqError, ValueError):
    pass


class EnumerationTooLargeError(IpuqError, ValueError):
    pass


def apply_rotation(text: str, steps: int) -> str:
    """Rotate each letter ``steps`` places forward in the A-Z alphabet.

    Wraps modulo 26, so ``steps=27`` equals ``steps=1`` and negative steps
    rotate backwards.  Input must be uppercase A-Z only.
    """
    if any(c not in _ALPHABET for c in text):
        raise NonAlphabetInputError(f"rotation is defined on uppercase A-Z only: {text!r}")
    k = steps % 26
    return "".join(_ALPHABET[(_ALPHABET.index(c) + k) % 26] for c in text)


def apply_cyclic_shift(text: str, steps: int, *, direction: str = SHIFT_LEFT) -> str:
    """Rotate character *positions* by ``steps``, wrapping around the ends.

    The default moves characters leftward: the first ``steps`` characters
    are cut from the front and appended.  Shift counts wrap modulo the
    string length, so shifting by the length is the identity.
    """
    if not text:
        raise EmptyStringError("cannot cyclically shift an empty string")
    if direction not in (SHIFT_LEFT, SHIFT_RIGHT):
        raise ValueError(f"unknown shift direction {direction!r}")
    k = steps % len(text)
    if k == 0:
        return text
    if direction == SHIFT_LEFT:
        return text[k:] + text[:k]
    return text[-k:] + text[:-k]


@dataclass(frozen=True)
class TransformSpec(JsonForm):
    """An ordered pipeline of string transformations.

    Each step is ``(kind, steps)`` with kind one of ``rotation`` or
    ``cyclic_shift``.  ``shift_direction`` applies to every cyclic-shift
    step; leftward is the default convention.
    """

    steps: tuple[tuple[str, int], ...]
    shift_direction: str = SHIFT_LEFT

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "steps", tuple((str(k), int(n)) for k, n in self.steps)
        )
        for kind, _ in self.steps:
            if kind not in (TRANSFORM_ROTATION, TRANSFORM_CYCLIC_SHIFT):
                raise ConfigError(f"unknown transform kind {kind!r}")
        if self.shift_direction not in (SHIFT_LEFT, SHIFT_RIGHT):
            raise ConfigError(f"unknown shift direction {self.shift_direction!r}")


def apply_transform(spec: TransformSpec, text: str) -> str:
    """Run ``text`` through every step of ``spec`` in order."""
    out = text
    for kind, steps in spec.steps:
        if kind == TRANSFORM_ROTATION:
            out = apply_rotation(out, steps)
        else:
            out = apply_cyclic_shift(out, steps, direction=spec.shift_direction)
    return out


@dataclass(frozen=True)
class NoiseSpec(JsonForm):
    """Per-letter lowercase noise: each letter flips with probability ``p``."""

    p: float
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0):
            raise ConfigError(f"noise probability must lie in [0, 1], got {self.p!r}")


def _lowercase_with(rng: random.Random, text: str, p: float) -> str:
    return "".join(c.lower() if c in _ALPHABET and rng.random() < p else c for c in text)


@dataclass(frozen=True)
class IclTask(JsonForm):
    """One generated task: noisy demonstrations plus a held-out query."""

    transform: TransformSpec
    noise: NoiseSpec
    m: int
    word_length: int
    rng_seed: int
    examples: tuple[tuple[str, str], ...]
    query_input: str
    clean_query_output: str


def generate_icl_task(
    transform: TransformSpec,
    noise: NoiseSpec,
    *,
    m: int,
    word_length: int,
    rng_seed: int,
) -> IclTask:
    """Draw a fresh task: ``m`` noisy demonstrations and one clean query.

    Inputs are distinct random uppercase strings of ``word_length`` letters
    (distinct across the demonstrations *and* the query, so the model never
    sees the query's answer).  Example outputs get case noise from a single
    stream seeded by ``noise.rng_seed``; the stored query output stays clean
    because it is the reference the casing distribution is built around.
    Everything is deterministic given the two seeds.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if word_length < 1:
        raise ValueError("word_length must be positive")
    if 26**word_length < m + 1:
        raise VocabularyExhaustedError(
            f"cannot draw {m + 1} distinct strings of length {word_length}"
        )
    rng = random.Random(rng_seed)
    inputs: list[str] = []
    seen: set[str] = set()
    while len(inputs) < m + 1:
        word = "".join(rng.choice(_ALPHABET) for _ in range(word_length))
        if word in seen:
            continue
        seen.add(word)
        inputs.append(word)
    noise_rng = random.Random(noise.rng_seed)
    examples = tuple(
        (x, _lowercase_with(noise_rng, apply_transform(transform, x), noise.p))
        for x in inputs[:m]
    )
    query = inputs[m]
    return IclTask(
        transform=transform,
        noise=noise,
        m=m,
        word_length=word_length,
        rng_seed=rng_seed,
        examples=examples,
        query_input=query,
        clean_query_output=apply_transform(transform, query),
    )


def format_icl_prompt(task: IclTask) -> str:
    """Render a task as fixed ``Input: X → Output: Y`` lines.

    The final line leaves the output as ``?``; no further wrapping is added
    so the demonstration count stays countable from the text.
    """
    lines = [f"Input: {x} → Output: {y}" for x, y in task.examples]
    lines.append(f"Input: {task.query_input} → Output: ?")
    return "\n".join(lines)


@dataclass(frozen=True)
class CaseVariant:
    """One casing of the clean output with its probability under the noise."""

    text: str
    lowercase_count: int
    prob: float


def ground_truth_variants(clean: str, p: float) -> tuple[CaseVariant, ...]:
    """All casings of ``clean`` with their exact probabilities.

    Under per-letter lowercase noise the variant with ``k`` lowered letters
    out of ``L`` has probability ``p**k * (1-p)**(L-k)``; these sum to 1
    over the full ``2^L`` enumeration.  Variants with probability exactly 0
    (which only happens at ``p == 0`` or ``p == 1``) are dropped, so the
    result is always a valid support.  Order is deterministic: variant ``i``
    lowercases the positions in the binary expansion of ``i``.
    """
    if any(c not in _ALPHABET for c in clean):
        raise NonAlphabetInputError(f"expected an uppercase A-Z string: {clean!r}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"noise probability must lie in [0, 1], got {p!r}")
    length = len(clean)
    if length > MAX_WORD_LENGTH:
        raise EnumerationTooLargeError(
            f"2^{length} casings exceed the enumeration cap of 2^{MAX_WORD_LENGTH}"
        )
    variants: list[CaseVariant] = []
    for mask in range(2**length):
        k = mask.bit_count()
        prob = p**k * (1.0 - p) ** (length - k)
        if prob == 0.0:
            continue
        text = "".join(
            c.lower() if (mask >> i) & 1 else c for i, c in enumerate(clean)
        )
        variants.append(CaseVariant(text=text, lowercase_count=k, prob=prob))
    return tuple(variants)


__all__ = [
    "TRANSFORM_ROTATION",
    "TRANSFORM_CYCLIC_SHIFT",
    "SHIFT_LEFT",
    "SHIFT_RIGHT",
    "MAX_WORD_LENGTH",
    "NonAlphabetInputError",
    "EmptyStringError",
    "VocabularyExhaustedError",
    "EnumerationTooLargeError",
    "TransformSpec",
    "NoiseSpec",
    "IclTask",
    "CaseVariant",
    "apply_rotation",
    "apply_cyclic_shift",
    "apply_transform",
    "generate_icl_task",
    "format_icl_prompt",
    "ground_truth_variants",
]
