"""Strict parsing of structured reply blocks.

Replies carry their numbers in a fenced code block of ``index|field=value``
rows (see :mod:`ipuq.elicit.prompts` for the instructions that request it).
Parsing is deliberately unforgiving -- a malformed reply should bounce back
to the model with feedback, not be guessed at -- with two small mercies:
reasoning text before the block is ignored, and a leading ``$`` on a price
is dropped since the betting prompt talks in dollars.
"""

from __future__ import annotations

import math
import re

from ..core import CandidateSet, IpuqError
from .prompts import CONF_LABEL, NOTA_LABEL, WIRE, PromptKind


class ParseError(IpuqError, ValueError):
    """Base for reply-parsing failures; the message is shown to the model."""


class NoStructuredBlockError(ParseError):
    pass


class CandidateCountMismatchError(ParseError):
    pass


class NumberParseError(ParseError):
    pass


class ValueOutOfRangeError(ParseError):
    pass


_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)
_NUMBERED_LINE_RE = re.compile(r"^\s*\d+[.)]\s+(.*\S)\s*$")


def _last_fenced_block(text: str) -> str:
    blocks = _FENCE_RE.findall(text)
    if not blocks:
        raise NoStructuredBlockError("reply contains no fenced block of rows")
    return blocks[-1]


def _parse_decimal(raw: str, *, where: str) -> float:
    cleaned = raw.strip()
    if cleaned.startswith("$"):
        cleaned = cleaned[1:]
    try:
        value = float(cleaned)
    except ValueError:
        raise NumberParseError(f"{where}: {raw!r} is not a decimal number") from None
    if math.isnan(value) or math.isinf(value):
        raise NumberParseError(f"{where}: {raw!r} is not a finite number")
    if not (0.0 <= value <= 1.0):
        raise ValueOutOfRangeError(f"{where}: {value!r} lies outside [0, 1]")
    return value


def _parse_row(line: str) -> tuple[str, dict[str, str]]:
    segments = [s.strip() for s in line.split("|")]
    label = segments[0]
    fields: dict[str, str] = {}
    for seg in segments[1:]:
        if "=" not in seg:
            raise NumberParseError(f"row {label!r}: segment {seg!r} is not field=value")
        name, _, value = seg.partition("=")
        fields[name.strip()] = value
    return label, fields


def _rows_by_index(
    block: str,
    n: int,
) -> tuple[dict[int, dict[str, str]], dict[str, dict[str, str]]]:
    indexed: dict[int, dict[str, str]] = {}
    special: dict[str, dict[str, str]] = {}
    for line in block.split("\n"):
        if not line.strip():
            continue
        label, fields = _parse_row(line)
        if label in (NOTA_LABEL, CONF_LABEL):
            if label in special:
                raise CandidateCountMismatchError(f"duplicate {label} row")
            special[label] = fields
            continue
        try:
            idx = int(label)
        except ValueError:
            raise NumberParseError(f"row label {label!r} is not an answer index") from None
        if idx in indexed:
            raise CandidateCountMismatchError(f"duplicate row for answer {idx}")
        indexed[idx] = fields
    expected = set(range(1, n + 1))
    if set(indexed) != expected:
        missing = sorted(expected - set(indexed))
        extra = sorted(set(indexed) - expected)
        raise CandidateCountMismatchError(
            f"need one row per answer 1..{n}; missing {missing}, unexpected {extra}"
        )
    return indexed, special


def _field(fields: dict[str, str], name: str, *, where: str) -> str:
    if name not in fields:
        raise NumberParseError(f"{where}: missing field {name!r}")
    return fields[name]


def parse_structured_report(
    kind: PromptKind,
    text: str,
    candidates: CandidateSet | None = None,
):
    """Extract the raw numbers (or answer list) from one reply.

    A kind with a reply block (see :data:`~ipuq.elicit.prompts.WIRE`) gives
    one float list per row field, one float per candidate, followed by its
    labelled row's value; a lone item comes back bare.  So:

    * ``definetti``/``credal`` -- list of floats, one per candidate;
    * ``probint`` -- ``(lowers, uppers)`` float lists;
    * ``possibility`` -- ``(scores, none_of_above)``;
    * ``vanilla`` -- a single confidence float;
    * ``candidates`` -- list of answer strings from the numbered list.

    No coherence checking happens here; that is the verifier's job.
    """
    wire = WIRE[kind]
    if not wire.has_block:
        answers: list[str] = []
        for line in text.split("\n"):
            match = _NUMBERED_LINE_RE.match(line)
            if match:
                answers.append(match.group(1))
        if not answers:
            raise NoStructuredBlockError("reply contains no numbered answer lines")
        return answers

    block = _last_fenced_block(text)
    n = 0
    if wire.fields:
        if candidates is None:
            raise CandidateCountMismatchError(f"kind {kind.value} needs the candidate list")
        n = len(candidates)
    indexed, special = _rows_by_index(block, n)
    if wire.extra is None:
        if special:
            raise CandidateCountMismatchError(f"unexpected rows: {sorted(special)}")
    elif set(special) != {wire.extra[0]}:
        raise CandidateCountMismatchError(f"expected exactly one {wire.extra[0]} row")

    values: list = [[] for _ in wire.fields]
    for i in range(1, n + 1):
        where = f"answer {i}"
        for column, name in zip(values, wire.fields):
            column.append(_parse_decimal(_field(indexed[i], name, where=where), where=where))
    if wire.extra:
        label, name, what = wire.extra
        values.append(
            _parse_decimal(_field(special[label], name, where=f"{label} row"), where=what)
        )
    return values[0] if len(values) == 1 else tuple(values)


__all__ = [
    "ParseError",
    "NoStructuredBlockError",
    "CandidateCountMismatchError",
    "NumberParseError",
    "ValueOutOfRangeError",
    "parse_structured_report",
]
