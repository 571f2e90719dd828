"""Strict parsing of structured reply blocks.

Replies carry their numbers in a fenced code block of ``index|field=value``
rows (see :mod:`ipuq.elicit.prompts` for the instructions that request it).
Parsing is deliberately unforgiving -- a malformed reply should bounce back
to the model with feedback, not be guessed at -- with two small mercies:
reasoning text before the block is ignored, and a leading ``$`` on a price
is dropped since the betting prompt talks in dollars.

A block in exactly the form the prompt requests -- rows ``1..n`` in order,
each ``i|field=value`` with plain ASCII decimals in [0, 1], then the
labelled row if the kind has one -- is read in one pass.  Any other block
goes to the row parser, which either accepts it or writes the diagnosis
that the model, the transcripts and the recorded verdicts see.
"""

from __future__ import annotations

import functools
import math
import re

from ..core import CandidateSet, IpuqError
from .prompts import CONF_LABEL, NOTA_LABEL, WIRE, PromptKind, WireFormat


class ParseError(IpuqError, ValueError):
    """A reply that does not parse; the message is shown to the model."""


# The body runs up to the first ``` after the opening line.  Spelled as runs
# of non-backticks so the scan does not stop to try the closing fence at
# every character.
_FENCE_RE = re.compile(r"```[^\n`]*\n([^`]*(?:`(?!``)[^`]*)*)```")
_NUMBERED_LINE_RE = re.compile(r"^\s*\d+[.)]\s+(.*\S)\s*$")


def _last_fenced_block(text: str) -> str:
    blocks = _FENCE_RE.findall(text)
    if not blocks:
        raise ParseError("reply contains no fenced block of rows")
    return blocks[-1]


def _parse_decimal(raw: str, *, where: str) -> float:
    cleaned = raw.strip()
    if cleaned.startswith("$"):
        cleaned = cleaned[1:]
    try:
        # float() also takes digit separators and non-ASCII digits
        if "_" in cleaned or not cleaned.isascii():
            raise ValueError
        value = float(cleaned)
    except ValueError:
        raise ParseError(f"{where}: {raw!r} is not a decimal number") from None
    if math.isnan(value) or math.isinf(value):
        raise ParseError(f"{where}: {raw!r} is not a finite number")
    if not (0.0 <= value <= 1.0):
        raise ParseError(f"{where}: {value!r} lies outside [0, 1]")
    return value


def _parse_row(line: str) -> tuple[str, dict[str, str]]:
    segments = [s.strip() for s in line.split("|")]
    label = segments[0]
    fields: dict[str, str] = {}
    for seg in segments[1:]:
        if "=" not in seg:
            raise ParseError(f"row {label!r}: segment {seg!r} is not field=value")
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
                raise ParseError(f"duplicate {label} row")
            special[label] = fields
            continue
        try:
            idx = int(label)
        except ValueError:
            raise ParseError(f"row label {label!r} is not an answer index") from None
        if idx in indexed:
            raise ParseError(f"duplicate row for answer {idx}")
        indexed[idx] = fields
    expected = set(range(1, n + 1))
    if set(indexed) != expected:
        missing = sorted(expected - set(indexed))
        extra = sorted(set(indexed) - expected)
        raise ParseError(
            f"need one row per answer 1..{n}; missing {missing}, unexpected {extra}"
        )
    return indexed, special


def _field(fields: dict[str, str], name: str, *, where: str) -> str:
    if name not in fields:
        raise ParseError(f"{where}: missing field {name!r}")
    return fields[name]


def _parse_rows(kind: PromptKind, block: str, n: int):
    """Read a block row by row, raising the :class:`ParseError` whose message
    the model, the transcripts and the recorded verdicts see."""
    wire = WIRE[kind]
    indexed, special = _rows_by_index(block, n)
    if wire.extra is None:
        if special:
            raise ParseError(f"unexpected rows: {sorted(special)}")
    elif set(special) != {wire.extra[0]}:
        raise ParseError(f"expected exactly one {wire.extra[0]} row")

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


#: A value in the requested form: what ``repr`` writes for a float in [0, 1].
_DECIMAL = r"[0-9]+(?:\.[0-9]+)?(?:e-[0-9]+)?"


def _requested_form(wire: WireFormat) -> re.Pattern[str]:
    # One line per match: the row label, then one group per value.  Every
    # kind's labelled row has the answer rows' field, or is the only row.
    names = wire.fields or (wire.extra[1],)
    labels = ([r"[0-9]+"] if wire.fields else []) + ([wire.extra[0]] if wire.extra else [])
    values = "".join(rf"\|{name}=({_DECIMAL})" for name in names)
    return re.compile(rf"^({'|'.join(labels)}){values}$", re.MULTILINE)


_REQUESTED_FORM = {kind: _requested_form(wire) for kind, wire in WIRE.items() if wire.has_block}


@functools.lru_cache(maxsize=256)
def _requested_labels(kind: PromptKind, n: int) -> tuple[str, ...]:
    extra = WIRE[kind].extra
    return (*map(str, range(1, n + 1)), *(extra[:1] if extra else ()))


def _read_requested_form(kind: PromptKind, block: str, n: int):
    """What :func:`_parse_rows` returns for a block in exactly the requested
    form, read in one pass; None for any other block."""
    pattern = _REQUESTED_FORM[kind]
    # A block off the requested form is nearly always off it from its first
    # row, so a miss costs one row rather than a scan of the whole block.
    if pattern.match(block) is None:
        return None
    rows = pattern.findall(block)
    # one match per line, and every line ends in a newline
    if len(rows) != block.count("\n") or not block.endswith("\n"):
        return None
    labels, *columns = zip(*rows)
    if labels != _requested_labels(kind, n):
        return None
    values = [list(map(float, column)) for column in columns]
    if not all(0.0 <= min(column) and max(column) <= 1.0 for column in values):
        return None
    if WIRE[kind].extra:
        (column,) = values
        values = [column[:-1], column[-1]] if n else [column[-1]]
    return values[0] if len(values) == 1 else tuple(values)


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
            raise ParseError("reply contains no numbered answer lines")
        return answers

    block = _last_fenced_block(text)
    n = 0
    if wire.fields:
        if candidates is None:
            raise ParseError(f"kind {kind.value} needs the candidate list")
        n = len(candidates)
    values = _read_requested_form(kind, block, n)
    return values if values is not None else _parse_rows(kind, block, n)


__all__ = [
    "ParseError",
    "parse_structured_report",
]
