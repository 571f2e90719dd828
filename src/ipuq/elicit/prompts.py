"""Prompt catalog and rendering for the elicitation protocols.

The templates below are the catalog of record: tests pin their exact text,
so edit them as carefully as a wire format.  A rendered prompt has a fixed
layout --

    <template>

    Question:
    <question text, possibly multi-line>

    Answers:
    1. <candidate>
    2. <candidate>

    Output format:
    <machine-readable block instructions>

-- which keeps the question and candidate list mechanically recoverable
from the rendered text (the scripted mock endpoint relies on that).
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass

from ..core import CandidateSet, IpuqError


class MissingCandidatesError(IpuqError, ValueError):
    pass


class UnknownKindError(IpuqError, ValueError):
    pass


class PromptKind(str, enum.Enum):
    """The elicitation protocols this package speaks."""

    DEFINETTI = "definetti"
    PROBINT = "probint"
    CREDAL = "credal"
    POSSIBILITY = "possibility"
    CANDIDATES = "candidates"
    VANILLA = "vanilla"


DEFINETTI_TEMPLATE = (
    "Assign a buy price (between $0.00 and $1.00) for each answer representing "
    "the maximum amount you would pay for a bet on that answer being correct. "
    "If an answer is correct, the bet pays $1.00; if incorrect, it pays $0.00, "
    "and the price paid is lost. "
    "Assign prices that maximize expected profit, taking into account how each "
    "answer might be correct or incorrect under reasonable alternative "
    "interpretations of the question (e.g., unclear entities, ambiguous events, "
    "or uncertainty about required answer format or type), and how multiple "
    "answer options can be equally correct. "
    "The prices must sum to exactly $1.00 across all answers."
)

PROBINT_TEMPLATE = (
    "Provide a lower and upper probability (each between 0.0 and 1.0) "
    "indicating how likely the answer is correct. "
    "Interpret the probabilities as follows:\n"
    "• Lower Probability: the smallest probability you consider plausible that "
    "the answer is correct.\n"
    "• Upper Probability: the largest probability you consider defensible that "
    "the answer is correct.\n"
    "The sum of all lower probabilities across all answers must not exceed 1.0."
)

CREDAL_TEMPLATE = (
    "Assign a probability (between 0.0 and 1.0) representing how likely it is "
    "that the answer would be given as a response to the question.\n"
    "A correct answer should generally receive a higher probability than an "
    "incorrect one. Likelihood may vary based on reasonable interpretations of "
    "the question (e.g., ambiguity in scope, answer type, entity "
    "interpretation, or contextual assumptions).\n"
    "The sum of all probabilities must not exceed 1.0."
)

POSSIBILITY_TEMPLATE = (
    "Provide a possibility score which captures how plausible the answer "
    "correctly answers the question.\n"
    "Then, provide a possibility score how plausible it is that a different "
    "answer (not listed) could be correct.\n"
    "The possibility should be between 0.0 and 1.0. A possibility score of 1.0 "
    'means "fully plausible," and 0.0 means "impossible."'
)

CANDIDATES_TEMPLATE = (
    "Given the question below, generate a list of all possible correct "
    "answers, taking into account different reasonable interpretations of the "
    "question.\n"
    "\n"
    "Provide the answers as a numbered list, with each answer on its own line.\n"
    "Each answer must be concise text only, with no explanations or additional "
    "wording.\n"
    "Do not include duplicates or answers that refer to the same entity or "
    "concept.\n"
    "For example:\n"
    "1. <answer one as concise text>\n"
    "2. <answer two as concise text>\n"
    "..."
)

VANILLA_TEMPLATE = (
    "Answer the question below, then state your confidence (between 0.0 and "
    "1.0) that your answer is correct."
)

QUESTION_HEADER = "Question:"
ANSWERS_HEADER = "Answers:"
FORMAT_HEADER = "Output format:"
FEEDBACK_HEADER = "Your previous reply failed verification:"

#: The special row labels in structured reply blocks.
NOTA_LABEL = "NOTA"
CONF_LABEL = "CONF"

SYSTEM_TEXT = (
    "You are a careful assistant quantifying uncertainty about answers to a "
    "question. Follow the output format instructions exactly."
)


@dataclass(frozen=True)
class WireFormat:
    """One protocol's prompt and the rows its reply block must carry.

    ``fields`` name the values of each per-answer row
    (``index|field=value|...``); a kind without them takes no candidate
    list.  ``extra`` is the one labelled row after them, as (label, field,
    the value's name in parse errors).  A kind with neither asks for a
    free-text numbered list instead of a fenced block.
    """

    template: str
    fields: tuple[str, ...] = ()
    extra: tuple[str, str, str] | None = None

    @property
    def has_block(self) -> bool:
        return bool(self.fields or self.extra)


#: The wire table: one entry per protocol.
WIRE: dict[PromptKind, WireFormat] = {
    PromptKind.DEFINETTI: WireFormat(DEFINETTI_TEMPLATE, ("price",)),
    PromptKind.PROBINT: WireFormat(PROBINT_TEMPLATE, ("lower", "upper")),
    PromptKind.CREDAL: WireFormat(CREDAL_TEMPLATE, ("prob",)),
    PromptKind.POSSIBILITY: WireFormat(
        POSSIBILITY_TEMPLATE, ("pos",), (NOTA_LABEL, "pos", "NOTA")
    ),
    PromptKind.CANDIDATES: WireFormat(CANDIDATES_TEMPLATE),
    PromptKind.VANILLA: WireFormat(VANILLA_TEMPLATE, extra=(CONF_LABEL, "conf", "confidence")),
}

#: Each template's opening, which tells its rendered prompts apart.
_PREFIXES = tuple((wire.template.split("\n", 1)[0][:60], kind) for kind, wire in WIRE.items())

#: Kinds whose prompt enumerates a candidate list and expects per-candidate rows.
KINDS_WITH_CANDIDATES = tuple(kind for kind, wire in WIRE.items() if wire.fields)


@functools.lru_cache(maxsize=256)
def _format_suffix(kind: PromptKind, n_candidates: int) -> str:
    wire = WIRE[kind]
    values = "".join(f"|{name}=<decimal>" for name in wire.fields)
    rows = [f"{i}{values}" for i in range(1, n_candidates + 1)]
    if wire.extra:
        label, name, _ = wire.extra
        rows.append(f"{label}|{name}=<decimal>")
    lines = (
        "the following lines in order, with each <decimal>"
        if wire.fields
        else "one line, with <decimal>"
    )
    intro = (
        "After any reasoning, end your reply with a fenced code block (```) "
        f"containing exactly {lines} replaced by a plain decimal number between 0 and 1:"
    )
    body = "\n".join(rows)
    return f"{FORMAT_HEADER}\n{intro}\n```\n{body}\n```"


@functools.lru_cache(maxsize=256)
def _answers_section(answers: tuple[str, ...]) -> str:
    numbered = "\n".join(f"{i + 1}. {a}" for i, a in enumerate(answers))
    return f"{ANSWERS_HEADER}\n{numbered}"


def render_prompt(
    kind: PromptKind,
    question: str,
    candidates: CandidateSet | None = None,
    feedback: str | None = None,
) -> str:
    """Assemble the full user message for one elicitation request.

    ``feedback``, when given, is a verifier diagnosis from a failed earlier
    attempt; it is appended after everything else so the original prompt
    stays byte-identical across retries.
    """
    wire = WIRE[kind]
    parts = [wire.template, f"{QUESTION_HEADER}\n{question}"]
    n_candidates = 0
    if wire.fields:
        if candidates is None:
            raise MissingCandidatesError(f"kind {kind.value} requires a candidate list")
        n_candidates = len(candidates)
        parts.append(_answers_section(candidates.answers))
    if wire.has_block:
        parts.append(_format_suffix(kind, n_candidates))
    if feedback:
        parts.append(f"{FEEDBACK_HEADER}\n{feedback}")
    return "\n\n".join(parts)


def detect_kind(user_text: str) -> PromptKind:
    """Identify which protocol produced a rendered prompt.

    Every template has a distinct opening, so matching the prefix is enough.
    """
    for prefix, kind in _PREFIXES:
        if user_text.startswith(prefix):
            return kind
    raise UnknownKindError("text does not start with any known template")


_STOP_HEADERS = (ANSWERS_HEADER, FORMAT_HEADER, FEEDBACK_HEADER)


def extract_question(user_text: str) -> str:
    """Recover the question text from a rendered prompt."""
    marker = f"\n\n{QUESTION_HEADER}\n"
    start = user_text.find(marker)
    if start < 0:
        raise ValueError("rendered prompt has no question section")
    body = user_text[start + len(marker):]
    end = len(body)
    for header in _STOP_HEADERS:
        pos = body.find(f"\n\n{header}\n")
        if pos >= 0:
            end = min(end, pos)
    return body[:end]


def extract_candidates(user_text: str) -> list[str] | None:
    """Recover the numbered candidate list from a rendered prompt, if any."""
    marker = f"\n\n{ANSWERS_HEADER}\n"
    start = user_text.find(marker)
    if start < 0:
        return None
    body = user_text[start + len(marker):]
    answers: list[str] = []
    for line in body.split("\n"):
        match = re.match(r"^(\d+)\.\s+(.*\S)\s*$", line)
        if not match:
            break
        answers.append(match.group(2))
    return answers or None


__all__ = [
    "MissingCandidatesError",
    "UnknownKindError",
    "PromptKind",
    "WireFormat",
    "WIRE",
    "KINDS_WITH_CANDIDATES",
    "QUESTION_HEADER",
    "ANSWERS_HEADER",
    "FORMAT_HEADER",
    "FEEDBACK_HEADER",
    "NOTA_LABEL",
    "CONF_LABEL",
    "SYSTEM_TEXT",
    "render_prompt",
    "detect_kind",
    "extract_question",
    "extract_candidates",
]
