import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipuq.core import CandidateSet, InvalidValueError
from ipuq.elicit import parsing
from ipuq.elicit.parsing import ParseError, parse_structured_report
from ipuq.elicit.prompts import (
    ANSWERS_HEADER,
    CANDIDATES_TEMPLATE,
    CREDAL_TEMPLATE,
    DEFINETTI_TEMPLATE,
    FEEDBACK_HEADER,
    FORMAT_HEADER,
    POSSIBILITY_TEMPLATE,
    PROBINT_TEMPLATE,
    PromptKind,
    QUESTION_HEADER,
    VANILLA_TEMPLATE,
    WIRE,
    detect_kind,
    extract_candidates,
    extract_question,
    render_prompt,
)

CANDS = CandidateSet(answers=("Paris", "Lyon", "Marseille"))
QUESTION = "What is the capital of France?"


# ---------------------------------------------------------------------------
# Template wording pins.  These templates are a wire format: downstream
# parsing, the mock endpoint, and recorded transcripts all assume this exact
# text, so changes must be deliberate.
# ---------------------------------------------------------------------------


def test_definetti_template_wording():
    assert DEFINETTI_TEMPLATE.startswith("Assign a buy price (between $0.00 and $1.00)")
    assert "maximum amount you would pay for a bet" in DEFINETTI_TEMPLATE
    assert "the bet pays $1.00; if incorrect, it pays $0.00" in DEFINETTI_TEMPLATE
    assert "maximize expected profit" in DEFINETTI_TEMPLATE
    assert "must sum to exactly $1.00 across all answers" in DEFINETTI_TEMPLATE


def test_probint_template_wording():
    assert PROBINT_TEMPLATE.startswith("Provide a lower and upper probability")
    assert "• Lower Probability: the smallest probability" in PROBINT_TEMPLATE
    assert "• Upper Probability: the largest probability" in PROBINT_TEMPLATE
    assert "lower probabilities across all answers must not exceed 1.0" in PROBINT_TEMPLATE


def test_credal_template_wording():
    assert "would be given as a response to the question" in CREDAL_TEMPLATE
    assert "reasonable interpretations" in CREDAL_TEMPLATE
    assert CREDAL_TEMPLATE.endswith("The sum of all probabilities must not exceed 1.0.")


def test_possibility_template_wording():
    assert "how plausible the answer correctly answers the question" in POSSIBILITY_TEMPLATE
    assert "a different answer (not listed) could be correct" in POSSIBILITY_TEMPLATE
    assert '"fully plausible," and 0.0 means "impossible."' in POSSIBILITY_TEMPLATE


def test_candidates_template_wording():
    assert "generate a list of all possible correct answers" in CANDIDATES_TEMPLATE
    assert "numbered list, with each answer on its own line" in CANDIDATES_TEMPLATE
    assert "Do not include duplicates" in CANDIDATES_TEMPLATE


def test_vanilla_template_wording():
    assert VANILLA_TEMPLATE.startswith("Answer the question below")
    assert "confidence (between 0.0 and 1.0)" in VANILLA_TEMPLATE


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_render_layout_for_candidate_kinds():
    text = render_prompt(PromptKind.DEFINETTI, QUESTION, CANDS)
    assert text.startswith(DEFINETTI_TEMPLATE)
    assert f"\n\n{QUESTION_HEADER}\n{QUESTION}\n\n" in text
    assert f"{ANSWERS_HEADER}\n1. Paris\n2. Lyon\n3. Marseille" in text
    assert FORMAT_HEADER in text
    assert "1|price=<decimal>" in text
    assert "3|price=<decimal>" in text


def test_render_row_patterns_per_kind():
    assert "1|lower=<decimal>|upper=<decimal>" in render_prompt(
        PromptKind.PROBINT, QUESTION, CANDS
    )
    assert "2|prob=<decimal>" in render_prompt(PromptKind.CREDAL, QUESTION, CANDS)
    pos = render_prompt(PromptKind.POSSIBILITY, QUESTION, CANDS)
    assert "3|pos=<decimal>" in pos
    assert "NOTA|pos=<decimal>" in pos
    assert "CONF|conf=<decimal>" in render_prompt(PromptKind.VANILLA, QUESTION)


def test_render_candidates_kind_has_no_answer_list():
    text = render_prompt(PromptKind.CANDIDATES, QUESTION)
    assert ANSWERS_HEADER not in text
    assert FORMAT_HEADER not in text
    assert QUESTION in text


def test_render_requires_candidates_when_kind_needs_them():
    with pytest.raises(InvalidValueError, match="kind probint requires a candidate list"):
        render_prompt(PromptKind.PROBINT, QUESTION)


def test_render_feedback_appended_last_and_base_stable():
    base = render_prompt(PromptKind.DEFINETTI, QUESTION, CANDS)
    with_feedback = render_prompt(
        PromptKind.DEFINETTI, QUESTION, CANDS, feedback="prices sum to 1.2"
    )
    assert with_feedback.startswith(base)
    assert with_feedback.endswith(f"{FEEDBACK_HEADER}\nprices sum to 1.2")


# ---------------------------------------------------------------------------
# Round-trip recovery (the mock endpoint replays prompts through these)
# ---------------------------------------------------------------------------


def test_detect_kind_on_all_rendered_prompts():
    for kind in PromptKind:
        needs = kind in (
            PromptKind.DEFINETTI,
            PromptKind.PROBINT,
            PromptKind.CREDAL,
            PromptKind.POSSIBILITY,
        )
        text = render_prompt(kind, QUESTION, CANDS if needs else None)
        assert detect_kind(text) == kind


def test_detect_kind_rejects_unknown_text():
    with pytest.raises(InvalidValueError, match="text does not start with any known template"):
        detect_kind("Hello there, general question.")


def test_extract_question_and_candidates_round_trip():
    text = render_prompt(PromptKind.CREDAL, QUESTION, CANDS)
    assert extract_question(text) == QUESTION
    assert extract_candidates(text) == list(CANDS.answers)


def test_extract_question_multiline_and_feedback_boundary():
    question = "Line one\nLine two?"
    text = render_prompt(PromptKind.VANILLA, question, feedback="try again")
    assert extract_question(text) == question
    no_list = render_prompt(PromptKind.CANDIDATES, question)
    assert extract_candidates(no_list) is None


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40)
def test_round_trip_over_generated_candidate_lists(n, seed):
    import random

    rng = random.Random(seed)
    answers = tuple(
        "".join(rng.choice("ABCDEFGHijklm") for _ in range(rng.randint(1, 6)))
        for _ in range(n)
    )
    try:
        cands = CandidateSet(answers=answers, case_sensitive=True)
    except Exception:
        return
    text = render_prompt(PromptKind.POSSIBILITY, QUESTION, cands)
    assert extract_candidates(text) == list(cands.answers)
    assert extract_question(text) == QUESTION


# ---------------------------------------------------------------------------
# Reply parsing
# ---------------------------------------------------------------------------


def wrap(rows):
    return "Some reasoning first.\n```\n" + "\n".join(rows) + "\n```\n"


def test_parse_definetti_prices():
    reply = wrap(["1|price=$0.70", "2|price=0.2", "3|price=0.1"])
    assert parse_structured_report(PromptKind.DEFINETTI, reply, CANDS) == [0.7, 0.2, 0.1]


def test_parse_probint_bounds():
    reply = wrap(["1|lower=0.1|upper=0.5", "2|lower=0.0|upper=0.3", "3|lower=0.2|upper=0.2"])
    lowers, uppers = parse_structured_report(PromptKind.PROBINT, reply, CANDS)
    assert lowers == [0.1, 0.0, 0.2]
    assert uppers == [0.5, 0.3, 0.2]


def test_parse_possibility_with_nota():
    reply = wrap(["1|pos=1.0", "2|pos=0.4", "3|pos=0.0", "NOTA|pos=0.2"])
    scores, nota = parse_structured_report(PromptKind.POSSIBILITY, reply, CANDS)
    assert scores == [1.0, 0.4, 0.0]
    assert nota == 0.2


def test_parse_possibility_requires_nota_row():
    reply = wrap(["1|pos=1.0", "2|pos=0.4", "3|pos=0.0"])
    with pytest.raises(ParseError, match="expected exactly one NOTA row"):
        parse_structured_report(PromptKind.POSSIBILITY, reply, CANDS)


def test_parse_vanilla_confidence():
    assert parse_structured_report(PromptKind.VANILLA, wrap(["CONF|conf=0.85"])) == 0.85
    with pytest.raises(ParseError, match="duplicate CONF row"):
        parse_structured_report(PromptKind.VANILLA, wrap(["CONF|conf=0.85", "CONF|conf=0.9"]))


def test_parse_candidates_numbered_lines_without_fence():
    reply = "Sure, possible answers:\n1. Paris\n2) The city of Paris\n3. Lutetia\n"
    assert parse_structured_report(PromptKind.CANDIDATES, reply) == [
        "Paris",
        "The city of Paris",
        "Lutetia",
    ]
    with pytest.raises(ParseError, match="reply contains no numbered answer lines"):
        parse_structured_report(PromptKind.CANDIDATES, "no list here")


def test_parse_uses_last_fenced_block():
    reply = (
        "Draft:\n```\n1|prob=0.9\n2|prob=0.1\n3|prob=0.0\n```\n"
        "Final answer:\n```\n1|prob=0.5\n2|prob=0.3\n3|prob=0.2\n```\n"
    )
    assert parse_structured_report(PromptKind.CREDAL, reply, CANDS) == [0.5, 0.3, 0.2]


def test_parse_missing_block():
    with pytest.raises(ParseError, match="reply contains no fenced block of rows"):
        parse_structured_report(PromptKind.CREDAL, "1|prob=0.5 without a fence", CANDS)


def test_parse_row_coverage_errors():
    with pytest.raises(ParseError, match=re.escape("missing [3], unexpected []")):
        parse_structured_report(PromptKind.CREDAL, wrap(["1|prob=0.5", "2|prob=0.5"]), CANDS)
    with pytest.raises(ParseError, match=re.escape("missing [], unexpected [4]")):
        parse_structured_report(
            PromptKind.CREDAL,
            wrap(["1|prob=0.2", "2|prob=0.2", "3|prob=0.2", "4|prob=0.4"]),
            CANDS,
        )
    with pytest.raises(ParseError, match="duplicate row for answer 1"):
        parse_structured_report(
            PromptKind.CREDAL, wrap(["1|prob=0.5", "1|prob=0.3", "3|prob=0.2"]), CANDS
        )


def test_parse_number_errors():
    with pytest.raises(ParseError, match="answer 1: 'half' is not a decimal number"):
        parse_structured_report(
            PromptKind.CREDAL, wrap(["1|prob=half", "2|prob=0.3", "3|prob=0.2"]), CANDS
        )
    with pytest.raises(ParseError, match="answer 1: 'nan' is not a finite number"):
        parse_structured_report(
            PromptKind.CREDAL, wrap(["1|prob=nan", "2|prob=0.3", "3|prob=0.2"]), CANDS
        )
    with pytest.raises(ParseError, match=re.escape("answer 1: 1.4 lies outside [0, 1]")):
        parse_structured_report(
            PromptKind.CREDAL, wrap(["1|prob=1.4", "2|prob=0.3", "3|prob=0.2"]), CANDS
        )
    # float() reads digit separators and non-ASCII digits; a reply may not
    for raw in ("0.2_5", "\u0660.\u0665", "0.\uff15"):
        with pytest.raises(ParseError, match="is not a decimal number"):
            parse_structured_report(
                PromptKind.CREDAL, wrap([f"1|prob={raw}", "2|prob=0.3", "3|prob=0.2"]), CANDS
            )
    reply = wrap(["1|prob=$.5", "2|prob=+2.5e-1", "3|prob= 25E-2 "])
    assert parse_structured_report(PromptKind.CREDAL, reply, CANDS) == [0.5, 0.25, 0.25]


def test_parse_preserves_verbatim_decimals():
    # repr-emitted floats must survive the round trip bit-for-bit
    values = [0.1, 0.30000000000000004, 0.5999999999999999]
    rows = [f"{i + 1}|price={v!r}" for i, v in enumerate(values)]
    assert parse_structured_report(PromptKind.DEFINETTI, wrap(rows), CANDS) == values


# ---------------------------------------------------------------------------
# The requested form, read in one pass, against the row parser
# ---------------------------------------------------------------------------

BLOCK_KINDS = [kind for kind, wire in WIRE.items() if wire.has_block]
SPECIAL_VALUES = ("0", "1", "1.", "1e-05", "5e-324", "1.5", "nan", "inf")


def _swap(rows, i):
    j = (i + 1) % len(rows)
    rows = list(rows)
    rows[i], rows[j] = rows[j], rows[i]
    return rows


#: Each takes the requested rows and a row index, and returns the rows and
#: their line ending.
VARIANTS = {
    "requested": lambda rows, i: (rows, "\n"),
    "spaces": lambda rows, i: (
        rows[:i] + [rows[i].replace("|", " | ").replace("=", " = ")] + rows[i + 1:], "\n"),
    "dollar": lambda rows, i: ([row.replace("=", "=$") for row in rows], "\n"),
    "crlf": lambda rows, i: (rows, "\r\n"),
    "blank line": lambda rows, i: (rows[:i] + [""] + rows[i:], "\n"),
    "text line": lambda rows, i: (rows[:i] + ["so:"] + rows[i:], "\n"),
    "label 01": lambda rows, i: (["0" + rows[0]] + rows[1:], "\n"),
    "duplicate row": lambda rows, i: (rows + [rows[i]], "\n"),
    "missing row": lambda rows, i: (rows[:i] + rows[i + 1:], "\n"),
    "extra row": lambda rows, i: (rows + [f"{len(rows) + 1}{rows[i][rows[i].index('|'):]}"], "\n"),
    "rows out of order": lambda rows, i: (_swap(rows, i), "\n"),
    "no closing newline": lambda rows, i: (rows, ""),
}


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_requested_form_reads_as_the_row_parser(variant, data):
    kind = data.draw(st.sampled_from(BLOCK_KINDS))
    wire = WIRE[kind]
    n = data.draw(st.integers(1, 5)) if wire.fields else 0
    value = st.floats(0.0, 1.0).map(repr)
    if data.draw(st.booleans()):
        value = value | st.floats(1.0, 2.0).map(repr) | st.sampled_from(SPECIAL_VALUES)
    rows = [
        str(i) + "".join(f"|{name}={data.draw(value)}" for name in wire.fields)
        for i in range(1, n + 1)
    ]
    if wire.extra and data.draw(st.integers(0, 9)):
        label, name, _ = wire.extra
        rows.append(f"{label}|{name}={data.draw(value)}")
    block = ""
    if rows:
        rows, newline = VARIANTS[variant](rows, data.draw(st.integers(0, len(rows) - 1)))
        block = newline.join(rows) + newline
    candidates = CandidateSet(answers=tuple(f"c{i}" for i in range(n))) if n else None
    expected = _outcome(lambda: parsing._parse_rows(kind, block, n))
    assert _outcome(
        lambda: parse_structured_report(kind, f"Reasoning.\n```\n{block}```", candidates)
    ) == expected


def test_requested_form_is_read_in_one_pass(monkeypatch):
    def row_parser(*args):
        raise AssertionError("the row parser ran")

    monkeypatch.setattr(parsing, "_parse_rows", row_parser)
    reply = wrap(["1|pos=1.0", "2|pos=5e-324", "3|pos=0.25", "NOTA|pos=0"])
    assert parse_structured_report(PromptKind.POSSIBILITY, reply, CANDS) == (
        [1.0, 5e-324, 0.25], 0.0
    )
    reply = wrap(["1|lower=0.1|upper=0.5", "2|lower=0.0|upper=1e-05", "3|lower=0|upper=1"])
    assert parse_structured_report(PromptKind.PROBINT, reply, CANDS) == (
        [0.1, 0.0, 0.0], [0.5, 1e-05, 1.0]
    )
    assert parse_structured_report(PromptKind.VANILLA, wrap(["CONF|conf=0.85"])) == 0.85


@given(st.text(alphabet="`\na|", max_size=40))
@settings(max_examples=300)
def test_fence_pattern_matches_the_lazy_reference(text):
    reference = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)
    assert parsing._FENCE_RE.findall(text) == reference.findall(text)
