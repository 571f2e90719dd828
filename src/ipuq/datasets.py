"""Loading QA datasets into :class:`~ipuq.core.QARecord` rows.

Input is line-delimited JSON.  Three row schemas are understood:

``maqa_like``
    ``{"question": str, "answers": [str, ...]}`` plus optional
    ``reference`` (defaults to the first answer), ``pstar`` (probabilities
    aligned with ``answers``), ``prediction`` and a string ``id``.  Multiple
    answers mark the question ambiguous.

``ambigqa_like``
    ``{"question": str, "qa_pairs": [{"question": str, "answers": [str,..]},
    ...]}``: each pair is one disambiguated reading; the truth set is the
    union of their answers, in order of first appearance, where answers
    equal up to case and surrounding space count once.

``mc_like``
    ``{"question": str, "options": [str, ...], "answer": str-or-index}``:
    a closed multiple-choice item whose candidate set is the option list.
    An index is a JSON integer; ``true`` and ``false`` are not indices.
"""

from __future__ import annotations

import json

from .core import CandidateSet, IpuqError, QARecord

FORMAT_MAQA = "maqa_like"
FORMAT_AMBIGQA = "ambigqa_like"
FORMAT_MC = "mc_like"

FORMATS = (FORMAT_MAQA, FORMAT_AMBIGQA, FORMAT_MC)


class SchemaViolationError(IpuqError, ValueError):
    """A row that does not fit the declared format; carries the line number
    and, when raised by :func:`ingest_qa_dataset`, names the file."""

    def __init__(self, line_no: int, message: str, path: str | None = None):
        where = f"{path}: line {line_no}" if path else f"line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.reason = message


def _require(row: dict, key: str, line_no: int):
    if key not in row:
        raise SchemaViolationError(line_no, f"missing required field {key!r}")
    return row[key]


def _answer_list(value, line_no: int, what: str) -> tuple:
    """A non-empty list, as a tuple; :class:`CandidateSet` checks its members."""
    if not isinstance(value, list) or not value:
        raise SchemaViolationError(line_no, f"{what} must be a non-empty list of strings")
    return tuple(value)


def _row_maqa(row: dict, line_no: int) -> QARecord:
    question = _require(row, "question", line_no)
    answers = _answer_list(_require(row, "answers", line_no), line_no, "answers")
    candidates = CandidateSet(answers=answers, open_ended=True)
    return QARecord(
        question=question,
        candidates=candidates,
        truth_set=answers,
        reference_answer=row.get("reference", candidates.answers[0]),
        prediction=row.get("prediction"),
        pstar=row.get("pstar"),
    )


def _row_ambigqa(row: dict, line_no: int) -> QARecord:
    question = _require(row, "question", line_no)
    pairs = _require(row, "qa_pairs", line_no)
    if not isinstance(pairs, list) or not pairs:
        raise SchemaViolationError(line_no, "qa_pairs must be a non-empty list")
    answers: list = []
    for pair in pairs:
        if not isinstance(pair, dict):
            raise SchemaViolationError(line_no, "each qa_pair must be an object")
        answers += _answer_list(_require(pair, "answers", line_no), line_no, "answers")
    # the candidate set drops answers that repeat an earlier one up to case
    candidates = CandidateSet(answers=tuple(answers), open_ended=True)
    return QARecord(
        question=question,
        candidates=candidates,
        truth_set=candidates.answers,
        reference_answer=candidates.answers[0],
        prediction=row.get("prediction"),
    )


def _row_mc(row: dict, line_no: int) -> QARecord:
    question = _require(row, "question", line_no)
    options = _answer_list(_require(row, "options", line_no), line_no, "options")
    candidates = CandidateSet(answers=options, open_ended=False)
    answer = _require(row, "answer", line_no)
    if type(answer) is int:  # a JSON true or false is not an index
        if not (0 <= answer < len(options)):
            raise SchemaViolationError(line_no, f"answer index {answer} out of range")
        answer = options[answer]
    if not isinstance(answer, str):
        raise SchemaViolationError(line_no, "answer must be an option string or index")
    if candidates.index_of(answer) is None:
        raise SchemaViolationError(line_no, "answer is not among the options")
    return QARecord(
        question=question,
        candidates=candidates,
        truth_set=(answer,),
        reference_answer=answer.strip(),
        prediction=row.get("prediction"),
        pstar=row.get("pstar"),
    )


_PARSERS = {
    FORMAT_MAQA: _row_maqa,
    FORMAT_AMBIGQA: _row_ambigqa,
    FORMAT_MC: _row_mc,
}


def ingest_qa_dataset(path: str, format: str) -> list[QARecord]:
    """Read a JSONL dataset file into QA records.

    Any malformed row, including one that is not UTF-8 or not JSON, raises
    :class:`SchemaViolationError` naming the file and the offending 1-based
    line number; blank lines are allowed and skipped.  What makes a question
    valid (its text, answers, reference, prediction and p*) is
    :class:`~ipuq.core.QARecord`'s rule, and each refusal of it names the line.
    A row without an ``id`` gets ``q`` plus its zero-padded line number.  An
    ``id`` must be a string, and a question id may appear only once per file.
    """
    if format not in _PARSERS:
        raise ValueError(f"unknown dataset format {format!r}; choose from {FORMATS}")
    parser = _PARSERS[format]
    records: list[QARecord] = []
    first_line: dict[str, int] = {}
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise SchemaViolationError(
                    line_no, f"not UTF-8 ({exc.reason} at byte offset {exc.start})", path
                ) from exc
            except json.JSONDecodeError as exc:
                raise SchemaViolationError(line_no, f"invalid JSON: {exc}", path) from exc
            if not isinstance(row, dict):
                raise SchemaViolationError(line_no, "row must be a JSON object", path)
            try:
                record = parser(row, line_no)
            except IpuqError as exc:
                reason = exc.reason if isinstance(exc, SchemaViolationError) else str(exc)
                raise SchemaViolationError(line_no, reason, path) from exc
            record.question_id = row.get("id")
            if record.question_id is None:
                record.question_id = f"q{line_no:05d}"
            elif type(record.question_id) is not str:
                raise SchemaViolationError(line_no, "id must be a string", path)
            if record.question_id in first_line:
                raise SchemaViolationError(
                    line_no,
                    f"duplicate question id {record.question_id!r} "
                    f"(first on line {first_line[record.question_id]})",
                    path,
                )
            first_line[record.question_id] = line_no
            records.append(record)
    return records


__all__ = [
    "FORMAT_MAQA",
    "FORMAT_AMBIGQA",
    "FORMAT_MC",
    "FORMATS",
    "SchemaViolationError",
    "ingest_qa_dataset",
]
