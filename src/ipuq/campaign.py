"""Campaign runner: elicit every (question, method, seed) cell and persist it.

Records go to an append-only JSONL file with a schema-version header line.
Serialization is canonical (sorted keys, shortest round-trip floats), so two
runs with identical inputs produce byte-identical files apart from the
``timing`` subrecord, and every stored score can be recomputed from the
stored payload alone (see :func:`recompute_scores`).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

from .core import (
    PSTAR_RULE,
    CandidateSet,
    ConfigError,
    CredalSet,
    IpuqError,
    JsonForm,
    PossibilityAssignment,
    PrecisePMF,
    ProbabilityIntervalSet,
    QARecord,
    interval_from_credal,
    is_pstar,
    refuse_repeats,
)
from . import datasets
from .decision import DecisionOutcome, maximin, precise_argmax, utilitarian_aggregate
from .elicit.client import ChatClient, ModelEndpoint, TransportError
from .elicit.loop import (
    ACCEPTANCE,
    DEFAULT_MAX_ATTEMPTS,
    ElicitationResult,
    MemberQuorumNotMetError,
    RetriesExhaustedError,
    elicit_credal_ensemble,
    elicit_with_retry,
)
from .elicit.prompts import PromptKind
from .mmi import (
    exact_mmi_credal,
    interval_width_mmi,
    mmi_upper_bound,
    possibility_mmi,
    possibility_binary_mmi,
)
from .scores import bernoulli_entropy, combined_score, entropy
from .synth import (
    MAX_WORD_LENGTH,
    IclTask,
    NoiseSpec,
    TransformSpec,
    format_icl_prompt,
    generate_icl_task,
    ground_truth_variants,
)

logger = logging.getLogger(__name__)

RECORD_SCHEMA = "ipuq.runrecord.v1"

MODE_AUTO = "auto"
MODE_SET = "set"
#: Recorded when a cell was scored answer-level; not a configurable mode.
MODE_ANSWER = "answer"

#: A record's score fields, in the ``scores`` block beside ``mode``.
SCORE_FIELDS = ("first_order", "second_order", "combined")

DATASET_QA_FILE = "qa_file"
DATASET_SYNTH = "synth"


class RecordsSchemaError(IpuqError, ValueError):
    pass


class RecordDecodeError(RecordsSchemaError):
    """A records file line that is not UTF-8 or not JSON.

    Names the file, the 1-based line and the byte offset within that line
    where decoding failed.
    """

    def __init__(self, path: str, line: int, offset: int, reason: str):
        super().__init__(f"{path}: line {line}, byte offset {offset}: {reason}")
        self.path = path
        self.line = line
        self.offset = offset


# =========================================================================
# Configuration
# =========================================================================


@dataclass(frozen=True)
class DatasetSource(JsonForm):
    """Where campaign questions come from: a QA file or generated tasks."""

    kind: str
    path: str | None = None
    format: str | None = None
    transform: TransformSpec | None = None
    noise_p: float = 0.25
    m: int = 4
    word_length: int = 4
    count: int = 8
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind == DATASET_QA_FILE:
            if not self.path or not self.format:
                raise ConfigError("qa_file dataset needs 'path' and 'format'")
            if self.format not in datasets.FORMATS:
                raise ConfigError(
                    f"unknown QA format {self.format!r}; choose from {datasets.FORMATS}")
        elif self.kind == DATASET_SYNTH:
            if self.transform is None:
                raise ConfigError("synth dataset needs a 'transform'")
            # the bounds generate_icl_task and ground_truth_variants enforce
            if self.m < 0 or self.count < 1:
                raise ConfigError(f"synth dataset needs m >= 0 and count >= 1, got "
                                  f"m={self.m}, count={self.count}")
            if not 1 <= self.word_length <= MAX_WORD_LENGTH:
                raise ConfigError(f"synth word_length must lie in [1, {MAX_WORD_LENGTH}], "
                                  f"got {self.word_length}")
            if not 0.0 <= self.noise_p <= 1.0:
                raise ConfigError(f"noise probability must lie in [0, 1], got {self.noise_p!r}")
        else:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")


@dataclass(frozen=True)
class CampaignConfig(JsonForm):
    """Everything one campaign run needs, loadable from a JSON file."""

    dataset: DatasetSource
    methods: tuple[str, ...]
    endpoints: tuple[ModelEndpoint, ...]
    seeds: tuple[int, ...] = (0,)
    retry_budget: int = DEFAULT_MAX_ATTEMPTS
    concurrency: int = 1
    output_dir: str = "runs"
    credal_members: int = 5
    score_mode: str = MODE_AUTO
    salvage_renormalize: bool = False

    def __post_init__(self) -> None:
        if not self.methods:
            raise ConfigError("at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
        if len(self.endpoints) != 1:
            # records carry no endpoint in their cell key, so a second
            # endpoint would be silently ignored
            raise ConfigError(f"exactly one endpoint is required, got {len(self.endpoints)}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        refuse_repeats("method", self.methods)
        refuse_repeats("seed", self.seeds)
        if self.score_mode not in (MODE_AUTO, MODE_SET):
            raise ConfigError(f"score_mode must be {MODE_AUTO!r} or {MODE_SET!r}, "
                              f"got {self.score_mode!r}")
        if self.retry_budget < 1 or self.concurrency < 1 or self.credal_members < 1:
            raise ConfigError("retry_budget, concurrency and credal_members must be >= 1")


# =========================================================================
# Record persistence
# =========================================================================


# records are trees, so there is no cycle to check for
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                              check_circular=False)


def canonical_json(obj: Any) -> str:
    return _CANONICAL.encode(obj)


def records_path(output_dir: str) -> str:
    return os.path.join(output_dir, "records.jsonl")


def _open_to_append(path: str) -> TextIO:
    """``path`` opened for appending, its directory made first if missing."""
    try:
        return open(path, "a", encoding="utf-8")
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return open(path, "a", encoding="utf-8")


def append_records(path: str, records: Iterable[dict]) -> None:
    """Append records, writing the schema header first on a fresh file."""
    with _open_to_append(path) as fh:
        if fh.tell() == 0:
            fh.write(canonical_json({"schema": RECORD_SCHEMA}) + "\n")
        for rec in records:
            fh.write(canonical_json(rec) + "\n")


#: Bytes read per step by the records file readers: forwards by
#: :func:`_decoded_lines`, backwards by :func:`_drop_torn_tail`.  Memory stays
#: bounded by one chunk plus the longest line.
_TAIL_CHUNK = 64 * 1024

_SPACE = b" \t\n\r\x0b\x0c"


def _check_header(head: Any) -> None:
    if not isinstance(head, dict) or head.get("schema") != RECORD_SCHEMA:
        raise RecordsSchemaError(f"unexpected records header {head!r}")


def _decoded_lines(path: str, decode: Callable[[bytearray, int, int], Any]) -> Iterator[Any]:
    """Yield ``decode(buffer, start, end)`` for each record line of a records
    file, the line being ``buffer[start:end]`` without its ``\\n``, after
    checking the schema header; blank lines are skipped and an empty file
    yields nothing.  The buffer is reused, so ``decode`` copies what it keeps.

    The file is read ``_TAIL_CHUNK`` bytes at a time.  A line that crosses a
    chunk edge is carried into the next buffer; no record line is copied
    before ``decode`` sees it.  ``decode`` decodes the line, or a tail of
    it, as UTF-8 JSON; when that fails, :class:`RecordDecodeError` names
    the line and the failing byte.  A line that ``decode`` refuses as a
    record raises :class:`RecordsSchemaError` naming the line.
    """
    header = True
    offset = 0  # of the buffer's first byte in the file
    with open(path, "rb") as fh:
        buf = bytearray()
        # at the end of the file, a last line without a newline gets one
        while chunk := fh.read(_TAIL_CHUNK) or (b"\n" if buf else b""):
            scan = len(buf)  # the carried start of a line holds no newline
            buf += chunk
            start = 0
            while (end := buf.find(b"\n", scan)) >= 0:
                # only a line that starts with a space pays for a copy
                if buf[start] not in _SPACE or buf[start:end].strip():
                    try:
                        if header:
                            _check_header(json.loads(buf[start:end].decode("utf-8")))
                            header = False
                        else:
                            yield decode(buf, start, end)
                    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                        raise _decode_error(path, offset + start, end - start, exc) from exc
                    except _NotARecord as exc:
                        line = _line_number(path, offset + start)
                        raise RecordsSchemaError(f"{path}: line {line}: {exc}") from None
                start = scan = end + 1
            del buf[:start]
            offset += start


def _decode_error(
    path: str, line_start: int, line_length: int, exc: UnicodeDecodeError | json.JSONDecodeError
) -> RecordDecodeError:
    """The error for a line at file offset ``line_start`` whose decode failed.

    Every decode runs to the line's end, so the failing byte lies as many
    bytes before the end as the decoded text holds from the failure on.
    """
    if isinstance(exc, UnicodeDecodeError):
        rest = len(exc.object) - exc.start
        reason = f"not UTF-8 ({exc.reason})"
    else:
        rest = len(exc.doc[exc.pos:].encode("utf-8"))
        reason = f"not JSON ({exc.msg})"
    return RecordDecodeError(path, _line_number(path, line_start), line_length - rest, reason)


def _line_number(path: str, line_start: int) -> int:
    """The 1-based number of the line at file offset ``line_start``.  It is
    counted only when a line fails, so the readers' loop never pays for it."""
    line = 1
    with open(path, "rb") as fh:
        while line_start > 0 and (chunk := fh.read(min(line_start, _TAIL_CHUNK))):
            line += chunk.count(b"\n")
            line_start -= len(chunk)
    return line


class _NotARecord(Exception):
    """A record line without what its reader needs; the message says what."""


def _key_tuple(key: Any) -> tuple[str, str, int]:
    try:
        cell = question_id, method, seed = key["question_id"], key["method"], key["seed"]
        if type(question_id) is str and type(method) is str and type(seed) is int:
            return cell
    except (KeyError, TypeError):
        pass
    raise _NotARecord(
        "not a record (key needs a string question_id, a string method and an integer seed)")


def _decode_line(buf: bytearray, start: int, end: int) -> Any:
    return json.loads(buf[start:end].decode("utf-8"))


def _decode_record(buf: bytearray, start: int, end: int) -> dict[str, Any]:
    record = _decode_line(buf, start, end)
    _key_tuple(record.get("key") if type(record) is dict else None)
    return record


#: What eval reads of every record besides its key, and the type it reads.
_EVAL_MEMBERS = [(path, path.split("."), kind) for path, kind in {
    "scores": dict, "candidates.answers": list, "truth_set": list,
    "endpoint.key": str, "elicitation.payload": (dict, type(None)),
    "elicitation.usage.input_tokens": int, "elicitation.usage.output_tokens": int,
}.items()]


def _cell_name(record: dict[str, Any]) -> str:
    return "/".join(map(str, _key_tuple(record["key"])))


def _decode_run_record(buf: bytearray, start: int, end: int) -> dict[str, Any]:
    record = _decode_record(buf, start, end)
    method = record["key"]["method"]
    if method not in RECORDS:
        raise _NotARecord(
            f"record {_cell_name(record)}: unknown method {method!r}; choose from {METHODS}")
    missing = []
    for path, names, kind in _EVAL_MEMBERS:
        value = record
        for name in names:  # an absent member reads as ..., which no member's type holds
            value = value.get(name, ...) if type(value) is dict else ...
        if not isinstance(value, kind):
            missing.append(path)
    if missing:
        raise _NotARecord(
            f"record {_cell_name(record)} lacks what eval reads: {', '.join(missing)}")
    if (wrong := _wrong_value(record)) is not None:
        raise _NotARecord(f"record {_cell_name(record)}: {wrong}")
    return record


def _wrong_value(record: dict[str, Any]) -> str | None:
    """What is wrong with an answer, case rule, score or p* value that eval
    reads, if anything.  An absent member reads as no value, as eval reads it."""
    for name, answers in (("candidates.answers", record["candidates"]["answers"]),
                          ("truth_set", record["truth_set"])):
        if wrong := [answer for answer in answers if type(answer) is not str]:
            return f"{name} must hold only strings, got {wrong[0]!r}"
    for name in ("prediction", "reference_answer"):
        if type(value := record.get(name)) not in (str, type(None)):
            return f"{name} must be a string or null, got {value!r}"
    if type(rule := record["candidates"].get("case_sensitive", False)) is not bool:
        return f"candidates.case_sensitive must be true or false, got {rule!r}"
    for name in SCORE_FIELDS:
        score = record["scores"].get(name)
        # a bool is not a number, and json.loads reads NaN and Infinity
        if score is not None and not (type(score) in (int, float) and abs(score) < math.inf):
            return f"scores.{name} must be a finite number or null, got {score!r}"
    if not is_pstar(record.get("pstar"), len(record["truth_set"])):
        return PSTAR_RULE
    return None


def load_run_records(path: str) -> list[dict]:
    """Read records back, validating the header line, each line's key and
    method, the members that eval reads (see :data:`_EVAL_MEMBERS`) and the
    values it reads (see :func:`_wrong_value`)."""
    return list(_decoded_lines(path, _decode_run_record))


def _drop_torn_tail(path: str) -> None:
    """Truncate a final line without a newline, the remains of an interrupted
    append, so that a resume re-runs that cell instead of failing to decode it."""
    if not os.path.exists(path):
        return
    size = os.path.getsize(path)
    keep = 0
    with open(path, "rb+") as fh:
        stop = size
        while stop > 0:
            start = max(stop - _TAIL_CHUNK, 0)
            fh.seek(start)
            newline = fh.read(stop - start).rfind(b"\n")
            if newline >= 0:
                keep = start + newline + 1
                break
            stop = start
        if keep == size:
            return
        fh.truncate(keep)
    logger.warning("dropped %d bytes of a torn trailing record in %s", size - keep, path)


_KEY_SPAN = b'"key":{'
_DECODER = json.JSONDecoder()


def _decode_key(buf: bytearray, start: int, end: int) -> tuple[str, str, int]:
    at = buf.rfind(_KEY_SPAN, start, end)
    if at < 0:
        return _key_tuple(_decode_record(buf, start, end)["key"])
    at += len(_KEY_SPAN) - 1
    return _key_tuple(_DECODER.raw_decode(buf[at:end].decode("utf-8"))[0])


def existing_keys(path: str) -> set[tuple[str, str, int]]:
    """The (question_id, method, seed) keys recorded in ``path``.

    Each line is searched on bytes, from its end, for a raw ``"key":{``, and
    only the text from that ``{`` on is decoded; the key object is read from
    its start.  In canonical JSON a line holds exactly one such span, because
    no other member of a record named ``key`` holds an object and a ``"``
    inside a string is always escaped; the search runs from the end because
    ``key`` sorts after the large ``elicitation`` member.  A line without
    that span (not in canonical form) is decoded in full.
    """
    if not os.path.exists(path):
        return set()
    return set(_decoded_lines(path, _decode_key))


# =========================================================================
# Payload (de)serialization and scoring
# =========================================================================


def candidates_to_dict(c: CandidateSet) -> dict[str, Any]:
    return {
        "answers": list(c.answers),
        "open_ended": c.open_ended,
        "case_sensitive": c.case_sensitive,
    }


def candidates_from_dict(data: dict[str, Any]) -> CandidateSet:
    return CandidateSet(
        answers=tuple(data["answers"]),
        open_ended=bool(data.get("open_ended", False)),
        case_sensitive=bool(data.get("case_sensitive", False)),
    )


@dataclass(frozen=True)
class RecordSpec:
    """How one method's cell payload is stored, scored and acted on.

    ``score(payload, index)`` gives (first_order, second_order): answer-level
    when ``index`` is the committed prediction, set-level when it is None.
    ``decide`` is the method's commitment rule and ``belief`` its precise
    PMF over the candidates, for the methods that have them.  ``ensemble``
    methods elicit one report per member endpoint.
    """

    encode: Callable[[Any], dict[str, Any]]
    decode: Callable[[dict[str, Any], CandidateSet], Any]
    score: Callable[[Any, int | None], tuple[float | None, float | None]]
    decide: Callable[[Any], DecisionOutcome | None] = lambda payload: None
    belief: Callable[[Any], PrecisePMF] | None = None
    ensemble: bool = False


def _with_belief(belief, second_order, **spec) -> RecordSpec:
    """A method whose payload holds a precise belief: its first-order score
    is that belief's entropy, or the entropy of "the committed answer is
    correct", and it commits to the belief's argmax."""

    def score(payload, index):
        pmf = belief(payload)
        first = entropy(pmf) if index is None else bernoulli_entropy(pmf.probs[index])
        return first, second_order(payload, index)

    return RecordSpec(
        score=score,
        decide=lambda payload: precise_argmax(belief(payload)),
        belief=belief,
        **spec,
    )


def _interval_second_order(ivs: ProbabilityIntervalSet, index: int | None) -> float:
    if index is None:
        return mmi_upper_bound(ivs.lowers).value
    return interval_width_mmi(ivs.lowers[index], ivs.uppers[index]).value


def _credal_second_order(credal: CredalSet, index: int | None) -> float:
    if index is None:
        return exact_mmi_credal(credal).value
    envelope = interval_from_credal(credal)
    return interval_width_mmi(envelope.lowers[index], envelope.uppers[index]).value


def _possibility_second_order(assignment: PossibilityAssignment, index: int | None) -> float:
    if index is None:
        return possibility_mmi(assignment).value
    # plausibility conflict between the committed answer and everything else
    rest = [s for i, s in enumerate(assignment.scores) if i != index]
    rest.append(assignment.none_of_above)
    return possibility_binary_mmi(min(assignment.scores[index], 1.0), min(max(rest), 1.0)).value


#: The record table: one entry per campaign method.  A method whose payload
#: is one verified reply stores that reply's JSON form from the loop's table.
RECORDS: dict[str, RecordSpec] = {
    PromptKind.DEFINETTI.value: _with_belief(
        lambda pmf: pmf,
        lambda pmf, index: None,
        encode=ACCEPTANCE[PromptKind.DEFINETTI].to_json,
        decode=lambda data, c: PrecisePMF(candidates=c, probs=tuple(data["probs"])),
    ),
    PromptKind.PROBINT.value: RecordSpec(
        encode=ACCEPTANCE[PromptKind.PROBINT].to_json,
        decode=lambda data, c: ProbabilityIntervalSet(
            candidates=c, lowers=tuple(data["lowers"]), uppers=tuple(data["uppers"])
        ),
        score=lambda ivs, index: (None, _interval_second_order(ivs, index)),
        decide=maximin,
    ),
    PromptKind.CREDAL.value: _with_belief(
        utilitarian_aggregate,
        _credal_second_order,
        encode=lambda credal: {"members": [list(m.probs) for m in credal.members]},
        decode=lambda data, c: CredalSet(candidates=c, members=tuple(
            PrecisePMF(candidates=c, probs=tuple(row)) for row in data["members"])),
        ensemble=True,
    ),
    PromptKind.POSSIBILITY.value: RecordSpec(
        encode=ACCEPTANCE[PromptKind.POSSIBILITY].to_json,
        decode=lambda data, c: PossibilityAssignment(
            candidates=c,
            scores=tuple(data["scores"]),
            none_of_above=float(data["none_of_above"]),
        ),
        score=lambda assignment, index: (None, _possibility_second_order(assignment, index)),
    ),
    PromptKind.VANILLA.value: RecordSpec(
        encode=ACCEPTANCE[PromptKind.VANILLA].to_json,
        decode=lambda data, c: float(data["confidence"]),
        score=lambda conf, index: (1.0 - float(conf), None),
    ),
}

METHODS = tuple(RECORDS)


def decode_record_payload(record: dict[str, Any]) -> tuple[CandidateSet, Any]:
    """A stored record's candidates and its non-null payload, decoded.  A
    payload its method cannot decode raises :class:`RecordsSchemaError`
    naming the record."""
    try:
        candidates = candidates_from_dict(record["candidates"])
        payload = RECORDS[record["key"]["method"]].decode(
            record["elicitation"]["payload"], candidates)
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordsSchemaError(
            f"record {_cell_name(record)}: payload does not decode ({exc!r})") from exc
    return candidates, payload


def score_payload(
    method: str,
    payload: object,
    *,
    mode: str = MODE_AUTO,
    prediction_index: int | None = None,
) -> tuple[float | None, float | None, str]:
    """Compute (first_order, second_order, used_mode) for one payload.

    Answer-level scoring conditions on a committed prediction (entropy of
    "that answer is correct", width of its interval, plausibility conflict
    between it and everything else); set-level scoring treats the whole
    report.  ``mode=auto`` picks answer-level exactly when a prediction
    index is available.
    """
    if mode not in (MODE_AUTO, MODE_SET, MODE_ANSWER):
        raise ValueError(f"unknown scoring mode {mode!r}")
    answer_level = mode != MODE_SET and prediction_index is not None
    first, second = RECORDS[method].score(
        payload, prediction_index if answer_level else None
    )
    return first, second, MODE_ANSWER if answer_level else MODE_SET


def decide(method: str, payload: object) -> DecisionOutcome | None:
    """The campaign's per-method commitment rule, if the method has one."""
    return RECORDS[method].decide(payload)


# =========================================================================
# Campaign execution
# =========================================================================


def synth_question_id(index: int) -> str:
    """The question id of a synthetic source's task ``index``."""
    return f"synth-{index:04d}"


def synth_tasks(
    source: DatasetSource, wanted: Callable[[str], bool] | None = None
) -> dict[str, IclTask]:
    """The source's tasks by question id, in id order: task ``i`` draws its
    words from seed ``base_seed + i`` and its demonstration noise from
    ``base_seed + 10_000 + i``.  With ``wanted``, only the tasks whose id it
    accepts are generated."""
    tasks = {}
    for i in range(source.count):
        question_id = synth_question_id(i)
        if wanted is None or wanted(question_id):
            tasks[question_id] = generate_icl_task(
                source.transform,
                NoiseSpec(p=source.noise_p, rng_seed=source.base_seed + 10_000 + i),
                m=source.m,
                word_length=source.word_length,
                rng_seed=source.base_seed + i,
            )
    return tasks


def build_synth_records(
    source: DatasetSource, wanted: Callable[[str], bool] | None = None
) -> list[QARecord]:
    """Generate the QA records for a synthetic dataset source, or for the
    questions whose id ``wanted`` accepts."""
    records = []
    for question_id, task in synth_tasks(source, wanted).items():
        variants = ground_truth_variants(task.clean_query_output, source.noise_p)
        truth = {v.text: v.prob for v in variants}
        # at p = 1 the clean reference has probability 0, so no variant holds it
        truth.setdefault(task.clean_query_output, 0.0)
        records.append(
            QARecord(
                question=format_icl_prompt(task),
                candidates=CandidateSet(
                    answers=tuple(v.text for v in variants),
                    open_ended=False,
                    case_sensitive=True,
                ),
                truth_set=tuple(truth),
                reference_answer=task.clean_query_output,
                pstar=tuple(truth.values()),
                question_id=question_id,
            )
        )
    return records


def load_dataset(
    source: DatasetSource, wanted: Callable[[str], bool] | None = None
) -> list[QARecord]:
    """The source's questions in order, or those whose id ``wanted`` accepts.

    ``wanted`` is called once per question id, in order.  A synthetic source
    generates only the questions it accepts; a QA file is read and checked
    whole, since its ids come from the file.
    """
    if source.kind == DATASET_SYNTH:
        return build_synth_records(source, wanted)
    records = datasets.ingest_qa_dataset(source.path, source.format)
    return records if wanted is None else [q for q in records if wanted(q.question_id)]


def _attempt_dicts(
    results: Sequence[ElicitationResult],
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """A record's ``verdicts`` and ``transcripts``: one entry per member,
    each listing that member's attempts.  Transcripts keep both bodies
    verbatim; the reply is ``parse_response_body(request, response).text``."""
    verdicts, transcripts = [], []
    for member, res in enumerate(results):
        checked, replies = [], []
        for a in res.attempt_log:
            entry: dict[str, Any] = {"attempt": a.attempt}
            if a.parse_error is not None:
                entry["parse_error"] = a.parse_error
            if a.verdict is not None:  # it passed when it has no violations
                entry["violations"] = [
                    {"code": v.code, "index": v.index, "observed": v.observed, "bound": v.bound}
                    for v in a.verdict.violations
                ]
            checked.append(entry)
            replies.append({"attempt": a.attempt, "request": a.reply.raw_request,
                            "response": a.reply.raw_response})
        verdicts.append({"member": member, "attempts": checked})
        transcripts.append({"member": member, "attempts": replies})
    return verdicts, transcripts


def _score_block(
    method: str, payload: object, candidates: CandidateSet, mode: str, prediction: str | None
) -> dict[str, Any]:
    """A record's ``scores`` block: the payload scored against the prediction."""
    index = candidates.index_of(prediction) if prediction is not None else None
    first, second, used = score_payload(method, payload, mode=mode, prediction_index=index)
    combined = (
        combined_score(first, second) if first is not None and second is not None else None
    )
    return {"mode": used, "first_order": first, "second_order": second, "combined": combined}


def _seed_endpoints(
    base: ModelEndpoint, seed: int, members: int
) -> tuple[ModelEndpoint, list[ModelEndpoint]]:
    """The endpoint of a record seed, and its credal ensemble's members."""
    # Distinct member seeds give the ensemble its distinct beliefs; derived
    # deterministically from the record seed so resumes stay reproducible.
    return (
        dataclasses.replace(base, seed=seed),
        [dataclasses.replace(base, seed=seed * 100 + j) for j in range(members)],
    )


def _run_cell(
    config: CampaignConfig,
    client: ChatClient,
    endpoints: tuple[ModelEndpoint, list[ModelEndpoint]],
    qrecord: QARecord,
    method: str,
    seed: int,
) -> dict[str, Any]:
    """Elicit, score and record one cell, with the seed's ``endpoints`` from
    :func:`_seed_endpoints`.  Whatever the elicitation or the building of its
    record raises becomes a failed record; either way the record keeps the
    result of every loop it reached, which each loop appends to ``results``
    however it ends."""
    started = time.time()
    endpoint, members = endpoints
    results: list[ElicitationResult] = []
    try:
        if RECORDS[method].ensemble:
            payload = elicit_credal_ensemble(
                client,
                members,
                qrecord.question,
                qrecord.candidates,
                max_attempts=config.retry_budget,
                salvage_renormalize=config.salvage_renormalize,
                results=results,
            )
        else:
            payload = elicit_with_retry(
                client,
                endpoint,
                PromptKind(method),
                qrecord.question,
                qrecord.candidates,
                max_attempts=config.retry_budget,
                salvage_renormalize=config.salvage_renormalize,
                results=results,
            ).payload
        return _build_record(config, qrecord, method, seed, payload, results, None, started)
    except Exception as exc:
        if isinstance(exc, TransportError):
            error = f"transport: {exc}"
        elif isinstance(exc, (RetriesExhaustedError, MemberQuorumNotMetError)):
            error = str(exc)
        else:
            error = f"{type(exc).__name__}: {exc}"
            logger.warning("cell %s/%s/%d failed: %s", qrecord.question_id, method, seed,
                           error, exc_info=True)
    return _build_record(config, qrecord, method, seed, None, results, error, started)


def _build_record(
    config: CampaignConfig,
    qrecord: QARecord,
    method: str,
    seed: int,
    payload: object | None,
    results: list[ElicitationResult],
    error: str | None,
    started: float,
) -> dict[str, Any]:
    elapsed = time.time() - started
    prediction = qrecord.prediction
    payload_dict: dict[str, Any] | None = None
    scores_dict: dict[str, Any] = dict.fromkeys(("mode", *SCORE_FIELDS))
    if payload is not None:
        payload_dict = RECORDS[method].encode(payload)
        if (outcome := decide(method, payload)) is not None:
            prediction = outcome.chosen_answer
        scores_dict = _score_block(
            method, payload, qrecord.candidates, config.score_mode, prediction
        )

    total_in = sum(r.input_tokens for r in results)
    total_out = sum(r.output_tokens for r in results)
    attempts = sum(r.attempts for r in results)
    verdicts, transcripts = _attempt_dicts(results)

    return {
        "key": {"question_id": qrecord.question_id, "method": method, "seed": seed},
        "question": qrecord.question,
        "candidates": candidates_to_dict(qrecord.candidates),
        "truth_set": list(qrecord.truth_set),
        "reference_answer": qrecord.reference_answer,
        "pstar": list(qrecord.pstar) if qrecord.pstar is not None else None,
        "prediction": prediction,
        "endpoint": {"key": config.endpoints[0].key},
        "elicitation": {
            "succeeded": error is None,
            "salvaged": any(r.salvaged for r in results),
            "error": error,
            "attempts": attempts,
            "payload": payload_dict,
            "usage": {"input_tokens": total_in, "output_tokens": total_out},
            "verdicts": verdicts,
            "transcripts": transcripts,
        },
        "scores": scores_dict,
        "timing": {"started_unix": started, "elapsed_s": elapsed},
    }


def _finished(futures: list[Future]) -> list[dict[str, Any]]:
    """The records of the cells that ran, in job order, once all have ended."""
    wait(futures)
    return [f.result() for f in futures if not f.cancelled() and f.exception() is None]


def _append_finished(path: str, futures: list[Future]) -> None:
    """Write the records of the finished cells not yet in the file, in job
    order, so that cells billed before a stop are not elicited again."""
    finished = _finished(futures)
    _drop_torn_tail(path)
    recorded = existing_keys(path)
    append_records(path, [r for r in finished if _key_tuple(r["key"]) not in recorded])


def _log_dropped(futures: list[Future]) -> None:
    """Log at ERROR each finished cell a failed write leaves out of the file,
    with what it billed: a resume elicits and bills it again."""
    for record in _finished(futures):
        elicitation = record["elicitation"]
        logger.error(
            "records write failed; dropped cell %s/%s/%d, which billed %d attempts, "
            "%d input and %d output tokens",
            *_key_tuple(record["key"]), elicitation["attempts"],
            elicitation["usage"]["input_tokens"], elicitation["usage"]["output_tokens"],
        )


def run_campaign(
    config: CampaignConfig,
    *,
    client: ChatClient | None = None,
) -> list[dict[str, Any]]:
    """Run (or resume) a campaign; returns the records written this call.

    Jobs run with up to ``config.concurrency`` requests in flight, but the
    records file is written by this thread alone, in deterministic job order
    (question x method x seed, in config order).  Cells already present in
    the records file are skipped, which is what makes interrupted campaigns
    resumable.  A cell whose elicitation or record building raises is
    recorded as failed, with its error and its billed attempts, and counts as
    completed; the caller decides whether a partial campaign is acceptable.
    If the writer stops (a failed write, Ctrl-C, any other exception), no
    further cells are started and the cells already in flight finish.  When
    writing a record raises (an ``OSError``, or a record the file cannot
    encode), each finished cell left out of the file is logged at ERROR with
    its key and billed usage; on any other stop they are written before the
    exception propagates.  Resuming reads only the keys of the records file
    (see :func:`existing_keys`), and only the questions that still have a
    cell to run are built.  The records file is opened for appending before
    the first cell starts, so a file that cannot be written fails the run
    before any request.
    """
    client = client if client is not None else ChatClient()
    path = records_path(config.output_dir)
    _drop_torn_tail(path)
    done = existing_keys(path)
    cells = [(method, seed) for method in config.methods for seed in config.seeds]
    missing: dict[str, list[tuple[str, int]]] = {}

    def pending(question_id: str) -> bool:
        missing[question_id] = [c for c in cells if (question_id, *c) not in done]
        return bool(missing[question_id])

    jobs = [
        (q, method, seed)
        for q in load_dataset(config.dataset, pending)
        for method, seed in missing[q.question_id]
    ]
    # ``missing`` holds every question of the dataset, so keys of other
    # questions, methods or seeds in the file are not counted
    logger.info("%s: %d cells already recorded, %d to run",
                path, len(missing) * len(cells) - len(jobs), len(jobs))
    if not jobs:
        return []
    # a file that cannot be written fails here, before any cell is billed
    _open_to_append(path).close()

    base = config.endpoints[0]
    endpoints = {seed: _seed_endpoints(base, seed, config.credal_members)
                 for seed in config.seeds}
    written: list[dict[str, Any]] = []
    write_failed = False
    with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
        futures = [pool.submit(_run_cell, config, client, endpoints[seed], q, method, seed)
                   for q, method, seed in jobs]
        try:
            for future in futures:
                record = future.result()
                try:
                    append_records(path, [record])
                except Exception:
                    # writing again may fail the same way, so nothing is
                    # written after a failed write
                    write_failed = True
                    raise
                written.append(record)
        except BaseException:
            # Cancelling from the back, as Executor.map does, leaves the
            # cells that started a job-order prefix.
            for future in reversed(futures):
                future.cancel()
            if write_failed:
                _log_dropped(futures[len(written):])
            else:
                _append_finished(path, futures)
            raise
    failed = sum(1 for r in written if not r["elicitation"]["succeeded"])
    if failed:
        logger.warning("campaign finished with %d/%d failed cells", failed, len(written))
    return written


# =========================================================================
# Re-scoring and record-derived evaluation inputs
# =========================================================================


def recompute_scores(record: dict[str, Any]) -> dict[str, float | None]:
    """Recompute the score block of a stored record from its payload alone.

    Used to prove records are self-contained: the result must match the
    stored ``scores`` values to full float precision.
    """
    if record["elicitation"]["payload"] is None:
        return dict.fromkeys(SCORE_FIELDS)
    candidates, payload = decode_record_payload(record)
    scores = _score_block(
        record["key"]["method"], payload, candidates, record["scores"]["mode"],
        record.get("prediction"),
    )
    del scores["mode"]
    return scores


__all__ = [
    "RECORD_SCHEMA",
    "METHODS",
    "MODE_AUTO",
    "MODE_SET",
    "MODE_ANSWER",
    "SCORE_FIELDS",
    "DATASET_QA_FILE",
    "DATASET_SYNTH",
    "RecordsSchemaError",
    "RecordDecodeError",
    "DatasetSource",
    "CampaignConfig",
    "canonical_json",
    "records_path",
    "append_records",
    "load_run_records",
    "existing_keys",
    "RecordSpec",
    "RECORDS",
    "decode_record_payload",
    "candidates_to_dict",
    "candidates_from_dict",
    "score_payload",
    "decide",
    "synth_question_id",
    "synth_tasks",
    "build_synth_records",
    "load_dataset",
    "run_campaign",
    "recompute_scores",
]
