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
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .core import (
    CandidateSet,
    CredalSet,
    IpuqError,
    PossibilityAssignment,
    PrecisePMF,
    ProbabilityIntervalSet,
    QARecord,
    fold_equal,
    interval_from_credal,
)
from .decision import DecisionOutcome, maximin, precise_argmax, utilitarian_aggregate
from .elicit.client import ChatClient, ModelEndpoint, TransportError
from .elicit.loop import (
    ACCEPTANCE,
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
MODE_ANSWER = "answer"

DATASET_QA_FILE = "qa_file"
DATASET_SYNTH = "synth"


class ConfigError(IpuqError, ValueError):
    pass


class RecordsSchemaError(IpuqError, ValueError):
    pass


# =========================================================================
# Configuration
# =========================================================================


@dataclass(frozen=True)
class DatasetSource:
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
        elif self.kind == DATASET_SYNTH:
            if self.transform is None:
                raise ConfigError("synth dataset needs a 'transform'")
        else:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")

    def to_dict(self) -> dict[str, Any]:
        if self.kind == DATASET_QA_FILE:
            return {"kind": self.kind, "path": self.path, "format": self.format}
        return {
            "kind": self.kind,
            "transform": self.transform.to_dict(),
            "noise_p": self.noise_p,
            "m": self.m,
            "word_length": self.word_length,
            "count": self.count,
            "base_seed": self.base_seed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DatasetSource":
        kind = data.get("kind")
        if kind == DATASET_QA_FILE:
            return cls(kind=kind, path=data.get("path"), format=data.get("format"))
        if kind == DATASET_SYNTH:
            return cls(
                kind=kind,
                transform=TransformSpec.from_dict(data["transform"]),
                noise_p=float(data.get("noise_p", 0.25)),
                m=int(data.get("m", 4)),
                word_length=int(data.get("word_length", 4)),
                count=int(data.get("count", 8)),
                base_seed=int(data.get("base_seed", 0)),
            )
        raise ConfigError(f"unknown dataset kind {kind!r}")


def _endpoint_to_dict(ep: ModelEndpoint) -> dict[str, Any]:
    return {
        "base_url": ep.base_url,
        "model_id": ep.model_id,
        "auth_token_env": ep.auth_token_env,
        "temperature": ep.temperature,
        "seed": ep.seed,
        "price_per_input_token": ep.price_per_input_token,
        "price_per_output_token": ep.price_per_output_token,
    }


def _endpoint_from_dict(data: dict[str, Any]) -> ModelEndpoint:
    return ModelEndpoint(
        base_url=data["base_url"],
        model_id=data["model_id"],
        auth_token_env=data.get("auth_token_env"),
        temperature=float(data.get("temperature", 0.0)),
        seed=data.get("seed"),
        price_per_input_token=float(data.get("price_per_input_token", 0.0)),
        price_per_output_token=float(data.get("price_per_output_token", 0.0)),
    )


@dataclass(frozen=True)
class CampaignConfig:
    """Everything one campaign run needs, loadable from a JSON file."""

    dataset: DatasetSource
    methods: tuple[str, ...]
    endpoints: tuple[ModelEndpoint, ...]
    seeds: tuple[int, ...] = (0,)
    retry_budget: int = 5
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
        if self.score_mode not in (MODE_AUTO, MODE_SET, MODE_ANSWER):
            raise ConfigError(f"unknown score mode {self.score_mode!r}")
        if self.retry_budget < 1 or self.concurrency < 1 or self.credal_members < 1:
            raise ConfigError("retry_budget, concurrency and credal_members must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        return {
            "dataset": self.dataset.to_dict(),
            "methods": list(self.methods),
            "endpoints": [_endpoint_to_dict(ep) for ep in self.endpoints],
            "seeds": list(self.seeds),
            "retry_budget": self.retry_budget,
            "concurrency": self.concurrency,
            "output_dir": self.output_dir,
            "credal_members": self.credal_members,
            "score_mode": self.score_mode,
            "salvage_renormalize": self.salvage_renormalize,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignConfig":
        return cls(
            dataset=DatasetSource.from_dict(data["dataset"]),
            methods=tuple(data["methods"]),
            endpoints=tuple(_endpoint_from_dict(e) for e in data["endpoints"]),
            seeds=tuple(int(s) for s in data.get("seeds", [0])),
            retry_budget=int(data.get("retry_budget", 5)),
            concurrency=int(data.get("concurrency", 1)),
            output_dir=data.get("output_dir", "runs"),
            credal_members=int(data.get("credal_members", 5)),
            score_mode=data.get("score_mode", MODE_AUTO),
            salvage_renormalize=bool(data.get("salvage_renormalize", False)),
        )

    @classmethod
    def load(cls, path: str) -> "CampaignConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# =========================================================================
# Record persistence
# =========================================================================


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def records_path(output_dir: str) -> str:
    return os.path.join(output_dir, "records.jsonl")


def append_records(path: str, records: Iterable[dict]) -> None:
    """Append records, writing the schema header first on a fresh file."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        if fresh:
            fh.write(canonical_json({"schema": RECORD_SCHEMA}) + "\n")
        for rec in records:
            fh.write(canonical_json(rec) + "\n")


def load_run_records(path: str) -> list[dict]:
    """Read records back, validating the header line."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    if not lines:
        return []
    header = json.loads(lines[0])
    if header.get("schema") != RECORD_SCHEMA:
        raise RecordsSchemaError(f"unexpected records schema {header.get('schema')!r}")
    return [json.loads(ln) for ln in lines[1:]]


def _drop_torn_tail(path: str) -> None:
    """Truncate a final line without a newline, the remains of an interrupted
    append, so that a resume re-runs that cell instead of failing to decode it."""
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return
    with open(path, "rb+") as fh:
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        data = fh.read()
        keep = data.rfind(b"\n") + 1
        fh.truncate(keep)
    logger.warning("dropped %d bytes of a torn trailing record in %s", len(data) - keep, path)


def existing_keys(path: str) -> set[tuple[str, str, int]]:
    if not os.path.exists(path):
        return set()
    keys = set()
    for rec in load_run_records(path):
        k = rec["key"]
        keys.add((k["question_id"], k["method"], k["seed"]))
    return keys


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


def _decode_credal(data: dict[str, Any], candidates: CandidateSet) -> CredalSet:
    members = tuple(PrecisePMF(candidates=candidates, probs=tuple(row)) for row in data["members"])
    return CredalSet(
        candidates=candidates, members=members, member_tags=tuple(data.get("tags", ()))
    )


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
        encode=lambda credal: {
            "members": [list(m.probs) for m in credal.members],
            "tags": list(credal.member_tags),
        },
        decode=_decode_credal,
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


def payload_to_dict(method: str, payload: object) -> dict[str, Any]:
    return RECORDS[method].encode(payload)


def payload_from_dict(method: str, data: dict[str, Any], candidates: CandidateSet):
    return RECORDS[method].decode(data, candidates)


def score_payload(
    method: str,
    payload: object,
    candidates: CandidateSet,
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


def synth_tasks(source: DatasetSource) -> list[IclTask]:
    """The source's tasks in question-id order: task ``i`` draws its words from
    seed ``base_seed + i`` and its demonstration noise from ``base_seed + 10_000 + i``."""
    return [
        generate_icl_task(
            source.transform,
            NoiseSpec(p=source.noise_p, rng_seed=source.base_seed + 10_000 + i),
            m=source.m,
            word_length=source.word_length,
            rng_seed=source.base_seed + i,
        )
        for i in range(source.count)
    ]


def build_synth_records(source: DatasetSource) -> list[QARecord]:
    """Generate the QA records for a synthetic dataset source."""
    records = []
    for i, task in enumerate(synth_tasks(source)):
        variants = ground_truth_variants(task.clean_query_output, source.noise_p)
        records.append(
            QARecord(
                question=format_icl_prompt(task),
                candidates=CandidateSet(
                    answers=tuple(v.text for v in variants),
                    open_ended=False,
                    case_sensitive=True,
                ),
                truth_set=tuple(v.text for v in variants),
                reference_answer=task.clean_query_output,
                pstar=tuple(v.prob for v in variants),
                question_id=f"synth-{i:04d}",
            )
        )
    return records


def load_dataset(source: DatasetSource) -> list[QARecord]:
    if source.kind == DATASET_SYNTH:
        return build_synth_records(source)
    from .datasets import ingest_qa_dataset

    return ingest_qa_dataset(source.path, source.format)


def _verdicts_to_dicts(result: ElicitationResult) -> list[dict[str, Any]]:
    out = []
    for a in result.attempt_log:
        entry: dict[str, Any] = {"attempt": a.attempt}
        if a.parse_error is not None:
            entry["parse_error"] = a.parse_error
        if a.verdict is not None:
            entry["passed"] = a.verdict.passed
            entry["violations"] = [
                {"code": v.code, "index": v.index, "observed": v.observed, "bound": v.bound}
                for v in a.verdict.violations
            ]
        out.append(entry)
    return out


def _transcripts_to_dicts(results: Sequence[ElicitationResult]) -> list[dict[str, Any]]:
    out = []
    for member, res in enumerate(results):
        out.append(
            {
                "member": member,
                "attempts": [
                    {
                        "attempt": a.attempt,
                        "request": a.request_body,
                        "response": a.response_body,
                        "reply": a.reply_text,
                    }
                    for a in res.attempt_log
                ],
            }
        )
    return out


_SCORE_KEYS = ("first_order", "second_order", "combined")


def _score_block(
    method: str, payload: object, candidates: CandidateSet, mode: str, prediction: str | None
) -> dict[str, Any]:
    """A record's ``scores`` block: the payload scored against the prediction."""
    index = candidates.index_of(prediction) if prediction is not None else None
    first, second, used = score_payload(
        method, payload, candidates, mode=mode, prediction_index=index
    )
    combined = (
        combined_score(first, second) if first is not None and second is not None else None
    )
    return {"mode": used, "first_order": first, "second_order": second, "combined": combined}


def _member_endpoints(base: ModelEndpoint, seed: int, count: int) -> list[ModelEndpoint]:
    # Distinct member seeds give the ensemble its distinct beliefs; derived
    # deterministically from the record seed so resumes stay reproducible.
    return [dataclasses.replace(base, seed=seed * 100 + j) for j in range(count)]


@dataclass
class _JobOutcome:
    payload: object | None
    results: list[ElicitationResult]
    error: str | None = None
    salvaged: bool = False


def _run_elicitation(
    config: CampaignConfig,
    client: ChatClient,
    qrecord: QARecord,
    method: str,
    seed: int,
) -> _JobOutcome:
    endpoint = dataclasses.replace(config.endpoints[0], seed=seed)
    try:
        if RECORDS[method].ensemble:
            member_results: list[ElicitationResult] = []
            credal = elicit_credal_ensemble(
                client,
                _member_endpoints(endpoint, seed, config.credal_members),
                qrecord.question,
                qrecord.candidates,
                max_attempts=config.retry_budget,
                salvage_renormalize=config.salvage_renormalize,
                member_results=member_results,
            )
            return _JobOutcome(
                payload=credal,
                results=member_results,
                salvaged=any(r.salvaged for r in member_results),
            )
        result = elicit_with_retry(
            client,
            endpoint,
            PromptKind(method),
            qrecord.question,
            qrecord.candidates,
            max_attempts=config.retry_budget,
            salvage_renormalize=config.salvage_renormalize,
        )
        return _JobOutcome(payload=result.payload, results=[result], salvaged=result.salvaged)
    except RetriesExhaustedError as exc:
        return _JobOutcome(payload=None, results=[exc.result], error=str(exc))
    except MemberQuorumNotMetError as exc:
        return _JobOutcome(payload=None, results=exc.results, error=str(exc))
    except TransportError as exc:
        return _JobOutcome(payload=None, results=list(exc.results), error=f"transport: {exc}")


def _build_record(
    config: CampaignConfig,
    qrecord: QARecord,
    method: str,
    seed: int,
    outcome: _JobOutcome,
    started: float,
    elapsed: float,
) -> dict[str, Any]:
    endpoint = config.endpoints[0]
    prediction = qrecord.prediction
    decision_dict: dict[str, Any] | None = None
    payload_dict: dict[str, Any] | None = None
    scores_dict: dict[str, Any] = dict.fromkeys(("mode", *_SCORE_KEYS))
    if outcome.payload is not None:
        payload_dict = payload_to_dict(method, outcome.payload)
        outcome_decision = decide(method, outcome.payload)
        if outcome_decision is not None:
            prediction = outcome_decision.chosen_answer
            decision_dict = {
                "rule": outcome_decision.rule,
                "chosen_index": outcome_decision.chosen_index,
                "chosen_answer": outcome_decision.chosen_answer,
                "tie_broken": outcome_decision.tie_broken,
            }
        scores_dict = _score_block(
            method, outcome.payload, qrecord.candidates, config.score_mode, prediction
        )

    correct: int | None = None
    if prediction is not None and qrecord.reference_answer is not None:
        correct = int(fold_equal(prediction, qrecord.reference_answer))

    total_in = sum(r.input_tokens for r in outcome.results)
    total_out = sum(r.output_tokens for r in outcome.results)
    attempts = sum(r.attempts for r in outcome.results)
    loop_scores = [r for r in outcome.results if r.score is not None]

    return {
        "key": {"question_id": qrecord.question_id, "method": method, "seed": seed},
        "question": qrecord.question,
        "candidates": candidates_to_dict(qrecord.candidates),
        "truth_set": list(qrecord.truth_set),
        "reference_answer": qrecord.reference_answer,
        "pstar": list(qrecord.pstar) if qrecord.pstar is not None else None,
        "labels": {"ambiguous": int(qrecord.ambiguous), "correct": correct},
        "prediction": prediction,
        "prediction_in_set": (
            qrecord.candidates.index_of(prediction) is not None
            if prediction is not None
            else None
        ),
        "endpoint": {
            "key": endpoint.key,
            "model_id": endpoint.model_id,
            "base_url": endpoint.base_url,
        },
        "elicitation": {
            "kind": method,
            "succeeded": outcome.error is None,
            "salvaged": outcome.salvaged,
            "error": outcome.error,
            "attempts": attempts,
            "payload": payload_dict,
            "loop_score": loop_scores[0].score if loop_scores else None,
            "loop_score_kind": loop_scores[0].score_kind if loop_scores else None,
            "usage": {"input_tokens": total_in, "output_tokens": total_out},
            "verdicts": [
                {"member": i, "attempts": _verdicts_to_dicts(r)}
                for i, r in enumerate(outcome.results)
            ],
            "transcripts": _transcripts_to_dicts(outcome.results),
        },
        "scores": scores_dict,
        "decision": decision_dict,
        "timing": {"started_unix": started, "elapsed_s": elapsed},
    }


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
    resumable.  Failed cells are recorded with their error and count as
    completed; the caller decides whether a partial campaign is acceptable.
    """
    client = client if client is not None else ChatClient()
    qrecords = load_dataset(config.dataset)
    path = records_path(config.output_dir)
    _drop_torn_tail(path)
    done = existing_keys(path)
    jobs = [
        (q, method, seed)
        for q in qrecords
        for method in config.methods
        for seed in config.seeds
        if (q.question_id, method, seed) not in done
    ]
    if not jobs:
        logger.info("nothing to do: all %d cells already recorded", len(done))
        return []

    def execute(job: tuple[QARecord, str, int]) -> dict[str, Any]:
        q, method, seed = job
        started = time.time()
        outcome = _run_elicitation(config, client, q, method, seed)
        elapsed = time.time() - started
        return _build_record(config, q, method, seed, outcome, started, elapsed)

    written: list[dict[str, Any]] = []
    if config.concurrency == 1:
        for job in jobs:
            record = execute(job)
            append_records(path, [record])
            written.append(record)
    else:
        with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
            futures = [pool.submit(execute, job) for job in jobs]
            for future in futures:
                record = future.result()
                append_records(path, [record])
                written.append(record)
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
    payload_dict = record["elicitation"]["payload"]
    if payload_dict is None:
        return dict.fromkeys(_SCORE_KEYS)
    candidates = candidates_from_dict(record["candidates"])
    method = record["key"]["method"]
    payload = payload_from_dict(method, payload_dict, candidates)
    scores = _score_block(
        method, payload, candidates, record["scores"]["mode"], record.get("prediction")
    )
    del scores["mode"]
    return scores


@dataclass(frozen=True)
class UsageEntry:
    """Duck-typed usage row for :func:`ipuq.metrics.cost_report`."""

    endpoint_key: str
    kind: str
    input_tokens: int
    output_tokens: int


def usage_entries(records: Iterable[dict[str, Any]]) -> list[UsageEntry]:
    out = []
    for rec in records:
        usage = rec["elicitation"]["usage"]
        out.append(
            UsageEntry(
                endpoint_key=rec["endpoint"]["key"],
                kind=rec["key"]["method"],
                input_tokens=int(usage["input_tokens"]),
                output_tokens=int(usage["output_tokens"]),
            )
        )
    return out


__all__ = [
    "RECORD_SCHEMA",
    "METHODS",
    "MODE_AUTO",
    "MODE_SET",
    "MODE_ANSWER",
    "DATASET_QA_FILE",
    "DATASET_SYNTH",
    "ConfigError",
    "RecordsSchemaError",
    "DatasetSource",
    "CampaignConfig",
    "canonical_json",
    "records_path",
    "append_records",
    "load_run_records",
    "existing_keys",
    "RecordSpec",
    "RECORDS",
    "payload_to_dict",
    "payload_from_dict",
    "candidates_to_dict",
    "candidates_from_dict",
    "score_payload",
    "decide",
    "synth_tasks",
    "build_synth_records",
    "load_dataset",
    "run_campaign",
    "recompute_scores",
    "UsageEntry",
    "usage_entries",
]
