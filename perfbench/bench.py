"""Workloads, timed rounds, correctness checks and metrics of the benchmark.

One run builds its fixtures (the replay table, the records-eval QA file),
measures set-up, then repeats *rounds* until the time budget is spent.  A
round is the whole user-visible pipeline on the workload's inputs:

1. ``run_campaign`` into a fresh records file (``cells_per_s``);
2. ``run_campaign`` again on the now complete file (``resume_s``);
3. load, rescore every record, AUROC and concordance rows over the three
   score fields, cost rows (``eval_records_per_s``).

Steps 2 and 3 run ``REPEATS`` times each.  End-to-end metrics are
medians over rounds.  With tracing on, untraced and
traced rounds alternate; per-layer figures come from the traced ones and
their wall time against the untraced ones gives the tracing overhead.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import ipuq.campaign as C
import ipuq.datasets as D
import ipuq.elicit.loop as L
import ipuq.reporting as R
from ipuq.coherence import ALL_ZERO, LOWER_SUM, NEGATIVE, SUM, UPPER_SUM, VALUE_RANGE
from ipuq.elicit.client import ChatClient, ModelEndpoint
from ipuq.elicit.loop import INVERTED, RetriesExhaustedError
from ipuq.elicit.parsing import ParseError
from ipuq.mock import AgentConfig, MockScript, MockTransport
from ipuq.synth import TransformSpec

from tracing import Tracer
from transports import FaultInjector, ReplayTransport

VIOLATION_CODES = (NEGATIVE, VALUE_RANGE, SUM, LOWER_SUM, UPPER_SUM, ALL_ZERO, INVERTED)
EVAL_METRICS = ("auroc", "concordance")
CAMPAIGN_SEEDS = (0, 1)
CREDAL_MEMBERS = 5
SCORE_TOL = 1e-12
SETUP_SAMPLES = 5
MIN_ROUNDS = 3
# Each round runs the resume and the eval this many times back to back and
# times each batch as one sample: one resume or eval takes well under a
# second, and samples that short spread widely between runs on a shared
# machine.
REPEATS = 3
REPLAY_URL = "replay://in-process/v1/chat/completions"


@dataclass(frozen=True)
class Workload:
    """One input set, served by recorded mock replies behind the fault
    injector."""

    name: str
    dataset: str
    questions: int
    tiny_questions: int
    score_mode: str = C.MODE_AUTO


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload exists: BENCHMARK.json and README.md.
        Workload("inproc-set", dataset="synth", questions=40, tiny_questions=1,
                 score_mode=C.MODE_SET),
        Workload("records-eval", dataset="maqa", questions=120, tiny_questions=12),
    )
}


def write_maqa_file(path: Path, rows: int, seed: int) -> None:
    """A seeded ``maqa_like`` file: 1-5 answers per question in mixed casing,
    a random p* over them and a randomly chosen reference answer.

    Answer counts cycle through 1-5 rather than being drawn, so the file's
    size, and the work it makes, hardly depend on the seed.
    """
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(rows):
            answers: list[str] = []
            while len(answers) < 1 + i % 5:
                word = "".join(
                    rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(3, 8))
                )
                word = "".join(c.upper() if rng.random() < 0.4 else c for c in word)
                if word.casefold() not in {a.casefold() for a in answers}:
                    answers.append(word)
            weights = [rng.random() + 0.05 for _ in answers]
            row = {
                "id": f"q{i:05d}",
                "question": f"Which word does clue {i} ({rng.randint(0, 10**6)}) point to?",
                "answers": answers,
                "pstar": [w / sum(weights) for w in weights],
                "reference": rng.choice(answers),
            }
            fh.write(json.dumps(row) + "\n")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def digest(obj) -> str:
    """SHA-256 of ``obj`` as canonical JSON."""
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


def records_digest(records: list[dict]) -> str:
    """:func:`digest` of the records without their ``timing``."""
    return digest([{k: v for k, v in rec.items() if k != "timing"} for rec in records])


def _scores_match(stored: dict, recomputed: dict) -> bool:
    for name in ("first_order", "second_order", "combined"):
        a, b = stored.get(name), recomputed.get(name)
        if (a is None) != (b is None) or (a is not None and abs(a - b) > SCORE_TOL):
            return False
    return True


@dataclass
class Round:
    traced: bool
    campaign_s: float
    resume_s: float
    eval_s: float
    cells: int
    failed_cells: int
    tokens: int
    attempts: int
    served: tuple[int, int, int]
    usage: tuple[int, int]
    cpu_s: float
    records: int
    resumed: int
    rescore_failures: int
    score_mismatches: int
    digest: str
    rows_digests: set[str]
    file_bytes: int
    replay_misses: int
    violations: Counter = field(default_factory=Counter)

    @property
    def wall_s(self) -> float:
        return self.campaign_s + (self.resume_s + self.eval_s) * REPEATS


class Bench:
    """Fixtures, endpoint and rounds of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, src: Path, work: Path):
        self.w = workload
        self.seed = seed
        self.src = src
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        questions = workload.tiny_questions if tiny else workload.questions
        if workload.dataset == "maqa":
            qa_path = work / "qa.jsonl"
            write_maqa_file(qa_path, questions, seed)
            self.source = C.DatasetSource(kind=C.DATASET_QA_FILE, path=str(qa_path),
                                          format=D.FORMAT_MAQA)
        else:
            self.source = C.DatasetSource(
                kind=C.DATASET_SYNTH,
                transform=TransformSpec(steps=(("rotation", 1 + seed % 25),)),
                count=questions,
                word_length=4,
                base_seed=seed * 1000,
            )
        questions = len(C.load_dataset(self.source))
        self.expected_cells = questions * len(C.METHODS) * len(CAMPAIGN_SEEDS)
        self.rounds = 0

    # -- endpoint ---------------------------------------------------------

    def open_endpoint(self) -> None:
        """Fill the replay table from a live pass, whose records are the
        reference every timed round must reproduce."""
        self.replay = ReplayTransport(MockTransport(MockScript(agent=AgentConfig())))
        self.injector = FaultInjector(self.replay, self.seed)
        self.client = ChatClient(self.injector)
        live = self.work / "live"
        C.run_campaign(self.config(live), client=self.client)
        records = C.load_run_records(C.records_path(str(live)))
        self.reference_digest = records_digest(records)
        shutil.rmtree(live)
        self.fill_misses = self.replay.misses

    def config(self, out: Path) -> C.CampaignConfig:
        return C.CampaignConfig(
            dataset=self.source,
            methods=C.METHODS,
            endpoints=(ModelEndpoint(base_url=REPLAY_URL, model_id="mock-agent"),),
            seeds=CAMPAIGN_SEEDS,
            credal_members=CREDAL_MEMBERS,
            score_mode=self.w.score_mode,
            output_dir=str(out),
        )

    # -- set-up -----------------------------------------------------------

    def setup_samples(self, count: int) -> list[float]:
        """Seconds of import + ``load_dataset``, each in a fresh process."""
        env = dict(os.environ, PYTHONPATH=str(self.src))
        spec = json.dumps(self.source.to_dict())
        samples = []
        for _ in range(count):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("probe.py")), spec],
                capture_output=True, text=True, check=True, env=env, timeout=120,
            )
            probe = json.loads(out.stdout)
            samples.append(probe["import_s"] + probe["load_s"])
        return samples

    # -- rounds -----------------------------------------------------------

    def round(self, tracer: Tracer | None = None) -> Round:
        out = self.work / f"round{self.rounds}"
        self.rounds += 1
        config = self.config(out)
        path = C.records_path(str(out))
        served0 = self.injector.served()
        misses0 = self.replay.misses
        with tracer.patches() if tracer else nullcontext():
            if tracer:
                instrument(tracer, self.client)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            written = C.run_campaign(config, client=self.client)
            t1 = time.perf_counter()
            cpu_s = time.process_time() - cpu0
            resumed = 0
            for _ in range(REPEATS):
                resumed += len(C.run_campaign(config, client=self.client))
            t2 = time.perf_counter()
            outputs = []
            for _ in range(REPEATS):
                records = C.load_run_records(path)
                rescored, rescore_failures = _rescore(records)
                rows = [
                    R.metric_rows(records, metric, dataset=self.w.name, score_field=score_field)
                    for metric in EVAL_METRICS
                    for score_field in R.SCORE_FIELDS
                ]
                outputs.append([rows, R.cost_rows(records, config.endpoints)])
            t3 = time.perf_counter()
        served1 = self.injector.served()
        usage = (
            sum(r["elicitation"]["usage"]["input_tokens"] for r in written),
            sum(r["elicitation"]["usage"]["output_tokens"] for r in written),
        )
        result = Round(
            traced=tracer is not None,
            campaign_s=t1 - t0,
            resume_s=(t2 - t1) / REPEATS,
            eval_s=(t3 - t2) / REPEATS,
            cells=len(written),
            failed_cells=sum(1 for r in written if not r["elicitation"]["succeeded"]),
            tokens=sum(usage),
            attempts=sum(r["elicitation"]["attempts"] for r in written),
            served=tuple(b - a for a, b in zip(served0, served1)),
            usage=usage,
            cpu_s=cpu_s,
            records=len(records),
            resumed=resumed,
            rescore_failures=rescore_failures,
            score_mismatches=sum(
                1 for rec, new in zip(records, rescored)
                if new is not None and not _scores_match(rec["scores"], new)
            ),
            digest=records_digest(records),
            rows_digests={digest(output) for output in outputs},
            file_bytes=Path(path).stat().st_size,
            replay_misses=self.replay.misses - misses0,
            violations=_violations(records),
        )
        shutil.rmtree(out)
        return result


def _rescore(records: list[dict]) -> tuple[list[dict | None], int]:
    out: list[dict | None] = []
    failures = 0
    for rec in records:
        try:
            out.append(C.recompute_scores(rec))
        except Exception as exc:  # counted as a failed eval operation
            print(f"rescoring {rec['key']} failed: {exc!r}", file=sys.stderr)
            out.append(None)
            failures += 1
    return out, failures


def _violations(records: list[dict]) -> Counter:
    counts: Counter = Counter()
    for rec in records:
        for member in rec["elicitation"]["verdicts"]:
            for attempt in member["attempts"]:
                for v in attempt.get("violations", ()):
                    counts[v["code"]] += 1
    return counts


# -- correctness ----------------------------------------------------------


def check(bench: Bench, rounds: list[Round]) -> list[str]:
    """Every failed correctness check, as one line each."""
    problems = []
    for i, r in enumerate(rounds):
        where = f"round {i}"
        if r.cells != bench.expected_cells or r.records != r.cells:
            problems.append(f"{where}: {r.cells} cells, {r.records} records, "
                            f"expected {bench.expected_cells}")
        if r.resumed:
            problems.append(f"{where}: resume re-ran {r.resumed} cells")
        if r.digest != bench.reference_digest:
            problems.append(f"{where}: records differ from the live-mock run")
        if r.served != (r.attempts, *r.usage):
            problems.append(f"{where}: served (requests, in, out) {r.served} != "
                            f"records {(r.attempts, *r.usage)}")
        if r.score_mismatches:
            problems.append(f"{where}: {r.score_mismatches} scores do not recompute")
        if r.rows_digests != rounds[0].rows_digests or len(r.rows_digests) != 1:
            problems.append(f"{where}: eval rows differ between repeats or from round 0")
    return problems


# -- metrics --------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(rounds: list[Round], setup: list[float],
               peak_mb: float) -> dict[str, tuple[float, str]]:
    med = statistics.median
    return {
        "cells_per_s": (med(r.cells / r.campaign_s for r in rounds), "cells/s"),
        "tokens_per_cell": (med(r.tokens / r.cells for r in rounds), "tokens"),
        "eval_records_per_s": (med(r.records / r.eval_s for r in rounds), "records/s"),
        "resume_s": (med(r.resume_s for r in rounds), "s"),
        "setup_s": (med(setup), "s"),
        "peak_rss_mb": (peak_mb, "MiB"),
    }


def _cell_key(fn, kind_of):
    signature = inspect.signature(fn)

    def key(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        kind, seed = kind_of(bound)
        return f"{zlib.crc32(bound['question'].encode()):08x}/{kind}/{seed}"

    return key


def instrument(tracer: Tracer, client: ChatClient) -> None:
    """Wrap the public functions of each layer where their caller looks them up."""
    t = tracer

    def loop_done(result, args, kwargs):
        t.count("loop.attempts", result.attempts)
        t.count("loop.verified")

    def loop_failed(exc, args, kwargs):
        if isinstance(exc, RetriesExhaustedError):
            t.count("loop.attempts", exc.result.attempts)
            t.count("loop.retries_exhausted")

    def parse_failed(exc, args, kwargs):
        if isinstance(exc, ParseError):
            t.count("parsing.parse_errors")

    def slice_skipped(exc, args, kwargs):
        t.count("reporting.skipped_slices")

    def writer_lag(args, kwargs):
        now = time.time()
        for rec in args[1]:
            timing = rec["timing"]
            t.sample("campaign.writer_lag", now - timing["started_unix"] - timing["elapsed_s"])

    def pairs(args, kwargs):
        n = len(args[0])
        t.count("metrics.concordance.pairs", n * (n - 1) // 2)

    t.patch(L, "render_prompt", "prompts.render")
    t.patch(ChatClient, "complete", "client.send")
    t.count_calls(client.transport, "send", "client.transport_sends")
    t.patch(L, "parse_structured_report", "parsing.parse", on_raise=parse_failed)
    for name in ("verify_axioms", "verify_interval_coherence", "normalize_possibility"):
        t.patch(L, name, "coherence.verify")
    t.patch(L, "elicit_with_retry", "loop.elicit", on_return=loop_done, on_raise=loop_failed)
    t.patch(C, "elicit_with_retry", "loop.elicit", on_return=loop_done, on_raise=loop_failed,
            cell=_cell_key(C.elicit_with_retry,
                           lambda b: (b["kind"].value, b["endpoint"].seed)))
    t.patch(C, "elicit_credal_ensemble", "loop.credal_cell",
            cell=_cell_key(C.elicit_credal_ensemble,
                           lambda b: ("credal", b["members"][0].seed // 100)))
    t.patch(C, "exact_mmi_credal", "mmi.exact_credal",
            on_return=lambda r, a, k: t.count("mmi.events_enumerated", r.event_count or 0))
    t.patch(C, "score_payload", "scores")
    t.patch(C, "decide", "decision")
    t.patch(C, "canonical_json", "campaign.serialize")
    t.patch(C, "append_records", "campaign.append", before=writer_lag)
    t.patch(C, "existing_keys", "campaign.existing_keys")
    t.patch(C, "load_run_records", "campaign.load_run_records")
    t.patch(C, "recompute_scores", "campaign.recompute_scores")
    t.patch(C, "build_synth_records", "synth.build")
    t.patch(D, "ingest_qa_dataset", "datasets.ingest")
    t.patch(R, "auroc", "metrics.auroc", on_raise=slice_skipped)
    t.patch(R, "concordance_index", "metrics.concordance", before=pairs, on_raise=slice_skipped)
    t.patch(R, "metric_rows", "reporting.metric_rows")
    t.patch(R, "cost_rows", "reporting.cost_rows")


def _pct_ms(values: list[float], q: float) -> float:
    """Nearest-rank percentile, in milliseconds (0 with no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)] * 1000


def per_layer(bench: Bench, tracer: Tracer, rounds: list[Round]) -> dict[str, tuple[float, str]]:
    """Per-layer figures per traced round; ``ms`` figures are summed span time."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    spans = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return (len(spans.get(name, ((), 0.0))[0]) / n, "count")

    def self_ms(name):
        return (spans.get(name, ((), 0.0))[1] * 1000 / n, "ms")

    def total_ms(name):
        return (sum(spans.get(name, ((), 0.0))[0]) * 1000 / n, "ms")

    def per_round(counter):
        return (counts[counter] / n, "count")

    sends = spans.get("client.send", ([], 0.0))[0]
    attempts = counts["loop.attempts"]
    mock_cpu_ms = bench.replay.live_cpu_s * 1000 / max(bench.fill_misses, 1)
    lags = tracer.samples["campaign.writer_lag"]
    metrics = {
        "prompts.render.calls": calls("prompts.render"),
        "prompts.render.self_ms": self_ms("prompts.render"),
        "client.send.calls": calls("client.send"),
        "client.send.p50_ms": (_pct_ms(sends, 50), "ms"),
        "client.send.p99_ms": (_pct_ms(sends, 99), "ms"),
        "client.send.self_ms": self_ms("client.send"),
        "client.requests_per_s": (len(sends) / sum(r.campaign_s for r in traced), "1/s"),
        "client.transport_retries": (
            (counts["client.transport_sends"] - len(sends)) / n, "count"),
        "mock.cpu_ms_per_request": (mock_cpu_ms, "ms"),
        "replay.misses": (sum(r.replay_misses for r in rounds) / len(rounds), "count"),
        "parsing.parse.calls": calls("parsing.parse"),
        "parsing.parse.self_ms": self_ms("parsing.parse"),
        "parsing.parse_errors": per_round("parsing.parse_errors"),
        "coherence.verify.self_ms": self_ms("coherence.verify"),
        **{
            f"coherence.violations.{code}": (sum(r.violations[code] for r in traced) / n, "count")
            for code in VIOLATION_CODES
        },
        "loop.attempts": per_round("loop.attempts"),
        "loop.useful_attempt_ratio": (counts["loop.verified"] / max(attempts, 1), "ratio"),
        "loop.retries_exhausted": per_round("loop.retries_exhausted"),
        "loop.credal_cell_ms.p50": (_pct_ms(spans.get("loop.credal_cell", ([], 0))[0], 50), "ms"),
        "mmi.exact_credal.calls": calls("mmi.exact_credal"),
        "mmi.exact_credal.self_ms": self_ms("mmi.exact_credal"),
        "mmi.events_enumerated": per_round("mmi.events_enumerated"),
        "scores.self_ms": self_ms("scores"),
        "decision.self_ms": self_ms("decision"),
        "campaign.serialize.self_ms": self_ms("campaign.serialize"),
        "campaign.append.calls": calls("campaign.append"),
        "campaign.append.self_ms": self_ms("campaign.append"),
        "campaign.records_bytes_per_cell": (
            sum(r.file_bytes for r in rounds) / sum(r.records for r in rounds), "bytes"),
        "campaign.writer_lag_ms.p50": (_pct_ms(lags, 50), "ms"),
        "campaign.writer_lag_ms.p99": (_pct_ms(lags, 99), "ms"),
        "campaign.cpu_ms_per_cell": (
            sum(r.cpu_s for r in plain) * 1000 / sum(r.cells for r in plain), "ms"),
        "campaign.existing_keys.ms": total_ms("campaign.existing_keys"),
        "campaign.load_run_records.ms": total_ms("campaign.load_run_records"),
        "campaign.recompute_scores.ms": total_ms("campaign.recompute_scores"),
        "synth.build.ms": total_ms("synth.build"),
        "datasets.ingest.ms": total_ms("datasets.ingest"),
        "metrics.auroc.ms": total_ms("metrics.auroc"),
        "metrics.concordance.ms": total_ms("metrics.concordance"),
        "metrics.concordance.pairs": per_round("metrics.concordance.pairs"),
        "reporting.metric_rows.self_ms": self_ms("reporting.metric_rows"),
        "reporting.skipped_slices": per_round("reporting.skipped_slices"),
        "reporting.cost_rows.ms": total_ms("reporting.cost_rows"),
        "trace.overhead_share": (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in plain) - 1, "ratio"),
    }
    return metrics


# -- one run --------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool, tiny: bool,
        src: Path, work: Path, spans_out: Path) -> dict:
    """Run one workload; returns the result document."""
    bench = Bench(workload, seed, tiny, src, work)
    min_rounds = 1 if tiny else MIN_ROUNDS
    setup = [] if trace else bench.setup_samples(1 if tiny else SETUP_SAMPLES)
    bench.open_endpoint()
    tracer = Tracer() if trace else None
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    if trace:
        min_rounds *= 2
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        rounds.append(bench.round(tracer if trace and len(rounds) % 2 else None))
        if len(rounds) == 1:
            # Freed memory fragments, so the peak creeps up with every
            # further round; how many rounds fit in the run depends on
            # the machine's speed, so memory is taken after the first.
            peak_mb = peak_rss_mb()
    if trace:
        metrics = per_layer(bench, tracer, rounds)
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_out)
    else:
        metrics = end_to_end(rounds, setup, peak_mb)
    problems = check(bench, rounds)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"records-digest {workload.name} seed={seed} {rounds[0].digest}")
    print(f"eval-rows-digest {workload.name} seed={seed} {min(rounds[0].rows_digests)}")
    print(f"rounds {len(rounds)}, cells per round {rounds[0].cells}, "
          f"records per round {rounds[0].records}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    attempted = sum(r.cells + r.records for r in rounds)
    failed = sum(r.failed_cells + r.rescore_failures for r in rounds)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
