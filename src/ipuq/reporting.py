"""Turn persisted run records into metric inputs and fixed-column CSV rows."""

from __future__ import annotations

import csv
import logging
import math
import statistics
from collections import defaultdict
from typing import Any, Iterable, Sequence

from .campaign import RECORDS, candidates_from_dict, payload_from_dict, usage_entries
from .core import PrecisePMF, build_pmf
from .elicit.client import ModelEndpoint
from .metrics import (
    AllRefsTiedError,
    DegenerateLabelsError,
    ScoredExample,
    auroc,
    concordance_index,
    cost_report,
)
from .scores import ce_kl_decomposition, entropy

logger = logging.getLogger(__name__)

LABEL_AMBIGUOUS = "ambiguous"
LABEL_INCORRECT = "incorrect"
LABEL_KINDS = (LABEL_AMBIGUOUS, LABEL_INCORRECT)

REF_ENTROPY_PSTAR = "entropy_pstar"
REF_KL_PSTAR = "kl_pstar"
REF_KINDS = (REF_ENTROPY_PSTAR, REF_KL_PSTAR)

SCORE_FIELDS = ("first_order", "second_order", "combined")

METRIC_CSV_COLUMNS = ("method", "dataset", "metric", "value", "stderr", "n")
COST_CSV_COLUMNS = ("endpoint", "method", "input_tokens", "output_tokens", "currency")


def _record_score(record: dict[str, Any], score_field: str) -> float | None:
    if score_field not in SCORE_FIELDS:
        raise ValueError(f"unknown score field {score_field!r}; choose from {SCORE_FIELDS}")
    return record["scores"].get(score_field)


def _record_label(record: dict[str, Any], label_kind: str) -> int | None:
    labels = record["labels"]
    if label_kind == LABEL_AMBIGUOUS:
        return labels.get("ambiguous")
    if label_kind == LABEL_INCORRECT:
        correct = labels.get("correct")
        return None if correct is None else 1 - int(correct)
    raise ValueError(f"unknown label kind {label_kind!r}; choose from {LABEL_KINDS}")


def _predicted_pmf(record: dict[str, Any]) -> PrecisePMF | None:
    """The record's precise belief over its candidates, when the method has one."""
    payload_dict = record["elicitation"]["payload"]
    method = record["key"]["method"]
    belief = RECORDS[method].belief
    if payload_dict is None or belief is None:
        return None
    candidates = candidates_from_dict(record["candidates"])
    return belief(payload_from_dict(method, payload_dict, candidates))


def _pstar_reference(record: dict[str, Any], ref_kind: str) -> float | None:
    """Ground-truth proxy for one record, or None when not computable."""
    pstar = record.get("pstar")
    if not pstar:
        return None
    if ref_kind == REF_ENTROPY_PSTAR:
        total = sum(pstar)
        if total <= 0:
            return None
        return entropy([p / total for p in pstar])
    if ref_kind == REF_KL_PSTAR:
        predicted = _predicted_pmf(record)
        if predicted is None:
            return None
        candidates = predicted.candidates
        mass = [0.0] * len(candidates)
        matched = 0.0
        for answer, p in zip(record["truth_set"], pstar):
            idx = candidates.index_of(answer)
            if idx is not None:
                mass[idx] += p
                matched += p
        if matched <= 0:
            logger.debug(
                "record %s: no truth-set answer matches a candidate; skipping kl ref",
                record["key"],
            )
            return None
        reference = build_pmf(candidates, mass, renormalize=True)
        return ce_kl_decomposition(reference, predicted).kl_eu
    raise ValueError(f"unknown reference kind {ref_kind!r}; choose from {REF_KINDS}")


def examples_for_auroc(
    records: Iterable[dict[str, Any]], *, score_field: str, label_kind: str
) -> list[ScoredExample]:
    out = []
    for rec in records:
        score = _record_score(rec, score_field)
        label = _record_label(rec, label_kind)
        if score is None or label is None:
            continue
        out.append(ScoredExample(score=float(score), label=int(label)))
    return out


def examples_for_concordance(
    records: Iterable[dict[str, Any]], *, score_field: str, ref_kind: str
) -> list[ScoredExample]:
    out = []
    for rec in records:
        score = _record_score(rec, score_field)
        ref = _pstar_reference(rec, ref_kind)
        if score is None or ref is None:
            continue
        out.append(ScoredExample(score=float(score), label=0, ref_value=float(ref)))
    return out


def _group_records(
    records: Iterable[dict[str, Any]],
) -> dict[str, dict[int, list[dict[str, Any]]]]:
    grouped: dict[str, dict[int, list[dict[str, Any]]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for rec in records:
        key = rec["key"]
        grouped[key["method"]][key["seed"]].append(rec)
    return grouped


def _mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, statistics.stdev(values) / math.sqrt(len(values))


def metric_rows(
    records: Iterable[dict[str, Any]],
    metric: str,
    *,
    dataset: str,
    score_field: str = "first_order",
    label_kind: str = LABEL_AMBIGUOUS,
    ref_kind: str = REF_ENTROPY_PSTAR,
) -> list[dict[str, Any]]:
    """One CSV row per method: seed-level mean +/- standard error of a metric.

    Seeds whose slice is degenerate (one class only, or all references tied)
    are dropped from the aggregate; a method with no usable seed is skipped
    entirely, with a warning.
    """
    if metric not in ("auroc", "concordance"):
        raise ValueError(f"unknown metric {metric!r}")
    rows = []
    for method, by_seed in sorted(_group_records(records).items()):
        per_seed: list[float] = []
        used = 0
        for seed in sorted(by_seed):
            recs = by_seed[seed]
            try:
                if metric == "auroc":
                    examples = examples_for_auroc(
                        recs, score_field=score_field, label_kind=label_kind
                    )
                    value = auroc(examples)
                else:
                    examples = examples_for_concordance(
                        recs, score_field=score_field, ref_kind=ref_kind
                    )
                    value = concordance_index(examples)
            except (DegenerateLabelsError, AllRefsTiedError, ValueError) as exc:
                logger.warning("%s/%s seed %d skipped: %s", method, metric, seed, exc)
                continue
            per_seed.append(value)
            used += len(examples)
        if not per_seed:
            logger.warning("%s: no seed produced a %s value", method, metric)
            continue
        mean, stderr = _mean_stderr(per_seed)
        rows.append(
            {
                "method": method,
                "dataset": dataset,
                "metric": metric,
                "value": mean,
                "stderr": stderr,
                "n": used,
            }
        )
    return rows


def write_metric_csv(rows: Iterable[dict[str, Any]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(METRIC_CSV_COLUMNS))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def cost_rows(
    records: Iterable[dict[str, Any]], endpoints: Sequence[ModelEndpoint]
) -> list[dict[str, Any]]:
    """Per (endpoint, method) cost lines plus per-endpoint totals."""
    ledger = cost_report(usage_entries(records), endpoints)
    rows = []
    for (endpoint_key, method), row in sorted(ledger.rows.items()):
        rows.append(
            {
                "endpoint": endpoint_key,
                "method": method,
                "input_tokens": row.input_tokens,
                "output_tokens": row.output_tokens,
                "currency": row.currency,
            }
        )
    for endpoint_key, row in sorted(ledger.endpoint_totals().items()):
        rows.append(
            {
                "endpoint": endpoint_key,
                "method": "__total__",
                "input_tokens": row.input_tokens,
                "output_tokens": row.output_tokens,
                "currency": row.currency,
            }
        )
    return rows


def write_cost_csv(rows: Iterable[dict[str, Any]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(COST_CSV_COLUMNS))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


__all__ = [
    "LABEL_AMBIGUOUS",
    "LABEL_INCORRECT",
    "LABEL_KINDS",
    "REF_ENTROPY_PSTAR",
    "REF_KL_PSTAR",
    "REF_KINDS",
    "SCORE_FIELDS",
    "METRIC_CSV_COLUMNS",
    "COST_CSV_COLUMNS",
    "examples_for_auroc",
    "examples_for_concordance",
    "metric_rows",
    "write_metric_csv",
    "cost_rows",
    "write_cost_csv",
]
