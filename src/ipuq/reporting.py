"""Turn persisted run records into fixed-column metric and cost CSV rows."""

from __future__ import annotations

import csv
import logging
import math
import statistics
from collections import defaultdict
from functools import partial
from typing import Any, Iterable, Sequence

from .campaign import (
    RECORDS,
    SCORE_FIELDS,
    RecordsSchemaError,
    candidates_from_dict,
    decode_record_payload,
)
from .core import ConfigError, PrecisePMF, build_pmf
from .elicit.client import ModelEndpoint
from .metrics import AllRefsTiedError, DegenerateLabelsError, auroc, concordance_index
from .scores import ce_kl_decomposition, entropy

logger = logging.getLogger(__name__)

LABEL_AMBIGUOUS = "ambiguous"
LABEL_INCORRECT = "incorrect"
LABEL_KINDS = (LABEL_AMBIGUOUS, LABEL_INCORRECT)

REF_ENTROPY_PSTAR = "entropy_pstar"
REF_KL_PSTAR = "kl_pstar"
REF_KINDS = (REF_ENTROPY_PSTAR, REF_KL_PSTAR)

METRIC_CSV_COLUMNS = ("method", "dataset", "metric", "value", "stderr", "n")
COST_CSV_COLUMNS = ("endpoint", "method", "input_tokens", "output_tokens", "currency")


def _check_choice(what: str, value: str, choices: Sequence[str]) -> None:
    if value not in choices:
        raise ValueError(f"unknown {what} {value!r}; choose from {choices}")


def record_label(record: dict[str, Any], label_kind: str) -> int | None:
    """A record's 0/1 label from what it stores: ``ambiguous`` is 1 when the truth
    set holds more than one answer; ``incorrect`` is 1 when the prediction does not
    match ``reference_answer`` under the candidate set's rule, None when either is null."""
    if label_kind == LABEL_AMBIGUOUS:
        return int(len(record["truth_set"]) > 1)
    prediction, reference = record.get("prediction"), record.get("reference_answer")
    if prediction is None or reference is None:
        return None
    try:
        candidates = candidates_from_dict(record["candidates"])
    except ValueError as exc:  # e.g. no answer, or a blank one
        key = record["key"]
        raise RecordsSchemaError(f"record {key['question_id']}/{key['method']}/{key['seed']}: "
                                 f"candidates do not build ({exc})") from exc
    return 1 - candidates.matches(prediction, reference)


def _predicted_pmf(record: dict[str, Any]) -> PrecisePMF | None:
    """The record's precise belief over its candidates, when the method has one."""
    belief = RECORDS[record["key"]["method"]].belief
    if record["elicitation"]["payload"] is None or belief is None:
        return None
    return belief(decode_record_payload(record)[1])


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
    entirely, with a warning.  Any other error fails the call:
    :func:`~ipuq.campaign.load_run_records` refuses a record whose answers,
    scores or p* eval cannot read.
    """
    _check_choice("metric", metric, ("auroc", "concordance"))
    _check_choice("score field", score_field, SCORE_FIELDS)
    _check_choice("label kind", label_kind, LABEL_KINDS)
    _check_choice("reference kind", ref_kind, REF_KINDS)
    if metric == "auroc":
        metric_of, target_of, cast = auroc, partial(record_label, label_kind=label_kind), int
    else:
        metric_of, target_of, cast = (
            concordance_index, partial(_pstar_reference, ref_kind=ref_kind), float)
    rows = []
    for method, by_seed in sorted(_group_records(records).items()):
        per_seed: list[float] = []
        used = 0
        for seed in sorted(by_seed):
            # every target is computed, so a record that eval cannot read fails the call
            pairs = []
            for rec in by_seed[seed]:
                target = target_of(rec)
                score = rec["scores"].get(score_field)
                if score is not None and target is not None:
                    pairs.append((float(score), cast(target)))
            try:
                per_seed.append(metric_of(pairs))
            except (DegenerateLabelsError, AllRefsTiedError) as exc:
                logger.warning("%s/%s seed %d skipped: %s", method, metric, seed, exc)
                continue
            used += len(pairs)
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


def _add_usage(
    sums: dict[tuple[str, str], list], key: tuple[str, str], tin: int, tout: int, currency: float
) -> None:
    line = sums.setdefault(key, [0, 0, 0.0])
    line[0] += tin
    line[1] += tout
    line[2] += currency


def cost_rows(
    records: Iterable[dict[str, Any]], endpoints: Sequence[ModelEndpoint]
) -> list[dict[str, Any]]:
    """Per (endpoint, method) cost lines, sorted, then one ``__total__`` line
    per endpoint, sorted.

    Each record's usage is priced at its endpoint's per-token prices; a
    record whose endpoint is not among ``endpoints`` raises
    :class:`ConfigError` rather than being priced at zero.  Every
    sum starts at 0.0 and adds left to right: a line's over its records in
    record order, an endpoint's total over its lines in first-appearance order.
    """
    prices = {ep.key: (ep.price_per_input_token, ep.price_per_output_token) for ep in endpoints}
    lines: dict[tuple[str, str], list] = {}
    for rec in records:
        endpoint_key = rec["endpoint"]["key"]
        if endpoint_key not in prices:
            raise ConfigError(
                f"records name endpoint {endpoint_key!r}, which the config does not list; "
                f"it lists {sorted(prices)}")
        p_in, p_out = prices[endpoint_key]
        usage = rec["elicitation"]["usage"]
        tin, tout = usage["input_tokens"], usage["output_tokens"]
        currency = tin * p_in + tout * p_out
        _add_usage(lines, (endpoint_key, rec["key"]["method"]), tin, tout, currency)
    totals: dict[tuple[str, str], list] = {}
    for (endpoint_key, _), line in lines.items():
        _add_usage(totals, (endpoint_key, "__total__"), *line)
    return [dict(zip(COST_CSV_COLUMNS, (*key, *line)))
            for key, line in [*sorted(lines.items()), *sorted(totals.items())]]


def write_csv(rows: Iterable[dict[str, Any]], columns: Sequence[str], path: str) -> None:
    """Write ``rows`` under a ``columns`` header; a None value is an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)


__all__ = [
    "LABEL_AMBIGUOUS",
    "LABEL_INCORRECT",
    "LABEL_KINDS",
    "REF_ENTROPY_PSTAR",
    "REF_KL_PSTAR",
    "REF_KINDS",
    "METRIC_CSV_COLUMNS",
    "COST_CSV_COLUMNS",
    "record_label",
    "metric_rows",
    "cost_rows",
    "write_csv",
]
