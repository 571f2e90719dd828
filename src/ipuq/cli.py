"""Command-line front end: ad-hoc elicitation, campaigns, synthetic studies,
record-level evaluation, and the local mock endpoint."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from typing import Sequence

from .campaign import (
    DATASET_SYNTH,
    MODE_SET,
    RECORDS,
    SCORE_FIELDS,
    CampaignConfig,
    DatasetSource,
    RecordsSchemaError,
    load_run_records,
    records_path,
    run_campaign,
    score_payload,
    synth_tasks,
)
from .core import CandidateSet, ConfigError, IpuqError
from .datasets import SchemaViolationError
from .elicit.client import ChatClient, ModelEndpoint
from .elicit.loop import ACCEPTANCE, DEFAULT_MAX_ATTEMPTS, RetriesExhaustedError, elicit_with_retry
from .elicit.prompts import KINDS_WITH_CANDIDATES, PromptKind
from .mock import AgentConfig, MockScript, serve_forever
from .reporting import (
    COST_CSV_COLUMNS,
    LABEL_AMBIGUOUS,
    LABEL_KINDS,
    METRIC_CSV_COLUMNS,
    REF_ENTROPY_PSTAR,
    REF_KINDS,
    cost_rows,
    metric_rows,
    write_csv,
)
from .study import (
    DEFAULT_STUDY_METHODS,
    STUDY_CSV_COLUMNS,
    run_synthetic_study,
    simulated_agent_client_factory,
)
from .synth import TransformSpec

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_DATASET = 2
EXIT_PARTIAL = 3


def _add_endpoint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--base-url", required=True, help="chat-completions URL")
    parser.add_argument("--model", required=True, help="model identifier")
    parser.add_argument(
        "--auth-env",
        default=None,
        help="name of the environment variable holding the bearer token",
    )
    parser.add_argument("--temperature", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=None)


def _endpoint_from_args(args: argparse.Namespace) -> ModelEndpoint:
    return ModelEndpoint(
        base_url=args.base_url,
        model_id=args.model,
        auth_token_env=args.auth_env,
        temperature=args.temperature or 0.0,  # ``synth run`` leaves it None when unset
        seed=args.seed,
    )


def _transform_from_args(args: argparse.Namespace) -> TransformSpec:
    return TransformSpec(
        steps=((args.transform, args.steps),), shift_direction=args.direction
    )


def _add_transform_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--transform", choices=("rotation", "cyclic_shift"), default="rotation"
    )
    parser.add_argument("--steps", type=int, default=1)
    parser.add_argument("--direction", choices=("left", "right"), default="left")


def _grid(flag: str, text: str, number: type) -> list:
    """The comma-separated numbers of a grid flag."""
    try:
        return [number(part) for part in text.split(",") if part.strip()]
    except ValueError:
        numbers = "integers" if number is int else "numbers"
        raise ConfigError(f"{flag} takes comma-separated {numbers}, got {text!r}") from None


def _write_rows(rows: list[dict], columns: Sequence[str], out: str | None) -> None:
    """CSV under ``columns`` to ``out`` when given, else one JSON line per row
    to stdout."""
    if out:
        write_csv(rows, columns, out)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        for row in rows:
            print(json.dumps(row, sort_keys=True))


# -------------------------------------------------------------------------
# Subcommand implementations
# -------------------------------------------------------------------------


def _cmd_elicit(args: argparse.Namespace) -> int:
    if args.max_attempts < 1:
        raise ConfigError(f"--max-attempts must be at least 1, got {args.max_attempts}")
    endpoint = _endpoint_from_args(args)
    kind = PromptKind(args.kind)
    candidates = None
    if args.candidate:
        try:
            candidates = CandidateSet(answers=tuple(args.candidate))
        except IpuqError as exc:  # a blank answer is a bad flag, not a failed elicitation
            raise ConfigError(f"--candidate: {exc}") from exc
    elif kind in KINDS_WITH_CANDIDATES:
        raise ConfigError(f"kind {kind.value!r} needs at least one --candidate")
    client = ChatClient()
    try:
        result = elicit_with_retry(
            client,
            endpoint,
            kind,
            args.question,
            candidates,
            max_attempts=args.max_attempts,
            salvage_renormalize=args.salvage,
        )
    except RetriesExhaustedError as exc:
        report = {
            "succeeded": False,
            "attempts": exc.result.attempts,
            "verdicts": [
                a.verdict.describe() if a.verdict is not None else f"parse error: {a.parse_error}"
                for a in exc.result.attempt_log
            ],
        }
        print(json.dumps(report, indent=2))
        return EXIT_FAILURE
    report = {"succeeded": True, "attempts": result.attempts, "salvaged": result.salvaged,
              "payload": ACCEPTANCE[kind].to_json(result.payload)}
    # only a method whose record payload is one loop's payload is scored: an
    # ensemble method's payload is built from several loops
    if kind.value in RECORDS and not RECORDS[kind.value].ensemble:
        first, second, _ = score_payload(kind.value, result.payload, mode=MODE_SET)
        report["scores"] = {"first_order": first, "second_order": second}
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _cmd_campaign(args: argparse.Namespace) -> int:
    config = CampaignConfig.load(args.config)
    path = records_path(config.output_dir)
    has_records = os.path.exists(path) and os.path.getsize(path) > 0
    if args.subcommand == "resume" and not has_records:
        print(f"error: nothing to resume at {path}", file=sys.stderr)
        return EXIT_DATASET
    if args.subcommand == "run" and has_records:
        print(
            f"error: records already exist at {path}; use `campaign resume`",
            file=sys.stderr,
        )
        return EXIT_DATASET
    written = run_campaign(config)
    failed = sum(1 for rec in written if not rec["elicitation"]["succeeded"])
    print(f"wrote {len(written)} records to {path} ({failed} failed)")
    return EXIT_PARTIAL if failed else EXIT_OK


def _cmd_synth_gen(args: argparse.Namespace) -> int:
    source = DatasetSource(kind=DATASET_SYNTH, transform=_transform_from_args(args),
                           noise_p=args.p, m=args.m, word_length=args.word_length,
                           count=args.count, base_seed=args.base_seed)
    lines = [
        json.dumps(task.to_dict(), sort_keys=True, ensure_ascii=False)
        for task in synth_tasks(source).values()
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.count} tasks to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_synth_run(args: argparse.Namespace) -> int:
    transform = _transform_from_args(args)
    if args.base_url and args.model is None:
        args.usage_error("--base-url needs --model")
    endpoint_flags = {"--model": args.model, "--auth-env": args.auth_env,
                      "--temperature": args.temperature, "--seed": args.seed}
    ignored = [flag for flag, value in endpoint_flags.items() if value is not None]
    if ignored and not args.base_url:
        args.usage_error(f"{', '.join(ignored)} need --base-url; "
                         "the in-process simulated agent would ignore them")
    if args.base_url:
        endpoint = _endpoint_from_args(args)
        client = ChatClient()
        factory = lambda p: client  # noqa: E731 - fixed client for every p
    else:
        endpoint = None
        factory = simulated_agent_client_factory(width_c=args.agent_width_c)
    cells = run_synthetic_study(
        transform,
        _grid("--p-grid", args.p_grid, float),
        _grid("--m-grid", args.m_grid, int),
        args.repeats,
        endpoint,
        client_factory=factory,
        methods=tuple(args.methods.split(",")),
        word_length=args.word_length,
        base_seed=args.base_seed,
        max_attempts=args.max_attempts,
    )
    _write_rows([dataclasses.asdict(cell) for cell in cells], STUDY_CSV_COLUMNS, args.out)
    return EXIT_PARTIAL if any(cell.n < args.repeats for cell in cells) else EXIT_OK


def _cmd_eval_metric(args: argparse.Namespace) -> int:
    records = load_run_records(args.records)
    rows = metric_rows(
        records,
        args.subcommand,
        dataset=args.dataset,
        score_field=args.score_field,
        **{args.target: getattr(args, args.target)},  # label_kind or ref_kind
    )
    _write_rows(rows, METRIC_CSV_COLUMNS, args.out)
    return EXIT_OK


def _cmd_eval_cost(args: argparse.Namespace) -> int:
    records = load_run_records(args.records)
    config = CampaignConfig.load(args.config)
    _write_rows(cost_rows(records, config.endpoints), COST_CSV_COLUMNS, args.out)
    return EXIT_OK


def _cmd_mock_serve(args: argparse.Namespace) -> int:
    serve_forever(MockScript.load(args.script), args.host, args.port)
    return EXIT_OK


# -------------------------------------------------------------------------
# Parser wiring
# -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipuq",
        description="Elicit, verify and score first- and second-order uncertainty "
        "reports from chat endpoints.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_elicit = sub.add_parser("elicit", help="elicit one question ad hoc")
    p_elicit.add_argument("--kind", required=True, choices=[k.value for k in PromptKind])
    p_elicit.add_argument("--question", required=True)
    p_elicit.add_argument(
        "--candidate",
        action="append",
        default=[],
        help="candidate answer (repeatable)",
    )
    p_elicit.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
    p_elicit.add_argument("--salvage", action="store_true")
    _add_endpoint_flags(p_elicit)
    p_elicit.set_defaults(func=_cmd_elicit)

    p_campaign = sub.add_parser("campaign", help="run or resume a recorded campaign")
    campaign_sub = p_campaign.add_subparsers(dest="subcommand", required=True)
    for name in ("run", "resume"):
        p = campaign_sub.add_parser(name)
        p.add_argument("--config", required=True, help="campaign config JSON file")
        p.set_defaults(func=_cmd_campaign)

    p_synth = sub.add_parser("synth", help="generate tasks or run the grid study")
    synth_sub = p_synth.add_subparsers(dest="subcommand", required=True)

    p_gen = synth_sub.add_parser("gen")
    _add_transform_flags(p_gen)
    p_gen.add_argument("--p", type=float, default=0.25)
    p_gen.add_argument("--m", type=int, default=4)
    p_gen.add_argument("--word-length", type=int, default=5)
    p_gen.add_argument("--count", type=int, default=10)
    p_gen.add_argument("--base-seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_synth_gen)

    p_run = synth_sub.add_parser("run")
    _add_transform_flags(p_run)
    p_run.add_argument("--p-grid", default="0,0.25,0.5")
    p_run.add_argument("--m-grid", default="1,5,20,80")
    p_run.add_argument("--repeats", type=int, default=5)
    p_run.add_argument("--word-length", type=int, default=DatasetSource.word_length)
    p_run.add_argument("--base-seed", type=int, default=DatasetSource.base_seed)
    p_run.add_argument("--max-attempts", type=int, default=CampaignConfig.retry_budget)
    p_run.add_argument("--methods", default=",".join(DEFAULT_STUDY_METHODS))
    p_run.add_argument(
        "--agent-width-c",
        type=float,
        default=AgentConfig.width_c,
        help="interval width constant for the in-process simulated agent",
    )
    p_run.add_argument("--base-url", default=None, help="use a real endpoint instead")
    p_run.add_argument("--model", default=None)
    p_run.add_argument("--auth-env", default=None)
    p_run.add_argument("--temperature", type=float, default=None, help="default 0.0")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_synth_run, usage_error=p_run.error)

    p_eval = sub.add_parser("eval", help="metrics over a records file")
    eval_sub = p_eval.add_subparsers(dest="subcommand", required=True)

    for metric, flag, target, choices, default in (
        ("auroc", "--label", "label_kind", LABEL_KINDS, LABEL_AMBIGUOUS),
        ("concordance", "--ref", "ref_kind", REF_KINDS, REF_ENTROPY_PSTAR),
    ):
        p = eval_sub.add_parser(metric)
        p.add_argument("--records", required=True)
        p.add_argument("--dataset", default="records")
        p.add_argument("--score-field", choices=SCORE_FIELDS, default="first_order")
        p.add_argument(flag, dest=target, choices=choices, default=default)
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_eval_metric, target=target)

    p_cost = eval_sub.add_parser("cost")
    p_cost.add_argument("--records", required=True)
    p_cost.add_argument("--config", required=True, help="config supplying token prices")
    p_cost.add_argument("--out", default=None)
    p_cost.set_defaults(func=_cmd_eval_cost)

    p_mock = sub.add_parser("mock", help="local deterministic endpoint")
    mock_sub = p_mock.add_subparsers(dest="subcommand", required=True)
    p_serve = mock_sub.add_parser("serve")
    p_serve.add_argument("--script", required=True, help="mock script JSON file")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8139)
    p_serve.set_defaults(func=_cmd_mock_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (SchemaViolationError, ConfigError, RecordsSchemaError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except IpuqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
