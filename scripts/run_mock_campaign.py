#!/usr/bin/env python3
"""Full campaign demo against a local mock endpoint, no network required.

Starts the deterministic mock server on a free port, runs all five
elicitation methods over a small synthetic dataset, then reads the
records file back to print per-method score summaries and token usage.
Run it twice with the same --output-dir to watch the resume logic skip
everything already recorded.  A flag the campaign config refuses (a seed
listed twice or not an integer, a count below 1) prints ``error:`` and
exits 2 before the server starts.
"""

import argparse
import dataclasses
import statistics
import sys
from collections import defaultdict

from ipuq.campaign import (
    CampaignConfig,
    DatasetSource,
    METHODS,
    load_run_records,
    records_path,
    run_campaign,
)
from ipuq.core import ConfigError
from ipuq.elicit.client import ModelEndpoint
from ipuq.mock import AgentConfig, MockScript, start_mock_server
from ipuq.synth import TransformSpec


def _seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"--seeds takes comma-separated integers, got {text!r}") from None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=6, help="synthetic questions")
    ap.add_argument("--noise-p", type=float, default=0.25)
    ap.add_argument("--m", type=int, default=4)
    ap.add_argument("--seeds", default="0,1")
    ap.add_argument("--credal-members", type=int, default=3)
    ap.add_argument("--output-dir", default="runs/mock-demo")
    args = ap.parse_args()

    try:
        config = CampaignConfig(
            dataset=DatasetSource(
                kind="synth",
                transform=TransformSpec(steps=(("rotation", 1),)),
                noise_p=args.noise_p,
                m=args.m,
                count=args.count,
            ),
            methods=METHODS,
            # replaced by the server's URL once it has started
            endpoints=(ModelEndpoint(base_url="http://127.0.0.1", model_id="mock-agent"),),
            seeds=_seeds(args.seeds),
            credal_members=args.credal_members,
            output_dir=args.output_dir,
        )
        script = MockScript(agent=AgentConfig(noise_p=args.noise_p))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    server, base_url = start_mock_server(script)
    try:
        endpoint = dataclasses.replace(config.endpoints[0], base_url=base_url)
        written = run_campaign(dataclasses.replace(config, endpoints=(endpoint,)))
    finally:
        server.shutdown()
        server.server_close()

    path = records_path(args.output_dir)
    records = load_run_records(path)
    print(f"wrote {len(written)} new records ({len(records)} total) to {path}\n")

    by_method = defaultdict(lambda: {"first": [], "second": [], "failed": 0})
    for rec in records:
        bucket = by_method[rec["key"]["method"]]
        if not rec["elicitation"]["succeeded"]:
            bucket["failed"] += 1
            continue
        for name, field in (("first", "first_order"), ("second", "second_order")):
            value = rec["scores"][field]
            if value is not None:
                bucket[name].append(value)

    print(f"{'method':<12} {'first-order':>12} {'second-order':>13} {'failed':>7}")
    for method in METHODS:
        bucket = by_method[method]
        fmt = lambda vs: f"{statistics.fmean(vs):.4f}" if vs else "-"  # noqa: E731
        print(f"{method:<12} {fmt(bucket['first']):>12} {fmt(bucket['second']):>13} "
              f"{bucket['failed']:>7d}")

    tokens_in = sum(rec["elicitation"]["usage"]["input_tokens"] for rec in records)
    tokens_out = sum(rec["elicitation"]["usage"]["output_tokens"] for rec in records)
    print(f"\ntokens: {tokens_in} in / {tokens_out} out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
