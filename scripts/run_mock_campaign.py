#!/usr/bin/env python3
"""Full campaign demo against a local mock endpoint, no network required.

Starts the deterministic mock server on a free port, runs all five
elicitation methods over a small synthetic dataset, then reads the
records file back to print per-method score summaries and token usage.
Run it twice with the same --output-dir to watch the resume logic skip
everything already recorded.
"""

import argparse
import statistics
from collections import defaultdict

from ipuq.campaign import (
    CampaignConfig,
    DatasetSource,
    METHODS,
    load_run_records,
    records_path,
    run_campaign,
)
from ipuq.elicit.client import ModelEndpoint
from ipuq.mock import AgentConfig, MockScript, start_mock_server
from ipuq.synth import TransformSpec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=6, help="synthetic questions")
    ap.add_argument("--noise-p", type=float, default=0.25)
    ap.add_argument("--m", type=int, default=4)
    ap.add_argument("--seeds", default="0,1")
    ap.add_argument("--credal-members", type=int, default=3)
    ap.add_argument("--output-dir", default="runs/mock-demo")
    args = ap.parse_args()

    script = MockScript(agent=AgentConfig(noise_p=args.noise_p))
    server, base_url = start_mock_server(script)
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
            endpoints=(ModelEndpoint(base_url=base_url, model_id="mock-agent"),),
            seeds=tuple(int(s) for s in args.seeds.split(",")),
            credal_members=args.credal_members,
            output_dir=args.output_dir,
        )
        written = run_campaign(config)
    finally:
        server.shutdown()

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


if __name__ == "__main__":
    main()
