#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report the spread.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--out FILE]

Runs ``run.py --trace 0`` once per seed (1..runs) for each workload, one run
at a time, and prints per end-to-end metric the median, the interquartile
range as a share of the median (``statistics.quantiles(values, n=4)``) and
the metric's bound from ``BENCHMARK.json``.  A spread above a third of the
bound is marked ``WIDE``; above the bound, ``FAIL`` (the set-up time's spread
is reported but not judged).  ``--out`` saves every value, so two sets can be
compared with ``--against``, which checks that no median got worse than the
saved one by more than the bound.  Exits 1 if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in args.workload or names:
        values[workload] = {name: [] for name in metrics}
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else {}
            if out.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: bad run (exit {out.returncode})\n{out.stderr}")
                ok = False
                continue
            for name in metrics:
                values[workload][name].append(result["metrics"][name]["value"])
        print(f"\n{workload}")
        for name, m in metrics.items():
            vals = values[workload][name]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok"
            if name != "setup_s" and spread > m["bound"]:
                verdict = "FAIL"
            elif name != "setup_s" and spread > m["bound"] / 3:
                verdict = "WIDE"
            ok &= verdict != "FAIL"
            print(f"  {name:20s} median {med:14.6f} {m['unit']:10s} spread {spread:7.4f} "
                  f"bound {m['bound']:.2f} {verdict}")
    if args.out:
        args.out.write_text(json.dumps(values, indent=1))
    if args.against:
        before = json.loads(args.against.read_text())
        for workload, by_metric in values.items():
            for name, vals in by_metric.items():
                if not vals or not before.get(workload, {}).get(name):
                    continue
                m = metrics[name]
                old, new = statistics.median(before[workload][name]), statistics.median(vals)
                worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
                if worse > m["bound"]:
                    ok = False
                    print(f"{workload} {name}: median worse by {worse:.3f} > bound {m['bound']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
