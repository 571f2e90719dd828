#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload inproc-set --pairs 10 --seconds 45

Each pair runs ``perfbench/run.py`` (end-to-end metrics, tracing off) once
from each checkout with the same seed; pair ``i`` uses seed ``--seed + i``
and the side that runs first alternates from pair to pair.  For every
end-to-end metric in ``BENCHMARK.json`` the script prints each side's median
and quartiles and how many pairs the second checkout won, taking the
metric's better direction from that file; ties count for neither side.
After each metric it prints one verdict, in the first of these that holds:

  gain        b won at least 9 in 10 pairs and its median is better than a's
              by more than a's interquartile range;
  worse       b's median is worse than a's by more than the metric's bound,
              a fraction of a's median taken from ``BENCHMARK.json``;
  unresolved  a's interquartile range exceeds the bound and not every b run
              beats every a run;
  flat        otherwise.

It exits with status 1 when any run is not correct or has failed operations,
or when any metric's verdict is ``worse``.  A checkout without
``perfbench/run.py`` prints ``error:`` and exits 2 before any run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_side(checkout: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """One benchmark run from ``checkout``: its final JSON result line."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv + (["--tiny"] if tiny else []), cwd=checkout,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(a: list[float], b: list[float], won: int, sign: int, bound: float) -> str:
    """The verdict on one metric; ``sign`` is 1 when higher is better, else -1."""
    q1, median_a, q3 = quartiles(a)
    gap = sign * (quartiles(b)[1] - median_a)  # > 0 when b is better
    allowed = bound * abs(median_a)
    if 10 * won >= 9 * len(a) and gap > q3 - q1:
        return "gain"
    if -gap > allowed:
        return "worse"
    if q3 - q1 > allowed and not all(sign * (y - x) > 0 for x in a for y in b):
        return "unresolved"
    return "flat"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("a", type=Path, help="the first checkout, usually the parent commit")
    ap.add_argument("b", type=Path, help="the second checkout, usually the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    ap.add_argument("--tiny", action="store_true", help="a few cells per round, for smoke tests")
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = (args.a.resolve(), args.b.resolve())
    for checkout in sides:
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py in {checkout}", file=sys.stderr)
            return 2

    runs: list[tuple[dict, dict]] = []
    ok = True
    for i in range(args.pairs):
        seed = args.seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        pair = {}
        for side in order:
            result = run_side(sides[side], args.workload, seed, args.seconds, args.tiny)
            if not result["correct"] or result["failed"]:
                print(f"pair {i + 1} seed {seed} {'ab'[side]}: correct={result['correct']}, "
                      f"failed {result['failed']}/{result['attempted']}")
                ok = False
            pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
        runs.append((pair[0], pair[1]))
        print(f"pair {i + 1}/{args.pairs} seed {seed}, {'ab'[order[0]]} first", flush=True)

    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s runs: "
          "median [q1, q3] a -> b (b better in n pairs)")
    for metric in metrics:
        name = metric["name"]
        a = [pa[name] for pa, _ in runs]
        b = [pb[name] for _, pb in runs]
        sign = 1 if metric["better"] == "higher" else -1
        won = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
        print(f"  {name:20s} {ma:.6g} [{qa1:.6g}, {qa3:.6g}] -> "
              f"{mb:.6g} [{qb1:.6g}, {qb3:.6g}] ({won}/{len(runs)})")
        outcome = verdict(a, b, won, sign, metric["bound"])
        print(f"    verdict: {outcome}")
        ok = ok and outcome != "worse"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
