#!/usr/bin/env python3
"""Layered campaign benchmark for ipuq.

Run from the repository root:

    python3 perfbench/run.py --workload inproc-set --seed 1 --seconds 10 --trace 0

Prints a human-readable summary and, as its last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--tiny`` shrinks every workload to a few cells for smoke tests.  The
package is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import logging
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    if not (SRC / "ipuq" / "__init__.py").is_file():
        print(f"error: no ipuq package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=list(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few cells per round, for smoke tests")
    args = ap.parse_args(argv)
    # Degenerate eval slices log one warning each; keep the output readable.
    logging.getLogger("ipuq").setLevel(logging.ERROR)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    try:
        result = bench.run(
            bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.tiny,
            SRC, work, ROOT / ".bench_out" / f"spans-{tag}.jsonl",
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
