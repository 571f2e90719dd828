#!/usr/bin/env python3
"""Run the noise x examples grid against the built-in simulated agent.

The agent verbalizes its analytic beliefs, so the output should show the
two uncertainty axes moving independently: the first-order column reacts
to --p-grid only, the second-order column to --m-grid only.  The study is
``ipuq synth run``'s: it writes the CSV, and this script then prints a
small aligned table read back from it.  It exits with that command's
status: 2, after an ``error:`` line, for a grid or count the study
refuses, 3 when a grid cell recorded failed cells.
"""

import argparse
import csv
import sys

from ipuq.campaign import DatasetSource
from ipuq.cli import EXIT_OK, EXIT_PARTIAL
from ipuq.cli import main as ipuq_main
from ipuq.mock import AgentConfig


def _fixed(value: str, digits: int) -> str:
    return "-" if value == "" else f"{float(value):.{digits}f}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p-grid", default="0,0.25,0.5")
    ap.add_argument("--m-grid", default="1,5,20,80")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--word-length", type=int, default=DatasetSource.word_length)
    ap.add_argument("--width-c", type=float, default=AgentConfig.width_c)
    ap.add_argument("--base-seed", type=int, default=DatasetSource.base_seed)
    ap.add_argument("--out", default="study.csv")
    args = ap.parse_args()

    status = ipuq_main([
        "synth", "run", f"--p-grid={args.p_grid}", f"--m-grid={args.m_grid}",
        f"--repeats={args.repeats}", f"--word-length={args.word_length}",
        f"--agent-width-c={args.width_c!r}", f"--base-seed={args.base_seed}",
        f"--out={args.out}",
    ])
    if status not in (EXIT_OK, EXIT_PARTIAL):
        return status

    with open(args.out, encoding="utf-8", newline="") as fh:
        cells = list(csv.DictReader(fh))
    print(f"\n{'method':<10} {'p':>5} {'m':>4} {'first-order':>12} {'second-order':>13} {'err':>5}")
    for c in cells:
        first, second = _fixed(c["first_order_mean"], 4), _fixed(c["second_order_mean"], 4)
        err = _fixed(c["error_rate"], 2)
        print(f"{c['method']:<10} {float(c['p']):>5.2f} {int(c['m']):>4d} "
              f"{first:>12} {second:>13} {err:>5}")
    return status


if __name__ == "__main__":
    sys.exit(main())
