#!/usr/bin/env python3
"""Run the noise x examples grid against the built-in simulated agent.

The agent verbalizes its analytic beliefs, so the output should show the
two uncertainty axes moving independently: the first-order column reacts
to --p-grid only, the second-order column to --m-grid only.  Writes a CSV
and prints a small aligned table.
"""

import argparse
import dataclasses

from ipuq.campaign import DatasetSource
from ipuq.mock import AgentConfig
from ipuq.reporting import write_csv
from ipuq.study import STUDY_CSV_COLUMNS, run_synthetic_study, simulated_agent_client_factory
from ipuq.synth import TransformSpec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p-grid", default="0,0.25,0.5")
    ap.add_argument("--m-grid", default="1,5,20,80")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--word-length", type=int, default=DatasetSource.word_length)
    ap.add_argument("--width-c", type=float, default=AgentConfig.width_c)
    ap.add_argument("--base-seed", type=int, default=DatasetSource.base_seed)
    ap.add_argument("--out", default="study.csv")
    args = ap.parse_args()

    cells = run_synthetic_study(
        TransformSpec(steps=(("rotation", 1),)),
        noise_grid=[float(x) for x in args.p_grid.split(",")],
        m_grid=[int(x) for x in args.m_grid.split(",")],
        repeats=args.repeats,
        client_factory=simulated_agent_client_factory(width_c=args.width_c),
        word_length=args.word_length,
        base_seed=args.base_seed,
    )
    write_csv(map(dataclasses.asdict, cells), STUDY_CSV_COLUMNS, args.out)

    print(f"{'method':<10} {'p':>5} {'m':>4} {'first-order':>12} {'second-order':>13} {'err':>5}")
    for c in cells:
        first = "-" if c.first_order_mean is None else f"{c.first_order_mean:.4f}"
        second = "-" if c.second_order_mean is None else f"{c.second_order_mean:.4f}"
        err = "-" if c.error_rate is None else f"{c.error_rate:.2f}"
        print(f"{c.method:<10} {c.p:>5.2f} {c.m:>4d} {first:>12} {second:>13} {err:>5}")
    print(f"\nwrote {len(cells)} rows to {args.out}")


if __name__ == "__main__":
    main()
