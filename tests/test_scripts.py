"""The scripts under ``scripts/`` run end to end on tiny arguments."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60, check=True,
    )


def test_synthetic_study_script(tmp_path):
    out = tmp_path / "study.csv"
    proc = run_script(
        "run_synthetic_study.py", "--p-grid", "0,0.5", "--m-grid", "1,5",
        "--repeats", "1", "--word-length", "3", "--out", str(out), cwd=tmp_path,
    )
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2  # methods x p x m
    assert f"wrote 8 rows to {out}" in proc.stdout


def test_mock_campaign_script_runs_then_resumes(tmp_path):
    args = ("--count", "1", "--seeds", "0", "--credal-members", "2",
            "--output-dir", str(tmp_path / "run"))
    first = run_script("run_mock_campaign.py", *args, cwd=tmp_path)
    assert "wrote 5 new records (5 total)" in first.stdout
    again = run_script("run_mock_campaign.py", *args, cwd=tmp_path)
    assert "wrote 0 new records (5 total)" in again.stdout


def test_bench_pairs_script_compares_two_checkouts(tmp_path):
    proc = run_script("bench_pairs.py", str(ROOT), str(ROOT), "--workload", "inproc-set",
                      "--pairs", "1", "--seconds", "0", "--tiny", cwd=tmp_path)
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["pair 1/1 seed 1, a first",
                         "inproc-set, 1 pairs of 0 s runs: "
                         "median [q1, q3] a -> b (b better in n pairs)"]
    metrics = [line.split()[0] for line in lines[2:]]
    assert metrics == ["cells_per_s", "tokens_per_cell", "eval_records_per_s", "resume_s",
                       "setup_s", "peak_rss_mb"]
    # the same checkout on both sides: tokens per cell are equal, so no side wins
    assert re.fullmatch(r"tokens_per_cell +([\d.]+) \[\1, \1\] -> \1 \[\1, \1\] \(0/1\)",
                        lines[3].strip())
