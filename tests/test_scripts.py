"""The demo scripts under ``scripts/`` run end to end on tiny arguments."""

import csv
import os
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
