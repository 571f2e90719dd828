"""The scripts under ``scripts/`` run end to end on tiny arguments."""

import copy
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ipuq.campaign import (
    DATASET_SYNTH,
    CampaignConfig,
    DatasetSource,
    append_records,
    load_run_records,
    records_path,
    run_campaign,
)
from ipuq.elicit.client import ChatClient, ModelEndpoint
from ipuq.mock import AgentConfig, MockScript, MockTransport
from ipuq.synth import TransformSpec

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60, check=check,
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


def refused(proc, message, tmp_path):
    """``proc`` printed ``message`` as its one error line, exited 2 and
    wrote nothing under ``tmp_path``."""
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (("--p-grid", "abc"), "--p-grid takes comma-separated numbers, got 'abc'"),
    (("--p-grid", "0.25,0.25"), "p 0.25 is listed twice"),
    (("--repeats", "0"), "repeats must be >= 1, got 0"),
], ids=["grid not numbers", "grid value twice", "no repeats"])
def test_synthetic_study_script_refuses_a_bad_flag(tmp_path, args, message):
    proc = run_script("run_synthetic_study.py", *args, "--out", str(tmp_path / "study.csv"),
                      cwd=tmp_path, check=False)
    refused(proc, message, tmp_path)


@pytest.mark.parametrize("args, message", [
    (("--seeds", "0,0"), "seed 0 is listed twice"),
    (("--seeds", "x"), "--seeds takes comma-separated integers, got 'x'"),
    (("--count", "0"), "synth dataset needs m >= 0 and count >= 1, got m=4, count=0"),
], ids=["seed twice", "seed not an integer", "no questions"])
def test_mock_campaign_script_refuses_a_bad_flag(tmp_path, args, message):
    proc = run_script("run_mock_campaign.py", *args, "--output-dir", str(tmp_path / "run"),
                      cwd=tmp_path, check=False)
    refused(proc, message, tmp_path)


def test_mock_campaign_script_runs_then_resumes(tmp_path):
    args = ("--count", "1", "--seeds", "0", "--credal-members", "2",
            "--output-dir", str(tmp_path / "run"))
    first = run_script("run_mock_campaign.py", *args, cwd=tmp_path)
    assert "wrote 5 new records (5 total)" in first.stdout
    again = run_script("run_mock_campaign.py", *args, cwd=tmp_path)
    assert "wrote 0 new records (5 total)" in again.stdout


def test_records_diff_counts_records_per_differing_field_path(tmp_path):
    config = CampaignConfig(
        dataset=DatasetSource(kind=DATASET_SYNTH, m=2, word_length=3, count=2,
                              transform=TransformSpec(steps=(("rotation", 1),))),
        methods=("definetti", "vanilla"),
        endpoints=(ModelEndpoint(base_url="inproc://agent", model_id="mock-agent"),),
        output_dir=str(tmp_path / "old"),
    )
    run_campaign(config, client=ChatClient(MockTransport(MockScript(agent=AgentConfig()))))
    old = records_path(config.output_dir)
    records = load_run_records(old)
    assert len(records) == 4
    changed = copy.deepcopy(records[:3])
    for rec in changed:
        rec["timing"] = {"elapsed_ms": -1.0}  # timing is left out
    for rec in changed[:2]:
        for member in rec["elicitation"]["transcripts"]:
            for attempt in member["attempts"]:
                del attempt["request"]
    changed[1]["elicitation"]["usage"]["output_tokens"] += 1
    new = records_path(str(tmp_path / "new"))
    append_records(new, changed)

    proc = run_script("records_diff.py", old, new, cwd=tmp_path, check=False)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "     2 elicitation.transcripts[*].attempts[*].request",
        "     1 elicitation.usage.output_tokens",
        "2 of 3 matched records differ; only in OLD: 1, only in NEW: 0",
    ]
    same = run_script("records_diff.py", old, old, cwd=tmp_path)
    assert same.stdout == "0 of 4 matched records differ; only in OLD: 0, only in NEW: 0\n"


@pytest.mark.parametrize("bad, message", [
    ("missing.jsonl", "[Errno 2] No such file or directory: 'missing.jsonl'"),
    ("garbage.jsonl", "garbage.jsonl: line 1, byte offset 0: not JSON (Expecting value)"),
    ("run", "[Errno 21] Is a directory: 'run'"),
], ids=["missing", "not JSON", "directory"])
@pytest.mark.parametrize("bad_side", ["old", "new"])
def test_records_diff_refuses_a_file_it_cannot_read(tmp_path, bad, message, bad_side):
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    (tmp_path / "garbage.jsonl").write_text("garbage\n", encoding="utf-8")
    (tmp_path / "run").mkdir()
    files = ("empty.jsonl", bad) if bad_side == "new" else (bad, "empty.jsonl")
    proc = run_script("records_diff.py", *files, cwd=tmp_path, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_bench_pairs_refuses_a_checkout_without_the_benchmark(tmp_path):
    proc = run_script("bench_pairs.py", str(ROOT), str(tmp_path), "--workload", "inproc-set",
                      "--pairs", "1", "--seconds", "0", "--tiny", cwd=tmp_path, check=False)
    refused(proc, f"no perfbench/run.py in {tmp_path.resolve()}", tmp_path)


def test_bench_pairs_script_compares_two_checkouts(tmp_path):
    proc = run_script("bench_pairs.py", str(ROOT), str(ROOT), "--workload", "inproc-set",
                      "--pairs", "1", "--seconds", "0", "--tiny", cwd=tmp_path, check=False)
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["pair 1/1 seed 1, a first",
                         "inproc-set, 1 pairs of 0 s runs: "
                         "median [q1, q3] a -> b (b better in n pairs)"]
    # each metric line is followed by its verdict line
    metrics = [line.split()[0] for line in lines[2::2]]
    assert metrics == ["cells_per_s", "tokens_per_cell", "eval_records_per_s", "resume_s",
                       "setup_s", "peak_rss_mb"]
    verdicts = [line.split() for line in lines[3::2]]
    assert all(v[0] == "verdict:" and v[1] in ("gain", "worse", "unresolved", "flat")
               for v in verdicts)
    # timings of 0 s runs are noise, so a metric may read worse; the status says so
    assert proc.returncode == (1 if ["verdict:", "worse"] in verdicts else 0)
    # the same checkout on both sides: tokens per cell are equal, so no side wins
    assert re.fullmatch(r"tokens_per_cell +([\d.]+) \[\1, \1\] -> \1 \[\1, \1\] \(0/1\)",
                        lines[4].strip())
    assert lines[5].strip() == "verdict: flat"


def load_bench_pairs():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_verdicts():
    verdict = load_bench_pairs().verdict
    a = [100.0, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    # higher is better: b wins every pair by more than a's spread
    assert verdict(a, [x + 10 for x in a], 10, 1, 0.24) == "gain"
    # the same gap with fewer than 9 in 10 pairs won is no gain
    assert verdict(a, [x + 10 for x in a], 8, 1, 0.24) == "flat"
    # lower is better: the same rise is a loss, worse than a 5 % bound
    assert verdict(a, [x + 10 for x in a], 0, -1, 0.05) == "worse"
    # a spread of 4.5 on a median of 104.5 exceeds a 2 % bound
    assert verdict(a, a, 0, 1, 0.02) == "unresolved"
    # ... unless every b run beats every a run
    assert verdict(a, [x + 9.5 for x in a], 8, 1, 0.02) == "flat"
    assert verdict(a, a, 0, 1, 0.05) == "flat"


@pytest.mark.parametrize("b_tokens, status", [(100.0, 0), (200.0, 1)], ids=["flat", "worse"])
def test_bench_pairs_fails_on_a_worse_metric(tmp_path, monkeypatch, capsys, b_tokens, status):
    bench_pairs = load_bench_pairs()
    for side in "ab":
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").touch()
    monkeypatch.chdir(tmp_path)

    def run_side(checkout, workload, seed, seconds, tiny):
        metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        values = {m["name"]: 1.0 for m in metrics}
        values["tokens_per_cell"] = b_tokens if checkout.name == "b" else 100.0
        return {"correct": True, "failed": 0, "attempted": 1,
                "metrics": {name: {"value": v} for name, v in values.items()}}

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    argv = ["a", "b", "--workload", "inproc-set", "--pairs", "2", "--seconds", "0"]
    assert bench_pairs.main(argv) == status
    verdicts = [line.split()[1] for line in capsys.readouterr().out.splitlines()
                if line.strip().startswith("verdict:")]
    assert verdicts == ["flat", "worse" if status else "flat", "flat", "flat", "flat", "flat"]
