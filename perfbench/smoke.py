#!/usr/bin/env python3
"""Smoke test of the benchmark itself, in tiny mode (under half a minute).

    python3 perfbench/smoke.py

Checks that ``BENCHMARK.json`` is well formed; that every workload, traced
and untraced, exits 0 with a last stdout line holding exactly ``correct``,
``attempted``, ``failed`` and ``metrics``, passes its correctness checks and
reports exactly the metric names and units ``BENCHMARK.json`` declares; that
its traced and untraced runs of one seed print the same records and eval-row
digests; that only inproc-set enumerates credal MMI events; and that a
directory holding only the benchmark (no ``src/``) makes it fail without
printing a result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(spec, workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_spec(spec) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "names must be unique"
    for name in names:
        assert NAME_RE.match(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT_RE.match(m["unit"]) and m["better"] in ("higher", "lower"), m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def check_result(out, declared, positive) -> dict:
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, sorted(set(got.items()) ^ set(want.items()))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
        assert not positive or m["value"] > 0, (name, m)
    return result


def digests(out) -> list[str]:
    return [ln for ln in out.stdout.splitlines() if "-digest " in ln]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for w in spec["workloads"]:
        name = w["name"]
        plain = bench(spec, name, 3, 0)
        check_result(plain, spec["end_to_end"], positive=True)
        traced = bench(spec, name, 3, 1)
        events = check_result(traced, spec["per_layer"], positive=False)["metrics"]
        events = events["mmi.events_enumerated"]["value"]
        assert (events > 0) == (name == "inproc-set"), (name, events)
        assert digests(plain) and digests(plain) == digests(traced), (plain.stdout, traced.stdout)
        print(f"ok  {name}")

    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        out = bench(spec, spec["workloads"][0]["name"], 1, 0, cwd=bare)
        assert out.returncode != 0 and '"metrics"' not in out.stdout, (out.returncode, out.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
