"""The benchmark still runs on this code, and every hook it patches is called.

``perfbench/bench.py`` traces a campaign by replacing functions by name in
``ipuq.campaign`` and ``ipuq.elicit.loop`` (and binding their arguments by
parameter name).  A refactor that changes such a signature fails the traced
run's correctness checks; one that stops calling a name through its module
leaves that hook's metric at zero.  This runs each workload once untraced
and once traced, in tiny mode with no time budget (a few seconds in all),
so either break shows in the test suite and not only in
``perfbench/smoke.py``.  Traced runs write span files under ``.bench_out/``.

A traced run also checks the hooks' accounting: one parse per attempt and
one append per recorded cell, so that parsing or writing outside the hooks
shows as a failure here rather than as a per-layer metric that under-counts.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: One per-layer metric per hook in ``ipuq.campaign`` and ``ipuq.elicit.loop``.
HOOK_METRICS = (
    "prompts.render.calls",
    "parsing.parse.calls",
    "coherence.verify.self_ms",
    "loop.attempts",
    "loop.credal_cell_ms.p50",
    "scores.self_ms",
    "decision.self_ms",
    "campaign.serialize.self_ms",
    "campaign.append.calls",
    "campaign.existing_keys.ms",
    "campaign.load_run_records.ms",
    "campaign.recompute_scores.ms",
)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", ("inproc-set", "records-eval"))
def test_tiny_run_is_correct(workload, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0, result
    if trace:
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
        hooks = HOOK_METRICS + (("mmi.exact_credal.calls",) if workload == "inproc-set" else ())
        assert [name for name in hooks if metrics[name] <= 0] == []
        assert metrics["parsing.parse.calls"] == metrics["loop.attempts"]
        cells = int(re.search(r"cells per round (\d+)", out.stdout).group(1))
        assert metrics["campaign.append.calls"] == cells
