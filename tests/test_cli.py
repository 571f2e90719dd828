"""Command-line interface: exit codes, file outputs, and the mock endpoint."""

import csv
import json
import math

import pytest

from ipuq.campaign import (
    DATASET_SYNTH,
    CampaignConfig,
    DatasetSource,
    append_records,
    build_synth_records,
    load_run_records,
    records_path,
)
from ipuq.cli import EXIT_DATASET, EXIT_FAILURE, EXIT_OK, EXIT_PARTIAL, main
from ipuq.elicit.client import ModelEndpoint
from ipuq.mock import AgentConfig, MockScript, ScriptEntry
from ipuq.synth import IclTask, TransformSpec, format_icl_prompt


def block(rows):
    return "```\n" + "\n".join(rows) + "\n```"


class TestSynthGen:
    def test_tasks_stream_to_stdout(self, capsys):
        assert main(["synth", "gen", "--count", "3", "--word-length", "4"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            task = json.loads(line)
            assert {"examples", "query_input", "clean_query_output"} <= task.keys()

    def test_out_file_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["synth", "gen", "--count", "2", "--base-seed", "9", "--out", str(a)])
        main(["synth", "gen", "--count", "2", "--base-seed", "9", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_tasks_match_the_campaign_questions(self, capsys):
        assert main([
            "synth", "gen", "--transform", "cyclic_shift", "--steps", "2",
            "--p", "0.3", "--m", "3", "--word-length", "4", "--count", "3",
            "--base-seed", "5",
        ]) == EXIT_OK
        tasks = [IclTask.from_dict(json.loads(line))
                 for line in capsys.readouterr().out.splitlines()]
        records = build_synth_records(DatasetSource(
            kind=DATASET_SYNTH, transform=TransformSpec(steps=(("cyclic_shift", 2),)),
            noise_p=0.3, m=3, word_length=4, count=3, base_seed=5,
        ))
        assert [(format_icl_prompt(t), t.clean_query_output) for t in tasks] == [
            (r.question, r.reference_answer) for r in records
        ]


class TestSynthRun:
    def test_json_rows_to_stdout(self, capsys):
        code = main([
            "synth", "run", "--p-grid", "0.25", "--m-grid", "1,5",
            "--repeats", "1", "--word-length", "3",
        ])
        assert code == EXIT_OK
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 4  # two methods x two m values
        assert {row["method"] for row in rows} == {"definetti", "probint"}

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        code = main([
            "synth", "run", "--p-grid", "0,0.5", "--m-grid", "2",
            "--repeats", "1", "--word-length", "3", "--methods", "definetti",
            "--out", str(out),
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["first_order_mean"]) == 0.0

    def test_failed_cells_exit_partial(self, capsys, serve):
        (question,) = [q.question for q in build_synth_records(DatasetSource(
            kind=DATASET_SYNTH, transform=TransformSpec(steps=(("rotation", 1),)),
            noise_p=0.25, m=2, word_length=3, count=1, base_seed=0,
        ))]
        bad = block(["1|price=0.0", "2|price=0.0"])
        script = MockScript(
            entries=(ScriptEntry(question=question, kind="definetti", replies=(bad,)),)
        )
        with serve(script) as base_url:
            code = main([
                "synth", "run", "--p-grid", "0.25", "--m-grid", "2", "--repeats", "1",
                "--word-length", "3", "--methods", "definetti", "--max-attempts", "1",
                "--base-url", base_url, "--model", "mock-agent",
            ])
        assert code == EXIT_PARTIAL
        (row,) = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert row["n"] == 0 and row["first_order_mean"] is None

    def test_credal_method(self, capsys):
        code = main([
            "synth", "run", "--p-grid", "0.25", "--m-grid", "2",
            "--repeats", "1", "--word-length", "3", "--methods", "credal",
        ])
        assert code == EXIT_OK
        (row,) = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert row["method"] == "credal" and row["n"] == 1
        assert math.isfinite(row["second_order_mean"])


class TestElicit:
    QUESTION = "Which is the national animal of Scotland?"

    def endpoint_args(self, base_url):
        return ["--base-url", base_url, "--model", "mock-agent"]

    def test_success_prints_payload(self, capsys, serve):
        script = MockScript(
            entries=(
                ScriptEntry(
                    question=self.QUESTION,
                    kind="definetti",
                    replies=(block(["1|price=0.7", "2|price=0.3"]),),
                ),
            )
        )
        with serve(script) as base_url:
            code = main([
                "elicit", "--kind", "definetti", "--question", self.QUESTION,
                "--candidate", "Unicorn", "--candidate", "Lion",
                *self.endpoint_args(base_url),
            ])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["succeeded"] is True
        assert report["payload"]["probs"] == [0.7, 0.3]
        assert report["score_kind"] == "entropy_nats"

    def test_credal_prints_the_member_pmf(self, capsys, serve):
        script = MockScript(
            entries=(
                ScriptEntry(
                    question=self.QUESTION,
                    kind="credal",
                    replies=(block(["1|prob=0.6", "2|prob=0.4"]),),
                ),
            )
        )
        with serve(script) as base_url:
            code = main([
                "elicit", "--kind", "credal", "--question", self.QUESTION,
                "--candidate", "Unicorn", "--candidate", "Lion",
                *self.endpoint_args(base_url),
            ])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["succeeded"] is True
        assert report["payload"] == {"probs": [0.6, 0.4]}
        assert report["score"] is None

    def test_candidates_prints_the_answer_list(self, capsys, serve):
        script = MockScript(
            entries=(
                ScriptEntry(
                    question=self.QUESTION,
                    kind="candidates",
                    replies=("1. Unicorn\n2. Lion\n3. unicorn",),
                ),
            )
        )
        with serve(script) as base_url:
            code = main([
                "elicit", "--kind", "candidates", "--question", self.QUESTION,
                *self.endpoint_args(base_url),
            ])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["payload"] == ["Unicorn", "Lion"]

    def test_exhausted_budget_exits_nonzero_with_verdicts(self, capsys, serve):
        bad = block(["1|price=0.8", "2|price=0.8"])
        script = MockScript(
            entries=(
                ScriptEntry(question=self.QUESTION, kind="definetti",
                            replies=(bad, bad)),
            )
        )
        with serve(script) as base_url:
            code = main([
                "elicit", "--kind", "definetti", "--question", self.QUESTION,
                "--candidate", "Unicorn", "--candidate", "Lion",
                "--max-attempts", "2", *self.endpoint_args(base_url),
            ])
        assert code == EXIT_FAILURE
        report = json.loads(capsys.readouterr().out)
        assert report["succeeded"] is False
        assert report["attempts"] == 2
        assert len(report["verdicts"]) == 2

    def test_candidate_kinds_require_candidates(self, capsys):
        code = main([
            "elicit", "--kind", "definetti", "--question", "q",
            "--base-url", "http://localhost:1", "--model", "m",
        ])
        assert code == EXIT_FAILURE
        assert "--candidate" in capsys.readouterr().err


def write_campaign_config(tmp_path, base_url, **overrides):
    fields = dict(
        dataset=DatasetSource(
            kind=DATASET_SYNTH,
            transform=TransformSpec(steps=(("rotation", 1),)),
            noise_p=0.25,
            m=2,
            word_length=3,
            count=1,
            base_seed=0,
        ),
        methods=("definetti", "vanilla"),
        endpoints=(ModelEndpoint(base_url=base_url, model_id="mock-agent"),),
        output_dir=str(tmp_path / "runs"),
    )
    fields.update(overrides)
    config = CampaignConfig(**fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    return config, str(path)


class TestCampaignCommands:
    def test_run_then_rerun_then_resume(self, tmp_path, capsys, serve):
        script = MockScript(agent=AgentConfig(noise_p=0.25))
        with serve(script) as base_url:
            config, config_path = write_campaign_config(tmp_path, base_url)
            assert main(["campaign", "run", "--config", config_path]) == EXIT_OK
            out = capsys.readouterr().out
            assert "wrote 2 records" in out
            stored = load_run_records(records_path(config.output_dir))
            assert len(stored) == 2

            # a second `run` refuses to touch an existing records file
            assert main(["campaign", "run", "--config", config_path]) == EXIT_DATASET
            assert "campaign resume" in capsys.readouterr().err

            # resume is happy to verify there is nothing left
            assert main(["campaign", "resume", "--config", config_path]) == EXIT_OK
            assert "wrote 0 records" in capsys.readouterr().out

    def test_resume_without_records_is_an_error(self, tmp_path, capsys):
        config, config_path = write_campaign_config(tmp_path, "http://localhost:1")
        assert main(["campaign", "resume", "--config", config_path]) == EXIT_DATASET
        assert "nothing to resume" in capsys.readouterr().err

    def test_failed_cells_exit_partial(self, tmp_path, capsys, serve):
        (question,) = [q.question for q in build_synth_records(
            DatasetSource(
                kind=DATASET_SYNTH,
                transform=TransformSpec(steps=(("rotation", 1),)),
                noise_p=0.25, m=2, word_length=3, count=1, base_seed=0,
            )
        )]
        bad = block(["1|price=0.0", "2|price=0.0"])  # sums to 0, never coherent
        script = MockScript(
            entries=(ScriptEntry(question=question, kind="definetti", replies=(bad,)),)
        )
        with serve(script) as base_url:
            _, config_path = write_campaign_config(
                tmp_path, base_url, methods=("definetti",), retry_budget=1
            )
            assert main(["campaign", "run", "--config", config_path]) == EXIT_PARTIAL
        assert "(1 failed)" in capsys.readouterr().out

    def test_missing_config_is_a_dataset_error(self, tmp_path, capsys):
        code = main(["campaign", "run", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_DATASET
        assert "error" in capsys.readouterr().err


def eval_fixture_records(tmp_path, base_url="url"):
    key = f"m@{base_url}"
    records = []
    for i, (first, ambiguous) in enumerate([(0.9, 1), (0.2, 0), (0.8, 1), (0.1, 0)]):
        records.append({
            "key": {"question_id": f"q{i}", "method": "definetti", "seed": 0},
            "candidates": {"answers": ["A", "B"], "open_ended": False,
                           "case_sensitive": False},
            "truth_set": ["A"],
            "pstar": [0.5 + first / 10, 0.5 - first / 10],
            "labels": {"ambiguous": ambiguous, "correct": None},
            "endpoint": {"key": key, "model_id": "m", "base_url": base_url},
            "elicitation": {"payload": None,
                            "usage": {"input_tokens": 7, "output_tokens": 2}},
            "scores": {"mode": "set", "first_order": first, "second_order": None,
                       "combined": None},
        })
    path = records_path(str(tmp_path / "eval"))
    append_records(path, records)
    return path


class TestEvalCommands:
    def test_auroc_rows_to_stdout(self, tmp_path, capsys):
        path = eval_fixture_records(tmp_path)
        assert main(["eval", "auroc", "--records", path]) == EXIT_OK
        (row,) = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert row["metric"] == "auroc"
        assert row["value"] == 1.0
        assert row["n"] == 4

    def test_concordance_to_csv(self, tmp_path, capsys):
        path = eval_fixture_records(tmp_path)
        out = tmp_path / "conc.csv"
        code = main([
            "eval", "concordance", "--records", path,
            "--ref", "entropy_pstar", "--out", str(out),
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["metric"] == "concordance"
        # higher first_order went with higher pstar skew = lower entropy
        assert float(rows[0]["value"]) == 0.0

    def test_cost_uses_config_prices(self, tmp_path, capsys):
        base_url = "http://example.invalid/v1"
        path = eval_fixture_records(tmp_path, base_url=base_url)
        config = CampaignConfig(
            dataset=DatasetSource(
                kind=DATASET_SYNTH,
                transform=TransformSpec(steps=(("rotation", 1),)),
            ),
            methods=("definetti",),
            endpoints=(ModelEndpoint(base_url=base_url, model_id="m",
                                     price_per_input_token=1e-6,
                                     price_per_output_token=1e-6),),
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        code = main(["eval", "cost", "--records", path, "--config", str(config_path)])
        assert code == EXIT_OK
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        by_method = {r["method"]: r for r in rows}
        assert by_method["definetti"]["input_tokens"] == 28
        assert by_method["definetti"]["currency"] == pytest.approx(36e-6)
        assert by_method["__total__"]["currency"] == pytest.approx(36e-6)

    def test_bad_records_schema_is_a_dataset_error(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text('{"schema":"other.v1"}\n', encoding="utf-8")
        assert main(["eval", "auroc", "--records", str(path)]) == EXIT_DATASET
        assert "error" in capsys.readouterr().err


def test_mock_serve_requires_a_readable_script(tmp_path, capsys):
    code = main(["mock", "serve", "--script", str(tmp_path / "missing.json")])
    assert code == EXIT_DATASET
    assert "error" in capsys.readouterr().err
