"""Command-line interface: exit codes, file outputs, and the mock endpoint."""

import csv
import json
import math
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

import ipuq.campaign
import ipuq.cli
import ipuq.study
from ipuq.campaign import (
    DATASET_QA_FILE,
    DATASET_SYNTH,
    METHODS,
    RECORD_SCHEMA,
    CampaignConfig,
    DatasetSource,
    append_records,
    build_synth_records,
    load_run_records,
    records_path,
)
from ipuq.cli import EXIT_DATASET, EXIT_FAILURE, EXIT_OK, EXIT_PARTIAL, main
from ipuq.elicit.client import ChatClient, ModelEndpoint
from ipuq.elicit.prompts import NOTA_LABEL
from ipuq.mock import AgentConfig, MockScript, MockTransport, ScriptEntry
from ipuq.scores import entropy
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

    def test_seed_flag_sets_the_record_and_request_seed(self, capsys, serve, monkeypatch):
        (record,) = build_synth_records(DatasetSource(
            kind=DATASET_SYNTH, transform=TransformSpec(steps=(("rotation", 1),)),
            noise_p=0.25, m=2, word_length=3, count=1, base_seed=0,
        ))
        # the script answers seed 3 only
        n = len(record.candidates)
        good = block([f"{i}|price={1 / n!r}" for i in range(1, n + 1)])
        script = MockScript(entries=(
            ScriptEntry(question=record.question, kind="definetti", replies=(good,), seed=3),))
        seeds, run = [], ipuq.study.run_campaign

        def recording(config, **kwargs):
            records = run(config, **kwargs)
            seeds.extend(r["key"]["seed"] for r in records)
            return records

        monkeypatch.setattr(ipuq.study, "run_campaign", recording)
        with serve(script) as base_url:
            code = main([
                "synth", "run", "--p-grid", "0.25", "--m-grid", "2", "--repeats", "1",
                "--word-length", "3", "--methods", "definetti", "--max-attempts", "1",
                "--base-url", base_url, "--model", "mock-agent", "--seed", "3",
            ])
        assert code == EXIT_OK
        (row,) = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert row["n"] == 1 and seeds == [3]

    def test_base_url_needs_a_model(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["synth", "run", "--base-url", "http://localhost:1/v1/chat/completions"])
        assert info.value.code == 2
        assert "--base-url needs --model" in capsys.readouterr().err

    def test_endpoint_flags_without_base_url_are_refused(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["synth", "run", "--model", "gpt-x", "--seed", "4", "--auth-env", "FOO",
                  "--temperature", "0"])
        assert info.value.code == 2
        assert ("--model, --auth-env, --temperature, --seed need --base-url"
                in capsys.readouterr().err)

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

    @pytest.mark.parametrize("kind, rows, payload, scores", [
        ("definetti", ["1|price=0.7", "2|price=0.3"], {"probs": [0.7, 0.3]},
         {"first_order": entropy([0.7, 0.3]), "second_order": None}),
        ("probint", ["1|lower=0.2|upper=0.6", "2|lower=0.3|upper=0.5"],
         {"lowers": [0.2, 0.3], "uppers": [0.6, 0.5]},
         {"first_order": None, "second_order": 1.0 - (0.2 + 0.3)}),
        ("possibility", ["1|pos=1.0", "2|pos=0.4", f"{NOTA_LABEL}|pos=0.1"],
         {"scores": [1.0, 0.4], "none_of_above": 0.1},
         {"first_order": None, "second_order": 0.4}),
        ("vanilla", ["CONF|conf=0.85"], {"confidence": 0.85},
         {"first_order": 1.0 - 0.85, "second_order": None}),
    ])
    def test_success_prints_payload(self, capsys, serve, kind, rows, payload, scores):
        script = MockScript(entries=(
            ScriptEntry(question=self.QUESTION, kind=kind, replies=(block(rows),)),
        ))
        with serve(script) as base_url:
            code = main([
                "elicit", "--kind", kind, "--question", self.QUESTION,
                "--candidate", "Unicorn", "--candidate", "Lion",
                *self.endpoint_args(base_url),
            ])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["succeeded"] is True
        assert report["payload"] == payload
        # set-level, from the campaign's record table
        assert report["scores"] == scores

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
        assert "scores" not in report

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
        report = json.loads(capsys.readouterr().out)
        assert report["payload"] == ["Unicorn", "Lion"]
        assert "scores" not in report

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

    def test_exhausted_budget_lists_parse_failures(self, capsys, serve):
        script = MockScript(entries=(
            ScriptEntry(question=self.QUESTION, kind="definetti", replies=(
                "No numbers from me.", block(["1|price=0.8", "2|price=0.8"]), "Still none.",
            )),
        ))
        with serve(script) as base_url:
            code = main([
                "elicit", "--kind", "definetti", "--question", self.QUESTION,
                "--candidate", "Unicorn", "--candidate", "Lion",
                "--max-attempts", "3", *self.endpoint_args(base_url),
            ])
        assert code == EXIT_FAILURE
        report = json.loads(capsys.readouterr().out)
        assert report["attempts"] == 3
        first, second, third = report["verdicts"]
        assert first.startswith("parse error: ") and third.startswith("parse error: ")
        assert second.startswith("SUM (overall)")

    @pytest.mark.parametrize("max_attempts", [0, -1])
    def test_a_budget_below_one_is_refused_before_any_request(
        self, capsys, monkeypatch, max_attempts
    ):
        sent = []

        class Counting(MockTransport):
            def send(self, *args):
                sent.append(args)
                return super().send(*args)

        transport = Counting(MockScript(agent=AgentConfig()))
        monkeypatch.setattr(ipuq.cli, "ChatClient", lambda: ChatClient(transport))
        code = main([
            "elicit", "--kind", "definetti", "--question", self.QUESTION,
            "--candidate", "Unicorn", "--candidate", "Lion",
            "--max-attempts", str(max_attempts), *self.endpoint_args("inproc://agent"),
        ])
        assert code == EXIT_DATASET
        assert capsys.readouterr().err == (
            f"error: --max-attempts must be at least 1, got {max_attempts}\n")
        assert sent == []

    @pytest.mark.parametrize("candidate", ["", "  "], ids=["empty", "blank"])
    def test_a_blank_candidate_is_a_dataset_error(self, capsys, candidate):
        code = main([
            "elicit", "--kind", "definetti", "--question", "q", "--candidate", "a",
            "--candidate", candidate, "--base-url", "http://localhost:1", "--model", "m",
        ])
        assert code == EXIT_DATASET
        assert capsys.readouterr() == (
            "", "error: --candidate: candidate answers must be non-empty strings\n")

    def test_candidate_kinds_require_candidates(self, capsys):
        code = main([
            "elicit", "--kind", "definetti", "--question", "q",
            "--base-url", "http://localhost:1", "--model", "m",
        ])
        assert code == EXIT_DATASET
        assert capsys.readouterr() == (
            "", "error: kind 'definetti' needs at least one --candidate\n")


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
    """Four records whose first-order score is higher on the two ambiguous
    questions (a truth set of two answers) than on the other two."""
    key = f"m@{base_url}"
    records = []
    for i, (first, truth) in enumerate([(0.9, ["A", "B"]), (0.2, ["A"]),
                                        (0.8, ["A", "B"]), (0.1, ["A"])]):
        records.append({
            "key": {"question_id": f"q{i}", "method": "definetti", "seed": 0},
            "candidates": {"answers": ["A", "B"], "open_ended": False,
                           "case_sensitive": False},
            "truth_set": truth,
            "pstar": [0.5 + first / 10, 0.5 - first / 10][:len(truth)],
            "endpoint": {"key": key},
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
        # p* has entropy 0 on the two unambiguous questions, whose scores are
        # lowest, so the four pairs across the two kinds agree; between the
        # ambiguous two, higher first_order went with higher p* skew (lower
        # entropy), and the unambiguous pair ties on entropy and is not counted
        assert float(rows[0]["value"]) == 0.8

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

    @pytest.mark.parametrize("header", ['{"schema":"other.v1"}', f'"{RECORD_SCHEMA}"', None],
                             ids=["other schema", "bare schema string", "headerless"])
    def test_bad_records_schema_is_a_dataset_error(self, tmp_path, capsys, header):
        path = eval_fixture_records(tmp_path)
        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)[1:]
        Path(path).write_text((f"{header}\n" if header else "") + "".join(lines),
                              encoding="utf-8")
        assert main(["eval", "auroc", "--records", path]) == EXIT_DATASET
        head = repr(json.loads(header or lines[0]))[:60]
        assert capsys.readouterr().err == (
            f"error: {path}: line 1: unexpected records header {head}\n")

    def test_records_that_are_not_utf8_are_a_dataset_error(self, tmp_path, capsys):
        path = eval_fixture_records(tmp_path)
        Path(path).write_bytes(Path(path).read_bytes().replace(b'"q0"', b'"q\xff"'))
        assert main(["eval", "auroc", "--records", path]) == EXIT_DATASET
        offset = Path(path).read_bytes().split(b"\n")[1].index(b"\xff")
        assert capsys.readouterr().err == (
            f"error: {path}: line 2, byte offset {offset}: not UTF-8 (invalid start byte)\n")


def test_resume_over_a_key_span_that_is_not_utf8_is_a_dataset_error(tmp_path, capsys):
    config, config_path = write_campaign_config(tmp_path, "http://localhost:1")
    path = records_path(config.output_dir)
    append_records(path, [{"key": {"question_id": "q0", "method": "vanilla", "seed": 0}}])
    Path(path).write_bytes(Path(path).read_bytes().replace(b'"q0"', b'"q\xff"'))
    assert main(["campaign", "resume", "--config", config_path]) == EXIT_DATASET
    # the offset counts from the line's start, not from the key span's
    assert Path(path).read_bytes().split(b"\n")[1].index(b"\xff") == 43
    assert capsys.readouterr().err == (
        f"error: {path}: line 2, byte offset 43: not UTF-8 (invalid start byte)\n")


_RECORDS_HEADER = f'{{"schema":"{RECORD_SCHEMA}"}}\n'.encode()


@pytest.mark.parametrize("line", [b'{"question":"q"}',
                                  b'{"key":{"question_id":["q"],"method":"m","seed":0}}'])
@pytest.mark.parametrize("command", ["eval", "resume"])
def test_a_records_line_without_a_key_is_a_dataset_error(tmp_path, capsys, command, line):
    config, config_path = write_campaign_config(tmp_path, "http://localhost:1")
    path = records_path(config.output_dir)
    Path(path).parent.mkdir()
    Path(path).write_bytes(_RECORDS_HEADER + line + b"\n")
    argv = (["eval", "auroc", "--records", path] if command == "eval"
            else ["campaign", "resume", "--config", config_path])
    assert main(argv) == EXIT_DATASET
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: not a record (key needs a string question_id, a string "
        "method and an integer seed)\n")


def test_a_qa_id_that_is_not_a_string_is_refused_before_any_record(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    qa.write_text('{"id": 7, "question": "q", "answers": ["a"]}\n', encoding="utf-8")
    dataset = DatasetSource(kind=DATASET_QA_FILE, path=str(qa), format="maqa_like")
    config, config_path = write_campaign_config(tmp_path, "http://localhost:1", dataset=dataset)
    assert main(["campaign", "run", "--config", config_path]) == EXIT_DATASET
    assert capsys.readouterr().err == f"error: {qa}: line 1: id must be a string\n"
    assert not Path(records_path(config.output_dir)).exists()


@pytest.mark.parametrize("row, reason", [
    ({"pstar": [-0.5, 1.5]},
     "pstar must be null or one finite non-negative number per truth_set answer"),
    ({"pstar": [math.nan]},
     "pstar must be null or one finite non-negative number per truth_set answer"),
    ({"pstar": [1, 10**400]},
     "pstar must be null or one finite non-negative number per truth_set answer"),
    ({"reference": 7}, "reference_answer must be a string, got 7"),
    ({"prediction": 7}, "prediction must be a string, got 7"),
    ({"question": 7}, "question must be a string, got 7"),
    ({"question": "q\ud800?"},
     "question holds a lone surrogate at index 1, which UTF-8 cannot encode"),
], ids=["negative pstar", "nan pstar", "pstar too large for a float", "int reference",
        "int prediction", "int question", "lone surrogate"])
def test_an_invalid_question_is_refused_before_any_request(
    tmp_path, capsys, monkeypatch, row, reason
):
    sent = []

    class Counting(MockTransport):
        def send(self, *args):
            sent.append(args)
            return super().send(*args)

    transport = Counting(MockScript(agent=AgentConfig()))
    monkeypatch.setattr(ipuq.campaign, "ChatClient", lambda: ChatClient(transport))
    qa = tmp_path / "qa.jsonl"
    rows = [{"question": "q1", "answers": ["a"]},
            {"question": "q2", "answers": ["a", "b"], **row}]
    qa.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    dataset = DatasetSource(kind=DATASET_QA_FILE, path=str(qa), format="maqa_like")
    config, config_path = write_campaign_config(tmp_path, "inproc://agent", dataset=dataset)
    assert main(["campaign", "run", "--config", config_path]) == EXIT_DATASET
    assert capsys.readouterr().err == f"error: {qa}: line 2: {reason}\n"
    assert sent == []
    assert not Path(records_path(config.output_dir)).exists()


_KEY_ONLY = {"key": {"question_id": "q", "method": "definetti", "seed": 0}}


# every member eval reads, a pstar and a payload, which concordance --ref kl_pstar decodes
_EVAL_READY = {**_KEY_ONLY, "scores": {}, "candidates": {"answers": ["a"]},
               "truth_set": ["a"], "pstar": [1.0], "endpoint": {"key": "m"},
               "elicitation": {"payload": {"probs": [1.0]},
                               "usage": {"input_tokens": 1, "output_tokens": 1}}}


@pytest.mark.parametrize("record, reason", [
    (_KEY_ONLY, "q/definetti/0 lacks what eval reads: scores, candidates.answers, "
                "truth_set, endpoint.key, elicitation.payload, "
                "elicitation.usage.input_tokens, elicitation.usage.output_tokens"),
    ({**_EVAL_READY, "candidates": {}}, "q/definetti/0 lacks what eval reads: candidates.answers"),
    ({**_EVAL_READY, "key": {**_KEY_ONLY["key"], "method": "m"}},
     f"q/m/0: unknown method 'm'; choose from {METHODS}"),
], ids=["key only", "candidates without answers", "unknown method"])
@pytest.mark.parametrize("verb", ["auroc", "concordance", "cost"])
def test_eval_over_a_record_without_what_eval_reads_is_a_dataset_error(
    tmp_path, capsys, verb, record, reason
):
    config_path = write_campaign_config(tmp_path, "http://localhost:1")[1]
    path = eval_fixture_records(tmp_path)
    append_records(path, [record])
    extra = {"concordance": ["--ref", "kl_pstar"], "cost": ["--config", config_path]}
    assert main(["eval", verb, "--records", path, *extra.get(verb, [])]) == EXIT_DATASET
    assert capsys.readouterr().err == f"error: {path}: line 6: record {reason}\n"


@pytest.mark.parametrize("change, reason", [
    ({"scores": {"first_order": "abc"}},
     "scores.first_order must be a finite number or null, got 'abc'"),
    ({"scores": {"second_order": False}},
     "scores.second_order must be a finite number or null, got False"),
    ({"scores": {"combined": [0.5]}},
     "scores.combined must be a finite number or null, got [0.5]"),
    ({"scores": {"first_order": math.nan}},
     "scores.first_order must be a finite number or null, got nan"),
    ({"scores": {"second_order": math.inf}},
     "scores.second_order must be a finite number or null, got inf"),
    ({"scores": {"combined": -math.inf}},
     "scores.combined must be a finite number or null, got -inf"),
    ({"scores": {"first_order": 10**400}},
     f"scores.first_order must be a finite number or null, got {str(10**400)[:60]}"),
    ({"scores": {"combined": -10**400}},
     f"scores.combined must be a finite number or null, got {str(-10**400)[:60]}"),
    ({"candidates": {"answers": ["a"], "case_sensitive": 1}},
     "candidates.case_sensitive must be true or false, got 1"),
    ({"candidates": {"answers": ["a"], "case_sensitive": None}},
     "candidates.case_sensitive must be true or false, got None"),
    ({"pstar": [-0.5]}, "pstar must be null or one finite non-negative number per truth_set answer"),
    ({"pstar": [0.5, 0.5]}, "pstar must be null or one finite non-negative number per truth_set "
                            "answer"),
    ({"pstar": [10**400]}, "pstar must be null or one finite non-negative number per truth_set "
                           "answer"),
    ({"pstar": ["1"]}, "pstar must be null or one finite non-negative number per truth_set answer"),
    ({"pstar": {"a": 1.0}}, "pstar must be null or one finite non-negative number per truth_set "
                            "answer"),
    ({"candidates": {"answers": ["a", 7]}}, "candidates.answers must hold only strings, got 7"),
    ({"truth_set": [None]}, "truth_set must hold only strings, got None"),
    ({"prediction": 7}, "prediction must be a string or null, got 7"),
    ({"reference_answer": ["a"]}, "reference_answer must be a string or null, got ['a']"),
], ids=["first_order 'abc'", "second_order false", "combined list", "first_order NaN",
        "second_order Infinity", "combined -Infinity", "first_order 401 digits",
        "combined -401 digits", "case_sensitive 1", "case_sensitive null", "pstar negative",
        "pstar too long", "pstar 401 digits", "pstar string", "pstar object",
        "answer not a string", "truth_set entry not a string", "prediction int",
        "reference_answer list"])
@pytest.mark.parametrize("argv", [["auroc"], ["concordance", "--ref", "kl_pstar"]],
                         ids=["auroc", "concordance"])
def test_eval_over_a_value_eval_cannot_read_is_a_dataset_error(
    tmp_path, capsys, argv, change, reason
):
    path = eval_fixture_records(tmp_path)
    append_records(path, [{**_EVAL_READY, **change}])
    assert main(["eval", argv[0], "--records", path, *argv[1:]]) == EXIT_DATASET
    assert capsys.readouterr().err == f"error: {path}: line 6: record q/definetti/0: {reason}\n"


@pytest.mark.parametrize("count", [True, -5, 10**400], ids=["true", "negative", "401 digits"])
def test_eval_cost_over_a_token_count_that_is_not_a_count_is_a_dataset_error(
    tmp_path, capsys, count
):
    config_path = write_campaign_config(tmp_path, "http://localhost:1")[1]
    path = eval_fixture_records(tmp_path)
    usage = {"input_tokens": count, "output_tokens": 1}
    append_records(path, [{**_EVAL_READY, "elicitation": {**_EVAL_READY["elicitation"],
                                                          "usage": usage}}])
    assert main(["eval", "cost", "--records", path, "--config", config_path]) == EXIT_DATASET
    assert capsys.readouterr().err == (
        f"error: {path}: line 6: record q/definetti/0: "
        "elicitation.usage.input_tokens must be a non-negative integer within a float's range, "
        f"got {str(count)[:60]}\n")


def test_eval_reads_null_labels_scores_and_pstar(tmp_path):
    # no prediction, so the incorrect label is null
    path = eval_fixture_records(tmp_path)
    append_records(path, [{**_EVAL_READY, "pstar": None, "reference_answer": "a",
                           "scores": dict.fromkeys(("first_order", "second_order", "combined"))}])
    for argv in (["auroc"], ["auroc", "--label", "incorrect"],
                 ["concordance", "--ref", "kl_pstar"]):
        assert main(["eval", argv[0], "--records", path, *argv[1:],
                     "--out", str(tmp_path / "rows.csv")]) == EXIT_OK


def test_eval_over_a_payload_that_does_not_decode_is_a_dataset_error(tmp_path, capsys):
    path = eval_fixture_records(tmp_path)
    append_records(path, [{**_EVAL_READY, "elicitation": {**_EVAL_READY["elicitation"],
                                                          "payload": {}}}])
    assert main(["eval", "concordance", "--records", path, "--ref", "kl_pstar"]) == EXIT_DATASET
    assert capsys.readouterr().err == (
        "error: record q/definetti/0: payload does not decode (KeyError('probs'))\n")


def test_eval_cost_over_an_endpoint_the_config_does_not_list_is_a_dataset_error(
    tmp_path, capsys
):
    config_path = write_campaign_config(tmp_path, "http://localhost:1")[1]
    path = eval_fixture_records(tmp_path)
    assert main(["eval", "cost", "--records", path, "--config", config_path]) == EXIT_DATASET
    assert capsys.readouterr().err == (
        "error: records name endpoint 'm@url', which the config does not list; "
        "it lists ['mock-agent@http://localhost:1']\n")


def _file_reading_argv(tmp_path, command):
    """The argv of a file-reading command, the one input file in it that the
    test breaks, and the sound first line that file keeps, if it is read line
    by line.  The other inputs are sound."""
    url = "http://127.0.0.1:9/v1"
    config_path = write_campaign_config(tmp_path, url)[1]
    records = eval_fixture_records(tmp_path)
    if command == "campaign run qa":
        qa = str(tmp_path / "qa.jsonl")
        dataset = DatasetSource(kind=DATASET_QA_FILE, path=qa, format="maqa_like")
        config_path = write_campaign_config(tmp_path, url, dataset=dataset)[1]
        return (["campaign", "run", "--config", config_path], qa,
                b'{"question": "q", "answers": ["a"]}\n')
    if command.startswith("campaign"):
        return command.split() + ["--config", config_path], config_path, b""
    if command == "eval cost config":
        return ["eval", "cost", "--records", records, "--config", config_path], config_path, b""
    if command.startswith("eval"):
        verb = command.split()[1]
        extra = ["--config", config_path] if verb == "cost" else []
        return ["eval", verb, "--records", records, *extra], records, _RECORDS_HEADER
    script = str(tmp_path / "script.json")
    return ["mock", "serve", "--script", script, "--port", "0"], script, b""


@pytest.mark.parametrize("fault", [b"\xff", b"@"], ids=["not utf-8", "not json"])
@pytest.mark.parametrize("command", [
    "campaign run", "campaign resume", "campaign run qa", "eval auroc", "eval concordance",
    "eval cost", "eval cost config", "mock serve",
])
def test_an_undecodable_input_file_is_named(tmp_path, capsys, command, fault):
    argv, bad, head = _file_reading_argv(tmp_path, command)
    Path(bad).write_bytes(head + b'{"question": ' + fault + b"}\n")
    assert main(argv) == EXIT_DATASET
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


def row_command_argv(tmp_path, command):
    """Arguments for one row-writing command.  The eval commands read a records
    file over two methods and two seeds with uneven scores and token counts,
    priced by a config in ``tmp_path``; ``synth run`` runs the in-process agent."""
    base_url = "http://example.invalid/v1"
    records = []
    for method in ("definetti", "vanilla"):
        for seed in (0, 1):
            for i in range(5):
                p = 0.5 + i / 12
                # auroc reads ambiguity from the truth set's size; concordance
                # reads the entropy of a p* over two answers
                ambiguous = command != "eval auroc" or (i + seed) % 2
                truth = ["A", "B"] if ambiguous else ["A"]
                records.append({
                    "key": {"question_id": f"q{i}", "method": method, "seed": seed},
                    "candidates": {"answers": ["A", "B"]},
                    "truth_set": truth,
                    "pstar": [p, 1 - p][:len(truth)],
                    "endpoint": {"key": f"m@{base_url}"},
                    "elicitation": {"payload": None,
                                    "usage": {"input_tokens": 90 + 7 * i + seed,
                                              "output_tokens": 11 + len(method) * i}},
                    "scores": {"mode": "set",
                               "first_order": (7 * i + 3 * seed + len(method)) % 11 / 13,
                               "second_order": None, "combined": None},
                })
    path = records_path(str(tmp_path / "eval"))
    append_records(path, records)
    _, config_path = write_campaign_config(
        tmp_path, base_url,
        endpoints=(ModelEndpoint(base_url=base_url, model_id="m",
                                 price_per_input_token=3e-6, price_per_output_token=1.5e-5),),
    )
    return {
        "eval auroc": ["eval", "auroc", "--records", path],
        "eval concordance": ["eval", "concordance", "--records", path],
        "eval cost": ["eval", "cost", "--records", path, "--config", config_path],
        "synth run": ["synth", "run", "--p-grid", "0.25,0.5", "--m-grid", "2",
                      "--repeats", "2", "--word-length", "3",
                      "--methods", "definetti,probint"],
    }[command]


#: Per command, the JSON lines it prints to stdout and the CSV lines it writes
#: to ``--out`` (each ended by ``\r\n``), captured before the row-writing
#: commands shared one writer.
PINNED_ROWS = {
    "eval auroc": (
        [
            '{"dataset": "records", "method": "definetti", "metric": "auroc", "n": 10, '
            '"stderr": 0.0833333333333333, "value": 0.5833333333333333}',
            '{"dataset": "records", "method": "vanilla", "metric": "auroc", "n": 10, '
            '"stderr": 0.0, "value": 0.3333333333333333}',
        ],
        [
            "method,dataset,metric,value,stderr,n",
            "definetti,records,auroc,0.5833333333333333,0.0833333333333333,10",
            "vanilla,records,auroc,0.3333333333333333,0.0,10",
        ],
    ),
    "eval concordance": (
        [
            '{"dataset": "records", "method": "definetti", "metric": "concordance", "n": 10, '
            '"stderr": 0.09999999999999998, "value": 0.6}',
            '{"dataset": "records", "method": "vanilla", "metric": "concordance", "n": 10, '
            '"stderr": 0.0, "value": 0.7}',
        ],
        [
            "method,dataset,metric,value,stderr,n",
            "definetti,records,concordance,0.6,0.09999999999999998,10",
            "vanilla,records,concordance,0.7,0.0,10",
        ],
    ),
    "eval cost": (
        [
            '{"currency": 0.007484999999999999, "endpoint": "m@http://example.invalid/v1", '
            '"input_tokens": 1045, "method": "definetti", "output_tokens": 290}',
            '{"currency": 0.006885, "endpoint": "m@http://example.invalid/v1", '
            '"input_tokens": 1045, "method": "vanilla", "output_tokens": 250}',
            '{"currency": 0.014369999999999997, "endpoint": "m@http://example.invalid/v1", '
            '"input_tokens": 2090, "method": "__total__", "output_tokens": 540}',
        ],
        [
            "endpoint,method,input_tokens,output_tokens,currency",
            "m@http://example.invalid/v1,definetti,1045,290,0.007484999999999999",
            "m@http://example.invalid/v1,vanilla,1045,250,0.006885",
            "m@http://example.invalid/v1,__total__,2090,540,0.014369999999999997",
        ],
    ),
    "synth run": (
        [
            '{"error_rate": 0.0, "first_order_mean": 1.687005433856425, "first_order_std": 0.0, '
            '"m": 2, "method": "definetti", "n": 2, "p": 0.25, "second_order_mean": null, '
            '"second_order_std": null}',
            '{"error_rate": 0.0, "first_order_mean": null, "first_order_std": null, "m": 2, '
            '"method": "probint", "n": 2, "p": 0.25, "second_order_mean": 0.5, '
            '"second_order_std": 0.0}',
            '{"error_rate": 0.0, "first_order_mean": 2.0794415416798357, "first_order_std": 0.0, '
            '"m": 2, "method": "definetti", "n": 2, "p": 0.5, "second_order_mean": null, '
            '"second_order_std": null}',
            '{"error_rate": 0.0, "first_order_mean": null, "first_order_std": null, "m": 2, '
            '"method": "probint", "n": 2, "p": 0.5, "second_order_mean": 0.5, '
            '"second_order_std": 0.0}',
        ],
        [
            "method,p,m,n,first_order_mean,first_order_std,second_order_mean,"
            "second_order_std,error_rate",
            "definetti,0.25,2,2,1.687005433856425,0.0,,,0.0",
            "probint,0.25,2,2,,,0.5,0.0,0.0",
            "definetti,0.5,2,2,2.0794415416798357,0.0,,,0.0",
            "probint,0.5,2,2,,,0.5,0.0,0.0",
        ],
    ),
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("command", sorted(PINNED_ROWS))
def test_row_output_bytes_are_pinned(tmp_path, capsys, command, to_file):
    argv = row_command_argv(tmp_path, command)
    lines, table = PINNED_ROWS[command]
    if not to_file:
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == "".join(line + "\n" for line in lines)
        return
    out = tmp_path / "rows.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {len(lines)} rows to {out}\n"
    assert out.read_bytes() == "".join(line + "\r\n" for line in table).encode("utf-8")


def test_mock_serve_requires_a_readable_script(tmp_path, capsys):
    code = main(["mock", "serve", "--script", str(tmp_path / "missing.json")])
    assert code == EXIT_DATASET
    assert "error" in capsys.readouterr().err


def test_campaign_config_without_endpoints_is_a_dataset_error(tmp_path, capsys):
    _, config_path = write_campaign_config(tmp_path, "http://127.0.0.1:9/v1")
    path = tmp_path / "config.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["endpoints"]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["campaign", "run", "--config", config_path]) == EXIT_DATASET
    err = capsys.readouterr().err
    assert err == "error: CampaignConfig.endpoints: missing required key\n"
    assert not (tmp_path / "runs").exists()


def test_campaign_config_with_an_integer_too_large_for_a_float_is_a_dataset_error(
    tmp_path, capsys
):
    _, config_path = write_campaign_config(tmp_path, "http://127.0.0.1:9/v1")
    path = tmp_path / "config.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["dataset"]["noise_p"] = 10**400
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["campaign", "run", "--config", config_path]) == EXIT_DATASET
    err = capsys.readouterr().err
    assert err == ("error: DatasetSource.noise_p: expected a finite number, got int 1"
                   + "0" * 59 + "\n")
    assert not (tmp_path / "runs").exists()


def test_synth_config_outside_the_generator_bounds_is_a_dataset_error(tmp_path, capsys):
    _, config_path = write_campaign_config(tmp_path, "http://127.0.0.1:9/v1")
    path = tmp_path / "config.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["dataset"]["m"] = -1
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["campaign", "run", "--config", config_path]) == EXIT_DATASET
    err = capsys.readouterr().err
    assert err == "error: synth dataset needs m >= 0 and count >= 1, got m=-1, count=1\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("field, value, message", [
    ("dataset", {"kind": DATASET_QA_FILE, "path": "qa.jsonl", "format": "maqa"},
     "unknown QA format 'maqa'; choose from ('maqa_like', 'ambigqa_like', 'mc_like')"),
    ("methods", ["vanilla", "vanilla"], "method 'vanilla' is listed twice"),
    ("seeds", [0, 0], "seed 0 is listed twice"),
    ("endpoints", [{"base_url": "http://127.0.0.1:9/v1", "model_id": "mock-agent", "seed": 7}],
     "endpoint seed 7 would be ignored: list the seeds to run under seeds"),
], ids=["unknown QA format", "repeated method", "repeated seed", "endpoint seed"])
def test_a_refused_campaign_config_is_a_dataset_error_before_any_request(
    tmp_path, monkeypatch, capsys, field, value, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "qa.jsonl").write_text('{"question": "q?", "answers": ["a"]}\n', encoding="utf-8")
    _, config_path = write_campaign_config(tmp_path, "http://127.0.0.1:9/v1")
    path = tmp_path / "config.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data[field] = value
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["campaign", "run", "--config", config_path]) == EXIT_DATASET
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("flags, message", [
    (["--methods", "vanilla,vanilla"], "method 'vanilla' is listed twice"),
    (["--p-grid", "0.25,0.5,0.25"], "p 0.25 is listed twice"),
    (["--m-grid", "1,1"], "m 1 is listed twice"),
    (["--m-grid", ","], "the p and m grids must be non-empty"),
    (["--repeats", "0"], "repeats must be >= 1, got 0"),
    (["--p-grid", "abc"], "--p-grid takes comma-separated numbers, got 'abc'"),
    (["--m-grid", "1.5"], "--m-grid takes comma-separated integers, got '1.5'"),
    (["--p-grid", "0.25,2"], "noise probability must lie in [0, 1], got 2.0"),
    (["--m-grid=1,-1"], "synth dataset needs m >= 0 and count >= 1, got m=-1, count=1"),
])
def test_synth_run_refuses_a_grid_it_cannot_run_once(monkeypatch, capsys, flags, message):
    monkeypatch.setattr(ipuq.study, "run_campaign",
                        lambda *args, **kwargs: pytest.fail("a grid cell ran"))
    code = main(["synth", "run", "--p-grid", "0.25", "--m-grid", "1", "--repeats", "1",
                 *flags])
    assert code == EXIT_DATASET
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_an_output_dir_that_is_a_file_is_a_dataset_error(tmp_path, capsys):
    config, config_path = write_campaign_config(tmp_path, "http://localhost:1")
    Path(config.output_dir).write_text("not a directory", encoding="utf-8")
    assert main(["campaign", "run", "--config", config_path]) == EXIT_DATASET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: [Errno 20] Not a directory: "
                            f"{records_path(config.output_dir)!r}\n")


@pytest.mark.parametrize("named", ["records", "config"])
def test_a_named_input_that_is_a_directory_is_a_dataset_error(tmp_path, capsys, named):
    argv = {"records": ["eval", "auroc", "--records", str(tmp_path)],
            "config": ["eval", "cost", "--records", eval_fixture_records(tmp_path),
                       "--config", str(tmp_path)]}[named]
    assert main(argv) == EXIT_DATASET
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


@pytest.mark.parametrize("data, message", [
    ({"entries": [{"question": "q", "kind": "vanilla"}]},
     "ScriptEntry.replies: missing required key"),
    ({}, "a mock script needs entries, an agent, or both"),
], ids=["entry without replies", "empty script"])
def test_malformed_mock_script_is_a_dataset_error(tmp_path, capsys, data, message):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(data), encoding="utf-8")
    assert main(["mock", "serve", "--script", str(script), "--port", "0"]) == EXIT_DATASET
    assert capsys.readouterr().err == f"error: {message}\n"


def test_mock_serve_refuses_a_script_listing_a_key_twice(tmp_path, capsys, monkeypatch):
    entry = {"question": "q", "kind": "vanilla"}
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"entries": [dict(entry, replies=["a"]),
                                              dict(entry, replies=["b", "c"])]}),
                      encoding="utf-8")

    def interrupted(self, poll_interval=0.5):
        raise KeyboardInterrupt  # a server that did start stops at once

    monkeypatch.setattr(ThreadingHTTPServer, "serve_forever", interrupted)
    assert main(["mock", "serve", "--script", str(script), "--port", "0"]) == EXIT_DATASET
    assert capsys.readouterr() == ("", "error: script entry ('q', 'vanilla', None) is listed twice\n")


@pytest.mark.parametrize("where, reason", [
    (["--port", "70000"], "127.0.0.1:70000: bind(): port must be 0-65535."),
    (["--port", "-1"], "127.0.0.1:-1: bind(): port must be 0-65535."),
    # a documentation address no interface holds: bind fails without a lookup
    (["--host", "192.0.2.1", "--port", "0"], "192.0.2.1:0: "),
], ids=["port above 65535", "negative port", "host not on this machine"])
def test_mock_serve_on_an_address_it_cannot_bind_is_a_usage_error(
    tmp_path, capsys, where, reason
):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(MockScript(agent=AgentConfig()).to_dict()), encoding="utf-8")
    assert main(["mock", "serve", "--script", str(script), *where]) == EXIT_DATASET
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot serve on {reason}")


def test_mock_serve_announces_the_bound_port_and_closes_on_ctrl_c(
    tmp_path, capsys, monkeypatch
):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(MockScript(agent=AgentConfig()).to_dict()), encoding="utf-8")
    servers = []

    def interrupted(self, poll_interval=0.5):
        servers.append(self)
        raise KeyboardInterrupt

    monkeypatch.setattr(ThreadingHTTPServer, "serve_forever", interrupted)
    assert main(["mock", "serve", "--script", str(script), "--port", "0"]) == EXIT_OK
    (server,) = servers
    port = server.server_address[1]
    assert port != 0
    assert capsys.readouterr().out.splitlines() == [
        f"serving mock endpoint on http://127.0.0.1:{port} (ctrl-c to stop)"
    ]
    assert server.socket.fileno() == -1  # the listening socket is closed
