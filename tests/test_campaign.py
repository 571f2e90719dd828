"""Campaign engine: config, record persistence, scoring modes, resume, determinism."""

import collections
import dataclasses
import json
import logging
import math
import os
import random
import re
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipuq.campaign
import ipuq.datasets
from ipuq.campaign import (
    DATASET_QA_FILE,
    DATASET_SYNTH,
    METHODS,
    MODE_ANSWER,
    MODE_AUTO,
    MODE_SET,
    RECORD_SCHEMA,
    RECORDS,
    CampaignConfig,
    DatasetSource,
    RecordDecodeError,
    RecordsSchemaError,
    append_records,
    build_synth_records,
    canonical_json,
    decide,
    existing_keys,
    load_run_records,
    records_path,
    recompute_scores,
    run_campaign,
    score_payload,
)
from ipuq.core import (
    CandidateSet,
    ConfigError,
    CredalSet,
    PossibilityAssignment,
    PrecisePMF,
    ProbabilityIntervalSet,
    QARecord,
    interval_from_credal,
)
from ipuq.cli import EXIT_PARTIAL, main
from ipuq.elicit.client import (
    ChatClient,
    HttpTransport,
    ModelEndpoint,
    TransportError,
    parse_response_body,
)
from ipuq.elicit.prompts import extract_question
from ipuq.mmi import exact_mmi_credal, mmi_upper_bound
from ipuq.mock import AgentConfig, MockScript, MockTransport, ScriptEntry
from ipuq.reporting import LABEL_INCORRECT, cost_rows, record_label
from ipuq.scores import bernoulli_entropy, entropy
from ipuq.synth import TransformSpec

ROT1 = TransformSpec(steps=(("rotation", 1),))
TWO = CandidateSet(answers=("A", "B"))
THREE = CandidateSet(answers=("A", "B", "C"))


def synth_source(**overrides):
    defaults = dict(kind=DATASET_SYNTH, transform=ROT1, noise_p=0.25, m=2,
                    word_length=3, count=2, base_seed=0)
    defaults.update(overrides)
    return DatasetSource(**defaults)


def make_config(tmp_path, **overrides):
    defaults = dict(
        dataset=synth_source(),
        methods=("definetti",),
        endpoints=(ModelEndpoint(base_url="inproc://agent", model_id="mock-agent"),),
        seeds=(0,),
        output_dir=str(tmp_path / "runs"),
        credal_members=3,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _records_without_timing(config):
    records = load_run_records(records_path(config.output_dir))
    for record in records:
        record.pop("timing")
    return records


def agent_client(**kwargs):
    transport = MockTransport(MockScript(agent=AgentConfig(**kwargs)))
    return ChatClient(transport), transport


class TestConfig:
    def test_dataset_source_validation(self):
        with pytest.raises(ConfigError):
            DatasetSource(kind=DATASET_QA_FILE)  # needs path+format
        with pytest.raises(ConfigError):
            DatasetSource(kind=DATASET_SYNTH)  # needs transform
        with pytest.raises(ConfigError):
            DatasetSource(kind="sql")
        DatasetSource(kind=DATASET_QA_FILE, path="x.jsonl", format="maqa_like")

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, methods=("definetti", "astrology"))

    def test_empty_endpoints_and_seeds_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, endpoints=())
        with pytest.raises(ConfigError):
            make_config(tmp_path, seeds=())

    def test_second_endpoint_rejected(self, tmp_path):
        endpoints = (
            ModelEndpoint(base_url="inproc://agent", model_id="mock-agent"),
            ModelEndpoint(base_url="inproc://agent", model_id="other-agent"),
        )
        with pytest.raises(ConfigError, match="exactly one endpoint"):
            make_config(tmp_path, endpoints=endpoints)

    def test_bounds(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, retry_budget=0)
        with pytest.raises(ConfigError):
            make_config(tmp_path, score_mode="psychic")

    def test_json_round_trip(self, tmp_path):
        config = make_config(
            tmp_path,
            methods=("definetti", "credal"),
            seeds=(0, 7),
            score_mode=MODE_SET,
            salvage_renormalize=True,
        )
        assert CampaignConfig.from_dict(config.to_dict()) == config
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        assert CampaignConfig.load(str(path)) == config

    def test_config_with_removed_keys_still_loads(self, tmp_path):
        config = make_config(tmp_path)
        data = dict(config.to_dict(), generator_endpoint=0, exact_enum_cap=16)
        assert CampaignConfig.from_dict(data) == config

    def test_qa_file_source_round_trip(self):
        source = DatasetSource(kind=DATASET_QA_FILE, path="d.jsonl", format="mc_like")
        assert DatasetSource.from_dict(source.to_dict()) == source


class TestRecordsFile:
    def test_header_written_once(self, tmp_path):
        path = records_path(str(tmp_path / "out"))
        append_records(path, [_reader_record("q")])
        append_records(path, [_reader_record("q2")])
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0]) == {"schema": RECORD_SCHEMA}
        assert len(lines) == 3
        assert len(load_run_records(path)) == 2

    def test_schema_mismatch_refused(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"schema":"someone.elses.v9"}\n{}\n', encoding="utf-8")
        with pytest.raises(RecordsSchemaError):
            load_run_records(str(path))

    def test_existing_keys(self, tmp_path):
        path = records_path(str(tmp_path))
        assert existing_keys(path) == set()
        append_records(
            path,
            [
                {"key": {"question_id": "q1", "method": "definetti", "seed": 0}},
                {"key": {"question_id": "q1", "method": "probint", "seed": 2}},
            ],
        )
        assert existing_keys(path) == {("q1", "definetti", 0), ("q1", "probint", 2)}

    def test_load_skips_blank_lines_and_reads_an_empty_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_run_records(str(path)) == []
        assert existing_keys(str(path)) == set()
        record = _reader_record("q", seed=1)
        path.write_text(f"\n{canonical_json({'schema': RECORD_SCHEMA})}\n \n"
                        f"{canonical_json(record)}\n\n", encoding="utf-8")
        assert load_run_records(str(path)) == [record]
        assert existing_keys(str(path)) == {("q", "vanilla", 1)}

    def test_header_only_file_has_no_keys(self, tmp_path):
        path = records_path(str(tmp_path))
        append_records(path, [])
        assert Path(path).read_text(encoding="utf-8") == canonical_json(
            {"schema": RECORD_SCHEMA}) + "\n"
        assert existing_keys(path) == set()

    def test_existing_keys_refuses_a_wrong_header(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"schema":"someone.elses.v9"}\n'
                        '{"key":{"method":"m","question_id":"q","seed":0}}\n', encoding="utf-8")
        with pytest.raises(RecordsSchemaError):
            existing_keys(str(path))

    def test_a_non_canonical_line_is_decoded_in_full(self, tmp_path):
        path = records_path(str(tmp_path))
        append_records(path, [])
        record = {"question": "q?", "key": {"seed": 3, "question_id": "q7", "method": "probint"},
                  "endpoint": {"key": "k"}}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        assert '"key": {' in Path(path).read_text(encoding="utf-8")
        assert existing_keys(path) == {("q7", "probint", 3)}

    def test_a_line_without_a_key_span_must_decode(self, tmp_path):
        path = records_path(str(tmp_path))
        append_records(path, [{"key": {"question_id": "q", "method": "m", "seed": 0}}])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": {"question_id": "q2", "method": "m", "seed": 0\n')
        with pytest.raises(RecordDecodeError, match=r"records\.jsonl: line 3, byte offset 54: "
                                                    r"not JSON \(Expecting ',' delimiter\)"):
            existing_keys(path)

    def test_keys_are_read_without_loading_records(self, tmp_path, monkeypatch):
        config = make_config(tmp_path)
        run_campaign(config, client=agent_client()[0])

        def refuse(path):
            raise AssertionError("a resume decoded every record")

        monkeypatch.setattr(ipuq.campaign, "load_run_records", refuse)
        assert existing_keys(records_path(config.output_dir)) == {
            ("synth-0000", "definetti", 0), ("synth-0001", "definetti", 0)}
        client, transport = agent_client()
        assert run_campaign(config, client=client) == []
        assert transport.calls == 0


# Strings a record may carry verbatim from a question file or an endpoint: a
# raw key span, quotes, backslashes, line breaks JSON leaves unescaped
# (U+2028, U+0085) and non-ASCII text.
_TRICKY = st.sampled_from((
    '"key":{"method":"definetti","question_id":"q","seed":0}', '{"key":{', '\\"key\\":{',
    "\\", '"', "\n", "\r", "\u2028", "\x85", "é", "問", "\U0001f4a5",
))
_TEXT = st.lists(st.one_of(_TRICKY, st.text(max_size=4)), max_size=4).map("".join)


@st.composite
def _stored_records(draw):
    failed = draw(st.booleans())
    method = draw(st.sampled_from(METHODS))
    return {
        "key": {"question_id": draw(_TEXT), "method": method,
                "seed": draw(st.integers(-(2 ** 40), 2 ** 40))},
        "question": draw(_TEXT),
        "candidates": {"answers": draw(st.lists(_TEXT, max_size=3)),
                       "case_sensitive": False, "open_ended": True},
        "truth_set": draw(st.lists(_TEXT, max_size=2)),
        "endpoint": {"key": draw(_TEXT), "model_id": draw(_TEXT), "base_url": "inproc://agent"},
        "elicitation": {
            "kind": method,
            "succeeded": not failed,
            "error": draw(_TEXT) if failed else None,
            "payload": None if failed else {"confidence": 0.5},
            "usage": {"input_tokens": draw(st.integers(0, 99)), "output_tokens": 1},
            "transcripts": [{"member": 0, "attempts": [
                {"attempt": 1, "request": draw(_TEXT), "response": draw(_TEXT),
                 "reply": draw(_TEXT)}]}],
        },
        "labels": {"ambiguous": 1, "correct": None},
        "scores": {"mode": "set", "first_order": None if failed else 0.5},
        "decision": None if failed else {"chosen_answer": draw(_TEXT), "rule": "argmax"},
    }


@settings(max_examples=40, deadline=None)
@given(st.lists(_stored_records(), min_size=1, max_size=4))
def test_key_scan_matches_a_full_decode(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = records_path(tmp)
        append_records(path, records)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")[1:-1]
        assert len(lines) == len(records)
        full = {(k["question_id"], k["method"], k["seed"])
                for k in (json.loads(line)["key"] for line in lines)}
        assert existing_keys(path) == full
        assert load_run_records(path) == records


# The records file readers against a plain per-line decode, for every line
# layout a records file may have and chunk sizes that split the header and
# the key span.
_HEADER = canonical_json({"schema": RECORD_SCHEMA})


def _reader_record(question_id, question="q?", pad=10, seed=0):
    """A small record holding its key and every member eval reads."""
    return {
        "key": {"question_id": question_id, "method": "vanilla", "seed": seed},
        "question": question,
        "candidates": {"answers": ["a"]},
        "truth_set": ["a"],
        "elicitation": {"transcripts": "x" * pad, "kind": "vanilla", "payload": None,
                        "usage": {"input_tokens": 1, "output_tokens": 1}},
        "endpoint": {"key": "ep"},
        "scores": {"mode": None, "first_order": None},
    }


def _reader_lines(chunk):
    records = [
        _reader_record("plain"),
        _reader_record("brace}{"),
        _reader_record('quote\\"q'),
        _reader_record("問題-é", question="Qu'est-ce que c'est ?"),
        _reader_record("quoter",
                       question='it says "key":{"question_id":"fake","method":"m","seed":9}'),
        _reader_record("long", pad=3 * chunk + 5, seed=4),
    ]
    lines = [canonical_json(r) for r in records]
    lines.append(json.dumps(_reader_record("spaced", seed=2)))  # not canonical: no key span
    return lines


def _reference_decode(data: bytes) -> list[dict]:
    lines = [line for line in data.decode("utf-8").split("\n") if line.strip()]
    if not lines:
        return []
    assert json.loads(lines[0]) == {"schema": RECORD_SCHEMA}
    return [json.loads(line) for line in lines[1:]]


_LAYOUTS = {
    "lf": lambda lines: "\n".join(lines) + "\n",
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "blank lines": lambda lines: "\n \n\r\n" + "\n\n \t\n".join(lines) + "\n\n  \n",
    "no final newline": lambda lines: "\n".join(lines),
}


@pytest.fixture(params=(2, 7, 64, ipuq.campaign._TAIL_CHUNK), ids="chunk{}".format)
def chunk(request, monkeypatch):
    monkeypatch.setattr(ipuq.campaign, "_TAIL_CHUNK", request.param)
    return request.param


class TestRecordsReader:
    @pytest.mark.parametrize("layout", _LAYOUTS.values(), ids=_LAYOUTS)
    def test_matches_a_plain_decode(self, tmp_path, chunk, layout):
        lines = _reader_lines(chunk)
        assert '"key": {' in lines[-1] and '"key":{' not in lines[-1]
        data = layout([_HEADER, *lines]).encode("utf-8")
        path = tmp_path / "records.jsonl"
        path.write_bytes(data)
        records = load_run_records(str(path))
        assert records == _reference_decode(data)
        assert len(records) == len(lines)
        assert existing_keys(str(path)) == {
            (r["key"]["question_id"], r["key"]["method"], r["key"]["seed"]) for r in records}

    def test_memory_holds_the_buffer_and_the_longest_line_not_the_file(self, tmp_path):
        # lines longer than the read buffer: four times as many of them add
        # only their keys to the peak, not their bytes
        buffer = ipuq.campaign._TAIL_CHUNK
        peaks = []
        for count in (50, 200):
            lines = [canonical_json(_reader_record(f"q{i}", pad=buffer + 5, seed=i))
                     for i in range(count)]
            longest = max(len(line.encode("utf-8")) for line in lines) + 1
            path = tmp_path / f"{count}.jsonl"
            path.write_text(_LAYOUTS["lf"]([_HEADER, *lines]), encoding="utf-8")
            del lines
            tracemalloc.start()
            try:
                assert len(existing_keys(str(path))) == count
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 4 * (buffer + longest)
        assert peaks[1] < 1.25 * peaks[0]

    @pytest.mark.parametrize("text", ["", "\n", " \r\n\n"], ids=["empty", "newline", "blank"])
    def test_a_file_without_lines_has_no_records(self, tmp_path, chunk, text):
        path = tmp_path / "records.jsonl"
        path.write_text(text, encoding="utf-8")
        assert load_run_records(str(path)) == []
        assert existing_keys(str(path)) == set()

    @pytest.mark.parametrize("read", (load_run_records, existing_keys))
    @pytest.mark.parametrize("header", ('{"schema":"someone.elses.v9"}', '["a list"]',
                                        f'"{RECORD_SCHEMA}"'))
    def test_a_wrong_header_is_refused(self, tmp_path, chunk, read, header):
        # the header is the object append_records writes, not its schema string alone
        path = tmp_path / "records.jsonl"
        path.write_text(f"\n{header}\n{_reader_lines(chunk)[0]}\n", encoding="utf-8")
        with pytest.raises(RecordsSchemaError, match="someone.elses.v9|a list|"
                                                     f"header '{RECORD_SCHEMA}'"):
            read(str(path))

    @pytest.mark.parametrize("read", (load_run_records, existing_keys))
    def test_a_malformed_line_without_a_key_span_must_decode(self, tmp_path, chunk, read):
        path = tmp_path / "records.jsonl"
        path.write_text(f"{_HEADER}\n{_reader_lines(chunk)[0]}\n"
                        '{"key": {"question_id": "q2", "method": "m", "seed": 0\n',
                        encoding="utf-8")
        with pytest.raises(RecordDecodeError, match=r"records\.jsonl: line 3, byte offset 54: "
                                                    r"not JSON \(Expecting ',' delimiter\)"):
            read(str(path))

    @pytest.mark.parametrize("read", (load_run_records, existing_keys))
    @pytest.mark.parametrize("bad, reason", ((b"@", "not JSON (Expecting value)"),
                                             (b"\xff", "not UTF-8 (invalid start byte)")))
    def test_an_undecodable_line_names_its_line_and_byte(self, tmp_path, chunk, read, bad,
                                                          reason):
        # non-ASCII text before the failing byte, inside the key span and before it
        line = canonical_json(_reader_record("問題-é", question="é", seed=7)).encode("utf-8")
        line = line.replace(b'"seed":7', b'"seed":' + bad)
        path = tmp_path / "records.jsonl"
        path.write_bytes(b"\n".join(
            [_HEADER.encode(), b"", _reader_lines(chunk)[0].encode(), line, b""]))
        with pytest.raises(RecordDecodeError) as caught:
            read(str(path))
        assert str(caught.value) == f"{path}: line 4, byte offset {line.index(bad)}: {reason}"
        assert (caught.value.line, caught.value.offset) == (4, line.index(bad))

    @pytest.mark.parametrize("read", (load_run_records, existing_keys))
    @pytest.mark.parametrize("line", (
        '{"question":"q"}',
        '["a list"]',
        '"text"',
        '{"key":"q0"}',
        '{"key": null}',
        '{"key":{"question_id":"q0","method":"vanilla"}}',
        '{"key": {"method": "vanilla", "seed": 0}}',
        '{"key":{"question_id":["q"],"method":"m","seed":0}}',
        '{"key":{"question_id":7,"method":"m","seed":0}}',
        '{"key":{"question_id":"q","method":"m","seed":true}}',
    ))
    def test_a_line_without_a_record_key_names_its_line(self, tmp_path, chunk, read, line):
        path = tmp_path / "records.jsonl"
        path.write_text(f"{_HEADER}\n\n{_reader_lines(chunk)[0]}\n{line}\n", encoding="utf-8")
        with pytest.raises(RecordsSchemaError) as caught:
            read(str(path))
        assert str(caught.value) == (
            f"{path}: line 4: not a record (key needs a string question_id, a string method "
            "and an integer seed)")


class TestPayloadRoundTrip:
    def test_definetti(self):
        pmf = PrecisePMF(candidates=TWO, probs=(0.25, 0.75))
        data = RECORDS["definetti"].encode(pmf)
        assert RECORDS["definetti"].decode(data, TWO) == pmf

    def test_probint(self):
        ivs = ProbabilityIntervalSet(candidates=TWO, lowers=(0.1, 0.2), uppers=(0.5, 0.8))
        data = RECORDS["probint"].encode(ivs)
        assert RECORDS["probint"].decode(data, TWO) == ivs

    def test_credal(self):
        credal = CredalSet(
            candidates=TWO,
            members=(
                PrecisePMF(candidates=TWO, probs=(0.2, 0.8)),
                PrecisePMF(candidates=TWO, probs=(0.6, 0.4)),
            ),
        )
        data = RECORDS["credal"].encode(credal)
        assert data == {"members": [[0.2, 0.8], [0.6, 0.4]]}
        assert RECORDS["credal"].decode(data, TWO) == credal

    def test_possibility(self):
        poss = PossibilityAssignment(candidates=TWO, scores=(1.0, 0.3), none_of_above=0.1)
        data = RECORDS["possibility"].encode(poss)
        assert RECORDS["possibility"].decode(data, TWO) == poss

    def test_vanilla(self):
        data = RECORDS["vanilla"].encode(0.8)
        assert RECORDS["vanilla"].decode(data, TWO) == 0.8

    @pytest.mark.parametrize("method, payload, error", [
        ("definetti", {}, "KeyError('probs')"),
        ("probint", {"lowers": [0.1, 0.2]}, "KeyError('uppers')"),
        ("credal", {"members": 5}, "TypeError("),
        ("possibility", {"scores": [1.0, 0.3], "none_of_above": "x"}, "ValueError("),
        ("vanilla", {"confidence": None}, "TypeError("),
    ])
    def test_a_payload_that_does_not_decode_names_its_record(self, method, payload, error):
        record = {"key": {"question_id": "q", "method": method, "seed": 0},
                  "candidates": {"answers": ["A", "B"]},
                  "elicitation": {"payload": payload}, "scores": {"mode": MODE_SET}}
        with pytest.raises(RecordsSchemaError) as caught:
            recompute_scores(record)
        assert str(caught.value).startswith(
            f"record q/{method}/0: payload does not decode ({error}")

    def test_candidates_that_are_not_strings_name_their_record(self):
        record = {"key": {"question_id": "q", "method": "definetti", "seed": 0},
                  "candidates": {"answers": ["a", 7]},
                  "elicitation": {"payload": {"probs": [0.5, 0.5]}},
                  "scores": {"mode": MODE_SET}}
        with pytest.raises(RecordsSchemaError) as caught:
            recompute_scores(record)
        assert str(caught.value) == (
            "record q/definetti/0: payload does not decode "
            "(TextError('candidate answers must be strings, got 7'))")


class TestScorePayload:
    def test_definetti_set_vs_answer(self):
        pmf = PrecisePMF(candidates=TWO, probs=(0.25, 0.75))
        first, second, used = score_payload("definetti", pmf, mode=MODE_SET)
        assert used == MODE_SET
        assert first == entropy(pmf) and second is None
        first, second, used = score_payload(
            "definetti", pmf, mode=MODE_AUTO, prediction_index=1
        )
        assert used == MODE_ANSWER
        assert first == bernoulli_entropy(0.75)

    def test_auto_without_prediction_falls_back_to_set(self):
        pmf = PrecisePMF(candidates=TWO, probs=(0.5, 0.5))
        _, _, used = score_payload("definetti", pmf, mode=MODE_AUTO)
        assert used == MODE_SET

    def test_probint_modes(self):
        ivs = ProbabilityIntervalSet(candidates=TWO, lowers=(0.1, 0.3), uppers=(0.5, 0.8))
        first, second, _ = score_payload("probint", ivs, mode=MODE_SET)
        assert first is None
        assert second == 1.0 - (0.1 + 0.3)
        _, second, _ = score_payload("probint", ivs, mode=MODE_ANSWER,
                                     prediction_index=1)
        assert second == pytest.approx(0.5)

    def test_credal_set_level_is_exact(self):
        credal = CredalSet(
            candidates=THREE,
            members=(
                PrecisePMF(candidates=THREE, probs=(0.2, 0.3, 0.5)),
                PrecisePMF(candidates=THREE, probs=(0.5, 0.3, 0.2)),
            ),
        )
        _, exact, _ = score_payload("credal", credal, mode=MODE_SET)
        assert exact == pytest.approx(0.3)  # best event {A} or {C}

    def test_credal_set_level_is_exact_for_twenty_candidates(self):
        # Each member splits its mass over two of the first three answers, so
        # every answer has lower probability 0 and the 1 - sum(lowers) bound
        # is 1, while any two members differ by exactly 0.5.
        twenty = CandidateSet(answers=tuple(f"a{i}" for i in range(20)))
        rows = ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5))
        credal = CredalSet(
            candidates=twenty,
            members=tuple(
                PrecisePMF(candidates=twenty, probs=row + (0.0,) * 17) for row in rows
            ),
        )
        _, second, _ = score_payload("credal", credal, mode=MODE_SET)
        assert second == exact_mmi_credal(credal).value == 0.5
        assert second < mmi_upper_bound(interval_from_credal(credal).lowers).value == 1.0

    def test_possibility_modes(self):
        poss = PossibilityAssignment(
            candidates=THREE, scores=(1.0, 0.4, 0.2), none_of_above=0.0
        )
        _, second, _ = score_payload("possibility", poss, mode=MODE_SET)
        assert second == 0.4
        _, binary, _ = score_payload("possibility", poss, mode=MODE_ANSWER,
                                     prediction_index=0)
        assert binary == 0.4  # min(chosen, strongest rival)

    def test_vanilla(self):
        first, second, _ = score_payload("vanilla", 0.9, mode=MODE_SET)
        assert first == pytest.approx(0.1) and second is None

    def test_unknown_mode_rejected(self):
        pmf = PrecisePMF(candidates=TWO, probs=(0.5, 0.5))
        with pytest.raises(ValueError):
            score_payload("definetti", pmf, mode="both")


class TestDecide:
    def test_rules_per_method(self):
        pmf = PrecisePMF(candidates=TWO, probs=(0.3, 0.7))
        assert decide("definetti", pmf).chosen_answer == "B"
        ivs = ProbabilityIntervalSet(candidates=TWO, lowers=(0.3, 0.4), uppers=(0.6, 0.5))
        assert decide("probint", ivs).chosen_answer == "B"  # maximin
        credal = CredalSet(
            candidates=TWO,
            members=(
                PrecisePMF(candidates=TWO, probs=(0.9, 0.1)),
                PrecisePMF(candidates=TWO, probs=(0.4, 0.6)),
            ),
        )
        assert decide("credal", credal).chosen_answer == "A"
        assert decide("vanilla", 0.9) is None
        assert decide("possibility", None) is None


class TestSynthRecords:
    def test_shapes_and_ids(self):
        records = build_synth_records(synth_source(count=3, word_length=3, m=2))
        assert [r.question_id for r in records] == ["synth-0000", "synth-0001", "synth-0002"]
        for record in records:
            assert record.question.count("→ Output:") == 3  # m demos + query
            assert len(record.candidates) == 2**3
            assert record.candidates.case_sensitive
            assert math.fsum(record.pstar) == pytest.approx(1.0, abs=1e-9)
            assert record.reference_answer in record.truth_set
            assert len(record.truth_set) > 1

    @pytest.mark.parametrize("noise_p", [0.0, 1.0])
    def test_the_clean_reference_is_in_the_truth_set_at_every_noise(self, noise_p):
        # at p = 0 the clean casing is the one variant; at p = 1 the
        # all-lowercase one is, and the clean casing joins the truth set at p* 0
        (record,) = build_synth_records(synth_source(noise_p=noise_p, count=1))
        clean = record.reference_answer
        lowered = clean.lower()
        only = clean if noise_p == 0.0 else lowered
        assert record.candidates.answers == (only,)
        assert dict(zip(record.truth_set, record.pstar)) == (
            {clean: 1.0} if noise_p == 0.0 else {lowered: 1.0, clean: 0.0})

    def test_deterministic_in_base_seed(self):
        a = build_synth_records(synth_source(base_seed=5))
        b = build_synth_records(synth_source(base_seed=5))
        c = build_synth_records(synth_source(base_seed=6))
        assert [r.question for r in a] == [r.question for r in b]
        assert [r.question for r in a] != [r.question for r in c]


ALL_METHODS = ("definetti", "probint", "credal", "possibility", "vanilla")


class TestRunCampaign:
    def test_full_grid_is_recorded(self, tmp_path):
        config = make_config(tmp_path, methods=ALL_METHODS, seeds=(0, 1))
        client, transport = agent_client()
        written = run_campaign(config, client=client)
        assert len(written) == 2 * len(ALL_METHODS) * 2  # questions x methods x seeds
        stored = load_run_records(records_path(config.output_dir))
        assert [r["key"] for r in stored] == [r["key"] for r in written]
        assert all(r["elicitation"]["succeeded"] for r in stored)
        # credal cells fan out one call per member; the rest take one call
        per_question_calls = (len(ALL_METHODS) - 1) + config.credal_members
        assert transport.calls == 2 * 2 * per_question_calls

    def test_second_run_is_a_no_op(self, tmp_path):
        config = make_config(tmp_path)
        client, _ = agent_client()
        first = run_campaign(config, client=client)
        assert len(first) == 2
        client2, transport2 = agent_client()
        assert run_campaign(config, client=client2) == []
        assert transport2.calls == 0

    def test_resume_fills_only_the_missing_cell(self, tmp_path):
        config = make_config(tmp_path, methods=("definetti", "probint"))
        client, _ = agent_client()
        run_campaign(config, client=client)
        path = records_path(config.output_dir)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        dropped = json.loads(lines[2])  # second record of four
        Path(path).write_text("\n".join(lines[:2] + lines[3:]) + "\n", encoding="utf-8")

        client2, transport2 = agent_client()
        resumed = run_campaign(config, client=client2)
        assert len(resumed) == 1
        assert transport2.calls == 1
        assert resumed[0]["key"] == dropped["key"]
        stored = load_run_records(path)
        assert len(stored) == 4
        assert {(r["key"]["question_id"], r["key"]["method"], r["key"]["seed"])
                for r in stored} == {
            (q, m, 0) for q in ("synth-0000", "synth-0001") for m in ("definetti", "probint")
        }

    def test_resume_logs_cells_recorded_and_left(self, tmp_path, caplog):
        config = make_config(tmp_path, methods=("definetti", "probint"))
        path = records_path(config.output_dir)
        with caplog.at_level(logging.INFO, logger="ipuq.campaign"):
            run_campaign(config, client=agent_client()[0])
        assert caplog.messages == [f"{path}: 0 cells already recorded, 4 to run"]
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        Path(path).write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")

        caplog.clear()
        with caplog.at_level(logging.INFO, logger="ipuq.campaign"):
            run_campaign(config, client=agent_client()[0])
            run_campaign(config, client=agent_client()[0])
        assert caplog.messages == [f"{path}: 3 cells already recorded, 1 to run",
                                   f"{path}: 4 cells already recorded, 0 to run"]

    def test_resume_after_a_torn_last_record(self, tmp_path, caplog):
        whole = make_config(tmp_path, methods=("definetti", "probint"),
                            output_dir=str(tmp_path / "whole"))
        run_campaign(whole, client=agent_client()[0])
        torn = make_config(tmp_path, methods=("definetti", "probint"),
                           output_dir=str(tmp_path / "torn"))
        run_campaign(torn, client=agent_client()[0])
        path = Path(records_path(torn.output_dir))
        data = path.read_bytes()
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        cut = last_start + (len(data) - last_start) // 2
        path.write_bytes(data[:cut])

        client, transport = agent_client()
        with caplog.at_level(logging.WARNING, logger="ipuq.campaign"):
            resumed = run_campaign(torn, client=client)
        assert f"dropped {cut - last_start} bytes" in caplog.text
        assert transport.calls == 1
        assert [r["key"] for r in resumed] == [json.loads(data[last_start:])["key"]]
        assert _records_without_timing(torn) == _records_without_timing(whole)

    @pytest.mark.parametrize("chunks, extra", [(1, -1), (1, 0), (1, 1), (2, 5)])
    def test_torn_record_as_long_as_the_scan_chunk_or_longer(self, tmp_path, caplog,
                                                             chunks, extra):
        path = records_path(str(tmp_path))
        append_records(path, [{"key": {"question_id": "q", "method": "vanilla", "seed": 0}}])
        whole = Path(path).read_bytes()
        torn = b"x" * (chunks * ipuq.campaign._TAIL_CHUNK + extra)
        Path(path).write_bytes(whole + torn)
        with caplog.at_level(logging.WARNING, logger="ipuq.campaign"):
            ipuq.campaign._drop_torn_tail(path)
        assert Path(path).read_bytes() == whole
        assert f"dropped {len(torn)} bytes" in caplog.text

    def test_resume_when_the_only_line_is_torn(self, tmp_path, caplog):
        whole = make_config(tmp_path, output_dir=str(tmp_path / "whole"))
        run_campaign(whole, client=agent_client()[0])
        torn = make_config(tmp_path, output_dir=str(tmp_path / "torn"))
        path = Path(records_path(torn.output_dir))
        path.parent.mkdir()
        path.write_bytes(b'{"schema":"ipu')

        client, transport = agent_client()
        with caplog.at_level(logging.WARNING, logger="ipuq.campaign"):
            run_campaign(torn, client=client)
        assert "dropped 14 bytes" in caplog.text
        assert _records_without_timing(torn) == _records_without_timing(whole)

    def test_records_identical_across_runs_except_timing(self, tmp_path):
        def one_run(subdir, concurrency):
            config = make_config(
                tmp_path,
                methods=ALL_METHODS,
                seeds=(0, 3),
                output_dir=str(tmp_path / subdir),
                concurrency=concurrency,
            )
            client, _ = agent_client()
            run_campaign(config, client=client)
            records = load_run_records(records_path(config.output_dir))
            for record in records:
                record.pop("timing")
            return [canonical_json(r) for r in records]

        assert one_run("a", 1) == one_run("b", 1) == one_run("c", 4)

    def test_auto_mode_falls_back_to_set_level_and_answer_mode_is_refused(self, tmp_path):
        # a prediction outside the candidate set is scored set-level under
        # "auto"; "answer" is only ever recorded, never configured
        data = tmp_path / "qa.jsonl"
        rows = [
            {"id": "in", "question": "Which river runs through Lyon?",
             "answers": ["Rhone", "Saone"], "prediction": "Saone"},
            {"id": "out", "question": "Which planet is called the red planet?",
             "answers": ["Mars", "Ares"], "prediction": "Venus"},
        ]
        data.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        source = DatasetSource(kind=DATASET_QA_FILE, path=str(data), format="maqa_like")
        config = make_config(tmp_path, dataset=source, methods=ALL_METHODS, score_mode=MODE_AUTO)
        client, _ = agent_client()
        run_campaign(config, client=client)
        used = {(r["key"]["question_id"], r["key"]["method"]): r["scores"]["mode"]
                for r in _records_without_timing(config)}
        assert used[("in", "possibility")] == MODE_ANSWER
        assert used[("out", "possibility")] == MODE_SET
        with pytest.raises(ConfigError, match="score_mode must be 'auto' or 'set', got 'answer'"):
            make_config(tmp_path, dataset=source, score_mode=MODE_ANSWER)

    def test_http_and_in_process_campaigns_write_the_same_records(self, tmp_path, serve):
        def records_without_timing(subdir, base_url, transport):
            config = make_config(
                tmp_path,
                methods=ALL_METHODS,
                seeds=(0, 3),
                output_dir=str(tmp_path / subdir),
                concurrency=2,
                endpoints=(ModelEndpoint(base_url=base_url, model_id="mock-agent"),),
            )
            run_campaign(config, client=ChatClient(transport))
            records = load_run_records(records_path(config.output_dir))
            for record in records:
                record.pop("timing")
            return [canonical_json(r) for r in records]

        script = MockScript(agent=AgentConfig(noise_p=0.3))
        with serve(script) as base_url:
            # credal member tags carry the endpoint URL, so both runs name the server
            over_http = records_without_timing("http", base_url, HttpTransport(timeout_s=10.0))
        in_process = records_without_timing("inproc", base_url, MockTransport(script))
        assert over_http == in_process

    def test_stored_scores_recompute_exactly(self, tmp_path):
        config = make_config(tmp_path, methods=ALL_METHODS)
        client, _ = agent_client(noise_p=0.3)
        for record in run_campaign(config, client=client):
            redone = recompute_scores(record)
            for field in ("first_order", "second_order", "combined"):
                assert redone[field] == record["scores"][field], field

    def test_legacy_record_with_exact_enum_cap_recomputes(self, tmp_path):
        config = make_config(tmp_path, methods=("credal",), score_mode=MODE_SET)
        client, _ = agent_client(credal_spread=0.05)
        legacy = run_campaign(config, client=client)
        for record in legacy:
            record["scores"]["exact_enum_cap"] = 16  # written by older versions
        path = records_path(str(tmp_path / "legacy"))
        append_records(path, legacy)
        loaded = load_run_records(path)
        assert loaded == legacy
        for record in loaded:
            redone = recompute_scores(record)
            for field in ("first_order", "second_order", "combined"):
                assert redone[field] == record["scores"][field], field

    def test_credal_members_carry_distinct_seeds(self, tmp_path):
        config = make_config(tmp_path, dataset=synth_source(count=1),
                             methods=("credal",), seeds=(2,), credal_members=3)
        client, _ = agent_client(credal_spread=0.05)
        (record,) = run_campaign(config, client=client)
        # each member's request bodies carry its seed
        seeds = [{json.loads(a["request"])["seed"] for a in member["attempts"]}
                 for member in record["elicitation"]["transcripts"]]
        assert seeds == [{200}, {201}, {202}]
        members = record["elicitation"]["payload"]["members"]
        assert len({tuple(m) for m in members}) > 1  # seeds produced distinct beliefs

    def test_failed_cells_are_recorded_not_raised(self, tmp_path):
        class RefusingTransport:
            def send(self, endpoint, system_text, user_text):
                raise TransportError("endpoint is down", retryable=False)

        config = make_config(tmp_path, methods=("definetti",))
        written = run_campaign(config, client=ChatClient(RefusingTransport()))
        assert len(written) == 2
        for record in written:
            assert not record["elicitation"]["succeeded"]
            assert "transport" in record["elicitation"]["error"]
            assert record["scores"]["first_order"] is None
            assert record["prediction"] is None

    def test_a_reply_whose_content_is_not_text_fails_its_cell_as_transport(
        self, tmp_path, caplog
    ):
        class NullContent:
            def send(self, endpoint, system_text, user_text):
                body = '{"choices": [{"message": {"content": null}}], "usage": {}}'
                return parse_response_body("{}", body)

        config = make_config(tmp_path, methods=("definetti",))
        written = run_campaign(config, client=ChatClient(NullContent()))
        assert [r["elicitation"]["error"] for r in written] == [
            "transport: malformed chat response body: content None is not a string"] * 2
        assert not [r for r in caplog.records if r.exc_info]  # no traceback is logged

    def test_record_usage_feeds_cost_rows(self, tmp_path):
        price_in, price_out = 2e-6, 6e-6
        config = make_config(
            tmp_path,
            methods=("definetti", "vanilla"),
            endpoints=(
                ModelEndpoint(
                    base_url="inproc://agent",
                    model_id="mock-agent",
                    price_per_input_token=price_in,
                    price_per_output_token=price_out,
                ),
            ),
        )
        client, _ = agent_client()
        written = run_campaign(config, client=client)
        usage = [r["elicitation"]["usage"] for r in written]
        assert len(usage) == 4
        assert all(u["input_tokens"] > 0 for u in usage)
        *_, total = cost_rows(written, config.endpoints)
        assert total["method"] == "__total__"
        expected = sum(u["input_tokens"] * price_in + u["output_tokens"] * price_out
                       for u in usage)
        assert total["currency"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("case_sensitive, correct", [(True, 0), (False, 1)])
    def test_correct_compares_under_the_candidate_set_rule(
        self, tmp_path, monkeypatch, case_sensitive, correct
    ):
        # an agent at noise 0.75 prices the all-lowercase candidate highest
        question = QARecord(
            question="Input: ABC", question_id="q0", truth_set=("ABC",), reference_answer="ABC",
            candidates=CandidateSet(answers=("abc", "XYZ"), case_sensitive=case_sensitive),
        )
        monkeypatch.setattr(ipuq.campaign, "load_dataset",
                            lambda source, wanted: [q for q in [question] if wanted("q0")])
        (record,) = run_campaign(make_config(tmp_path), client=agent_client(noise_p=0.75)[0])
        assert (record["prediction"], record["reference_answer"]) == ("abc", "ABC")
        assert record_label(record, LABEL_INCORRECT) == 1 - correct

    def test_an_output_dir_that_is_a_file_fails_before_any_request(self, tmp_path):
        config = make_config(tmp_path)
        Path(config.output_dir).write_text("not a directory", encoding="utf-8")
        client, transport = agent_client()
        with pytest.raises(NotADirectoryError):
            run_campaign(config, client=client)
        assert transport.calls == 0

    def test_one_credal_mean_per_credal_record(self, tmp_path, monkeypatch):
        # the cell's prediction and its scores share the utilitarian mean
        builds = []
        mean = CredalSet.__dict__["mean"]
        build = mean.func
        monkeypatch.setattr(mean, "func", lambda credal: builds.append(credal) or build(credal))
        config = make_config(tmp_path, methods=("credal", "definetti"), seeds=(0, 1))
        written = run_campaign(config, client=agent_client(credal_spread=0.05)[0])
        credal = [r for r in written if r["key"]["method"] == "credal"]
        assert len(credal) == 4 and all(r["elicitation"]["succeeded"] for r in credal)
        assert all(r["prediction"] is not None for r in credal)
        assert len(builds) == len(credal)


class TestResumeBuildsOnlyMissingQuestions:
    """A resume reads the recorded keys first and builds only the questions
    that still have a cell to run."""

    QUESTIONS = 4

    def config(self, tmp_path, subdir, dataset=None, **overrides):
        return make_config(tmp_path, dataset=dataset or synth_source(count=self.QUESTIONS),
                           methods=("definetti", "probint"), seeds=(0, 1),
                           output_dir=str(tmp_path / subdir), **overrides)

    @staticmethod
    def count_builds(monkeypatch):
        """The question index of every synthetic task generated from now on."""
        built = []
        generate = ipuq.campaign.generate_icl_task

        def counted(*args, **kwargs):
            built.append(kwargs["rng_seed"])
            return generate(*args, **kwargs)

        monkeypatch.setattr(ipuq.campaign, "generate_icl_task", counted)
        return built

    def test_a_complete_campaign_builds_no_question(self, tmp_path, monkeypatch, caplog):
        config = self.config(tmp_path, "runs")
        run_campaign(config, client=agent_client()[0])
        built = self.count_builds(monkeypatch)
        client, transport = agent_client()
        with caplog.at_level(logging.INFO, logger="ipuq.campaign"):
            assert run_campaign(config, client=client) == []
        assert built == []
        assert transport.calls == 0
        path = records_path(config.output_dir)
        assert caplog.messages == [f"{path}: 16 cells already recorded, 0 to run"]

    @pytest.mark.parametrize("kept", (0, 1, 4, 5, 11, 15))
    def test_a_partial_resume_builds_the_questions_with_missing_cells(
        self, tmp_path, monkeypatch, caplog, kept
    ):
        whole = self.config(tmp_path, "whole")
        run_campaign(whole, client=agent_client()[0])
        cut = self.config(tmp_path, "cut")
        path = Path(records_path(cut.output_dir))
        path.parent.mkdir()
        lines = Path(records_path(whole.output_dir)).read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:1 + kept]))  # the header and ``kept`` records

        built = self.count_builds(monkeypatch)
        with caplog.at_level(logging.INFO, logger="ipuq.campaign"):
            resumed = run_campaign(cut, client=agent_client()[0])
        cells_per_question = len(cut.methods) * len(cut.seeds)
        assert built == list(range(kept // cells_per_question, self.QUESTIONS))
        assert len(resumed) == 16 - kept
        assert caplog.messages == [f"{path}: {kept} cells already recorded, {16 - kept} to run"]
        assert _records_without_timing(cut) == _records_without_timing(whole)

    def test_keys_outside_the_config_are_not_counted(self, tmp_path, caplog):
        wide = self.config(tmp_path, "runs")
        run_campaign(wide, client=agent_client()[0])
        narrow = self.config(tmp_path, "runs", dataset=synth_source(count=2))
        narrow = dataclasses.replace(narrow, methods=("definetti",), seeds=(1,))
        client, transport = agent_client()
        with caplog.at_level(logging.INFO, logger="ipuq.campaign"):
            assert run_campaign(narrow, client=client) == []
        assert transport.calls == 0
        path = records_path(narrow.output_dir)
        assert caplog.messages == [f"{path}: 2 cells already recorded, 0 to run"]
        assert len(existing_keys(path)) == 16

    def test_a_qa_file_resume_reads_the_whole_file_and_runs_the_missing_cells(
        self, tmp_path, monkeypatch, caplog
    ):
        data = tmp_path / "qa.jsonl"
        rows = [{"id": f"q{i}", "question": f"Which word is clue {i}?",
                 "answers": ["Alpha", "Beta"][: 1 + i % 2]} for i in range(3)]
        data.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        source = DatasetSource(kind=DATASET_QA_FILE, path=str(data), format="maqa_like")
        whole = self.config(tmp_path, "whole", dataset=source)
        run_campaign(whole, client=agent_client()[0])
        cut = self.config(tmp_path, "cut", dataset=source)
        path = Path(records_path(cut.output_dir))
        path.parent.mkdir()
        lines = Path(records_path(whole.output_dir)).read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-3]))

        ingests = []
        ingest = ipuq.datasets.ingest_qa_dataset
        monkeypatch.setattr(ipuq.datasets, "ingest_qa_dataset",
                            lambda *args: ingests.append(args) or ingest(*args))
        client, transport = agent_client()
        with caplog.at_level(logging.INFO, logger="ipuq.campaign"):
            resumed = run_campaign(cut, client=client)
            assert run_campaign(cut, client=agent_client()[0]) == []
        assert ingests == [(str(data), "maqa_like")] * 2
        assert [r["key"]["question_id"] for r in resumed] == ["q2"] * 3
        assert transport.calls == 3
        assert caplog.messages == [f"{path}: 9 cells already recorded, 3 to run",
                                   f"{path}: 12 cells already recorded, 0 to run"]
        assert _records_without_timing(cut) == _records_without_timing(whole)


def _no_block(text):
    return "no block today"


def _halve_prices(text):
    return re.sub(r"=([0-9.e-]+)", lambda m: f"={float(m.group(1)) / 2!r}", text)


class OutageAfter:
    """Serves ``billed`` replies from the simulated agent, then fails without
    retry.  Each reply is broken with probability ``bad_share`` by a fault
    drawn from ``faults`` (both seeded); counts the requests and tokens it
    served."""

    def __init__(self, billed, seed, bad_share=0.5, faults=(_no_block, _halve_prices)):
        self.inner = MockTransport(MockScript(agent=AgentConfig()))
        self.billed = billed
        self.bad_share = bad_share
        self.faults = faults
        self.rng = random.Random(seed)
        self.requests = self.input_tokens = self.output_tokens = 0

    def send(self, endpoint, system_text, user_text):
        if self.requests == self.billed:
            raise TransportError("endpoint went down", retryable=False)
        reply = self.inner.send(endpoint, system_text, user_text)
        if self.rng.random() < self.bad_share:
            text = self.rng.choice(self.faults)(reply.text)
            reply = dataclasses.replace(reply, text=text, output_tokens=len(text.split()))
        self.requests += 1
        self.input_tokens += reply.input_tokens
        self.output_tokens += reply.output_tokens
        return reply


def test_records_hold_no_view_of_another_stored_field(tmp_path):
    # the method is key.method, the decision follows from the payload, the
    # in-set flag from the prediction and a verdict passed when it has no
    # violations, so none of them is written
    records = []
    for name, fault in (("clean", None), ("halved", _halve_prices), ("no_block", _no_block)):
        # with no outage, every reply is broken by the fault, if any
        transport = OutageAfter(math.inf, seed=0, bad_share=float(fault is not None),
                                faults=(fault,))
        config = make_config(tmp_path / name, methods=ALL_METHODS, seeds=(0, 1), retry_budget=2)
        run_campaign(config, client=ChatClient(transport))
        records += load_run_records(records_path(config.output_dir))
    for method in ALL_METHODS:
        assert {r["elicitation"]["succeeded"] for r in records
                if r["key"]["method"] == method} == {True, False}
    checked = [a for r in records for m in r["elicitation"]["verdicts"] for a in m["attempts"]]
    assert {bool(a["violations"]) for a in checked if "violations" in a} == {True, False}
    assert any("parse_error" in a for a in checked)
    assert not any("passed" in a for a in checked)
    for record in records:
        assert "decision" not in record and "prediction_in_set" not in record
        assert "kind" not in record["elicitation"]


class TestTransportFailureKeepsBilledAttempts:
    def run_cell(self, tmp_path, transport, **overrides):
        config = make_config(tmp_path, dataset=synth_source(count=1), **overrides)
        (record,) = run_campaign(config, client=ChatClient(transport))
        elicitation = record["elicitation"]
        assert not elicitation["succeeded"]
        assert elicitation["error"] == "transport: endpoint went down"
        assert elicitation["attempts"] == transport.requests
        assert elicitation["usage"] == {
            "input_tokens": transport.input_tokens,
            "output_tokens": transport.output_tokens,
        }
        return elicitation

    def test_parse_failure_then_outage(self, tmp_path):
        transport = OutageAfter(billed=1, seed=0, bad_share=1.0, faults=(_no_block,))
        elicitation = self.run_cell(tmp_path, transport)
        assert elicitation["attempts"] == 1
        assert "parse_error" in elicitation["verdicts"][0]["attempts"][0]
        assert len(elicitation["transcripts"][0]["attempts"]) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_single_kind(self, tmp_path, seed):
        billed = random.Random(seed).randint(0, 3)
        transport = OutageAfter(billed, seed, bad_share=1.0)
        elicitation = self.run_cell(tmp_path, transport, retry_budget=4)
        assert len(elicitation["verdicts"]) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_credal(self, tmp_path, seed):
        # five members need at least five requests, so the outage always bites
        billed = random.Random(seed).randint(1, 4)
        transport = OutageAfter(billed, seed)
        elicitation = self.run_cell(
            tmp_path, transport, methods=("credal",), retry_budget=2, credal_members=5
        )
        # every member reached is on the record, finished or cut short
        assert 1 <= len(elicitation["verdicts"]) <= billed + 1
        assert sum(len(m["attempts"]) for m in elicitation["verdicts"]) == transport.requests


class Served:
    """Passes requests to ``inner`` and counts, per question, the requests
    and tokens it served.  Raises ``error()`` in place of request number
    ``fail_at`` (counting from 1), once; later requests are served again."""

    def __init__(self, inner, fail_at=None, error=None):
        self.inner = inner
        self.fail_at = fail_at
        self.error = error
        self.sent = 0
        self.served = collections.defaultdict(collections.Counter)
        self.lock = threading.Lock()

    def send(self, endpoint, system_text, user_text):
        with self.lock:
            self.sent += 1
            fail = self.sent == self.fail_at
        if fail:
            raise self.error()
        reply = self.inner.send(endpoint, system_text, user_text)
        with self.lock:
            tally = self.served[extract_question(user_text)]
            tally.update(requests=1, input_tokens=reply.input_tokens,
                         output_tokens=reply.output_tokens)
        return reply


def _served_by_record(record):
    elicitation = record["elicitation"]
    return collections.Counter(requests=elicitation["attempts"], **elicitation["usage"])


@pytest.mark.parametrize("fail_at", (1, 2, 4))
def test_an_outage_that_recovers_bills_only_what_was_served(tmp_path, fail_at):
    # the first question's definetti cell sends request 1, its three credal
    # members requests 2 to 4
    config = make_config(tmp_path, methods=("definetti", "credal"),
                         output_dir=str(tmp_path / "recovered"))
    transport = Served(MockTransport(MockScript(agent=AgentConfig())), fail_at=fail_at,
                       error=lambda: TransportError("busy", retryable=True))
    sleeps = []
    written = run_campaign(config, client=ChatClient(transport, sleep=sleeps.append))
    assert transport.sent == sum(_served_by_record(r)["requests"] for r in written) + 1
    assert sleeps == [0.5]
    by_question = collections.defaultdict(collections.Counter)
    for record in written:
        by_question[record["question"]] += _served_by_record(record)
    assert by_question == transport.served

    whole = make_config(tmp_path, methods=("definetti", "credal"),
                        output_dir=str(tmp_path / "whole"))
    run_campaign(whole, client=agent_client()[0])
    assert _records_without_timing(config) == _records_without_timing(whole)


class TestUnexpectedExceptionsBecomeFailedRecords:
    QUESTIONS = 4

    def config(self, tmp_path, method, concurrency):
        return make_config(
            tmp_path,
            dataset=synth_source(count=self.QUESTIONS),
            methods=(method,),
            concurrency=concurrency,
            retry_budget=3,
        )

    def key_error_transport(self, config, seed):
        # one request per single-kind cell and per credal member
        requests = self.QUESTIONS * (config.credal_members if config.methods == ("credal",)
                                     else 1)
        fail_at = random.Random(seed).randint(1, requests - 1)
        inner = MockTransport(MockScript(agent=AgentConfig()))
        return Served(inner, fail_at=fail_at, error=lambda: KeyError("choices"))

    def exhausted_transport(self, config, seed):
        # The script's one reply for the question of cell ``seed`` does not
        # parse; the next request for that question exhausts the script.
        question = build_synth_records(config.dataset)[seed % self.QUESTIONS].question
        (method,) = config.methods
        entry = ScriptEntry(question=question, kind=method, replies=("no block",))
        return Served(MockTransport(MockScript(agent=AgentConfig(), entries=(entry,))))

    @pytest.mark.parametrize("concurrency", (1, 2))
    @pytest.mark.parametrize("method", ("definetti", "credal"))
    @pytest.mark.parametrize(
        "make, error_type",
        (("key_error_transport", "KeyError"), ("exhausted_transport", "ScriptExhaustedError")),
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_one_failed_record_with_exact_accounting(
        self, tmp_path, caplog, make, error_type, method, concurrency, seed
    ):
        config = self.config(tmp_path, method, concurrency)
        transport = getattr(self, make)(config, seed)
        with caplog.at_level(logging.WARNING, logger="ipuq.campaign"):
            written = run_campaign(config, client=ChatClient(transport))

        questions = [q.question_id for q in build_synth_records(config.dataset)]
        assert [r["key"]["question_id"] for r in written] == questions
        stored = load_run_records(records_path(config.output_dir))
        assert [r["key"] for r in stored] == [r["key"] for r in written]
        (failed,) = [r for r in written if not r["elicitation"]["succeeded"]]
        error = failed["elicitation"]["error"]
        assert error.startswith(f"{error_type}: ")
        assert [r.getMessage() for r in caplog.records].count(
            f"cell {failed['key']['question_id']}/{method}/0 failed: {error}") == 1
        for record in written:
            # every billed request is on the record of the cell it served
            assert _served_by_record(record) == transport.served[record["question"]]
        assert sum(map(_served_by_record, written), collections.Counter()) == sum(
            transport.served.values(), collections.Counter()
        )
        # the cells after the failing one ran and succeeded
        assert all(r["elicitation"]["succeeded"] for r in written if r is not failed)

    @pytest.mark.parametrize("concurrency", (1, 2))
    def test_a_record_that_cannot_be_built_is_a_failed_record(
        self, tmp_path, monkeypatch, caplog, concurrency
    ):
        calls = 0
        lock = threading.Lock()
        score = ipuq.campaign.score_payload

        def third_call_raises(*args, **kwargs):
            nonlocal calls
            with lock:
                calls += 1
                third = calls == 3
            if third:
                raise ValueError("boom")
            return score(*args, **kwargs)

        monkeypatch.setattr(ipuq.campaign, "score_payload", third_call_raises)
        config = make_config(tmp_path, dataset=synth_source(count=3), seeds=(0, 1),
                             concurrency=concurrency)
        transport = Served(MockTransport(MockScript(agent=AgentConfig())))
        with caplog.at_level(logging.WARNING, logger="ipuq.campaign"):
            written = run_campaign(config, client=ChatClient(transport))

        stored = load_run_records(records_path(config.output_dir))
        assert len(stored) == 6
        assert [r["key"] for r in stored] == [r["key"] for r in written]
        (failed,) = [r for r in stored if not r["elicitation"]["succeeded"]]
        elicitation = failed["elicitation"]
        assert elicitation["error"] == "ValueError: boom"
        assert elicitation["payload"] is None and elicitation["attempts"] == 1
        assert [r.getMessage() for r in caplog.records].count(
            "cell {}/definetti/{} failed: ValueError: boom".format(
                failed["key"]["question_id"], failed["key"]["seed"])) == 1
        # the failed cell keeps its billed attempt: the file holds all that was served
        assert sum(map(_served_by_record, stored), collections.Counter()) == sum(
            transport.served.values(), collections.Counter()
        )

    def test_campaign_run_exits_partial(self, tmp_path, monkeypatch, capsys):
        config = self.config(tmp_path, "credal", 2)
        transport = self.key_error_transport(config, seed=0)
        monkeypatch.setattr(ipuq.campaign, "ChatClient", lambda: ChatClient(transport))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        assert main(["campaign", "run", "--config", str(path)]) == EXIT_PARTIAL
        out = capsys.readouterr().out
        assert f"wrote {self.QUESTIONS} records" in out and "(1 failed)" in out


class SlowAgent(MockTransport):
    def __init__(self):
        super().__init__(MockScript(agent=AgentConfig()))

    def send(self, endpoint, system_text, user_text):
        time.sleep(0.005)  # a network round trip: the workers wait, the writer runs
        return super().send(endpoint, system_text, user_text)


def _logged_as_dropped(caplog):
    """The question ids and the summed usage of the cells that a failed
    write logged at ERROR as dropped."""
    dropped = [r.args for r in caplog.records if r.levelno == logging.ERROR]
    logged = collections.Counter()
    for _qid, _method, _seed, attempts, input_tokens, output_tokens in dropped:
        logged.update(requests=attempts, input_tokens=input_tokens,
                      output_tokens=output_tokens)
    return [args[0] for args in dropped], logged


class TestFailedWriteStopsTheCampaign:
    def test_no_cells_start_after_the_writer_fails(self, tmp_path, monkeypatch, caplog):
        cells, fail_at = 40, 5
        writes = []

        def failing_append(path, records):
            writes.append(records)
            if len(writes) == fail_at:
                raise OSError("disk full")
            append_records(path, records)

        monkeypatch.setattr(ipuq.campaign, "append_records", failing_append)
        config = make_config(tmp_path, dataset=synth_source(count=cells), concurrency=2)
        transport = Served(SlowAgent())
        with caplog.at_level(logging.ERROR, logger="ipuq.campaign"):
            with pytest.raises(OSError, match="disk full"):
                run_campaign(config, client=ChatClient(transport))
        stored = load_run_records(records_path(config.output_dir))
        assert len(stored) == fail_at - 1
        # the cells in flight when the write failed finish; no others start
        assert transport.sent < cells // 2

        # every billed request is on a record in the file or on a logged cell
        dropped, logged = _logged_as_dropped(caplog)
        assert dropped == [
            f"synth-{i:04d}" for i in range(fail_at - 1, fail_at - 1 + len(dropped))]
        assert len(dropped) >= 1  # the cell whose write failed
        assert sum(map(_served_by_record, stored), logged) == sum(
            transport.served.values(), collections.Counter()
        )


class TestCtrlCWritesTheCellsInFlight:
    CELLS = 12

    @pytest.mark.parametrize("at", (1, 3, 6))
    @pytest.mark.parametrize("when", ("before_write", "mid_write", "after_write"))
    def test_finished_cells_are_written_and_billed_once(self, tmp_path, monkeypatch, at, when):
        writes = 0

        def interrupted_append(path, records):
            nonlocal writes
            writes += 1
            if writes == at and when == "before_write":
                raise KeyboardInterrupt
            append_records(path, records)
            if writes == at and when != "before_write":
                if when == "mid_write":
                    with open(path, "rb+") as fh:
                        fh.truncate(os.path.getsize(path) - 10)
                raise KeyboardInterrupt

        monkeypatch.setattr(ipuq.campaign, "append_records", interrupted_append)
        config = make_config(tmp_path, dataset=synth_source(count=self.CELLS), concurrency=2,
                             output_dir=str(tmp_path / "interrupted"))
        transport = Served(SlowAgent())
        with pytest.raises(KeyboardInterrupt):
            run_campaign(config, client=ChatClient(transport))

        whole = make_config(tmp_path, dataset=synth_source(count=self.CELLS),
                            output_dir=str(tmp_path / "whole"))
        run_campaign(whole, client=agent_client()[0])
        expected = _records_without_timing(whole)
        stored = _records_without_timing(config)
        # the cells that ran are a job-order prefix, each written once
        assert len(stored) >= at
        assert stored == expected[: len(stored)]
        # every billed request is on a record
        assert sum(map(_served_by_record, stored), collections.Counter()) == sum(
            transport.served.values(), collections.Counter()
        )

        resumed = Served(SlowAgent())
        run_campaign(config, client=ChatClient(resumed))
        assert not set(resumed.served) & set(transport.served)  # no cell billed twice
        assert _records_without_timing(config) == expected


class LoneSurrogateReply(SlowAgent):
    """Ends the reply to ``question`` with an escaped lone surrogate, as a
    body cut inside an emoji's surrogate pair carries it."""

    def __init__(self, question):
        super().__init__()
        self.question = question

    def send(self, endpoint, system_text, user_text):
        reply = super().send(endpoint, system_text, user_text)
        if extract_question(user_text) != self.question:
            return reply
        body = json.dumps({
            "choices": [{"message": {"content": reply.text + "\ud800"}}],
            "usage": {"prompt_tokens": reply.input_tokens,
                      "completion_tokens": reply.output_tokens},
        })
        assert "\\ud800" in body  # the body itself is ASCII
        return parse_response_body(reply.raw_request, body)


@pytest.mark.parametrize("concurrency", (1, 2))
@pytest.mark.parametrize("fault", ("raises_once", "raises_from_then_on"))
def test_a_write_that_raises_anything_is_a_failed_write(
    tmp_path, monkeypatch, caplog, fault, concurrency
):
    cells, fail_at = 8, 3
    config = make_config(tmp_path, dataset=synth_source(count=cells), concurrency=concurrency,
                         output_dir=str(tmp_path / "stopped"))
    questions = [q.question_id for q in build_synth_records(config.dataset)]
    writes = 0

    def faulty_append(path, records):
        # raising from the fail_at-th write on, a write would fail again if tried again
        nonlocal writes
        writes += 1
        if writes == fail_at or (writes > fail_at and fault == "raises_from_then_on"):
            raise RuntimeError("injected fault")
        append_records(path, records)

    monkeypatch.setattr(ipuq.campaign, "append_records", faulty_append)
    transport = Served(SlowAgent())
    with caplog.at_level(logging.ERROR, logger="ipuq.campaign"):
        with pytest.raises(RuntimeError, match="injected fault"):
            run_campaign(config, client=ChatClient(transport))
    monkeypatch.setattr(ipuq.campaign, "append_records", append_records)

    whole = make_config(tmp_path, dataset=synth_source(count=cells),
                        output_dir=str(tmp_path / "whole"))
    run_campaign(whole, client=agent_client()[0])
    expected = _records_without_timing(whole)
    stored = _records_without_timing(config)
    # the file holds the records written before the failed write; the cell
    # whose write failed and the cells in flight are logged, in job order
    assert stored == expected[: fail_at - 1]
    dropped, logged = _logged_as_dropped(caplog)
    assert dropped == questions[fail_at - 1: fail_at - 1 + len(dropped)]
    assert len(dropped) >= 1  # the cell whose write failed
    assert sum(map(_served_by_record, stored), logged) == sum(
        transport.served.values(), collections.Counter()
    )

    run_campaign(config, client=agent_client()[0])
    assert _records_without_timing(config) == expected


@pytest.mark.parametrize("concurrency", (1, 2))
def test_a_reply_holding_a_lone_surrogate_is_recorded(tmp_path, concurrency):
    cells, odd = 4, 2
    config = make_config(tmp_path, dataset=synth_source(count=cells), concurrency=concurrency,
                         output_dir=str(tmp_path / "odd"))
    transport = Served(LoneSurrogateReply(build_synth_records(config.dataset)[odd].question))
    assert len(run_campaign(config, client=ChatClient(transport))) == cells
    stored = _records_without_timing(config)
    # every billed request is on a record
    assert sum(map(_served_by_record, stored), collections.Counter()) == sum(
        transport.served.values(), collections.Counter()
    )

    whole = make_config(tmp_path, dataset=synth_source(count=cells),
                        output_dir=str(tmp_path / "whole"))
    run_campaign(whole, client=agent_client()[0])
    expected = _records_without_timing(whole)
    assert stored[:odd] + stored[odd + 1:] == expected[:odd] + expected[odd + 1:]
    # the record holds no decoded reply; the response keeps the escape
    (member,) = stored[odd]["elicitation"]["transcripts"]
    assert member["attempts"]
    assert all(a.keys() == {"attempt", "request", "response"} for a in member["attempts"])
    assert all("\\ud800" in a["response"] for a in member["attempts"])
    assert all(parse_response_body(a["request"], a["response"]).text.endswith("\ud800")
               for a in member["attempts"])
