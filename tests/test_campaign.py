"""Campaign engine: config, record persistence, scoring modes, resume, determinism."""

import dataclasses
import json
import logging
import math
import random
import re
from pathlib import Path

import pytest

from ipuq.campaign import (
    DATASET_QA_FILE,
    DATASET_SYNTH,
    MODE_ANSWER,
    MODE_AUTO,
    MODE_SET,
    RECORD_SCHEMA,
    CampaignConfig,
    ConfigError,
    DatasetSource,
    RecordsSchemaError,
    append_records,
    build_synth_records,
    canonical_json,
    decide,
    existing_keys,
    load_run_records,
    payload_from_dict,
    payload_to_dict,
    records_path,
    recompute_scores,
    run_campaign,
    score_payload,
    usage_entries,
)
from ipuq.core import (
    CandidateSet,
    CredalSet,
    PossibilityAssignment,
    PrecisePMF,
    ProbabilityIntervalSet,
    interval_from_credal,
)
from ipuq.elicit.client import ChatClient, ModelEndpoint, TransportError
from ipuq.metrics import cost_report
from ipuq.mmi import exact_mmi_credal, mmi_upper_bound
from ipuq.mock import AgentConfig, MockScript, MockTransport
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
        append_records(path, [{"key": {"question_id": "q", "method": "m", "seed": 0}}])
        append_records(path, [{"key": {"question_id": "q2", "method": "m", "seed": 0}}])
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


class TestPayloadRoundTrip:
    def test_definetti(self):
        pmf = PrecisePMF(candidates=TWO, probs=(0.25, 0.75))
        data = payload_to_dict("definetti", pmf)
        assert payload_from_dict("definetti", data, TWO) == pmf

    def test_probint(self):
        ivs = ProbabilityIntervalSet(candidates=TWO, lowers=(0.1, 0.2), uppers=(0.5, 0.8))
        data = payload_to_dict("probint", ivs)
        assert payload_from_dict("probint", data, TWO) == ivs

    def test_credal(self):
        credal = CredalSet(
            candidates=TWO,
            members=(
                PrecisePMF(candidates=TWO, probs=(0.2, 0.8)),
                PrecisePMF(candidates=TWO, probs=(0.6, 0.4)),
            ),
            member_tags=("m0", "m1"),
        )
        data = payload_to_dict("credal", credal)
        assert payload_from_dict("credal", data, TWO) == credal

    def test_possibility(self):
        poss = PossibilityAssignment(candidates=TWO, scores=(1.0, 0.3), none_of_above=0.1)
        data = payload_to_dict("possibility", poss)
        assert payload_from_dict("possibility", data, TWO) == poss

    def test_vanilla(self):
        data = payload_to_dict("vanilla", 0.8)
        assert payload_from_dict("vanilla", data, TWO) == 0.8


class TestScorePayload:
    def test_definetti_set_vs_answer(self):
        pmf = PrecisePMF(candidates=TWO, probs=(0.25, 0.75))
        first, second, used = score_payload("definetti", pmf, TWO, mode=MODE_SET)
        assert used == MODE_SET
        assert first == entropy(pmf) and second is None
        first, second, used = score_payload(
            "definetti", pmf, TWO, mode=MODE_AUTO, prediction_index=1
        )
        assert used == MODE_ANSWER
        assert first == bernoulli_entropy(0.75)

    def test_auto_without_prediction_falls_back_to_set(self):
        pmf = PrecisePMF(candidates=TWO, probs=(0.5, 0.5))
        _, _, used = score_payload("definetti", pmf, TWO, mode=MODE_AUTO)
        assert used == MODE_SET

    def test_probint_modes(self):
        ivs = ProbabilityIntervalSet(candidates=TWO, lowers=(0.1, 0.3), uppers=(0.5, 0.8))
        first, second, _ = score_payload("probint", ivs, TWO, mode=MODE_SET)
        assert first is None
        assert second == 1.0 - (0.1 + 0.3)
        _, second, _ = score_payload("probint", ivs, TWO, mode=MODE_ANSWER,
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
        _, exact, _ = score_payload("credal", credal, THREE, mode=MODE_SET)
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
        _, second, _ = score_payload("credal", credal, twenty, mode=MODE_SET)
        assert second == exact_mmi_credal(credal).value == 0.5
        assert second < mmi_upper_bound(interval_from_credal(credal).lowers).value == 1.0

    def test_possibility_modes(self):
        poss = PossibilityAssignment(
            candidates=THREE, scores=(1.0, 0.4, 0.2), none_of_above=0.0
        )
        _, second, _ = score_payload("possibility", poss, THREE, mode=MODE_SET)
        assert second == 0.4
        _, binary, _ = score_payload("possibility", poss, THREE, mode=MODE_ANSWER,
                                     prediction_index=0)
        assert binary == 0.4  # min(chosen, strongest rival)

    def test_vanilla(self):
        first, second, _ = score_payload("vanilla", 0.9, TWO, mode=MODE_SET)
        assert first == pytest.approx(0.1) and second is None

    def test_unknown_mode_rejected(self):
        pmf = PrecisePMF(candidates=TWO, probs=(0.5, 0.5))
        with pytest.raises(ValueError):
            score_payload("definetti", pmf, TWO, mode="both")


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
            assert record.ambiguous

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

    def test_resume_after_a_torn_last_record(self, tmp_path, caplog):
        def records_without_timing(config):
            records = load_run_records(records_path(config.output_dir))
            for record in records:
                record.pop("timing")
            return records

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
        assert records_without_timing(torn) == records_without_timing(whole)

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
        tags = record["elicitation"]["payload"]["tags"]
        assert [t.rsplit("#seed=", 1)[1] for t in tags] == ["200", "201", "202"]
        members = record["elicitation"]["payload"]["members"]
        assert len({tuple(m) for m in members}) > 1  # seeds produced distinct beliefs

    def test_failed_cells_are_recorded_not_raised(self, tmp_path):
        # An entry-only script knows nothing about these questions, so every
        # attempt dies and the cell must land as a recorded failure.
        from ipuq.mock import NoScriptEntryError, ScriptEntry

        class RefusingTransport:
            def __init__(self):
                self.inner = MockTransport(
                    MockScript(entries=(ScriptEntry(question="?", kind="vanilla",
                                                    replies=("x",)),))
                )

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

    def test_usage_entries_feed_cost_report(self, tmp_path):
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
        entries = usage_entries(written)
        assert len(entries) == 4
        assert all(e.input_tokens > 0 for e in entries)
        ledger = cost_report(entries, config.endpoints)
        expected = sum(
            e.input_tokens * price_in + e.output_tokens * price_out for e in entries
        )
        assert ledger.total().currency == pytest.approx(expected, abs=1e-12)


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
