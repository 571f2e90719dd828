"""Mock endpoint: scripted replies, the analytic agent, and the HTTP face."""

import json

import pytest

from ipuq.core import CandidateSet
from ipuq.elicit.client import ChatClient, HttpTransport, ModelEndpoint, TransportError
from ipuq.elicit.loop import elicit_with_retry
from ipuq.elicit.prompts import SYSTEM_TEXT, PromptKind, render_prompt
from ipuq.mock import (
    AgentConfig,
    MockScript,
    MockTransport,
    NoScriptEntryError,
    ScriptEntry,
    ScriptExhaustedError,
    SimulatedAgent,
)

QUESTION = "Which mountain is the tallest on Earth measured from sea level?"
TWO = CandidateSet(answers=("Mount Everest", "Mauna Kea"))


def block(rows):
    return "```\n" + "\n".join(rows) + "\n```"


def test_script_needs_entries_or_agent():
    with pytest.raises(ValueError):
        MockScript()
    MockScript(agent=AgentConfig())  # fine
    MockScript(entries=(ScriptEntry(question="q", kind="vanilla", replies=("r",)),))


def test_transport_serves_entries_in_order_and_counts_calls():
    reply_a = block(["1|price=0.9", "2|price=0.2"])
    reply_b = block(["1|price=0.9", "2|price=0.1"])
    script = MockScript(
        entries=(
            ScriptEntry(question=QUESTION, kind="definetti", replies=(reply_a, reply_b)),
        )
    )
    transport = MockTransport(script)
    client = ChatClient(transport)
    result = elicit_with_retry(
        client,
        ModelEndpoint(base_url="inproc://x", model_id="m"),
        PromptKind.DEFINETTI,
        QUESTION,
        TWO,
    )
    assert transport.calls == 2
    assert result.payload.probs == (0.9, 0.1)


def test_transport_exhaustion_raises():
    script = MockScript(
        entries=(
            ScriptEntry(
                question=QUESTION,
                kind="definetti",
                replies=(block(["1|price=0.6", "2|price=0.6"]),),
            ),
        )
    )
    transport = MockTransport(script)
    client = ChatClient(transport)
    with pytest.raises(ScriptExhaustedError):
        elicit_with_retry(
            client,
            ModelEndpoint(base_url="inproc://x", model_id="m"),
            PromptKind.DEFINETTI,
            QUESTION,
            TWO,
            max_attempts=3,
        )


def test_no_entry_and_no_agent_raises():
    script = MockScript(
        entries=(ScriptEntry(question="other question", kind="definetti", replies=("x",)),)
    )
    transport = MockTransport(script)
    user = render_prompt(PromptKind.DEFINETTI, QUESTION, TWO)
    with pytest.raises(NoScriptEntryError):
        transport.send(ModelEndpoint(base_url="inproc://x", model_id="m"), SYSTEM_TEXT, user)


def test_seed_specific_entry_beats_seedless_fallback():
    seeded = block(["1|price=1.0", "2|price=0.0"])
    fallback = block(["1|price=0.0", "2|price=1.0"])
    script = MockScript(
        entries=(
            ScriptEntry(question=QUESTION, kind="definetti", replies=(seeded,), seed=7),
            ScriptEntry(question=QUESTION, kind="definetti", replies=(fallback,)),
        )
    )
    transport = MockTransport(script)
    user = render_prompt(PromptKind.DEFINETTI, QUESTION, TWO)
    with_seed = transport.send(
        ModelEndpoint(base_url="inproc://x", model_id="m", seed=7), SYSTEM_TEXT, user
    )
    without = transport.send(
        ModelEndpoint(base_url="inproc://x", model_id="m", seed=3), SYSTEM_TEXT, user
    )
    assert with_seed.text == seeded
    assert without.text == fallback


def test_usage_counts_whitespace_words():
    script = MockScript(
        entries=(
            ScriptEntry(
                question=QUESTION,
                kind="definetti",
                replies=(block(["1|price=0.5", "2|price=0.5"]),),
            ),
        )
    )
    transport = MockTransport(script)
    user = render_prompt(PromptKind.DEFINETTI, QUESTION, TWO)
    reply = transport.send(ModelEndpoint(base_url="inproc://x", model_id="m"), SYSTEM_TEXT, user)
    assert reply.input_tokens == len(SYSTEM_TEXT.split()) + len(user.split())
    assert reply.output_tokens == len(reply.text.split())


def test_script_json_round_trip(tmp_path):
    script = MockScript(
        entries=(
            ScriptEntry(question="q1", kind="vanilla", replies=("a", "b")),
            ScriptEntry(question="q2", kind="credal", replies=("c",), seed=4),
        ),
        agent=AgentConfig(noise_p=0.3, width_c=2.0, nota=0.1, credal_spread=0.02),
    )
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script.to_dict()), encoding="utf-8")
    assert MockScript.load(str(path)) == script


class TestSimulatedAgent:
    # Candidate weights are casing likelihoods: p^(lowered letters) * (1-p)^(rest).
    def test_definetti_weights_follow_casing_likelihood(self):
        agent = SimulatedAgent(AgentConfig(noise_p=0.25))
        text = agent.reply(PromptKind.DEFINETTI, QUESTION, ["ROCK", "rock"], None)
        w_upper = 0.75**4
        w_lower = 0.25**4
        expected = [w_upper / (w_upper + w_lower), w_lower / (w_upper + w_lower)]
        rows = text.strip("`\n").splitlines()
        got = [float(row.split("price=")[1]) for row in rows]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_interval_width_shrinks_with_demonstrations(self):
        agent = SimulatedAgent(AgentConfig(noise_p=0.0, width_c=1.0))
        question = (
            "Input: AB → Output: BC\n"
            "Input: CD → Output: DE\n"
            "Input: EF → Output:"
        )
        text = agent.reply(PromptKind.PROBINT, question, ["GH", "XX"], None)
        rows = text.strip("`\n").splitlines()
        for row in rows:
            _, lo_part, hi_part = row.split("|")
            lo = float(lo_part.split("=")[1])
            hi = float(hi_part.split("=")[1])
            assert hi - lo == pytest.approx(0.5)  # width_c / m with m == 2

    def test_interval_width_is_full_without_demonstrations(self):
        agent = SimulatedAgent(AgentConfig(width_c=1.0))
        text = agent.reply(PromptKind.PROBINT, "Plain question?", ["A", "B"], None)
        first = text.strip("`\n").splitlines()[0]
        _, lo_part, hi_part = first.split("|")
        assert float(hi_part.split("=")[1]) - float(lo_part.split("=")[1]) == 1.0

    def test_credal_seed_mixes_toward_uniform(self):
        agent = SimulatedAgent(AgentConfig(noise_p=0.0, credal_spread=0.05))
        pure = agent.reply(PromptKind.CREDAL, QUESTION, ["AB", "ab"], 0)
        mixed = agent.reply(PromptKind.CREDAL, QUESTION, ["AB", "ab"], 2)
        first_pure = float(pure.strip("`\n").splitlines()[0].split("prob=")[1])
        first_mixed = float(mixed.strip("`\n").splitlines()[0].split("prob=")[1])
        assert first_pure == 1.0
        assert first_mixed == pytest.approx(0.9 * 1.0 + 0.1 / 2)

    def test_possibility_peaks_at_one_and_carries_nota(self):
        agent = SimulatedAgent(AgentConfig(noise_p=0.25, nota=0.2))
        text = agent.reply(PromptKind.POSSIBILITY, QUESTION, ["ROCK", "rock"], None)
        rows = text.strip("`\n").splitlines()
        values = [float(row.split("pos=")[1]) for row in rows]
        assert values[0] == 1.0
        assert values[-1] == 0.2
        assert 0.0 < values[1] < 1.0

    def test_vanilla_confidence_is_top_weight(self):
        agent = SimulatedAgent(AgentConfig(noise_p=0.25))
        text = agent.reply(PromptKind.VANILLA, QUESTION, ["ROCK", "rock"], None)
        conf = float(text.strip("`\n").splitlines()[0].split("conf=")[1])
        w_upper = 0.75**4
        w_lower = 0.25**4
        assert conf == pytest.approx(w_upper / (w_upper + w_lower))


class TestHttpFace:
    def test_round_trip_over_sockets(self, serve):
        script = MockScript(agent=AgentConfig(noise_p=0.25))
        with serve(script) as base_url:
            client = ChatClient(HttpTransport(timeout_s=10.0))
            endpoint = ModelEndpoint(base_url=base_url, model_id="mock-agent")
            result = elicit_with_retry(
                client,
                endpoint,
                PromptKind.DEFINETTI,
                QUESTION,
                CandidateSet(answers=("ROCK", "rock"), case_sensitive=True),
            )
        assert result.succeeded and result.attempts == 1
        w_upper = 0.75**4
        w_lower = 0.25**4
        assert result.payload.probs[0] == pytest.approx(w_upper / (w_upper + w_lower))
        assert result.input_tokens > 0

    def test_http_and_in_process_replies_are_identical(self, serve):
        config = AgentConfig(noise_p=0.3, width_c=2.0)
        user = render_prompt(
            PromptKind.PROBINT,
            QUESTION,
            CandidateSet(answers=("Mount Everest", "mount everest"), case_sensitive=True),
        )
        in_proc = MockTransport(MockScript(agent=config)).send(
            ModelEndpoint(base_url="inproc://x", model_id="m"), SYSTEM_TEXT, user
        )
        with serve(MockScript(agent=config)) as base_url:
            over_http = HttpTransport(timeout_s=10.0).send(
                ModelEndpoint(base_url=base_url, model_id="m"), SYSTEM_TEXT, user
            )
        assert over_http.text == in_proc.text
        assert over_http.input_tokens == in_proc.input_tokens
        assert over_http.output_tokens == in_proc.output_tokens

    def test_exhausted_script_returns_http_500(self, serve):
        script = MockScript(
            entries=(
                ScriptEntry(
                    question=QUESTION,
                    kind="definetti",
                    replies=(block(["1|price=0.5", "2|price=0.5"]),),
                ),
            )
        )
        user = render_prompt(PromptKind.DEFINETTI, QUESTION, TWO)
        with serve(script) as base_url:
            transport = HttpTransport(timeout_s=10.0)
            endpoint = ModelEndpoint(base_url=base_url, model_id="m")
            transport.send(endpoint, SYSTEM_TEXT, user)  # consumes the only reply
            with pytest.raises(TransportError) as info:
                transport.send(endpoint, SYSTEM_TEXT, user)
        assert "500" in str(info.value)
        assert info.value.retryable
