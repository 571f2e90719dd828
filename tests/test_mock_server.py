"""Mock endpoint: scripted replies, the analytic agent, and the HTTP face."""

import json
import logging
import os
import re
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import ipuq
from ipuq.core import CandidateSet, ConfigError
from ipuq.elicit.client import (
    TRANSPORT_RETRIES,
    ChatClient,
    HttpTransport,
    ModelEndpoint,
    TransportError,
    encode_request,
    parse_response_body,
)
from ipuq.elicit.loop import elicit_with_retry
from ipuq.elicit.prompts import SYSTEM_TEXT, PromptKind, render_prompt
from ipuq.mock import (
    AgentConfig,
    MockResponder,
    MockScript,
    MockTransport,
    ScriptEntry,
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


def test_a_key_listed_twice_is_refused():
    """Each key has one cursor, so a second entry for it would never be served."""
    first = ScriptEntry(question="q", kind="vanilla", replies=("a",))
    again = ScriptEntry(question="q", kind="vanilla", replies=("b", "c"))
    twice = r"^script entry \('q', 'vanilla', None\) is listed twice$"
    with pytest.raises(ConfigError, match=twice):
        MockScript(entries=(first, again))
    # another kind or another seed makes another key
    MockScript(entries=(first, ScriptEntry(question="q", kind="definetti", replies=("b",)),
                        ScriptEntry(question="q", kind="vanilla", replies=("c",), seed=1)))


def test_a_seed_no_entry_can_hold_falls_back_to_the_seedless_entry():
    user = render_prompt(PromptKind.DEFINETTI, QUESTION, TWO)
    script = MockScript(entries=(
        ScriptEntry(question=QUESTION, kind="definetti", replies=("seedless",)),
    ))
    assert MockResponder(script).reply_text(user, [7]) == "seedless"


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
    with pytest.raises(ConfigError, match=r"exhausted after 1 replies$"):
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
    with pytest.raises(ConfigError) as info:
        transport.send(ModelEndpoint(base_url="inproc://x", model_id="m"), SYSTEM_TEXT, user)
    assert str(info.value).startswith("no script entry for kind 'definetti', question 'Which")


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
        assert over_http.raw_request == in_proc.raw_request
        assert over_http.raw_response == in_proc.raw_response

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
        assert str(info.value).startswith(
            'endpoint returned HTTP 500: {"error": "ConfigError: script for ')
        assert info.value.retryable

    @pytest.mark.parametrize("seed", ["1", [1]], ids=["string", "list"])
    def test_a_responder_error_is_a_500_and_the_server_keeps_serving(self, serve, seed):
        # the credal agent reads the seed as an integer; anything else raises in it
        user = render_prompt(PromptKind.CREDAL, QUESTION, TWO)
        transport = HttpTransport(timeout_s=10.0)
        with serve(MockScript(agent=AgentConfig())) as base_url:
            with pytest.raises(TransportError) as info:
                transport.send(ModelEndpoint(base_url=base_url, model_id="m", seed=seed),
                               SYSTEM_TEXT, user)
            reply = transport.send(ModelEndpoint(base_url=base_url, model_id="m", seed=1),
                                   SYSTEM_TEXT, user)
        assert str(info.value).startswith('endpoint returned HTTP 500: {"error": "TypeError: ')
        assert reply.text.startswith("```")


CHAT_BODY = json.dumps({
    "choices": [{"message": {"role": "assistant", "content": "café ok"}}],
    "usage": {"prompt_tokens": 3, "completion_tokens": 2},
}, ensure_ascii=False)


class _FixedReplyHandler(BaseHTTPRequestHandler):
    """Answers every POST with the server's ``reply`` (status, content type,
    body bytes) and keeps each request's path, headers and body in ``seen``."""

    def do_POST(self):  # noqa: N802 - http.server API
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.path, self.headers, body))
        status, content_type, payload = self.server.reply
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):  # noqa: A002
        pass


@pytest.fixture
def fixed_reply():
    """A loopback server whose ``reply`` a test sets; yields (server, url)."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FixedReplyHandler)
    server.seen = []
    server.reply = (200, "application/json", CHAT_BODY.encode("utf-8"))
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _send(base_url, timeout_s=10.0, **endpoint):
    return HttpTransport(timeout_s=timeout_s).send(
        ModelEndpoint(base_url=base_url, model_id="m", **endpoint), "sys", "user"
    )


class TestHttpTransport:
    def test_ok_reply_keeps_both_bodies_verbatim(self, fixed_reply):
        server, url = fixed_reply
        reply = _send(url)
        _, raw_request = encode_request(ModelEndpoint(base_url=url, model_id="m"), "sys", "user")
        assert (reply.text, reply.input_tokens, reply.output_tokens) == ("café ok", 3, 2)
        assert reply.raw_request == raw_request
        assert reply.raw_response == CHAT_BODY
        ((path, headers, body),) = server.seen
        assert body == raw_request.encode("utf-8")
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"  # one connection per request

    @pytest.mark.parametrize("status, retryable", ((201, False), (404, False),
                                                   (429, True), (503, True)))
    def test_non_200_status_raises(self, fixed_reply, status, retryable):
        server, url = fixed_reply
        server.reply = (status, "text/plain", b"x" * 150 + "é".encode("utf-8") + b"y" * 100)
        with pytest.raises(TransportError) as info:
            _send(url)
        assert str(info.value) == f"endpoint returned HTTP {status}: " + "x" * 150 + "é" + "y" * 49
        assert info.value.retryable is retryable

    @pytest.mark.parametrize("content_type, payload, expected", (
        ("application/json; charset=latin-1", CHAT_BODY.encode("latin-1"), CHAT_BODY),
        ("application/json", CHAT_BODY.encode("utf-8"), CHAT_BODY),
        ("application/json; charset=no-such-codec", CHAT_BODY.encode("utf-8"), CHAT_BODY),
        ("application/json", CHAT_BODY.encode("latin-1"), CHAT_BODY.replace("é", "\ufffd")),
    ), ids=("declared-charset", "utf-8-default", "unknown-charset", "undecodable-bytes"))
    def test_body_decoding(self, fixed_reply, content_type, payload, expected):
        server, url = fixed_reply
        server.reply = (200, content_type, payload)
        reply = _send(url)
        assert reply.raw_response == expected
        assert reply.text == json.loads(expected)["choices"][0]["message"]["content"]

    @pytest.mark.parametrize("usage", [
        [1], "abc", {"prompt_tokens": "abc"}, {"prompt_tokens": 1.7}, {"prompt_tokens": 2.0},
        {"completion_tokens": -3}, {"prompt_tokens": True}, {"completion_tokens": None},
        {"prompt_tokens": 10**400},
    ])
    def test_a_usage_block_that_is_not_token_counts_is_malformed(self, fixed_reply, usage):
        server, url = fixed_reply
        body = {"choices": [{"message": {"content": "ok"}}], "usage": usage}
        server.reply = (200, "application/json", json.dumps(body).encode("utf-8"))
        with pytest.raises(TransportError, match="^malformed chat response body: ") as info:
            _send(url)
        assert not info.value.retryable
        assert len(server.seen) == 1

    @pytest.mark.parametrize("usage, reason", [
        ({"prompt_tokens": 10**400}, f"prompt_tokens {str(10**400)[:60]} is not a non-negative "
                                     "integer within a float's range"),
        ([10**400], f"usage {repr([10**400])[:60]} is not an object"),
    ], ids=["401-digit count", "list of a 401-digit count"])
    def test_a_refused_usage_value_is_shown_in_at_most_60_characters(
        self, fixed_reply, usage, reason
    ):
        server, url = fixed_reply
        body = {"choices": [{"message": {"content": "ok"}}], "usage": usage}
        server.reply = (200, "application/json", json.dumps(body).encode("utf-8"))
        with pytest.raises(TransportError) as info:
            _send(url)
        assert str(info.value) == f"malformed chat response body: {reason}"

    @pytest.mark.parametrize("content", [None, 5, ["a"], {}])
    def test_reply_content_that_is_not_a_string_is_malformed(self, fixed_reply, content):
        server, url = fixed_reply
        body = {"choices": [{"message": {"content": content}}], "usage": {}}
        server.reply = (200, "application/json", json.dumps(body).encode("utf-8"))
        with pytest.raises(TransportError, match=(
                rf"^malformed chat response body: content {re.escape(repr(content))} "
                "is not a string$")) as info:
            _send(url)
        assert not info.value.retryable
        assert len(server.seen) == 1

    @pytest.mark.parametrize("usage, tokens", [
        ("absent", (0, 0)), (None, (0, 0)), ({}, (0, 0)), ([], (0, 0)),
        ({"prompt_tokens": 5}, (5, 0)), ({"completion_tokens": 0}, (0, 0)),
    ])
    def test_a_missing_usage_block_or_count_reads_as_zero(self, usage, tokens):
        body = {"choices": [{"message": {"content": "ok"}}]}
        if usage != "absent":
            body["usage"] = usage
        reply = parse_response_body("{}", json.dumps(body))
        assert (reply.input_tokens, reply.output_tokens) == tokens

    def test_connection_refused_is_retryable(self):
        with socket.create_server(("127.0.0.1", 0)) as sock:
            port = sock.getsockname()[1]
        with pytest.raises(TransportError, match="failed") as info:
            _send(f"http://127.0.0.1:{port}/v1")
        assert info.value.retryable

    def test_timeout_is_retryable(self):
        # The kernel accepts the connection into the backlog; nobody answers.
        with socket.create_server(("127.0.0.1", 0)) as sock:
            with pytest.raises(TransportError, match="timed out") as info:
                _send(f"http://127.0.0.1:{sock.getsockname()[1]}/v1", timeout_s=0.2)
        assert info.value.retryable

    @pytest.mark.parametrize("base_url", ("127.0.0.1/v1", "nope://127.0.0.1/v1"))
    def test_unusable_url_is_retryable(self, base_url):
        with pytest.raises(TransportError, match="unknown url type") as info:
            _send(base_url)
        assert info.value.retryable

    def test_bearer_token_is_sent_but_not_recorded(self, fixed_reply, monkeypatch):
        server, url = fixed_reply
        monkeypatch.setenv("IPUQ_TEST_TOKEN", "s3cret-token")
        reply = _send(url, auth_token_env="IPUQ_TEST_TOKEN")
        ((_, headers, _),) = server.seen
        assert headers["Authorization"] == "Bearer s3cret-token"
        assert "s3cret-token" not in reply.raw_request

    def test_token_is_read_at_request_time(self, fixed_reply, monkeypatch, caplog):
        server, url = fixed_reply
        monkeypatch.delenv("IPUQ_TEST_TOKEN", raising=False)
        transport = HttpTransport(timeout_s=10.0)
        endpoint = ModelEndpoint(base_url=url, model_id="m", auth_token_env="IPUQ_TEST_TOKEN")
        with caplog.at_level(logging.WARNING, logger="ipuq.elicit.client"):
            transport.send(endpoint, "sys", "user")
        assert "auth variable IPUQ_TEST_TOKEN is not set" in caplog.text
        monkeypatch.setenv("IPUQ_TEST_TOKEN", "later")
        transport.send(endpoint, "sys", "user")
        assert [h["Authorization"] for _, h, _ in server.seen] == [None, "Bearer later"]

    def test_http_proxy_is_honoured(self, fixed_reply):
        # urllib builds its default opener, proxies included, once per
        # process, so the proxied request runs in a fresh interpreter.
        server, proxy_url = fixed_reply
        target = "http://endpoint.invalid/v1/chat/completions"
        env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
        env.update(PYTHONPATH=os.path.dirname(os.path.dirname(ipuq.__file__)),
                   HTTP_PROXY=proxy_url.rsplit("/v1", 1)[0])
        code = (
            "from ipuq.elicit.client import HttpTransport, ModelEndpoint; "
            f"print(HttpTransport(timeout_s=10.0).send(ModelEndpoint({target!r}, 'm'), "
            "'sys', 'user').text)"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "café ok\n"
        ((path, headers, _),) = server.seen
        assert path == target  # a proxy gets the absolute URL
        assert headers["Host"] == "endpoint.invalid"


class Flaky:
    """Fails the first ``failures`` sends, then serves the simulated agent."""

    def __init__(self, failures, retryable=True):
        self.inner = MockTransport(MockScript(agent=AgentConfig()))
        self.failures = failures
        self.retryable = retryable
        self.sends = 0

    def send(self, endpoint, system_text, user_text):
        self.sends += 1
        if self.sends <= self.failures:
            raise TransportError(f"outage {self.sends}", retryable=self.retryable)
        return self.inner.send(endpoint, system_text, user_text)


class TestChatClientRetries:
    ENDPOINT = ModelEndpoint(base_url="inproc://agent", model_id="m", seed=0)
    USER = render_prompt(PromptKind.DEFINETTI, QUESTION, TWO)

    def test_retryable_failures_back_off_until_a_reply(self):
        transport = Flaky(2)
        sleeps = []
        reply = ChatClient(transport, sleep=sleeps.append).complete(
            self.ENDPOINT, SYSTEM_TEXT, self.USER)
        assert transport.sends == 3 and sleeps == [0.5, 1.0]
        assert reply == transport.inner.send(self.ENDPOINT, SYSTEM_TEXT, self.USER)

    def test_retryable_failures_throughout_raise_the_last(self):
        transport = Flaky(10**6)
        sleeps = []
        client = ChatClient(transport, sleep=sleeps.append)
        with pytest.raises(TransportError, match="outage 4") as info:
            client.complete(self.ENDPOINT, SYSTEM_TEXT, self.USER)
        assert info.value.retryable
        assert transport.sends == TRANSPORT_RETRIES + 1 == 4
        assert sleeps == [0.5, 1.0, 2.0]

    def test_a_non_retryable_failure_is_raised_at_once(self):
        transport = Flaky(1, retryable=False)
        sleeps = []
        with pytest.raises(TransportError, match="outage 1"):
            ChatClient(transport, sleep=sleeps.append).complete(
                self.ENDPOINT, SYSTEM_TEXT, self.USER)
        assert transport.sends == 1 and sleeps == []
