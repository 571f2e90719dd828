"""Deterministic mock chat endpoint for tests, demos and offline campaigns.

Two reply sources, checked in order:

* a **script**: ordered canned replies keyed by (question, kind, seed);
  the n-th request for a key gets the n-th reply, and running off the end
  of the list is an error (a script is a complete plan, not a suggestion);
* a programmable **agent** that computes replies from the prompt itself.
  It derives one belief (candidate weights from their casing under a
  configured noise level, an interval width that shrinks as demonstrations
  grow, a seed-dependent credal mix, a NOTA level), and a per-kind table
  maps it to the values the kind's ``WIRE`` entry writes as rows.  So the
  simulated endpoint has separately tunable first-order spread
  (``noise_p``) and second-order imprecision (``width_c`` over the example
  count), both analytic, which is what the disentanglement studies check.

The same responder serves in-process (as a transport, no sockets) and over
HTTP (``ipuq mock serve``), byte-identical either way.  Replies, token
counts and response bodies are fully deterministic; token usage is counted
in whitespace-separated words.  ``http.server`` is imported only when a
server is started, so in-process use never loads the network stack.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import threading
from collections.abc import Hashable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .core import ConfigError, JsonForm, refuse_repeats
from .elicit.client import ChatReply, ModelEndpoint, encode_request, parse_response_body
from .elicit.prompts import (
    WIRE,
    PromptKind,
    detect_kind,
    extract_candidates,
    extract_question,
)
from .synth import count_demonstrations

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScriptEntry:
    """Canned replies for one (question, kind[, seed]) key, served in order."""

    question: str
    kind: str
    replies: tuple[str, ...]
    seed: int | None = None

    def key(self) -> tuple[str, str, int | None]:
        return (self.question, self.kind, self.seed)


@dataclass(frozen=True)
class AgentConfig(JsonForm):
    """Parameters of the programmable mock agent.

    ``noise_p`` is the per-letter lowercase rate the agent believes in: a
    candidate with ``k`` of ``L`` letters lowered gets weight
    ``noise_p**k * (1-noise_p)**(L-k)``.  Its interval width is
    ``min(1, width_c / m)`` where ``m`` is the number of demonstration
    lines it counts in the question (width 1 when there are none).
    ``credal_spread`` mixes a seed-dependent amount of uniform into credal
    member replies so distinct seeds hold distinct beliefs.
    """

    noise_p: float = 0.25
    width_c: float = 1.0
    nota: float = 0.0
    credal_spread: float = 0.05


@dataclass(frozen=True)
class MockScript(JsonForm):
    """Everything a mock endpoint needs: canned entries and/or an agent."""

    entries: tuple[ScriptEntry, ...] = ()
    agent: AgentConfig | None = None

    def __post_init__(self) -> None:
        if not self.entries and self.agent is None:
            raise ConfigError("a mock script needs entries, an agent, or both")
        refuse_repeats("script entry", [entry.key() for entry in self.entries])


@dataclass(frozen=True)
class _Belief:
    """What the agent believes about one prompt: the parts that
    :class:`AgentConfig` describes.  Each is worked out when a reply first
    reads it, so only a credal reply reads the seed."""

    config: AgentConfig
    question: str
    candidates: list[str]
    seed: int | None

    @functools.cached_property
    def weights(self) -> list[float]:
        p = self.config.noise_p
        lowered = [[c.islower() for c in text if c.isalpha()] for text in self.candidates]
        weights = [p ** sum(low) * (1.0 - p) ** (len(low) - sum(low)) for low in lowered]
        mass = sum(weights)
        if mass <= 0.0:
            weights, mass = [1.0] * len(weights), len(weights)
        return [w / mass for w in weights]

    @functools.cached_property
    def width(self) -> float:
        m = count_demonstrations(self.question)
        return 1.0 if m == 0 else min(1.0, self.config.width_c / m)

    @functools.cached_property
    def mix(self) -> float:
        return min(((self.seed or 0) % 5) * self.config.credal_spread, 1.0)


#: Per kind, the belief's value columns (one per ``WIRE[kind].fields``
#: entry) and its labelled row's value: the reply the agent writes.
_REPLY_VALUES = {
    PromptKind.DEFINETTI: lambda b: ([b.weights], None),
    PromptKind.PROBINT: lambda b: (
        [[w * (1.0 - b.width) for w in b.weights],
         [w * (1.0 - b.width) + b.width for w in b.weights]], None),
    PromptKind.CREDAL: lambda b: (
        [[(1.0 - b.mix) * w + b.mix / len(b.weights) for w in b.weights]], None),
    PromptKind.POSSIBILITY: lambda b: ([[w / max(b.weights) for w in b.weights]], b.config.nota),
    PromptKind.VANILLA: lambda b: ([], max(b.weights, default=1.0)),
}


class SimulatedAgent:
    """Computes protocol-correct replies from configured analytic beliefs."""

    def __init__(self, config: AgentConfig):
        self.config = config

    def reply(self, kind: PromptKind, question: str, candidates: list[str] | None,
              seed: int | None) -> str:
        wire = WIRE[kind]
        # every kind but vanilla's lone labelled row reads the candidate list
        if not candidates and (wire.fields or not wire.extra):
            raise ConfigError(f"agent cannot answer kind {kind.value} without candidates")
        if kind not in _REPLY_VALUES:
            raise ConfigError(f"agent does not implement kind {kind.value}")
        belief = _Belief(self.config, question, candidates or [], seed)
        columns, extra = _REPLY_VALUES[kind](belief)
        return wire.block([[repr(v) for v in column] for column in columns], repr(extra))


class MockResponder:
    """Stateful reply source shared by the HTTP server and the transport."""

    def __init__(self, script: MockScript):
        self.agent = SimulatedAgent(script.agent) if script.agent else None
        self._entries = {entry.key(): entry for entry in script.entries}
        self._cursors: dict[tuple[str, str, int | None], int] = {}
        self._lock = threading.Lock()

    def _scripted_reply(self, question: str, kind: str, seed: int | None) -> str | None:
        # A seed no entry can hold (a JSON list, say) falls back to the seedless entry.
        for lookup_seed in (seed, None) if isinstance(seed, Hashable) else (None,):
            key = (question, kind, lookup_seed)
            entry = self._entries.get(key)
            if entry is None:
                continue
            with self._lock:
                cursor = self._cursors.get(key, 0)
                if cursor >= len(entry.replies):
                    raise ConfigError(
                        f"script for {(question[:40], kind, lookup_seed)} exhausted "
                        f"after {len(entry.replies)} replies"
                    )
                self._cursors[key] = cursor + 1
            return entry.replies[cursor]
        return None

    def reply_text(self, user_text: str, seed: int | None) -> str:
        kind = detect_kind(user_text)
        question = extract_question(user_text)
        scripted = self._scripted_reply(question, kind.value, seed)
        if scripted is not None:
            return scripted
        if self.agent is None:
            raise ConfigError(
                f"no script entry for kind {kind.value!r}, question {question[:60]!r}"
            )
        return self.agent.reply(kind, question, extract_candidates(user_text), seed)

    def respond(self, request_body: dict[str, Any]) -> str:
        """Chat-completion request dict in, serialized chat-completion response out."""
        messages = request_body.get("messages", [])
        user_text = next(
            (m.get("content", "") for m in messages if m.get("role") == "user"), ""
        )
        text = self.reply_text(user_text, request_body.get("seed"))
        prompt_tokens = sum(len(m.get("content", "").split()) for m in messages)
        response = {
            "object": "chat.completion",
            "model": request_body.get("model", "mock"),
            "choices": [
                {
                    "index": 0,
                    "message": {"role": "assistant", "content": text},
                    "finish_reason": "stop",
                }
            ],
            "usage": {
                "prompt_tokens": prompt_tokens,
                "completion_tokens": len(text.split()),
            },
        }
        return json.dumps(response, sort_keys=True, ensure_ascii=False)


class MockTransport:
    """In-process transport over a :class:`MockResponder`; no sockets involved."""

    def __init__(self, script: MockScript):
        self.responder = MockResponder(script)
        self.calls = 0

    def send(self, endpoint: ModelEndpoint, system_text: str, user_text: str) -> ChatReply:
        self.calls += 1
        body, raw_request = encode_request(endpoint, system_text, user_text)
        return parse_response_body(raw_request, self.responder.respond(body))


#: How often the background server checks for ``shutdown()``; the
#: ``serve_forever`` default of 0.5 s makes every shutdown wait that long.
_SHUTDOWN_POLL_S = 0.01


def _make_server(script: MockScript, host: str, port: int) -> ThreadingHTTPServer:
    """Bind a threading HTTP server whose handler answers from one responder;
    any exception the responder raises answers 500 with ``{"error": "<Type>: <message>"}``.
    A host and port it cannot bind raise :class:`ConfigError` naming both.

    ``http.server`` is imported here, so only a process that serves pays
    for it.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    responder = MockResponder(script)

    class MockHandler(BaseHTTPRequestHandler):
        def do_POST(self) -> None:  # noqa: N802 - http.server API
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            try:
                payload = responder.respond(json.loads(raw))
                status = 200
            except Exception as exc:  # a bad request gets a 500, not a dropped connection
                logger.debug("mock server: responder raised", exc_info=True)
                payload = json.dumps({"error": f"{type(exc).__name__}: {exc}"})
                status = 500
            data = payload.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            logger.debug("mock server: " + format, *args)

    try:
        return ThreadingHTTPServer((host, port), MockHandler)
    except (OverflowError, OSError) as exc:  # a port outside 0-65535, a bad host, a bound port
        raise ConfigError(f"cannot serve on {host}:{port}: {exc}") from None


def start_mock_server(
    script: MockScript, host: str = "127.0.0.1", port: int = 0
) -> tuple[ThreadingHTTPServer, str]:
    """Start a mock endpoint in a daemon thread; returns (server, base_url).

    ``port=0`` picks a free port.  Call ``server.shutdown()`` and
    ``server.server_close()`` when done.
    """
    server = _make_server(script, host, port)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": _SHUTDOWN_POLL_S}, daemon=True
    )
    thread.start()
    base_url = f"http://{host}:{server.server_address[1]}/v1/chat/completions"
    return server, base_url


def serve_forever(script: MockScript, host: str, port: int) -> None:
    """Blocking variant used by the CLI: announces the bound port, serves
    until Ctrl-C and then closes the listening socket."""
    with _make_server(script, host, port) as server:
        print(
            f"serving mock endpoint on http://{host}:{server.server_address[1]} "
            "(ctrl-c to stop)",
            flush=True,
        )
        with contextlib.suppress(KeyboardInterrupt):
            server.serve_forever()


__all__ = [
    "ScriptEntry",
    "AgentConfig",
    "MockScript",
    "SimulatedAgent",
    "MockResponder",
    "MockTransport",
    "start_mock_server",
    "serve_forever",
]
