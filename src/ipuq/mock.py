"""Deterministic mock chat endpoint for tests, demos and offline campaigns.

Two reply sources, checked in order:

* a **script**: ordered canned replies keyed by (question, kind, seed);
  the n-th request for a key gets the n-th reply, and running off the end
  of the list is an error (a script is a complete plan, not a suggestion);
* a programmable **agent** that computes replies from the prompt itself:
  it reads the candidate list, weighs each candidate by its casing under a
  configured noise level, and widens its intervals as the demonstration
  count shrinks.  This gives the simulated endpoint separately tunable
  first-order spread (via ``noise_p``) and second-order imprecision (via
  ``width_c`` over the example count), all analytically, which is what the
  disentanglement studies check against.

The same responder serves in-process (as a transport, no sockets) and over
HTTP (``ipuq mock serve``), byte-identical either way.  Replies, token
counts and response bodies are fully deterministic; token usage is counted
in whitespace-separated words.  ``http.server`` is imported only when a
server is started, so in-process use never loads the network stack.
"""

from __future__ import annotations

import contextlib
import json
import logging
import threading
from collections.abc import Hashable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .core import ConfigError, JsonForm, refuse_repeats
from .elicit.client import ChatReply, ModelEndpoint, encode_request, parse_response_body
from .elicit.prompts import (
    NOTA_LABEL,
    PromptKind,
    detect_kind,
    extract_candidates,
    extract_question,
)

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


def _count_demonstrations(question: str) -> int:
    # ICL questions are "Input: X → Output: Y" lines with a final "?" query.
    total = question.count("→ Output:")
    return max(total - 1, 0)


def _letters(text: str) -> int:
    return sum(1 for c in text if c.isalpha())


def _lower_letters(text: str) -> int:
    return sum(1 for c in text if c.isalpha() and c.islower())


def _block(rows: list[str]) -> str:
    return "```\n" + "\n".join(rows) + "\n```"


class SimulatedAgent:
    """Computes protocol-correct replies from configured analytic beliefs."""

    def __init__(self, config: AgentConfig):
        self.config = config

    def _candidate_weights(self, candidates: list[str]) -> list[float]:
        p = self.config.noise_p
        weights = []
        for text in candidates:
            total = _letters(text)
            low = _lower_letters(text)
            weights.append(p**low * (1.0 - p) ** (total - low))
        mass = sum(weights)
        if mass <= 0.0:
            return [1.0 / len(candidates)] * len(candidates)
        return [w / mass for w in weights]

    def reply(
        self,
        kind: PromptKind,
        question: str,
        candidates: list[str] | None,
        seed: int | None,
    ) -> str:
        if kind == PromptKind.VANILLA:
            conf = 1.0 if not candidates else max(self._candidate_weights(candidates))
            return _block([f"CONF|conf={conf!r}"])
        if candidates is None:
            raise ConfigError(f"agent cannot answer kind {kind.value} without candidates")
        weights = self._candidate_weights(candidates)
        if kind == PromptKind.DEFINETTI:
            return _block([f"{i + 1}|price={w!r}" for i, w in enumerate(weights)])
        if kind == PromptKind.CREDAL:
            lam = ((seed or 0) % 5) * self.config.credal_spread
            lam = min(lam, 1.0)
            n = len(weights)
            mixed = [(1.0 - lam) * w + lam / n for w in weights]
            return _block([f"{i + 1}|prob={w!r}" for i, w in enumerate(mixed)])
        if kind == PromptKind.PROBINT:
            m = _count_demonstrations(question)
            width = 1.0 if m == 0 else min(1.0, self.config.width_c / m)
            rows = []
            for i, w in enumerate(weights):
                lo = w * (1.0 - width)
                rows.append(f"{i + 1}|lower={lo!r}|upper={lo + width!r}")
            return _block(rows)
        if kind == PromptKind.POSSIBILITY:
            peak = max(weights)
            rows = [f"{i + 1}|pos={w / peak!r}" for i, w in enumerate(weights)]
            rows.append(f"{NOTA_LABEL}|pos={self.config.nota!r}")
            return _block(rows)
        raise ConfigError(f"agent does not implement kind {kind.value}")


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
