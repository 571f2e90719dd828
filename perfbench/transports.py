"""Benchmark-side endpoints behind ipuq's public ``Transport`` protocol.

* :class:`ReplayTransport` answers every request with the reply the live
  in-process mock gave to the same raw request, so the simulated agent's
  compute stays out of the timed path.  A miss is answered live and counted.
* :class:`FaultInjector` corrupts one first attempt in four, chosen from the
  request content (never by call order, so the choice is the same at any
  concurrency), and counts what it serves.
"""

from __future__ import annotations

import json
import re
import threading
import time
import zlib
from dataclasses import replace

from ipuq.elicit.client import ChatReply, ModelEndpoint, build_request_body
from ipuq.elicit.prompts import FEEDBACK_HEADER, PromptKind, detect_kind, extract_question


class ReplayTransport:
    """Replays recorded live replies."""

    def __init__(self, live):
        self.live = live
        self.table: dict[str, ChatReply] = {}
        self.misses = 0
        self.live_cpu_s = 0.0
        self._lock = threading.Lock()

    def send(self, endpoint: ModelEndpoint, system_text: str, user_text: str) -> ChatReply:
        # The same serialization HttpTransport and MockTransport record.
        body = build_request_body(endpoint, system_text, user_text)
        key = json.dumps(body, sort_keys=True, ensure_ascii=False)
        reply = self.table.get(key)
        if reply is None:
            started = time.thread_time()
            reply = self.live.send(endpoint, system_text, user_text)
            cpu = time.thread_time() - started
            with self._lock:
                self.misses += 1
                self.live_cpu_s += cpu
                self.table[key] = reply
        return reply


_VALUE_RE = re.compile(r"=([^|\n]+)")
_FIRST_INTERVAL_RE = re.compile(r"^1\|lower=([^|\n]+)\|upper=([^|\n]+)$", re.MULTILINE)


def _missing_block(text: str) -> str:
    return "I would rather not put numbers on this one."


def _halve_values(text: str) -> str:
    # Every price/probability halved: each entry stays in [0, 1] but the
    # vector sums to 1/2, a SUM violation.
    return _VALUE_RE.sub(lambda m: f"={float(m.group(1)) / 2!r}", text)


def _invert_first_interval(text: str) -> str:
    return _FIRST_INTERVAL_RE.sub(r"1|lower=\2|upper=\1", text, count=1)


def _zero_possibilities(text: str) -> str:
    return _VALUE_RE.sub("=0.0", text)


FAULTS = {
    PromptKind.DEFINETTI: (_missing_block, _halve_values),
    PromptKind.PROBINT: (_missing_block, _invert_first_interval),
    PromptKind.POSSIBILITY: (_missing_block, _zero_possibilities),
    PromptKind.VANILLA: (_missing_block,),
    PromptKind.CREDAL: (_missing_block, _halve_values),
}
KIND_SLOT = {kind: i for i, kind in enumerate(FAULTS)}


class FaultInjector:
    """Corrupts one first attempt in four; retries (with feedback) pass.

    Each first attempt of a question gets a slot from its kind and request
    seed (the campaign's cell seeds and credal member seeds run through
    consecutive slots), and a question-dependent offset picks one slot class
    in four.  Every question thus loses 4-5 of its 18 first attempts, rather
    than a binomial number, so the retry load barely depends on ``--seed``.
    """

    def __init__(self, inner, seed: int):
        self.inner = inner
        self.seed = seed
        self._served = [0, 0, 0]
        self._lock = threading.Lock()

    def send(self, endpoint: ModelEndpoint, system_text: str, user_text: str) -> ChatReply:
        reply = self.inner.send(endpoint, system_text, user_text)
        if FEEDBACK_HEADER not in user_text:
            kind = detect_kind(user_text)
            request_seed = endpoint.seed or 0
            slot = KIND_SLOT[kind] + request_seed + request_seed // 100
            offset = zlib.crc32(f"{self.seed}\0{extract_question(user_text)}".encode())
            if (slot + offset) % 4 == 0:
                faults = FAULTS[kind]
                fault = faults[(slot + offset) // 4 % len(faults)]
                reply = _with_text(reply, fault(reply.text))
        with self._lock:
            self._served[0] += 1
            self._served[1] += reply.input_tokens
            self._served[2] += reply.output_tokens
        return reply

    def served(self) -> tuple[int, int, int]:
        """Requests, input tokens and output tokens handed to the client."""
        with self._lock:
            return tuple(self._served)


def _with_text(reply: ChatReply, text: str) -> ChatReply:
    data = json.loads(reply.raw_response)
    data["choices"][0]["message"]["content"] = text
    data["usage"]["completion_tokens"] = len(text.split())
    return replace(
        reply,
        text=text,
        output_tokens=len(text.split()),
        raw_response=json.dumps(data, sort_keys=True, ensure_ascii=False),
    )
