"""Chat-endpoint transport: one POST per elicitation attempt.

The wire shape is the widely spoken chat-completion JSON (a ``messages``
array in, ``choices[0].message.content`` out), so the same client talks to
hosted endpoints and to the bundled mock server.  Authentication is a bearer
token read from an environment variable at request time; the token itself is
never logged and never stored in recorded request bodies.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from typing import Callable, Protocol

import requests

from ..core import IpuqError

logger = logging.getLogger(__name__)

DEFAULT_TIMEOUT_S = 60.0
DEFAULT_TRANSPORT_RETRIES = 3
DEFAULT_BACKOFF_BASE_S = 0.5


class TransportError(IpuqError, RuntimeError):
    """Network/HTTP-level failure.  ``retryable`` marks transient ones.

    Raised out of an elicitation loop, ``results`` holds the partial
    :class:`~ipuq.elicit.loop.ElicitationResult` of every loop the failure
    cut short or came after (one per ensemble member reached), so the
    attempts already billed are not lost.
    """

    results: tuple = ()

    def __init__(self, message: str, *, retryable: bool = False):
        super().__init__(message)
        self.retryable = retryable


@dataclass(frozen=True)
class ModelEndpoint:
    """Where and how to reach one model.

    ``auth_token_env`` names the environment variable holding the bearer
    token (the variable's *name* is configuration; its value never is).
    Prices are per single token in account currency.
    """

    base_url: str
    model_id: str
    auth_token_env: str | None = None
    temperature: float = 0.0
    seed: int | None = None
    price_per_input_token: float = 0.0
    price_per_output_token: float = 0.0

    @property
    def key(self) -> str:
        return f"{self.model_id}@{self.base_url}"


@dataclass(frozen=True)
class ChatReply:
    """One assistant turn plus verbatim request/response bodies for replay."""

    text: str
    input_tokens: int
    output_tokens: int
    raw_request: str
    raw_response: str


class Transport(Protocol):
    def send(self, endpoint: ModelEndpoint, system_text: str, user_text: str) -> ChatReply:
        ...


def build_request_body(endpoint: ModelEndpoint, system_text: str, user_text: str) -> dict:
    body: dict = {
        "model": endpoint.model_id,
        "messages": [
            {"role": "system", "content": system_text},
            {"role": "user", "content": user_text},
        ],
        "temperature": endpoint.temperature,
    }
    if endpoint.seed is not None:
        body["seed"] = endpoint.seed
    return body


def parse_response_body(raw: str) -> tuple[str, int, int]:
    """Pull the assistant text and token usage out of a chat response body."""
    try:
        data = json.loads(raw)
        text = data["choices"][0]["message"]["content"]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"malformed chat response body: {exc}") from exc
    usage = data.get("usage") or {}
    input_tokens = int(usage.get("prompt_tokens", 0))
    output_tokens = int(usage.get("completion_tokens", 0))
    if not usage:
        logger.debug("response carried no usage block; recording zero tokens")
    return text, input_tokens, output_tokens


class HttpTransport:
    """POSTs chat requests with ``requests``; raises TransportError on failure."""

    def __init__(self, timeout_s: float = DEFAULT_TIMEOUT_S):
        self.timeout_s = timeout_s

    def send(self, endpoint: ModelEndpoint, system_text: str, user_text: str) -> ChatReply:
        body = build_request_body(endpoint, system_text, user_text)
        raw_request = json.dumps(body, sort_keys=True, ensure_ascii=False)
        headers = {"Content-Type": "application/json"}
        if endpoint.auth_token_env:
            token = os.environ.get(endpoint.auth_token_env)
            if token:
                headers["Authorization"] = f"Bearer {token}"
            else:
                logger.warning(
                    "auth variable %s is not set; sending unauthenticated request",
                    endpoint.auth_token_env,
                )
        try:
            response = requests.post(
                endpoint.base_url,
                data=raw_request.encode("utf-8"),
                headers=headers,
                timeout=self.timeout_s,
            )
        except requests.RequestException as exc:
            raise TransportError(f"request to {endpoint.base_url} failed: {exc}",
                                 retryable=True) from exc
        if response.status_code != 200:
            retryable = response.status_code == 429 or response.status_code >= 500
            raise TransportError(
                f"endpoint returned HTTP {response.status_code}: {response.text[:200]}",
                retryable=retryable,
            )
        text, tin, tout = parse_response_body(response.text)
        return ChatReply(
            text=text,
            input_tokens=tin,
            output_tokens=tout,
            raw_request=raw_request,
            raw_response=response.text,
        )


class ChatClient:
    """A transport plus a backoff policy for transient failures.

    Only transport-level trouble is retried here (with exponential backoff);
    failed *verification* is the retry loop's business and goes back to the
    model immediately with feedback instead.
    """

    def __init__(
        self,
        transport: Transport | None = None,
        *,
        transport_retries: int = DEFAULT_TRANSPORT_RETRIES,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.transport = transport if transport is not None else HttpTransport()
        self.transport_retries = transport_retries
        self.backoff_base_s = backoff_base_s
        self._sleep = sleep

    def complete(self, endpoint: ModelEndpoint, system_text: str, user_text: str) -> ChatReply:
        last: TransportError | None = None
        for attempt in range(self.transport_retries + 1):
            try:
                return self.transport.send(endpoint, system_text, user_text)
            except TransportError as exc:
                last = exc
                if not exc.retryable or attempt == self.transport_retries:
                    raise
                delay = self.backoff_base_s * (2**attempt)
                logger.debug("transient transport failure (%s); retrying in %.2fs", exc, delay)
                self._sleep(delay)
        raise last  # pragma: no cover - loop always returns or raises


__all__ = [
    "DEFAULT_TIMEOUT_S",
    "DEFAULT_TRANSPORT_RETRIES",
    "DEFAULT_BACKOFF_BASE_S",
    "TransportError",
    "ModelEndpoint",
    "ChatReply",
    "Transport",
    "ChatClient",
    "build_request_body",
    "parse_response_body",
]
