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

from ..core import IpuqError, is_count

logger = logging.getLogger(__name__)

DEFAULT_TIMEOUT_S = 60.0
TRANSPORT_RETRIES = 3
BACKOFF_BASE_S = 0.5


class TransportError(IpuqError, RuntimeError):
    """Network/HTTP-level failure.  ``retryable`` marks transient ones."""

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


def encode_request(endpoint: ModelEndpoint, system_text: str, user_text: str) -> tuple[dict, str]:
    """The request body and the serialization of it that is sent and recorded."""
    body = build_request_body(endpoint, system_text, user_text)
    return body, json.dumps(body, sort_keys=True, ensure_ascii=False)


def _token_count(usage: object, key: str) -> int:
    """``usage[key]``, 0 when absent; a count must pass :func:`~ipuq.core.is_count`."""
    if not isinstance(usage, dict):
        raise TransportError(f"malformed chat response body: usage {usage!r} is not an object")
    count = usage.get(key, 0)
    if not is_count(count):
        raise TransportError(f"malformed chat response body: {key} {count!r} is not a "
                             "non-negative integer within a float's range")
    return count


def parse_response_body(raw_request: str, raw_response: str) -> ChatReply:
    """Decode a chat response body into a reply that keeps both bodies verbatim."""
    try:
        data = json.loads(raw_response)
        text = data["choices"][0]["message"]["content"]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"malformed chat response body: {exc}") from exc
    if not isinstance(text, str):
        raise TransportError(f"malformed chat response body: content {text!r:.60} is not a string")
    usage = data.get("usage") or {}
    if not usage:
        logger.debug("response carried no usage block; recording zero tokens")
    return ChatReply(
        text=text,
        input_tokens=_token_count(usage, "prompt_tokens"),
        output_tokens=_token_count(usage, "completion_tokens"),
        raw_request=raw_request,
        raw_response=raw_response,
    )


def _post(url: str, body: bytes, headers: dict[str, str], timeout_s: float) -> tuple[int, str]:
    """Status and decoded body of one POST; a non-2xx reply is returned, not raised."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        response = urllib.request.urlopen(request, timeout=timeout_s)
    except urllib.error.HTTPError as exc:
        response = exc  # an HTTP error status still carries a body worth reporting
    with response:
        raw = response.read()
        charset = response.headers.get_content_charset("utf-8")
    try:
        return response.status, raw.decode(charset, errors="replace")
    except LookupError:  # a charset label Python does not know
        return response.status, raw.decode("utf-8", errors="replace")


class HttpTransport:
    """POSTs chat requests with ``urllib.request``; raises TransportError on failure.

    The HTTP client modules (``urllib.request``, ``http.client`` and the
    ``ssl``/``socket``/``email`` modules behind them) load on the first
    request, so a process that never sends one never imports them.  Each
    request opens its own connection.  Proxies come from the
    ``HTTP_PROXY``/``HTTPS_PROXY``/``NO_PROXY`` environment and TLS is
    verified against the system CA store (``SSL_CERT_FILE`` overrides it).
    Redirects that would re-send the body (307, 308) are not followed.
    """

    def __init__(self, timeout_s: float = DEFAULT_TIMEOUT_S):
        self.timeout_s = timeout_s

    def send(self, endpoint: ModelEndpoint, system_text: str, user_text: str) -> ChatReply:
        import http.client

        _, raw_request = encode_request(endpoint, system_text, user_text)
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
            status, raw_response = _post(
                endpoint.base_url, raw_request.encode("utf-8"), headers, self.timeout_s
            )
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransportError(f"request to {endpoint.base_url} failed: {exc}",
                                 retryable=True) from exc
        if status != 200:
            raise TransportError(
                f"endpoint returned HTTP {status}: {raw_response[:200]}",
                retryable=status == 429 or status >= 500,
            )
        return parse_response_body(raw_request, raw_response)


class ChatClient:
    """A transport plus a fixed backoff policy for transient failures.

    Only transport-level trouble is retried here: a retryable failure is
    retried ``TRANSPORT_RETRIES`` times, after 0.5, 1 and 2 s.
    Failed *verification* is the retry loop's business and goes back to the
    model immediately with feedback instead.
    """

    def __init__(
        self, transport: Transport | None = None, *, sleep: Callable[[float], None] = time.sleep
    ):
        self.transport = transport if transport is not None else HttpTransport()
        self._sleep = sleep

    def complete(self, endpoint: ModelEndpoint, system_text: str, user_text: str) -> ChatReply:
        for attempt in range(TRANSPORT_RETRIES):
            try:
                return self.transport.send(endpoint, system_text, user_text)
            except TransportError as exc:
                if not exc.retryable:
                    raise
                delay = BACKOFF_BASE_S * (2**attempt)
                logger.debug("transient transport failure (%s); retrying in %.2fs", exc, delay)
                self._sleep(delay)
        return self.transport.send(endpoint, system_text, user_text)


__all__ = [
    "DEFAULT_TIMEOUT_S",
    "TRANSPORT_RETRIES",
    "BACKOFF_BASE_S",
    "TransportError",
    "ModelEndpoint",
    "ChatReply",
    "Transport",
    "HttpTransport",
    "ChatClient",
    "build_request_body",
    "encode_request",
    "parse_response_body",
]
