"""Backends that turn prompts into decision-token logits and reasoning text.

``CompletionsBackend`` holds the one protocol: it builds de-facto JSON text
completions requests (vLLM-style servers) and reads per-token
log-probabilities and reasoning text from the responses. Log-probabilities
stand in for raw logits: a two-way softmax over logits equals renormalizing
the two token probabilities, since the full-vocabulary softmax shift cancels
in the ratio. A transport supplies only ``_complete(payload) -> body``:

* ``HttpCompletionsBackend`` sends the request to a server, and optionally
  appends each request/response pair to a capture log.
* ``ReplayBackend`` answers the request from such a capture log, offline.

``MockBackend`` is a deterministic in-process stand-in for tests and
offline runs: a pure function of (prompt, seed) that builds no requests.

Clients are shareable across threads. ``max_in_flight`` bounds the HTTP
requests in flight, enforced internally; callers must not assume response
ordering. Backends that answer in process (``answers_in_process``: the mock
and replay) gain nothing from threads, whose Python work only contends for
the interpreter lock, so ``rerank.score_candidates`` scores them on the
calling thread.

The HTTP transport is the standard library's ``http.client``. One pool of
``max_in_flight`` keep-alive connections, opened lazily, is also the
in-flight gate: a request holds a connection for its whole round trip, and
a connection that raised is closed and its slot reopened on next use. A
reused connection that the server dropped while idle is redialled once
without spending an attempt. 429 and 5xx answers and transport failures are
retried with exponential backoff; a 429 or 503 carrying ``Retry-After``
(delta-seconds) waits that long instead, capped at the request timeout. No
proxy is consulted and no environment variable is read.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import queue
import re
import ssl
import threading
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, ClassVar
from urllib.parse import urlsplit

from .data import read_json_object, read_records
from .types import DecisionLogits, ReasoningTrace, ValidationError


class BackendError(RuntimeError):
    """Transport or server failure after the configured retries."""


class ProtocolError(BackendError):
    """The server answered, but not in a usable shape."""


@dataclass(frozen=True)
class BackendConfig:
    endpoint: str = ""
    model: str = ""
    timeout: float = 120.0
    max_in_flight: int = 8
    max_attempts: int = 3
    backoff: float = 0.5
    decision_tokens: tuple[str, str] = ("true", "false")
    top_logprobs: int = 20
    capture_path: str | None = None
    auth_token: str | None = None

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValidationError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.max_attempts < 1:
            raise ValidationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValidationError(f"timeout must be finite and > 0 seconds, got {self.timeout}")
        if not self.backoff >= 0:
            raise ValidationError(f"backoff must be >= 0 seconds, got {self.backoff}")
        true_tok, false_tok = self.decision_tokens
        if not true_tok or not false_tok or true_tok == false_tok:
            raise ValidationError(
                f"decision tokens must be two distinct non-empty strings, got {self.decision_tokens!r}"
            )
        if self.top_logprobs < 2:
            raise ValidationError(f"top_logprobs must be >= 2, got {self.top_logprobs}")


@dataclass(frozen=True)
class SamplingParams:
    """Decoding controls for reasoning generation.

    temperature 0 means greedy decoding; the seed is honored when the
    backend supports it. ``stop`` is the end-of-think marker and is never
    included in returned trace text.
    """

    temperature: float = 0.0
    top_p: float = 1.0
    max_tokens: int = 1024
    stop: str = "</think>"
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValidationError(
                f"temperature must be finite and >= 0, got {self.temperature}"
            )
        if not 0.0 < self.top_p <= 1.0:
            raise ValidationError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.max_tokens < 1:
            raise ValidationError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if not self.stop:
            raise ValidationError("stop sequence must be non-empty")

    def with_seed(self, seed: int | None) -> "SamplingParams":
        return replace(self, seed=seed)


class CompletionsBackend:
    """The completions protocol: request building and response reading.

    Wire backends supply the transport as ``_complete(payload) -> body``.
    """

    config: BackendConfig
    answers_in_process: ClassVar[bool] = False  # True: no wait that threads could overlap

    def _complete(self, payload: dict) -> dict:
        """Answer one completions request with its JSON response body."""
        raise NotImplementedError

    def _base_payload(self, prompt: str) -> dict:
        return {"model": self.config.model, "prompt": prompt, "echo": False}

    def validate_decision_tokens(self) -> None:
        """Probe the server: each decision token must be one vocabulary item."""
        for token in self.config.decision_tokens:
            payload = {
                "model": self.config.model,
                "prompt": token,
                "max_tokens": 0,
                "echo": True,
                "logprobs": 0,
            }
            body = self._complete(payload)
            tokens = _choice(body).get("logprobs", {}).get("tokens")
            if tokens is None:
                raise ProtocolError(
                    "probe response carried no logprobs.tokens; the server must "
                    "support echo with logprobs for decision-token validation"
                )
            if len(tokens) != 1:
                raise ProtocolError(
                    f"decision token {token!r} tokenizes to {len(tokens)} pieces "
                    f"({tokens!r}); pick single-token decision words for this model"
                )

    def score_decision(self, prompt: str) -> DecisionLogits:
        if not prompt:
            raise ValidationError("prompt must be non-empty")
        payload = self._base_payload(prompt)
        payload.update(
            {"max_tokens": 1, "temperature": 0.0, "logprobs": self.config.top_logprobs}
        )
        body = self._complete(payload)
        top = _choice(body).get("logprobs", {}).get("top_logprobs")
        if not top:
            raise ProtocolError("response carried no top_logprobs for the next position")
        table = top[0]
        true_tok, false_tok = self.config.decision_tokens
        missing = [t for t in (true_tok, false_tok) if t not in table]
        if missing:
            raise ProtocolError(
                f"decision token(s) {missing} absent from the top "
                f"{self.config.top_logprobs} logprobs; raise top_logprobs in the "
                "backend config so both decision tokens are always returned"
            )
        return DecisionLogits(float(table[true_tok]), float(table[false_tok]))

    def generate(self, prompt: str, sampling: SamplingParams) -> ReasoningTrace:
        if not prompt:
            raise ValidationError("prompt must be non-empty")
        payload = self._base_payload(prompt)
        payload.update(
            {
                "max_tokens": sampling.max_tokens,
                "temperature": sampling.temperature,
                "top_p": sampling.top_p,
                "stop": [sampling.stop],
            }
        )
        if sampling.seed is not None:
            payload["seed"] = sampling.seed
        body = self._complete(payload)
        choice = _choice(body)
        text = choice.get("text", "")
        if text.endswith(sampling.stop):  # some servers include the stop sequence
            text = text[: -len(sampling.stop)]
        if "stop_reason" in choice:  # vLLM: the stop string matched, or null at EOS
            terminated = choice["stop_reason"] == sampling.stop
        else:
            terminated = choice.get("finish_reason") == "stop"
        usage = body.get("usage") or {}
        token_count = usage.get("completion_tokens")
        if token_count is None:
            token_count = len(_pieces(text))
        return ReasoningTrace(text=text, terminated=terminated, token_count=int(token_count))

    def close(self) -> None:
        """Release held connections; a no-op for backends that hold none."""

    def generate_then_score(
        self, prompt: str, sampling: SamplingParams, answer_scaffold: str = "\n"
    ) -> tuple[ReasoningTrace, DecisionLogits]:
        """Generate a trace, then read decision logits after it.

        The end-of-think marker is re-appended before scoring whether or not
        the model emitted it, so a budget-exhausted trace still gets a score;
        the logits position is always prompt + trace + marker + scaffold.
        """
        if not prompt:
            raise ValidationError("prompt must be non-empty")
        trace = self.generate(prompt, sampling)
        extended = prompt + trace.text + sampling.stop + answer_scaffold
        return trace, self.score_decision(extended)


class HttpCompletionsBackend(CompletionsBackend):
    """Client for an OpenAI-style ``/v1/completions`` endpoint with logprobs."""

    def __init__(self, config: BackendConfig):
        if not config.endpoint:
            raise ValidationError("backend endpoint URL is required")
        try:
            url = urlsplit(config.endpoint)
            port = url.port
        except ValueError as exc:
            raise ValidationError(f"malformed backend endpoint URL: {exc}") from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValidationError(
                f"backend endpoint must be an http:// or https:// URL, got {config.endpoint!r}"
            )
        self.config = config
        if url.scheme == "https":
            self._connect = partial(
                http.client.HTTPSConnection, url.hostname, port or 443,
                timeout=config.timeout, context=ssl.create_default_context(),
            )
        else:
            self._connect = partial(
                http.client.HTTPConnection, url.hostname, port or 80, timeout=config.timeout
            )
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json"}
        if config.auth_token:
            self._headers["Authorization"] = f"Bearer {config.auth_token}"
        # One entry per in-flight slot: an open connection, or None until one is needed.
        self._pool: queue.LifoQueue = queue.LifoQueue()
        for _ in range(config.max_in_flight):
            self._pool.put(None)
        self._capture_lock = threading.Lock()

    def _post(self, payload: dict) -> tuple[int, http.client.HTTPMessage, bytes]:
        """One round trip on a pooled connection: (status, headers, raw body).

        Blocks until a connection slot is free. A reused connection that
        fails before the status line arrives was dropped by the server while
        idle, so the request goes out once more on a new connection. A
        connection that raised is closed and its slot left empty.
        """
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        conn = self._pool.get()
        try:
            if conn is None:
                conn = self._connect()
            reused = conn.sock is not None
            try:
                conn.request("POST", self._target, body, self._headers)
                resp = conn.getresponse()
            except (BrokenPipeError, ConnectionResetError):  # incl. RemoteDisconnected
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._target, body, self._headers)
                resp = conn.getresponse()
            return resp.status, resp.headers, resp.read()
        except BaseException:
            if conn is not None:
                conn.close()
                conn = None
            raise
        finally:
            self._pool.put(conn)

    def _complete(self, payload: dict) -> dict:
        cfg = self.config
        last_error: Exception | None = None
        wait = 0.0
        for attempt in range(cfg.max_attempts):
            if attempt:
                time.sleep(wait)
            wait = cfg.backoff * (2 ** attempt)
            try:
                status, headers, raw = self._post(payload)
                if status == 429 or status >= 500:
                    retry_after = (headers.get("Retry-After") or "").strip()
                    if status in (429, 503) and retry_after.isdecimal():
                        wait = min(int(retry_after), cfg.timeout)
                    last_error = BackendError(f"server returned {status}: {_excerpt(raw)}")
                    continue
                if status != 200:
                    raise ProtocolError(f"server returned {status}: {_excerpt(raw)}")
                body = json.loads(raw)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                # socket errors and timeouts, malformed or cut-short responses,
                # and bodies that are not JSON
                last_error = exc
                continue
            if cfg.capture_path:  # mirror for offline replay, one JSON line per request
                line = json.dumps({"request": payload, "response": body}, sort_keys=True)
                with self._capture_lock, open(cfg.capture_path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
            return body
        raise BackendError(
            f"request failed after {cfg.max_attempts} attempts: {last_error}"
        ) from last_error

    def close(self) -> None:
        """Close the idle pooled connections; later requests open new ones."""
        idle = []
        while True:
            try:
                idle.append(self._pool.get_nowait())
            except queue.Empty:
                break
        for conn in idle:
            if conn is not None:
                conn.close()
            self._pool.put(None)


def _excerpt(raw: bytes) -> str:
    return raw.decode("utf-8", "replace")[:200]


def _choice(body: dict) -> dict:
    choices = body.get("choices")
    if not choices:
        raise ProtocolError(f"response carried no choices: {json.dumps(body)[:200]}")
    return choices[0]


def _pieces(text: str) -> list[str]:
    """Crude token pieces that re-join to the exact original text."""
    return re.findall(r"\S+\s*|\s+", text)


def _hash_unit(material: str) -> float:
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64  # in [0, 1)


def _default_score_fn(prompt: str) -> tuple[float, float]:
    return (
        8.0 * _hash_unit("true:" + prompt) - 4.0,
        8.0 * _hash_unit("false:" + prompt) - 4.0,
    )


def _default_generate_fn(prompt: str, seed: int | None) -> str:
    h = hashlib.sha256(f"{seed}:{prompt}".encode("utf-8")).hexdigest()
    words = " ".join(f"w{h[i:i + 4]}" for i in range(0, 32, 4))
    return f"Okay, considering {words}. Done.</think>"


class MockBackend(CompletionsBackend):
    """Deterministic backend for tests: a pure function of (prompt, seed).

    ``score_fn`` maps a prompt to (true_logit, false_logit); ``generate_fn``
    maps (prompt, seed) to the raw continuation the model would emit, which
    is then subjected to the same stop-marker and token-budget handling a
    real server applies. Call counters support call-count assertions.
    """

    answers_in_process = True

    def __init__(
        self,
        score_fn: Callable[[str], tuple[float, float]] | None = None,
        generate_fn: Callable[[str, int | None], str] | None = None,
        single_token_vocab: set[str] | None = None,
        config: BackendConfig | None = None,
    ):
        self.config = config or BackendConfig(endpoint="mock:", model="mock")
        self._score_fn = score_fn or _default_score_fn
        self._generate_fn = generate_fn or _default_generate_fn
        self._vocab = single_token_vocab
        self._lock = threading.Lock()
        self.score_calls = 0
        self.generate_calls = 0
        self.scored_prompts: list[str] = []  # always empty; kept only for bench/tracer.py

    def validate_decision_tokens(self) -> None:
        for token in self.config.decision_tokens:
            if self._vocab is not None:
                single = token in self._vocab
            else:
                single = bool(token) and not any(ch.isspace() for ch in token)
            if not single:
                raise ProtocolError(
                    f"decision token {token!r} is not a single token in the mock vocabulary"
                )

    def score_decision(self, prompt: str) -> DecisionLogits:
        if not prompt:
            raise ValidationError("prompt must be non-empty")
        true_logit, false_logit = self._score_fn(prompt)
        with self._lock:
            self.score_calls += 1
        return DecisionLogits(true_logit, false_logit)

    def generate(self, prompt: str, sampling: SamplingParams) -> ReasoningTrace:
        if not prompt:
            raise ValidationError("prompt must be non-empty")
        raw = self._generate_fn(prompt, sampling.seed)
        with self._lock:
            self.generate_calls += 1
        head, marker, _ = raw.partition(sampling.stop)
        pieces = _pieces(head)
        if marker and len(pieces) <= sampling.max_tokens:
            return ReasoningTrace(text=head, terminated=True, token_count=len(pieces))
        kept = pieces[: sampling.max_tokens]
        return ReasoningTrace(text="".join(kept), terminated=False, token_count=len(kept))


def load_mock_table(path: str, config: BackendConfig | None = None) -> MockBackend:
    """Build a MockBackend from a JSON rule table (the ``mock:<path>`` form).

    Table shape::

        {
          "single_token_vocab": ["true", "false"],   # optional
          "default_logits": [0.0, 0.0],              # or "hash"
          "default_reasoning": "…</think>",          # optional
          "rules": [
            {"contains": ["Passage: jammed finger"],
             "logits": [2.0, 0.0],
             "reasoning": "…</think>",               # optional, may use {seed}
             "fail": false}
          ]
        }

    The first rule whose ``contains`` strings all appear in the prompt wins.
    A ``fail`` rule raises a backend error (for exercising error policy).
    ``{seed}`` in reasoning text is substituted at generation time so sampled
    outputs can differ per seed while staying deterministic.
    """
    table = read_json_object(path, "mock table")
    rules = table.get("rules", [])
    default_logits = table.get("default_logits", [0.0, 0.0])
    default_reasoning = table.get("default_reasoning")

    def _match(prompt: str) -> dict | None:
        for rule in rules:
            if all(s in prompt for s in rule.get("contains", [])):
                return rule
        return None

    def score_fn(prompt: str) -> tuple[float, float]:
        rule = _match(prompt)
        if rule is not None:
            if rule.get("fail"):
                raise BackendError("mock rule requested a failure")
            if "logits" in rule:
                z_true, z_false = rule["logits"]
                return float(z_true), float(z_false)
        if default_logits == "hash":
            return _default_score_fn(prompt)
        return float(default_logits[0]), float(default_logits[1])

    def generate_fn(prompt: str, seed: int | None) -> str:
        rule = _match(prompt)
        if rule is not None:
            if rule.get("fail"):
                raise BackendError("mock rule requested a failure")
            if "reasoning" in rule:
                return rule["reasoning"].replace("{seed}", str(seed))
        if default_reasoning is not None:
            return default_reasoning.replace("{seed}", str(seed))
        return _default_generate_fn(prompt, seed)

    vocab = table.get("single_token_vocab")
    return MockBackend(
        score_fn=score_fn,
        generate_fn=generate_fn,
        single_token_vocab=set(vocab) if vocab is not None else None,
        config=config,
    )


def _capture_record(line: str) -> tuple[None, tuple[str, dict]]:
    """One capture-log line as (request key, response); a re-recorded request wins."""
    record = json.loads(line)
    if not (isinstance(record, dict) and "request" in record
            and isinstance(record.get("response"), dict)):
        raise ValidationError("capture record must hold a 'request' and a 'response' object")
    return None, (json.dumps(record["request"], sort_keys=True), record["response"])


class ReplayBackend(CompletionsBackend):
    """Serves responses recorded in a capture log instead of going on the wire."""

    answers_in_process = True

    def __init__(self, capture_path: str, config: BackendConfig | None = None):
        self.config = config or BackendConfig(endpoint="replay:", model="replay")
        self._responses = dict(
            read_records(capture_path, _capture_record, "request", "empty capture log")
        )

    def _complete(self, payload: dict) -> dict:
        key = json.dumps(payload, sort_keys=True)
        try:
            return self._responses[key]
        except KeyError:
            raise BackendError(
                "no recorded response for this request; re-record the capture log"
            ) from None
