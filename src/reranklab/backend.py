"""Backends that turn prompts into decision-token logits and reasoning text.

``CompletionsBackend`` holds the one protocol: it builds de-facto JSON text
completions requests (vLLM-style servers) and reads per-token
log-probabilities and reasoning text from the responses. Log-probabilities
stand in for raw logits: a two-way softmax over logits equals renormalizing
the two token probabilities, since the full-vocabulary softmax shift cancels
in the ratio. Three transports each supply only ``_complete(payload) -> body``:

* ``HttpCompletionsBackend`` sends the request to a server, and optionally
  appends each request/response pair to a capture log.
* ``ReplayBackend`` answers the request from such a capture log, offline.
* ``MockBackend`` builds the answer in process, a pure function of
  (prompt, seed), for tests and offline runs.

Clients are shareable across threads. ``max_in_flight`` bounds the HTTP
requests in flight, enforced internally; callers must not assume response
ordering. ``rerank.iter_scores`` runs twice as many worker threads as
that bound, so a thread that sleeps or parses leaves no connection idle.
Backends that answer in process (``answers_in_process``: the mock and
replay) gain nothing from threads, whose Python work only contends for the
interpreter lock, so ``iter_scores`` scores them on the calling thread.

The HTTP transport is the standard library's ``http.client``. One pool of
``max_in_flight`` keep-alive connections, opened lazily, is the only
in-flight gate: a request holds a connection for its round trip alone, and
returns it before its response is parsed, captured or retried, so a retry
backoff holds no connection. A connection that raised is closed and its
slot reopened on next use. A reused connection that the server dropped
while idle is redialled once without spending an attempt. 429 and 5xx
answers and transport failures are retried with exponential backoff; a 429
or 503 carrying ``Retry-After`` (delta-seconds) waits that long instead,
capped at the request timeout. No proxy is consulted and no environment
variable is read.
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
from dataclasses import dataclass
from functools import partial
from typing import Callable, ClassVar
from urllib.parse import urlsplit

from .data import iter_record_offsets, read_json_object
from .prompts import DECISION_TOKENS
from .types import DecisionLogits, ReasoningTrace, ValidationError

# log-probabilities asked for at the decision position; both decision tokens must be among them
TOP_LOGPROBS = 20
# seconds before the first retry, doubled before each one after it
RETRY_BACKOFF = 0.5


class BackendError(RuntimeError):
    """Transport or server failure after the configured retries."""


class ProtocolError(BackendError):
    """The server answered, but not in a usable shape."""


@dataclass(frozen=True, slots=True)
class BackendConfig:
    """The client's settings, each one a run sets from a flag or the environment."""

    endpoint: str = ""
    model: str = ""
    timeout: float = 120.0
    max_in_flight: int = 8
    max_attempts: int = 3
    capture_path: str | None = None
    auth_token: str | None = None

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValidationError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.max_attempts < 1:
            raise ValidationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValidationError(f"timeout must be finite and > 0 seconds, got {self.timeout}")


@dataclass(frozen=True, slots=True)
class SamplingParams:
    """Decoding controls for reasoning generation; temperature 0 means greedy decoding."""

    temperature: float = 0.0
    top_p: float = 1.0
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValidationError(
                f"temperature must be finite and >= 0, got {self.temperature}"
            )
        if not 0.0 < self.top_p <= 1.0:
            raise ValidationError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.max_tokens < 1:
            raise ValidationError(f"max_tokens must be >= 1, got {self.max_tokens}")


class CompletionsBackend:
    """The completions protocol: request building and response reading.

    A transport (HTTP, replay or mock) supplies ``_complete(payload) -> body``.
    A response field of the wrong type raises ``ProtocolError`` naming it.
    """

    config: BackendConfig
    answers_in_process: ClassVar[bool] = False  # True: no wait that threads could overlap

    def _complete(self, payload: dict) -> dict:
        """Answer one completions request with its JSON response body."""
        raise NotImplementedError

    def validate_decision_tokens(self) -> None:
        """Probe the server: each decision token must be one vocabulary item."""
        for token in DECISION_TOKENS:
            payload = {
                "model": self.config.model,
                "prompt": token,
                "max_tokens": 0,
                "echo": True,
                "logprobs": 0,
            }
            body = self._complete(payload)
            tokens = _logprobs(body).get("tokens")
            if tokens is None:
                raise ProtocolError(
                    "probe response carried no logprobs.tokens; the server must "
                    "support echo with logprobs for decision-token validation"
                )
            _shaped(tokens, list, "logprobs.tokens")
            if len(tokens) != 1:
                raise ProtocolError(
                    f"decision token {token!r} tokenizes to {len(tokens)} pieces "
                    f"({tokens!r}); the decision read needs one-token words"
                )

    def score_decision(self, prompt: str) -> DecisionLogits:
        if not prompt:
            raise ValidationError("prompt must be non-empty")
        body = self._complete({
            "model": self.config.model, "prompt": prompt, "echo": False,
            "max_tokens": 1, "temperature": 0.0, "logprobs": TOP_LOGPROBS,
        })
        top = _logprobs(body).get("top_logprobs")
        if not top:
            raise ProtocolError("response carried no top_logprobs for the next position")
        table = _shaped(_shaped(top, list, "top_logprobs")[0], dict, "top_logprobs[0]")
        true_tok, false_tok = DECISION_TOKENS
        if true_tok not in table or false_tok not in table:
            missing = [t for t in DECISION_TOKENS if t not in table]
            raise ProtocolError(
                f"decision token(s) {missing} absent from the top {TOP_LOGPROBS} logprobs"
            )
        z_true, z_false = table[true_tok], table[false_tok]
        if not (_is_number(z_true) and _is_number(z_false)):
            tok, z = (false_tok, z_false) if _is_number(z_true) else (true_tok, z_true)
            raise _malformed(f"top_logprobs[0][{tok!r}]", "a finite number", z)
        return DecisionLogits(float(z_true), float(z_false))

    def generate(self, prompt: str, sampling: SamplingParams, stop: str,
                 seed: int | None = None) -> ReasoningTrace:
        """Sample up to ``stop`` (never in the returned text); ``seed`` is sent when given."""
        if not prompt:
            raise ValidationError("prompt must be non-empty")
        if not stop:  # "" would cut every trace to nothing below
            raise ValidationError("stop sequence must be non-empty")
        payload = {
            "model": self.config.model, "prompt": prompt, "echo": False,
            "max_tokens": sampling.max_tokens, "temperature": sampling.temperature,
            "top_p": sampling.top_p, "stop": [stop],
        }
        if seed is not None:
            payload["seed"] = seed
        body = self._complete(payload)
        choice = _choice(body)
        text = _shaped(choice.get("text", ""), str, "text")
        if text.endswith(stop):  # some servers include the stop sequence
            text = text[: -len(stop)]
        if "stop_reason" in choice:  # vLLM: the stop string matched, or null at EOS
            terminated = choice["stop_reason"] == stop
        else:
            terminated = choice.get("finish_reason") == "stop"
        usage = _shaped(body.get("usage") or {}, dict, "usage")
        token_count = usage.get("completion_tokens")
        if token_count is None:
            token_count = len(_pieces(text))
        elif type(token_count) is not int or token_count < 0:  # bool is not a count
            raise _malformed("usage.completion_tokens", "a non-negative integer", token_count)
        return ReasoningTrace(text=text, terminated=terminated, token_count=token_count)

    def close(self) -> None:
        """Release held connections; a no-op for backends that hold none."""


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
            wait = RETRY_BACKOFF * (2 ** attempt)
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
            if not isinstance(body, dict):  # JSON, but not a completions body: "[]", "busy"
                last_error = ProtocolError(f"response is not a JSON object: {_excerpt(raw)}")
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
    return _shaped(_shaped(choices, list, "choices")[0], dict, "choices[0]")


def _logprobs(body: dict) -> dict:
    return _shaped(_choice(body).get("logprobs", {}), dict, "logprobs")


def _is_number(value) -> bool:
    return type(value) in (float, int) and math.isfinite(value)  # a JSON number, not a bool


_SHAPES = {dict: "an object", list: "a list", str: "a string"}


def _shaped(value, kind: type, field: str):
    """``value`` if it is a ``kind``; otherwise the server's answer is unusable."""
    if not isinstance(value, kind):
        raise _malformed(field, _SHAPES[kind], value)
    return value


def _malformed(field: str, shape: str, value) -> ProtocolError:
    got = json.dumps(value)[:200]
    return ProtocolError(f"response field {field!r} must be {shape}, got {got}")


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
    return (f"Okay, considering w{h[:4]} w{h[4:8]} w{h[8:12]} w{h[12:16]} w{h[16:20]}"
            f" w{h[20:24]} w{h[24:28]} w{h[28:32]}. Done.</think>")


class MockBackend(CompletionsBackend):
    """Deterministic transport for tests: a pure function of (prompt, seed).

    It builds answers, not requests. ``score_fn`` maps a prompt to
    (true_logit, false_logit); ``generate_fn`` maps (prompt, seed) to the raw
    continuation the model would emit, which ``_complete`` cuts at the stop
    marker and the token budget as a server would. Left out, they are the
    hash mock's functions, which a rule-free ``"hash"`` table also holds.
    Every answer goes through ``_complete`` and the protocol's readers. Call
    counters count score and generate requests.
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

    def _complete(self, payload: dict) -> dict:
        prompt = payload["prompt"]
        if "stop" in payload:  # generate: cut at the stop marker, then at the budget
            raw = self._generate_fn(prompt, payload.get("seed"))
            with self._lock:
                self.generate_calls += 1
            head, marker, _ = raw.partition(payload["stop"][0])
            # len(_pieces(head)), unbuilt: one piece per word, one more for leading space
            count = len(head.split()) + head[:1].isspace()
            if marker and count <= payload["max_tokens"]:
                choice = {"text": head, "finish_reason": "stop"}
            else:
                pieces = _pieces(head)[: payload["max_tokens"]]
                count = len(pieces)
                choice = {"text": "".join(pieces), "finish_reason": "length"}
            return {"choices": [choice], "usage": {"completion_tokens": count}}
        if payload["echo"]:  # probe: one piece iff the prompt is one vocabulary item
            if self._vocab is not None:
                single = prompt in self._vocab
            else:
                single = not any(ch.isspace() for ch in prompt)
            tokens = [prompt] if single else [prompt[:1], prompt[1:]]
            return {"choices": [{"logprobs": {"tokens": tokens}}]}
        logits = self._score_fn(prompt)
        with self._lock:
            self.score_calls += 1
        return {"choices": [{"logprobs": {"top_logprobs": [dict(zip(DECISION_TOKENS, logits))]}}]}


def _is_logits(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(_is_number(z) for z in value)


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


# field -> (type check, what the field must be); an absent field takes its default
_TABLE_FIELDS = {
    "single_token_vocab": (_is_strings, "a list of strings"),
    "default_logits": (lambda v: v == "hash" or _is_logits(v), '"hash" or two finite numbers'),
    "default_reasoning": (lambda v: isinstance(v, str), "a string"),
    "rules": (lambda v: isinstance(v, list) and all(isinstance(r, dict) for r in v),
              "a list of objects"),
}
_RULE_FIELDS = {
    "contains": (_is_strings, "a list of strings"),
    "logits": (_is_logits, "two finite numbers"),
    "reasoning": (lambda v: isinstance(v, str), "a string"),
    "fail": (lambda v: isinstance(v, bool), "true or false"),
}


def _check_fields(obj: dict, fields: dict, where: str) -> None:
    for name, value in obj.items():
        if name not in fields:  # a misspelt field would otherwise be silently ignored
            raise ValidationError(f"{where} has unknown field {name!r}")
        ok, kind = fields[name]
        if not ok(value):
            raise ValidationError(f"{where} field {name!r} must be {kind}")


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

    The first rule whose ``contains`` strings all appear in the prompt wins;
    a table with rules scans them in order on every request. A table without
    rules answers with its defaults; with ``"hash"`` logits and no
    ``default_reasoning`` those are the built-in hash mock's own functions,
    so no per-request scan runs.
    A ``fail`` rule raises a backend error (for exercising error policy).
    ``{seed}`` in reasoning text is substituted at generation time so sampled
    outputs can differ per seed while staying deterministic. Every field is
    optional; an unknown one or one of the wrong type raises ``ValidationError``
    naming the file (and the rule).
    """
    table = read_json_object(path, "mock table")
    _check_fields(table, _TABLE_FIELDS, f"{path}: mock table")
    rules = table.get("rules", [])
    for i, rule in enumerate(rules):
        _check_fields(rule, _RULE_FIELDS, f"{path}: mock table rule {i}")
    default_logits = table.get("default_logits", [0.0, 0.0])
    default_reasoning = table.get("default_reasoning")

    def rule_for(prompt: str) -> dict:
        """The first rule matching ``prompt``, or ``{}``; a ``fail`` rule raises."""
        rule = next((r for r in rules if all(s in prompt for s in r.get("contains", []))), {})
        if rule.get("fail"):
            raise BackendError("mock rule requested a failure")
        return rule

    def score_fn(prompt: str) -> tuple[float, float]:
        logits = rule_for(prompt).get("logits", default_logits)
        if logits == "hash":
            return _default_score_fn(prompt)
        return float(logits[0]), float(logits[1])

    def generate_fn(prompt: str, seed: int | None) -> str:
        reasoning = rule_for(prompt).get("reasoning", default_reasoning)
        if reasoning is None:
            return _default_generate_fn(prompt, seed)
        return reasoning.replace("{seed}", str(seed))

    vocab = table.get("single_token_vocab")
    scan = bool(rules)  # without rules, a hash-mock default is the hash mock's own function
    return MockBackend(
        score_fn=score_fn if scan or default_logits != "hash" else None,
        generate_fn=generate_fn if scan or default_reasoning is not None else None,
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
    """Serves responses recorded in a capture log instead of going on the wire.

    Made, it reads and checks every record of the log, but keeps only a
    digest of each request's canonical JSON and the byte offset of its line;
    a request recorded again keeps its later line. A lookup opens the log,
    reads that one line back and checks that its request is the one asked
    for, so no prompt or response is held between calls and no file stays
    open.
    """

    answers_in_process = True

    def __init__(self, capture_path: str, config: BackendConfig | None = None):
        self.config = config or BackendConfig(endpoint="replay:", model="replay")
        self._path = capture_path
        self._offsets = {
            _request_digest(key): offset for offset, (key, _) in
            iter_record_offsets(capture_path, _capture_record, "request", "empty capture log")
        }

    def _complete(self, payload: dict) -> dict:
        key = json.dumps(payload, sort_keys=True)
        offset = self._offsets.get(_request_digest(key))
        if offset is not None:
            with open(self._path, "rb") as fh:
                fh.seek(offset)
                line = fh.readline()
            try:
                recorded, response = _capture_record(line.decode("utf-8"))[1]
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, ValidationError
                raise BackendError(f"{self._path}: capture log changed during replay: {exc}") from exc
            if recorded == key:  # not a digest collision
                return response
        raise BackendError("no recorded response for this request; re-record the capture log")


def _request_digest(key: str) -> bytes:
    return hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
