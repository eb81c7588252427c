import json
import math
import socket
import struct
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from reranklab import (
    BackendConfig,
    BackendError,
    HttpCompletionsBackend,
    MockBackend,
    ProtocolError,
    ReplayBackend,
    SamplingParams,
    ValidationError,
)
from reranklab.backend import CompletionsBackend

# ---------------------------------------------------------------------------
# stub completions server
# ---------------------------------------------------------------------------


class _StubState:
    """Mutable behaviour knobs for the stub server, set per test."""

    def __init__(self):
        self.fail_next = 0          # respond 500 this many times
        self.refuse = []            # (status, Retry-After or None) for the next requests
        self.faults = []            # "not-json", "truncated", "reset" or "drop" (no answer)
        self.close_after_response = False  # drop each connection without announcing it
        self.stall_s = 0.0          # delay before every response
        self.extra_choice = {}      # fields merged into generation choices
        self.requests = []
        self.headers = []
        self.clients = []           # client (host, port) per request
        self.in_flight = 0
        self.peak_in_flight = 0
        self.logprob_table = {"true": -0.2, "false": -1.7}
        self.top_count = 20
        self.generation = "Let me think it over. The passage matches.</think> extra"
        self.lock = threading.Lock()

    def handle(self, payload):
        """(JSON body, status, extra headers) for one request."""
        with self.lock:
            if self.refuse:
                status, retry_after = self.refuse.pop(0)
                extra = {} if retry_after is None else {"Retry-After": retry_after}
                return {"error": "busy"}, status, extra
            if self.fail_next > 0:
                self.fail_next -= 1
                return {"error": "transient"}, 500, {}

        prompt = payload["prompt"]
        if payload.get("echo") and payload.get("max_tokens") == 0:
            # probe: one token iff the prompt is a known vocabulary word
            tokens = [prompt] if prompt in ("true", "false") else [prompt[:2], prompt[2:]]
            return {
                "choices": [
                    {"text": prompt, "finish_reason": "stop", "logprobs": {"tokens": tokens}}
                ]
            }, 200, {}

        if payload.get("max_tokens") == 1 and payload.get("logprobs"):
            table = dict(self.logprob_table)
            fillers = {f"tok{i}": -9.0 - i for i in range(self.top_count - len(table))}
            table.update(fillers)
            trimmed = dict(list(table.items())[: payload["logprobs"]])
            return {
                "choices": [
                    {
                        "text": "true",
                        "finish_reason": "length",
                        "logprobs": {"top_logprobs": [trimmed]},
                    }
                ],
                "usage": {"completion_tokens": 1},
            }, 200, {}

        # generation request
        stop = payload.get("stop", ["</think>"])[0]
        raw = self.generation
        head, sep, _ = raw.partition(stop)
        budget = payload.get("max_tokens", 16)
        words = head.split(" ")
        if sep and len(words) <= budget:
            text, finish, used = head, "stop", len(words)
        else:
            text, finish, used = " ".join(words[:budget]), "length", min(len(words), budget)
        choice = {"text": text, "finish_reason": finish, "logprobs": None}
        choice.update(self.extra_choice)
        return {"choices": [choice], "usage": {"completion_tokens": used}}, 200, {}


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so the client's connection pool is exercised

    def do_POST(self):
        state = self.server.state
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        with state.lock:
            state.requests.append(payload)
            state.headers.append(dict(self.headers))
            state.clients.append(self.client_address)
            state.in_flight += 1
            state.peak_in_flight = max(state.peak_in_flight, state.in_flight)
            fault = state.faults.pop(0) if state.faults else None
        try:
            time.sleep(state.stall_s)
            body_dict, status, extra = state.handle(payload)
            self._respond(status, body_dict, extra, fault, state.close_after_response)
        finally:
            with state.lock:
                state.in_flight -= 1

    def _respond(self, status, body_dict, extra, fault, close):
        body = json.dumps(body_dict).encode("utf-8")
        if fault == "not-json":
            body = b"<html>upstream busy</html>"
        declared = len(body) + 10 if fault == "truncated" else len(body)
        lines = [
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
            "Content-Type: application/json",
            f"Content-Length: {declared}",
        ]
        lines += [f"{k}: {v}" for k, v in extra.items()]
        # one write: separate header and body writes on a keep-alive socket
        # meet Nagle's algorithm and delayed ACK
        message = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body
        if fault == "reset":
            message = message[: len(message) - len(body) // 2]
        elif fault == "drop":
            message = b""
        try:
            self.wfile.write(message)
        except OSError:
            pass  # the client stopped waiting
        if fault == "reset":
            # abortive close: the peer sees RST, not FIN
            self.connection.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            self.rfile.close()
            self.connection.close()
        # no "Connection: close" header, so the client cannot know
        self.close_connection = close or fault in ("truncated", "reset", "drop")

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.state = _StubState()
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/completions"
    yield url, server.state
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _config(url, **overrides):
    defaults = dict(endpoint=url, model="stub-model", timeout=5.0, backoff=0.01)
    defaults.update(overrides)
    return BackendConfig(**defaults)


# ---------------------------------------------------------------------------
# HTTP backend
# ---------------------------------------------------------------------------


class TestHttpBackend:
    def test_score_decision_reads_both_logprobs(self, stub_server):
        url, state = stub_server
        backend = HttpCompletionsBackend(_config(url))
        logits = backend.score_decision("some prompt")
        assert logits.true_logit == -0.2
        assert logits.false_logit == -1.7

    def test_request_fields(self, stub_server):
        url, state = stub_server
        backend = HttpCompletionsBackend(_config(url))
        backend.score_decision("p")
        req = state.requests[-1]
        assert req["model"] == "stub-model"
        assert req["max_tokens"] == 1
        assert req["logprobs"] == 20
        assert req["echo"] is False

    def test_missing_decision_token_is_protocol_error(self, stub_server):
        url, state = stub_server
        state.logprob_table = {"true": -0.2, "yes": -0.4}  # no "false"
        backend = HttpCompletionsBackend(_config(url))
        with pytest.raises(ProtocolError, match="raise top_logprobs"):
            backend.score_decision("p")

    def test_retry_then_success(self, stub_server):
        url, state = stub_server
        state.fail_next = 2
        backend = HttpCompletionsBackend(_config(url, max_attempts=3))
        logits = backend.score_decision("p")
        assert logits.true_logit == -0.2
        assert len(state.requests) == 3

    def test_retries_exhausted(self, stub_server):
        url, state = stub_server
        state.fail_next = 10
        backend = HttpCompletionsBackend(_config(url, max_attempts=2))
        with pytest.raises(BackendError, match="after 2 attempts"):
            backend.score_decision("p")

    def test_unreachable_endpoint(self):
        backend = HttpCompletionsBackend(
            _config("http://127.0.0.1:9/v1/completions", max_attempts=2, timeout=0.5)
        )
        with pytest.raises(BackendError):
            backend.score_decision("p")

    def test_probe_accepts_single_token_words(self, stub_server):
        url, _ = stub_server
        backend = HttpCompletionsBackend(_config(url))
        backend.validate_decision_tokens()  # "true"/"false" are single tokens

    def test_probe_rejects_multi_token_word(self, stub_server):
        url, _ = stub_server
        backend = HttpCompletionsBackend(
            _config(url, decision_tokens=("relevant", "false"))
        )
        with pytest.raises(ProtocolError, match="tokenizes to 2 pieces"):
            backend.validate_decision_tokens()

    def test_generate_stops_at_marker(self, stub_server):
        url, _ = stub_server
        backend = HttpCompletionsBackend(_config(url))
        trace = backend.generate("p<think>", SamplingParams(max_tokens=64))
        assert trace.terminated
        assert trace.text == "Let me think it over. The passage matches."
        assert "</think>" not in trace.text

    def test_generate_budget_exhausted(self, stub_server):
        url, _ = stub_server
        backend = HttpCompletionsBackend(_config(url))
        trace = backend.generate("p<think>", SamplingParams(max_tokens=3))
        assert not trace.terminated
        assert trace.token_count == 3

    def test_generate_then_score_composes(self, stub_server):
        url, state = stub_server
        backend = HttpCompletionsBackend(_config(url))
        sampling = SamplingParams(max_tokens=64)
        trace, logits = backend.generate_then_score("p<think>", sampling, "\n")
        scoring_request = state.requests[-1]
        assert scoring_request["prompt"] == "p<think>" + trace.text + "</think>\n"
        assert logits.true_logit == -0.2


    @pytest.mark.parametrize(
        "extra, terminated",
        [
            ({"stop_reason": None}, False),  # EOS with the think block still open
            ({"stop_reason": "</think>"}, True),
            ({"finish_reason": "length", "stop_reason": None}, False),
        ],
    )
    def test_terminated_follows_stop_reason(self, stub_server, extra, terminated):
        url, state = stub_server
        state.extra_choice = extra
        backend = HttpCompletionsBackend(_config(url))
        trace = backend.generate("p<think>", SamplingParams(max_tokens=64))
        assert trace.terminated is terminated

    @pytest.mark.parametrize(
        "endpoint",
        ["localhost:8000/v1/completions", "ftp://host/v1", "http:///v1", "http://host:port/v1"],
    )
    def test_endpoint_must_be_http_url(self, endpoint):
        with pytest.raises(ValidationError, match="URL"):
            HttpCompletionsBackend(_config(endpoint))


class TestRetryPolicy:
    def test_retry_after_zero_skips_backoff(self, stub_server):
        url, state = stub_server
        state.refuse = [(429, "0")]
        backend = HttpCompletionsBackend(_config(url, backoff=5.0))
        t0 = time.monotonic()
        assert backend.score_decision("p").true_logit == -0.2
        assert time.monotonic() - t0 < 2.0
        assert len(state.requests) == 2

    def test_retry_after_capped_at_timeout(self, stub_server):
        url, state = stub_server
        state.refuse = [(503, "3600")]
        backend = HttpCompletionsBackend(_config(url, timeout=0.3))
        t0 = time.monotonic()
        backend.score_decision("p")
        assert 0.3 <= time.monotonic() - t0 < 3.0
        assert len(state.requests) == 2

    @pytest.mark.parametrize("retry_after", [None, "Wed, 21 Oct 2015 07:28:00 GMT"])
    def test_without_delta_seconds_backoff_applies(self, stub_server, retry_after):
        url, state = stub_server
        state.refuse = [(503, retry_after)]
        backend = HttpCompletionsBackend(_config(url, backoff=0.3))
        t0 = time.monotonic()
        backend.score_decision("p")
        assert time.monotonic() - t0 >= 0.3
        assert len(state.requests) == 2


class TestTransport:
    def test_keep_alive_connection_reused(self, stub_server):
        url, state = stub_server
        backend = HttpCompletionsBackend(_config(url))
        for i in range(5):
            backend.score_decision(f"p{i}")
        backend.generate("p<think>", SamplingParams(max_tokens=64))
        assert len(set(state.clients)) == 1
        backend.close()
        backend.score_decision("after close")
        assert len(set(state.clients)) == 2

    def test_dropped_idle_connection_costs_no_attempt(self, stub_server):
        url, state = stub_server
        state.close_after_response = True
        backend = HttpCompletionsBackend(_config(url, max_attempts=1))
        for i in range(5):
            assert backend.score_decision(f"p{i}").true_logit == -0.2
        assert len(state.requests) == 5

    @pytest.mark.parametrize("fault", ["not-json", "truncated", "reset", "drop"])
    def test_broken_response_retried(self, stub_server, fault):
        url, state = stub_server
        state.faults = [fault]
        backend = HttpCompletionsBackend(_config(url, max_attempts=2))
        assert backend.score_decision("p").true_logit == -0.2
        assert len(state.requests) == 2

    @pytest.mark.parametrize("fault", ["not-json", "truncated", "reset", "drop"])
    def test_broken_response_exhausts_attempts(self, stub_server, fault):
        url, state = stub_server
        state.faults = [fault] * 3
        backend = HttpCompletionsBackend(_config(url, max_attempts=3))
        with pytest.raises(BackendError, match="after 3 attempts"):
            backend.score_decision("p")
        assert len(state.requests) == 3

    def test_stall_past_timeout(self, stub_server):
        url, state = stub_server
        state.stall_s = 1.0
        backend = HttpCompletionsBackend(_config(url, timeout=0.2, max_attempts=2))
        with pytest.raises(BackendError, match="after 2 attempts"):
            backend.score_decision("p")
        assert len(state.requests) == 2

    def test_pool_bounds_connections_and_in_flight(self, stub_server):
        url, state = stub_server
        state.stall_s = 0.005
        backend = HttpCompletionsBackend(_config(url, max_in_flight=2))
        prompts = [f"prompt {i}" for i in range(60)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(backend.score_decision, prompts, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(r.true_logit == -0.2 for r in results)
        assert sorted(r["prompt"] for r in state.requests) == sorted(prompts)
        assert state.peak_in_flight == 2
        assert len(set(state.clients)) == 2


class TestEnvironmentContract:
    def test_proxy_variables_ignored(self, stub_server, monkeypatch):
        url, _ = stub_server
        for name in ("HTTP_PROXY", "http_proxy", "HTTPS_PROXY", "https_proxy", "ALL_PROXY"):
            monkeypatch.setenv(name, "http://127.0.0.1:9")
        for name in ("NO_PROXY", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
        backend = HttpCompletionsBackend(_config(url, max_attempts=1))
        assert backend.score_decision("p").true_logit == -0.2

    def test_auth_token_sent_as_bearer(self, stub_server):
        url, state = stub_server
        backend = HttpCompletionsBackend(_config(url, auth_token="s3cret"))
        backend.score_decision("p")
        backend.generate("p<think>", SamplingParams(max_tokens=64))
        assert [h["Authorization"] for h in state.headers] == ["Bearer s3cret"] * 2
        assert all(h["Content-Type"] == "application/json" for h in state.headers)

    def test_no_auth_header_without_token(self, stub_server):
        url, state = stub_server
        HttpCompletionsBackend(_config(url)).score_decision("p")
        assert "Authorization" not in state.headers[0]


class TestCaptureReplay:
    def test_capture_then_replay(self, stub_server, tmp_path):
        url, _ = stub_server
        capture = tmp_path / "capture.jsonl"
        live = HttpCompletionsBackend(_config(url, capture_path=str(capture)))
        want = live.score_decision("replayable prompt")
        trace_want = live.generate("replay<think>", SamplingParams(max_tokens=64))

        # replay must be configured like the recording client (the request
        # payload, model name included, is the lookup key)
        replay = ReplayBackend(str(capture), config=_config("replay:"))
        assert replay.score_decision("replayable prompt") == want
        assert replay.generate("replay<think>", SamplingParams(max_tokens=64)) == trace_want

    def test_replay_miss_is_backend_error(self, stub_server, tmp_path):
        url, _ = stub_server
        capture = tmp_path / "capture.jsonl"
        live = HttpCompletionsBackend(_config(url, capture_path=str(capture)))
        live.score_decision("recorded")
        replay = ReplayBackend(str(capture), config=_config("replay:"))
        with pytest.raises(BackendError, match="no recorded response"):
            replay.score_decision("never recorded")


class TestProtocolLayering:
    """One protocol in ``CompletionsBackend``; HTTP and replay are transports."""

    @staticmethod
    def _calls(backend):
        sampling = SamplingParams(max_tokens=64, seed=3)
        return (
            backend.validate_decision_tokens(),
            backend.score_decision("layered prompt"),
            backend.generate("layered<think>", sampling),
            backend.generate_then_score("layered<think>", sampling, "\n"),
            backend.generate("budget<think>", SamplingParams(max_tokens=2)),
        )

    def test_replay_answers_as_the_live_backend_did(self, stub_server, tmp_path):
        url, state = stub_server
        capture = tmp_path / "capture.jsonl"
        live = _config(url, capture_path=str(capture))
        live_backend = HttpCompletionsBackend(live)
        want = self._calls(live_backend)
        live_backend.close()
        assert len(capture.read_text().splitlines()) == len(state.requests) == 7
        replay = ReplayBackend(str(capture), config=live)
        assert self._calls(replay) == want
        assert len(state.requests) == 7  # replay never went on the wire

    def test_replay_raises_the_live_protocol_error(self, stub_server, tmp_path):
        url, _ = stub_server
        capture = tmp_path / "capture.jsonl"
        cfg = _config(url, capture_path=str(capture), decision_tokens=("relevant", "false"))
        live = HttpCompletionsBackend(cfg)
        with pytest.raises(ProtocolError) as live_error:
            live.validate_decision_tokens()
        live.close()
        with pytest.raises(ProtocolError) as replay_error:
            ReplayBackend(str(capture), config=cfg).validate_decision_tokens()
        assert str(replay_error.value) == str(live_error.value)

    def test_replay_needs_no_endpoint_and_close_is_a_no_op(self, stub_server, tmp_path):
        url, _ = stub_server
        capture = tmp_path / "capture.jsonl"
        live = HttpCompletionsBackend(_config(url, model="replay", capture_path=str(capture)))
        live.score_decision("p")
        live.close()
        replay = ReplayBackend(str(capture))
        assert replay.config.endpoint == "replay:"
        assert isinstance(replay, CompletionsBackend)
        assert not isinstance(replay, HttpCompletionsBackend)
        want = replay.score_decision("p")
        assert replay.close() is None
        assert replay.score_decision("p") == want

    def test_retried_request_leaves_one_capture_line(self, stub_server, tmp_path):
        url, state = stub_server
        state.refuse = [(503, "0")]
        capture = tmp_path / "capture.jsonl"
        backend = HttpCompletionsBackend(_config(url, capture_path=str(capture)))
        backend.score_decision("retried")
        backend.close()
        assert len(state.requests) == 2
        (line,) = capture.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(line)
        assert record["request"] == state.requests[-1]
        assert line == json.dumps(record, sort_keys=True) + "\n"

    def test_failed_request_leaves_no_capture_line(self, stub_server, tmp_path):
        url, state = stub_server
        state.fail_next = 2
        capture = tmp_path / "capture.jsonl"
        backend = HttpCompletionsBackend(_config(url, max_attempts=2, capture_path=str(capture)))
        with pytest.raises(BackendError):
            backend.score_decision("p")
        backend.close()
        assert not capture.exists()


# ---------------------------------------------------------------------------
# mock backend
# ---------------------------------------------------------------------------


class TestMockBackend:
    def test_table_lookup(self):
        mock = MockBackend(score_fn=lambda p: (2.0, 0.0))
        logits = mock.score_decision("q1 p1")
        assert (logits.true_logit, logits.false_logit) == (2.0, 0.0)

    def test_stop_marker_stripped(self):
        mock = MockBackend(generate_fn=lambda p, s: "Okay... </think> tail")
        trace = mock.generate("x<think>", SamplingParams(max_tokens=64))
        assert trace.terminated
        assert trace.text == "Okay... "

    def test_budget_truncation(self):
        long_text = " ".join(f"w{i}" for i in range(100))
        mock = MockBackend(generate_fn=lambda p, s: long_text)
        trace = mock.generate("x<think>", SamplingParams(max_tokens=5))
        assert not trace.terminated
        assert trace.token_count == 5
        assert trace.text.split() == [f"w{i}" for i in range(5)]

    def test_pure_function_of_prompt_and_seed(self):
        mock = MockBackend()
        sampling = SamplingParams(temperature=0.0, max_tokens=32, seed=9)
        a = mock.generate("same prompt", sampling)
        b = mock.generate("same prompt", sampling)
        assert a == b
        c = mock.generate("same prompt", sampling.with_seed(10))
        assert c != a

    def test_vocab_validation(self):
        mock = MockBackend(single_token_vocab={"true", "false"})
        mock.validate_decision_tokens()
        bad = MockBackend(
            single_token_vocab={"true", "false"},
            config=BackendConfig(endpoint="mock:", decision_tokens=("relevant", "false")),
        )
        with pytest.raises(ProtocolError):
            bad.validate_decision_tokens()

    def test_call_counters(self):
        mock = MockBackend(score_fn=lambda p: (0.0, 0.0))
        mock.score_decision("a")
        mock.score_decision("b")
        assert mock.score_calls == 2
        assert mock.generate_calls == 0

    def test_concurrent_multiset_matches_sequential(self):
        # order independence: concurrent issue yields the same multiset
        mock = MockBackend()
        prompts = [f"prompt number {i}" for i in range(40)]
        sequential = [mock.score_decision(p) for p in prompts]
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(pool.map(mock.score_decision, prompts))
        key = lambda L: (L.true_logit, L.false_logit)
        assert sorted(map(key, sequential)) == sorted(map(key, concurrent))

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValidationError):
            MockBackend().score_decision("")

    def test_scored_prompts_are_not_retained(self):
        mock = MockBackend()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(2000):
                mock.score_decision(f"{i:08d}" + "x" * 2040)  # a distinct 2 KB prompt
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert mock.score_calls == 2000
        assert retained < 1_000_000


class TestConfigValidation:
    def test_decision_tokens_distinct(self):
        with pytest.raises(ValidationError):
            BackendConfig(endpoint="x", decision_tokens=("true", "true"))

    def test_in_flight_minimum(self):
        with pytest.raises(ValidationError):
            BackendConfig(endpoint="x", max_in_flight=0)

    @pytest.mark.parametrize(
        "field, value",
        [("timeout", 0.0), ("timeout", -1.0), ("timeout", float("nan")), ("backoff", -0.5)],
    )
    def test_timing_bounds(self, field, value):
        with pytest.raises(ValidationError, match=field):
            BackendConfig(endpoint="x", **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_temperature_must_be_finite(self, value):
        with pytest.raises(ValidationError, match="temperature"):
            SamplingParams(temperature=value)

    def test_sampling_bounds(self):
        with pytest.raises(ValidationError):
            SamplingParams(temperature=-1)
        with pytest.raises(ValidationError):
            SamplingParams(top_p=0.0)
        with pytest.raises(ValidationError):
            SamplingParams(max_tokens=0)
