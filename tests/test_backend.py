import gc
import json
import math
import re
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from reranklab import (
    DEFAULT_TEMPLATE,
    BackendConfig,
    BackendError,
    DecisionLogits,
    HttpCompletionsBackend,
    MockBackend,
    Passage,
    ProtocolError,
    Query,
    ReplayBackend,
    RerankStrategy,
    SamplingParams,
    StrategyKind,
    ValidationError,
    relevance_from_logits,
    score_pair,
)
import reranklab.backend as backend_module
from reranklab.backend import CompletionsBackend


@pytest.fixture
def http_backend():
    """Build HTTP backends that are closed when the test ends, so no socket leaks."""
    made = []

    def build(config):
        made.append(HttpCompletionsBackend(config))
        return made[-1]

    yield build
    for backend in made:
        backend.close()


@pytest.fixture(autouse=True)
def _short_backoff(monkeypatch):
    """Retries wait 0.01 s before the first retry, unless a test sets its own wait."""
    monkeypatch.setattr(backend_module, "RETRY_BACKOFF", 0.01)


def _config(url, **overrides):
    defaults = dict(endpoint=url, model="stub-model", timeout=5.0)
    defaults.update(overrides)
    return BackendConfig(**defaults)


# ---------------------------------------------------------------------------
# HTTP backend
# ---------------------------------------------------------------------------


class TestHttpBackend:
    def test_score_decision_reads_both_logprobs(self, stub_server, http_backend):
        url, state = stub_server
        backend = http_backend(_config(url))
        logits = backend.score_decision("some prompt")
        assert logits.true_logit == -0.2
        assert logits.false_logit == -1.7

    def test_request_fields(self, stub_server, http_backend):
        url, state = stub_server
        backend = http_backend(_config(url))
        backend.score_decision("p")
        req = state.requests[-1]
        assert req["model"] == "stub-model"
        assert req["max_tokens"] == 1
        assert req["logprobs"] == 20
        assert req["echo"] is False

    def test_missing_decision_token_is_protocol_error(self, stub_server, http_backend):
        url, state = stub_server
        state.logprob_table = {"true": -0.2, "yes": -0.4}  # no "false"
        backend = http_backend(_config(url))
        with pytest.raises(ProtocolError, match="absent from the top 20 logprobs"):
            backend.score_decision("p")

    def test_retry_then_success(self, stub_server, http_backend):
        url, state = stub_server
        state.fail_next = 2
        backend = http_backend(_config(url, max_attempts=3))
        logits = backend.score_decision("p")
        assert logits.true_logit == -0.2
        assert len(state.requests) == 3

    def test_retries_exhausted(self, stub_server, http_backend):
        url, state = stub_server
        state.fail_next = 10
        backend = http_backend(_config(url, max_attempts=2))
        with pytest.raises(BackendError, match="after 2 attempts"):
            backend.score_decision("p")

    def test_unreachable_endpoint(self, http_backend):
        backend = http_backend(
            _config("http://127.0.0.1:9/v1/completions", max_attempts=2, timeout=0.5)
        )
        with pytest.raises(BackendError):
            backend.score_decision("p")

    def test_probe_accepts_single_token_words(self, stub_server, http_backend):
        url, _ = stub_server
        backend = http_backend(_config(url))
        backend.validate_decision_tokens()  # "true"/"false" are single tokens

    def test_probe_rejects_multi_token_word(self, stub_server, http_backend):
        url, state = stub_server
        state.vocab = {"false"}  # this model splits "true"
        backend = http_backend(_config(url))
        with pytest.raises(ProtocolError, match="'true' tokenizes to 2 pieces"):
            backend.validate_decision_tokens()

    def test_generate_stops_at_marker(self, stub_server, http_backend):
        url, _ = stub_server
        backend = http_backend(_config(url))
        trace = backend.generate("p<think>", SamplingParams(max_tokens=64), "</think>")
        assert trace.terminated
        assert trace.text == "Let me think it over. The passage matches."
        assert "</think>" not in trace.text

    def test_generate_budget_exhausted(self, stub_server, http_backend):
        url, _ = stub_server
        backend = http_backend(_config(url))
        trace = backend.generate("p<think>", SamplingParams(max_tokens=3), "</think>")
        assert not trace.terminated
        assert trace.token_count == 3

    def test_reason_reads_after_the_trace(self, stub_server, http_backend):
        url, state = stub_server
        backend = http_backend(_config(url))
        pair = score_pair(
            backend, DEFAULT_TEMPLATE, RerankStrategy(StrategyKind.REASON),
            Query("q", "question"), Passage("p", "passage"), SamplingParams(max_tokens=64),
        )
        generate_request, scoring_request = state.requests[-2:]
        prompt = generate_request["prompt"]
        assert prompt.endswith("<think>")
        assert scoring_request["prompt"] == prompt + pair.traces[0].text + "</think>\n"
        assert pair.score == relevance_from_logits(DecisionLogits(-0.2, -1.7))


    @pytest.mark.parametrize(
        "extra, terminated",
        [
            ({"stop_reason": None}, False),  # EOS with the think block still open
            ({"stop_reason": "</think>"}, True),
            ({"finish_reason": "length", "stop_reason": None}, False),
        ],
    )
    def test_terminated_follows_stop_reason(self, stub_server, extra, terminated, http_backend):
        url, state = stub_server
        state.extra_choice = extra
        backend = http_backend(_config(url))
        trace = backend.generate("p<think>", SamplingParams(max_tokens=64), "</think>")
        assert trace.terminated is terminated

    def test_stop_string_kept_by_the_server_is_stripped(self, stub_server, http_backend):
        url, state = stub_server
        state.extra_choice = {"text": "Let me think it over.</think>"}
        backend = http_backend(_config(url))
        trace = backend.generate("p<think>", SamplingParams(max_tokens=64), "</think>")
        assert trace.text == "Let me think it over."
        assert trace.terminated

    @pytest.mark.parametrize(
        "endpoint",
        ["localhost:8000/v1/completions", "ftp://host/v1", "http:///v1", "http://host:port/v1"],
    )
    def test_endpoint_must_be_http_url(self, endpoint, http_backend):
        with pytest.raises(ValidationError, match="URL"):
            http_backend(_config(endpoint))


class TestRetryPolicy:
    def test_retry_after_zero_skips_backoff(self, stub_server, http_backend, monkeypatch):
        url, state = stub_server
        state.refuse = [(429, "0")]
        monkeypatch.setattr(backend_module, "RETRY_BACKOFF", 5.0)
        backend = http_backend(_config(url))
        t0 = time.monotonic()
        assert backend.score_decision("p").true_logit == -0.2
        assert time.monotonic() - t0 < 2.0
        assert len(state.requests) == 2

    def test_retry_after_capped_at_timeout(self, stub_server, http_backend):
        url, state = stub_server
        state.refuse = [(503, "3600")]
        backend = http_backend(_config(url, timeout=0.3))
        t0 = time.monotonic()
        backend.score_decision("p")
        assert 0.3 <= time.monotonic() - t0 < 3.0
        assert len(state.requests) == 2

    @pytest.mark.parametrize("retry_after", [None, "Wed, 21 Oct 2015 07:28:00 GMT"])
    def test_without_delta_seconds_backoff_applies(self, stub_server, retry_after, http_backend,
                                                   monkeypatch):
        url, state = stub_server
        state.refuse = [(503, retry_after)]
        monkeypatch.setattr(backend_module, "RETRY_BACKOFF", 0.3)
        backend = http_backend(_config(url))
        t0 = time.monotonic()
        backend.score_decision("p")
        assert time.monotonic() - t0 >= 0.3
        assert len(state.requests) == 2

    def test_client_error_is_not_retried(self, stub_server, http_backend):
        url, state = stub_server
        state.refuse = [(400, None)]
        backend = http_backend(_config(url, max_attempts=3))
        with pytest.raises(ProtocolError, match='^server returned 400: {"error": "busy"}$'):
            backend.score_decision("p")
        assert len(state.requests) == 1


class TestTransport:
    def test_keep_alive_connection_reused(self, stub_server, http_backend):
        url, state = stub_server
        backend = http_backend(_config(url))
        for i in range(5):
            backend.score_decision(f"p{i}")
        backend.generate("p<think>", SamplingParams(max_tokens=64), "</think>")
        assert len(set(state.clients)) == 1
        backend.close()
        backend.score_decision("after close")
        assert len(set(state.clients)) == 2

    def test_dropped_idle_connection_costs_no_attempt(self, stub_server, http_backend):
        url, state = stub_server
        state.close_after_response = True
        backend = http_backend(_config(url, max_attempts=1))
        for i in range(5):
            assert backend.score_decision(f"p{i}").true_logit == -0.2
        assert len(state.requests) == 5

    @pytest.mark.parametrize("fault", ["not-json", "not-object", "truncated", "reset", "drop"])
    def test_broken_response_retried(self, stub_server, fault, http_backend):
        url, state = stub_server
        state.faults = [fault]
        backend = http_backend(_config(url, max_attempts=2))
        assert backend.score_decision("p").true_logit == -0.2
        assert len(state.requests) == 2

    @pytest.mark.parametrize("fault", ["not-json", "not-object", "truncated", "reset", "drop"])
    def test_broken_response_exhausts_attempts(self, stub_server, fault, http_backend):
        url, state = stub_server
        state.faults = [fault] * 3
        backend = http_backend(_config(url, max_attempts=3))
        with pytest.raises(BackendError, match="after 3 attempts"):
            backend.score_decision("p")
        assert len(state.requests) == 3

    def test_non_object_body_is_a_protocol_error(self, stub_server, http_backend):
        url, state = stub_server
        state.faults = ["not-object"] * 2
        backend = http_backend(_config(url, max_attempts=2))
        with pytest.raises(BackendError, match="after 2 attempts: response is not a JSON") as info:
            backend.score_decision("p")
        assert isinstance(info.value.__cause__, ProtocolError)

    def test_stall_past_timeout(self, stub_server, http_backend):
        url, state = stub_server
        state.stall_s = 1.0
        backend = http_backend(_config(url, timeout=0.2, max_attempts=2))
        with pytest.raises(BackendError, match="after 2 attempts"):
            backend.score_decision("p")
        assert len(state.requests) == 2

    def test_pool_bounds_connections_and_in_flight(self, stub_server, http_backend):
        url, state = stub_server
        state.stall_s = 0.005
        backend = http_backend(_config(url, max_in_flight=2))
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
    def test_proxy_variables_ignored(self, stub_server, monkeypatch, http_backend):
        url, _ = stub_server
        for name in ("HTTP_PROXY", "http_proxy", "HTTPS_PROXY", "https_proxy", "ALL_PROXY"):
            monkeypatch.setenv(name, "http://127.0.0.1:9")
        for name in ("NO_PROXY", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
        backend = http_backend(_config(url, max_attempts=1))
        assert backend.score_decision("p").true_logit == -0.2

    def test_auth_token_sent_as_bearer(self, stub_server, http_backend):
        url, state = stub_server
        backend = http_backend(_config(url, auth_token="s3cret"))
        backend.score_decision("p")
        backend.generate("p<think>", SamplingParams(max_tokens=64), "</think>")
        assert [h["Authorization"] for h in state.headers] == ["Bearer s3cret"] * 2
        assert all(h["Content-Type"] == "application/json" for h in state.headers)

    def test_no_auth_header_without_token(self, stub_server, http_backend):
        url, state = stub_server
        http_backend(_config(url)).score_decision("p")
        assert "Authorization" not in state.headers[0]


class TestCaptureReplay:
    def test_capture_then_replay(self, stub_server, tmp_path, http_backend):
        url, _ = stub_server
        capture = tmp_path / "capture.jsonl"
        live = http_backend(_config(url, capture_path=str(capture)))
        want = live.score_decision("replayable prompt")
        trace_want = live.generate("replay<think>", SamplingParams(max_tokens=64), "</think>")

        # replay must be configured like the recording client (the request
        # payload, model name included, is the lookup key)
        replay = ReplayBackend(str(capture), config=_config("replay:"))
        assert replay.score_decision("replayable prompt") == want
        assert replay.generate("replay<think>", SamplingParams(max_tokens=64), "</think>") == trace_want

    def test_replay_miss_is_backend_error(self, stub_server, tmp_path, http_backend):
        url, _ = stub_server
        capture = tmp_path / "capture.jsonl"
        live = http_backend(_config(url, capture_path=str(capture)))
        live.score_decision("recorded")
        replay = ReplayBackend(str(capture), config=_config("replay:"))
        with pytest.raises(BackendError, match="no recorded response"):
            replay.score_decision("never recorded")


    @pytest.mark.parametrize("line", ['{"request": {}, "response": "text"}', "[1, 2]"],
                             ids=["response-not-object", "array"])
    def test_capture_record_shape_checked(self, tmp_path, line):
        # bad JSON, a missing key and an empty log: tests/test_cli.py::TestMalformedInputs
        capture = tmp_path / "capture.jsonl"
        capture.write_text(line + "\n")
        with pytest.raises(ValidationError, match=r"capture\.jsonl:1: capture record must hold"):
            ReplayBackend(str(capture))

    def test_request_recorded_twice_replays_the_later_answer(self, tmp_path):
        capture = tmp_path / "capture.jsonl"
        request = {"prompt": "p"}
        capture.write_text("".join(
            json.dumps({"request": request, "response": {"choices": [{"text": text}]}}) + "\n"
            for text in ("first", "second")
        ))
        assert ReplayBackend(str(capture))._complete(request)["choices"][0]["text"] == "second"

    RETAINED_PER_RECORD = 400  # bytes; holding each request and response takes over 2 KB

    def test_replay_holds_no_recorded_text(self, tmp_path):
        capture = tmp_path / "capture.jsonl"
        requests = [{"model": "m", "prompt": f"prompt {i} " + "q" * 300, "seed": i}
                    for i in range(2000)]
        with open(capture, "w", encoding="utf-8") as fh:
            for i, request in enumerate(requests):
                trace = f"trace {i} " + "r" * 2048
                fh.write(json.dumps({"request": request,
                                     "response": {"choices": [{"text": trace}]}}) + "\n")
        gc.collect()
        tracemalloc.start()
        try:
            replay = ReplayBackend(str(capture))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained / len(requests) < self.RETAINED_PER_RECORD
        for i in (0, 977, 1999):
            assert replay._complete(requests[i])["choices"][0]["text"] == f"trace {i} " + "r" * 2048

    def test_each_line_is_read_back_at_its_offset(self, tmp_path):
        # CRLF endings, blank lines and multi-byte text shift the byte offsets
        capture = tmp_path / "capture.jsonl"
        requests = [{"prompt": text} for text in ("naïve", "", "日本語", "x" * 70000)]
        capture.write_bytes(b"\r\n".join(
            json.dumps({"request": r, "response": {"choices": [{"text": f"a{i}"}]}},
                       ensure_ascii=False).encode("utf-8") + b"\r\n\n"
            for i, r in enumerate(requests)))
        replay = ReplayBackend(str(capture))
        for i, request in reversed(list(enumerate(requests))):
            assert replay._complete(request)["choices"][0]["text"] == f"a{i}"

    def test_a_digest_collision_is_a_miss_not_another_answer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(backend_module, "_request_digest", lambda key: b"same")
        capture = tmp_path / "capture.jsonl"
        capture.write_text("".join(
            json.dumps({"request": {"prompt": p}, "response": {"choices": [{"text": p}]}}) + "\n"
            for p in ("first", "second")
        ))
        replay = ReplayBackend(str(capture))
        assert replay._complete({"prompt": "second"})["choices"][0]["text"] == "second"
        with pytest.raises(BackendError, match="no recorded response"):
            replay._complete({"prompt": "first"})

    def test_a_log_changed_during_replay_is_a_backend_error(self, tmp_path):
        capture = tmp_path / "capture.jsonl"
        capture.write_text(json.dumps({"request": {"prompt": "p"}, "response": {}}) + "\n")
        replay = ReplayBackend(str(capture))
        capture.write_text("not json\n")
        with pytest.raises(BackendError, match="capture log changed during replay"):
            replay._complete({"prompt": "p"})


def _field(name):
    """The start of the error for a response field of the wrong shape."""
    return f"response field {name!r} must"


class TestProtocolLayering:
    """One protocol in ``CompletionsBackend``; HTTP and replay are transports."""

    @staticmethod
    def _calls(backend):
        sampling = SamplingParams(max_tokens=64)
        return (
            backend.validate_decision_tokens(),
            backend.score_decision("layered prompt"),
            backend.generate("layered<think>", sampling, "</think>", 3),
            (trace := backend.generate("layered<think>", sampling, "</think>", 3)),
            backend.score_decision("layered<think>" + trace.text + "</think>\n"),
            backend.generate("budget<think>", SamplingParams(max_tokens=2), "</think>"),
        )

    def test_replay_answers_as_the_live_backend_did(self, stub_server, tmp_path, http_backend):
        url, state = stub_server
        capture = tmp_path / "capture.jsonl"
        live = _config(url, capture_path=str(capture))
        live_backend = http_backend(live)
        want = self._calls(live_backend)
        live_backend.close()
        assert len(capture.read_text().splitlines()) == len(state.requests) == 7
        replay = ReplayBackend(str(capture), config=live)
        assert self._calls(replay) == want
        assert len(state.requests) == 7  # replay never went on the wire

    def test_replay_raises_the_live_protocol_error(self, stub_server, tmp_path, http_backend):
        url, state = stub_server
        state.vocab = {"false"}
        capture = tmp_path / "capture.jsonl"
        cfg = _config(url, capture_path=str(capture))
        live = http_backend(cfg)
        with pytest.raises(ProtocolError) as live_error:
            live.validate_decision_tokens()
        live.close()
        with pytest.raises(ProtocolError) as replay_error:
            ReplayBackend(str(capture), config=cfg).validate_decision_tokens()
        assert str(replay_error.value) == str(live_error.value)

    @pytest.mark.parametrize("read, body, message", [
        ("score", {"choices": [5]}, _field("choices[0]")),
        ("score", {"choices": {"a": 1}}, _field("choices")),
        ("score", {"choices": [{"logprobs": None}]}, _field("logprobs")),
        ("probe", {"choices": [{"logprobs": None}]}, _field("logprobs")),
        ("probe", {"choices": [{"logprobs": {"tokens": "true"}}]}, _field("logprobs.tokens")),
        ("score", {"choices": [{"logprobs": {"top_logprobs": [5]}}]}, _field("top_logprobs[0]")),
        ("score", {"choices": [{"logprobs": {"top_logprobs": {"0": {}}}}]},
         _field("top_logprobs")),
        ("score", {"choices": [{"logprobs": {"top_logprobs": [{"true": "-0.2", "false": -1.7}]}}]},
         _field("top_logprobs[0]['true']")),
        ("score", {"choices": [{"logprobs": {"top_logprobs": [{"true": -0.2, "false": None}]}}]},
         _field("top_logprobs[0]['false']")),
        ("generate", {"choices": [{"text": None}]}, _field("text")),
        ("generate", {"choices": [{"text": "t"}], "usage": 5}, _field("usage")),
        ("generate", {"choices": [{"text": "t"}], "usage": {"completion_tokens": 2.5}},
         _field("usage.completion_tokens")),
        ("generate", {"choices": [{"text": "t"}], "usage": {"completion_tokens": "many"}},
         _field("usage.completion_tokens")),
        ("score", {}, "response carried no choices: {}"),
        ("score", {"choices": [{"logprobs": {}}]}, "response carried no top_logprobs"),
        ("probe", {"choices": [{"logprobs": {}}]}, "probe response carried no logprobs.tokens"),
    ], ids=["choice-not-object", "choices-not-list", "score-logprobs-null", "probe-logprobs-null",
            "tokens-not-list", "top-entry-not-object", "top-not-list", "logprob-string",
            "logprob-null", "text-null", "usage-not-object", "count-fraction", "count-string",
            "no-choices", "no-top-logprobs", "no-tokens"])
    def test_malformed_body_is_a_protocol_error(self, read, body, message):
        class Answers(CompletionsBackend):
            config = BackendConfig(endpoint="fake:", model="fake")

            def _complete(self, payload):
                return body

        reads = {
            "score": lambda b: b.score_decision("p"),
            "probe": lambda b: b.validate_decision_tokens(),
            "generate": lambda b: b.generate("p", SamplingParams(), "</think>"),
        }
        with pytest.raises(ProtocolError, match=f"^{re.escape(message)}"):
            reads[read](Answers())

    def test_replay_needs_no_endpoint_and_close_is_a_no_op(self, stub_server, tmp_path, http_backend):
        url, _ = stub_server
        capture = tmp_path / "capture.jsonl"
        live = http_backend(_config(url, model="replay", capture_path=str(capture)))
        live.score_decision("p")
        live.close()
        replay = ReplayBackend(str(capture))
        assert replay.config.endpoint == "replay:"
        assert isinstance(replay, CompletionsBackend)
        assert not isinstance(replay, HttpCompletionsBackend)
        want = replay.score_decision("p")
        assert replay.close() is None
        assert replay.score_decision("p") == want

    def test_retried_request_leaves_one_capture_line(self, stub_server, tmp_path, http_backend):
        url, state = stub_server
        state.refuse = [(503, "0")]
        capture = tmp_path / "capture.jsonl"
        backend = http_backend(_config(url, capture_path=str(capture)))
        backend.score_decision("retried")
        backend.close()
        assert len(state.requests) == 2
        (line,) = capture.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(line)
        assert record["request"] == state.requests[-1]
        assert line == json.dumps(record, sort_keys=True) + "\n"

    def test_failed_request_leaves_no_capture_line(self, stub_server, tmp_path, http_backend):
        url, state = stub_server
        state.fail_next = 2
        capture = tmp_path / "capture.jsonl"
        backend = http_backend(_config(url, max_attempts=2, capture_path=str(capture)))
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
        trace = mock.generate("x<think>", SamplingParams(max_tokens=64), "</think>")
        assert trace.terminated
        assert trace.text == "Okay... "

    def test_budget_truncation(self):
        long_text = " ".join(f"w{i}" for i in range(100))
        mock = MockBackend(generate_fn=lambda p, s: long_text)
        trace = mock.generate("x<think>", SamplingParams(max_tokens=5), "</think>")
        assert not trace.terminated
        assert trace.token_count == 5
        assert trace.text.split() == [f"w{i}" for i in range(5)]

    def test_pure_function_of_prompt_and_seed(self):
        mock = MockBackend()
        sampling = SamplingParams(temperature=0.0, max_tokens=32)
        a = mock.generate("same prompt", sampling, "</think>", 9)
        b = mock.generate("same prompt", sampling, "</think>", 9)
        assert a == b
        c = mock.generate("same prompt", sampling, "</think>", 10)
        assert c != a

    def test_seed_is_sent_only_when_given(self, monkeypatch):
        mock = MockBackend()
        payloads = []
        answer = mock._complete

        def spy(payload):
            payloads.append(payload)
            return answer(payload)

        monkeypatch.setattr(mock, "_complete", spy)
        mock.generate("p<think>", SamplingParams(), "</think>", 7)
        mock.generate("p<think>", SamplingParams(), "</think>")
        assert [(p["stop"], p.get("seed")) for p in payloads] == [(["</think>"], 7),
                                                                  (["</think>"], None)]

    def test_empty_stop_is_refused(self):
        with pytest.raises(ValidationError, match="stop sequence must be non-empty"):
            MockBackend().generate("p<think>", SamplingParams(), "")

    def test_vocab_validation(self):
        mock = MockBackend(single_token_vocab={"true", "false"})
        mock.validate_decision_tokens()
        bad = MockBackend(single_token_vocab={"true"})
        with pytest.raises(ProtocolError, match="'false' tokenizes"):
            bad.validate_decision_tokens()

    def test_every_request_goes_through_complete(self, monkeypatch):
        mock = MockBackend()
        kinds = []
        answer = mock._complete

        def spy(payload):
            kinds.append("generate" if "stop" in payload else
                         "probe" if payload["echo"] else "score")
            return answer(payload)

        monkeypatch.setattr(mock, "_complete", spy)
        mock.validate_decision_tokens()
        assert kinds == ["probe", "probe"]
        query, passage = Query("q1", "cat care"), Passage("p1", "cats need care")
        for kind, requests in ((StrategyKind.DIRECT, ["score"]),
                               (StrategyKind.REASON, ["generate", "score"])):
            kinds.clear()
            score_pair(mock, DEFAULT_TEMPLATE, RerankStrategy(kind), query, passage,
                       SamplingParams(max_tokens=64))
            assert kinds == requests
        assert (mock.score_calls, mock.generate_calls) == (2, 1)

    def test_probe_names_the_piece_count(self):
        bad = MockBackend(single_token_vocab={"false"})
        pieces = re.escape("'true' tokenizes to 2 pieces (['t', 'rue'])")
        with pytest.raises(ProtocolError, match=pieces):
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

    def test_score_decision_keeps_no_prompt(self):
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


class TestMockTable:
    def _load(self, tmp_path, table):
        path = tmp_path / "mock.json"
        path.write_text(json.dumps(table))
        return backend_module.load_mock_table(str(path))

    @pytest.mark.parametrize("table", [
        {"default_logits": "hash"},
        {"single_token_vocab": ["true", "false"], "default_logits": "hash", "rules": []},
    ], ids=["hash", "vocab-and-empty-rules"])
    def test_a_rule_free_hash_table_holds_the_hash_mock_functions(self, tmp_path, table):
        mock = self._load(tmp_path, table)
        assert mock._score_fn is backend_module._default_score_fn
        assert mock._generate_fn is backend_module._default_generate_fn

    def test_only_the_defaults_that_are_the_hash_mocks_are_shared(self, tmp_path):
        reasoned = self._load(tmp_path, {"default_logits": "hash", "default_reasoning": "x"})
        assert reasoned._score_fn is backend_module._default_score_fn
        assert reasoned._generate_fn is not backend_module._default_generate_fn
        fixed = self._load(tmp_path, {"default_logits": [1.0, 0.0]})
        assert fixed._score_fn is not backend_module._default_score_fn
        assert fixed._generate_fn is backend_module._default_generate_fn
        ruled = self._load(tmp_path, {"default_logits": "hash",
                                      "rules": [{"contains": ["x"], "fail": True}]})
        assert ruled._score_fn is not backend_module._default_score_fn
        assert ruled._generate_fn is not backend_module._default_generate_fn


class TestConfigValidation:
    def test_in_flight_minimum(self):
        with pytest.raises(ValidationError):
            BackendConfig(endpoint="x", max_in_flight=0)

    @pytest.mark.parametrize(
        "field, value",
        [("timeout", 0.0), ("timeout", -1.0), ("timeout", float("nan")), ("timeout", math.inf)],
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
