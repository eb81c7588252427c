import json
import random
import socket
import struct
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from reranklab import Corpus, Passage, Query

WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "xray yankee zulu anchor beacon cipher dynamo ember flux glacier harbor "
    "ion jade krypton lumen meridian nexus orbit prism quartz relay summit "
    "tundra umbra vertex wharf yield zephyr"
).split()


def make_corpus(n: int, seed: int = 7, min_len: int = 3, max_len: int = 12) -> Corpus:
    """Random-word passages, deterministic for a given seed."""
    rng = random.Random(seed)
    passages = []
    for i in range(n):
        words = rng.choices(WORDS, k=rng.randint(min_len, max_len))
        passages.append(Passage(f"p{i:04d}", " ".join(words)))
    return Corpus(tuple(passages))


def make_queries(n: int, seed: int = 11) -> list[Query]:
    rng = random.Random(seed)
    return [
        Query(f"q{i:02d}", " ".join(rng.choices(WORDS, k=rng.randint(2, 4))))
        for i in range(n)
    ]


def write_corpus_file(path, corpus: Corpus) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in corpus.passages:
            fh.write(json.dumps({"id": p.id, "text": p.text}) + "\n")


def write_queries_file(path, queries) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for q in queries:
            fh.write(json.dumps({"id": q.id, "text": q.text}) + "\n")


@pytest.fixture
def tiny_corpus() -> Corpus:
    return Corpus(
        (
            Passage("d1", "the cat sat on the mat"),
            Passage("d2", "a dog chased the cat"),
            Passage("d3", "quantum entanglement of photons"),
            Passage("d4", "the dog slept"),
            Passage("d5", "cat cat cat"),
        )
    )


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
