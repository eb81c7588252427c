"""Stub ``/v1/completions`` server standing in for a served reasoning model.

Run as its own process: ``python3 bench/stub_server.py --seed N``. It binds
127.0.0.1 on a free port and prints that port on stdout.

* Responses are a pure function of (request body, seed): decision logprobs,
  and reasoning traces whose length (16-160 tokens) comes from the hash, so
  traces longer than the client's budget take the force-close path.
* Latency model: a fixed delay per request plus a delay per generated
  token. The delay actually slept is reported in the ``X-Stub-Delay-Ms``
  header so a client can separate its own overhead from the server's.
* Transient errors follow a fixed schedule: every ERROR_EVERY-th request
  received is answered 503, or 429 with ``Retry-After: 0``, alternately.
  A request that was already refused once is never refused again, so the
  client's retry succeeds. ``GET /reset`` restarts the schedule. The
  schedule counts arrivals rather than hashing prompts so that every run
  sees the same number of errors, evenly spaced.
* Each response goes out in one write on a TCP_NODELAY socket: separate
  header and body writes on a keep-alive connection meet Nagle's algorithm
  and delayed ACK and add about 40 ms per request.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import socket
import sys
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

FIXED_DELAY_S = 0.010
PER_TOKEN_DELAY_S = 0.00005
ERROR_EVERY = 500
DECISION_WORDS = ("true", "false")


class StubModel:
    def __init__(self, seed: int):
        self.seed = seed
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._arrivals = 0
            self._errors = 0
            self._refused: set[bytes] = set()

    def _transient(self, key: bytes) -> int | None:
        with self._lock:
            self._arrivals += 1
            if self._arrivals % ERROR_EVERY or key in self._refused:
                return None
            self._refused.add(key)
            self._errors += 1
            return 503 if self._errors % 2 else 429

    def respond(self, body: bytes) -> tuple[int, dict, float, dict]:
        """(status, JSON payload, injected delay in s, extra headers)."""
        payload = json.loads(body)
        digest = hashlib.sha256(
            f"{self.seed}|{json.dumps(payload, sort_keys=True)}".encode("utf-8")
        ).digest()
        status = self._transient(digest)
        if status is not None:
            headers = {"Retry-After": "0"} if status == 429 else {}
            return status, {"error": "transient"}, FIXED_DELAY_S, headers

        prompt = payload["prompt"]
        if payload.get("echo") and payload.get("max_tokens") == 0:
            tokens = [prompt] if prompt in DECISION_WORDS else [prompt[:1], prompt[1:]]
            choice = {"text": prompt, "finish_reason": "stop", "logprobs": {"tokens": tokens}}
            return 200, {"choices": [choice]}, FIXED_DELAY_S, {}

        if payload.get("max_tokens") == 1 and payload.get("logprobs"):
            u_true = int.from_bytes(digest[0:8], "big") / 2**64
            u_false = int.from_bytes(digest[8:16], "big") / 2**64
            table = {"true": -8.0 * u_true, "false": -8.0 * u_false}
            for i in range(payload["logprobs"] - len(table)):
                table[f"tok{i}"] = -20.0 - i
            choice = {"text": "true", "finish_reason": "length",
                      "logprobs": {"top_logprobs": [table]}}
            return 200, {"choices": [choice], "usage": {"completion_tokens": 1}}, (
                FIXED_DELAY_S + PER_TOKEN_DELAY_S), {}

        rng = random.Random(digest)
        length = 16 + rng.randrange(145)
        budget = int(payload.get("max_tokens", 16))
        used = min(length, budget)
        words = [f"w{rng.getrandbits(16):04x}" for _ in range(used)]
        finish = "stop" if length <= budget else "length"
        choice = {"text": " ".join(words), "finish_reason": finish, "logprobs": None}
        body_out = {"choices": [choice], "usage": {"completion_tokens": used}}
        return 200, body_out, FIXED_DELAY_S + PER_TOKEN_DELAY_S * used, {}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, as a requests.Session expects

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _send(self, status: int, payload: dict, delay: float, headers: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(body)}",
                 f"X-Stub-Delay-Ms: {delay * 1000.0:.6f}"]
        lines += [f"{k}: {v}" for k, v in headers.items()]
        self.wfile.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body)

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            status, payload, delay, headers = self.server.model.respond(body)
        except (ValueError, KeyError) as exc:
            status, payload, delay, headers = 400, {"error": str(exc)}, 0.0, {}
        time.sleep(delay)
        self._send(status, payload, delay, headers)

    def do_GET(self) -> None:
        if self.path == "/reset":
            self.server.model.reset()
            self._send(200, {"reset": True}, 0.0, {})
        else:
            self._send(400, {"error": "unknown path"}, 0.0, {})

    def log_message(self, *args) -> None:
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.model = StubModel(args.seed)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
