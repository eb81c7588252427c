"""Span tracing from outside the program, and the per-layer metrics.

The tracer replaces a function with a timing wrapper by patching the
attribute its caller looks up: ``reranklab.cli.score_candidates`` for the
CLI, ``assemble_prompt`` inside the ``reranklab.rerank`` module for the
scorers, methods on the backend classes, and ``requests.Session.post`` at
the network edge. Nothing under ``src/`` is modified.

``reranklab/__init__.py`` re-exports the ``rerank`` function, so
``import reranklab.rerank as R`` binds that function, not the module. The
module is reached through ``sys.modules["reranklab.rerank"]`` instead.

Spans stay in memory as tuples and are reduced to metrics when the run
ends. A span's self time is its duration minus the durations of its direct
children on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import Counter
from typing import Callable

# span tuple fields
SID, NAME, T0, T1, PARENT, THREAD, TAG, NOTE, ERROR = range(9)

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
# A workload that never calls a layer reports that layer's metrics as 0.
STRATEGIES = ("direct", "forced_no_reason", "reason", "self_consistency")
LAYER_METRICS = [
    ("porter.stem_calls", "count", "lower"),
    ("porter.distinct_ratio", "ratio", "higher"),
    ("bm25.analyze_s", "s", "lower"),
    ("bm25.build_s", "s", "lower"),
    ("bm25.save_s", "s", "lower"),
    ("bm25.load_s", "s", "lower"),
    ("bm25.index_mb", "MB", "lower"),
    ("bm25.terms", "count", "lower"),
    ("bm25.postings", "count", "lower"),
    ("bm25.query_tokenize_us", "us", "lower"),
    ("bm25.topk_self_ms_p50", "ms", "lower"),
    ("bm25.postings_per_query_p50", "count", "lower"),
    ("bm25.postings_per_query_p99", "count", "lower"),
    ("bm25.matching_docs_per_query_p50", "count", "lower"),
    ("bm25.matching_docs_per_query_p99", "count", "lower"),
    ("data.load_corpus_s", "s", "lower"),
    ("data.read_run_s", "s", "lower"),
    ("data.write_run_s", "s", "lower"),
    ("data.write_scored_s", "s", "lower"),
    ("data.read_scored_s", "s", "lower"),
    ("data.load_qrels_s", "s", "lower"),
    ("data.scored_mb", "MB", "lower"),
    ("types.validate_s", "s", "lower"),
    ("prompts.assemble_calls", "count", "lower"),
    ("prompts.assemble_us", "us", "lower"),
    ("prompts.prompt_kb", "KB", "lower"),
    ("backend.requests.score", "count", "lower"),
    ("backend.requests.generate", "count", "lower"),
    ("backend.requests.probe", "count", "lower"),
    ("backend.retries", "count", "lower"),
    ("backend.failed", "count", "lower"),
    ("backend.request_p50_ms", "ms", "lower"),
    ("backend.request_p99_ms", "ms", "lower"),
    ("backend.overhead_ms_p50", "ms", "lower"),
    ("backend.client_cpu_ms_per_request", "ms", "lower"),
    ("backend.occupancy", "ratio", "higher"),
    ("backend.retry_wait_s", "s", "lower"),
    ("backend.capture_mb", "MB", "lower"),
    ("backend.mock_score_us", "us", "lower"),
    ("backend.mock_generate_us", "us", "lower"),
    ("backend.mock_retained_mb", "MB", "lower"),
    ("backend.tokens_generated", "count", "lower"),
    ("backend.truncated_frac", "ratio", "lower"),
    *((f"rerank.score_s.{s}", "s", "lower") for s in STRATEGIES),
    ("rerank.self_us_per_pair", "us", "lower"),
    ("rerank.requests_per_pair", "count", "lower"),
    ("rerank.rerank_s", "s", "lower"),
    ("metrics.ndcg_s", "s", "lower"),
    ("metrics.classify_s", "s", "lower"),
    ("metrics.bin_s", "s", "lower"),
    ("cli.stage_s.index", "s", "lower"),
    ("cli.stage_s.retrieve", "s", "lower"),
    *((f"cli.stage_s.{stage}.{s}", "s", "lower")
      for stage in ("rerank", "eval", "analyze") for s in STRATEGIES),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]
SCORERS = ("rerank.score_direct", "rerank.score_forced", "rerank.score_reasoned",
           "rerank.score_self_consistency")


def percentile(values, q: float) -> float:
    """The q-th percentile (0-100), linear between order statistics."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _pair_tag(args, kwargs):
    return f"{args[2].id}|{args[3].id}"


def _post_note(args, kwargs, resp):
    payload = kwargs.get("json") or {}
    if payload.get("echo") and payload.get("max_tokens") == 0:
        kind = "probe"
    elif payload.get("max_tokens") == 1 and payload.get("logprobs"):
        kind = "score"
    else:
        kind = "generate"
    return kind, resp.status_code, float(resp.headers.get("X-Stub-Delay-Ms", 0.0))


class Tracer:
    """Records spans around patched functions until ``restore`` is called."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stems = 0
        self.stemmed: set[str] = set()
        self.mock_backends: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._ambient = None  # open span that worker-thread spans belong to
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, tag: Callable | None = None,
             note: Callable | None = None, ambient: bool = False) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``tag`` labels the span (a query or pair id), ``note`` keeps a fact
        from the result, and ``ambient`` makes the span the parent of spans
        opened on worker threads while it runs. A function the program no
        longer has is skipped, and the metrics built on it read 0.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._ambient
            stack.append(sid)
            if ambient:
                tracer._ambient = sid
            result, error = None, None
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if ambient:
                    tracer._ambient = parent
                tracer.spans.append((
                    sid, name, t0, t1, parent, threading.get_ident(),
                    tag(args, kwargs) if tag else None,
                    note(args, kwargs, result) if note and error is None else None,
                    error,
                ))

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def count_stems(self, owner, attr: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        def counted(word):
            tracer.stems += 1
            tracer.stemmed.add(word)
            return original(word)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        import requests

        import reranklab.backend as backend
        import reranklab.bm25 as bm25
        import reranklab.cli as cli
        import reranklab.data as data
        import reranklab.metrics as metrics
        import reranklab.types as types

        rerank_mod = sys.modules["reranklab.rerank"]
        self.wrap(cli, "main", "cli.main", tag=lambda a, k: a[0][0])
        for fn in ("load_corpus", "load_queries", "read_run", "write_run", "write_scored",
                   "read_scored", "load_qrels"):
            self.wrap(data, fn, f"data.{fn}")
        self.wrap(data, "validate_run", "types.validate_run")
        for owner in (types, cli):
            self.wrap(owner, "validate_candidate_list", "types.validate_candidate_list")
        for fn in ("build_index", "save_index", "load_index"):
            self.wrap(bm25, fn, f"bm25.{fn}")
        self.wrap(bm25, "retrieve_top_k", "bm25.retrieve_top_k",
                  tag=lambda a, k: a[1].id, note=lambda a, k, r: len(r))
        self.wrap(bm25, "tokenize", "bm25.tokenize")
        self.count_stems(bm25, "porter_stem")
        for owner in (rerank_mod, cli):
            self.wrap(owner, "score_candidates", "rerank.score_candidates", ambient=True,
                      note=lambda a, k, r: (a[2].kind.value, len(a[5])))
            self.wrap(owner, "rerank", "rerank.rerank")
        for name in SCORERS:
            self.wrap(rerank_mod, name.split(".", 1)[1], name, tag=_pair_tag)
        self.wrap(rerank_mod, "assemble_prompt", "prompts.assemble_prompt",
                  note=lambda a, k, r: len(r))
        self.wrap(backend.CompletionsBackend, "generate_then_score",
                  "backend.generate_then_score")
        for cls, label in ((backend.HttpCompletionsBackend, "http"),
                           (backend.MockBackend, "mock")):
            self.wrap(cls, "score_decision", f"backend.{label}.score_decision")
            self.wrap(cls, "generate", f"backend.{label}.generate")
        self.wrap(backend.HttpCompletionsBackend, "_complete", "backend.http.complete")
        self.wrap(requests.Session, "post", "backend.http.post", note=_post_note)
        self.wrap(cli, "load_mock_table", "backend.load_mock_table",
                  note=lambda a, k, r: self.mock_backends.append(r))
        for fn in ("ndcg_at_k", "classify", "bin_scores"):
            self.wrap(metrics, fn, f"metrics.{fn}")

    def retained_mock_mb(self) -> float:
        """Bytes held in ``scored_prompts`` by mock backends made since the last call."""
        total = sum(sum(sys.getsizeof(p) for p in b.scored_prompts) for b in self.mock_backends)
        self.mock_backends.clear()
        return total / 1e6

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _by_name(spans) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = {}
    for s in spans:
        out.setdefault(s[NAME], []).append(s)
    return out


def _dur(s) -> float:
    return s[T1] - s[T0]


def _self_times(spans, names) -> list[float]:
    """Self time of every span named in ``names``: minus its direct children."""
    child_time: Counter = Counter()
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += _dur(s)
    return [_dur(s) - child_time[s[SID]] for s in spans if s[NAME] in names]


def layer_metrics(tracer: Tracer, ctx: dict) -> dict[str, float]:
    """Reduce the traced spans plus workload facts in ``ctx`` to per-layer metrics.

    ``ctx`` keys (all optional): analyze_s, index_mb, terms, postings,
    postings_per_query, matching_docs, scored_mb, tokens_generated,
    truncated_frac, capture_mb, mock_retained_mb, untraced_cpu_s, pass_wall_s,
    concurrency, stage_s (stage name -> seconds), overhead_frac.
    """
    spans = tracer.spans
    by = _by_name(spans)
    total = lambda name: sum(_dur(s) for s in by.get(name, ()))  # noqa: E731
    median = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    m = {name: 0.0 for name, _, _ in LAYER_METRICS}

    m["porter.stem_calls"] = tracer.stems
    m["porter.distinct_ratio"] = len(tracer.stemmed) / tracer.stems if tracer.stems else 0.0

    m["bm25.analyze_s"] = ctx.get("analyze_s", 0.0)
    m["bm25.build_s"] = total("bm25.build_index")
    m["bm25.save_s"] = total("bm25.save_index")
    m["bm25.load_s"] = total("bm25.load_index")
    m["bm25.index_mb"] = ctx.get("index_mb", 0.0)
    m["bm25.terms"] = ctx.get("terms", 0)
    m["bm25.postings"] = ctx.get("postings", 0)
    topk_ids = {s[SID] for s in by.get("bm25.retrieve_top_k", ())}
    query_tok = [_dur(s) for s in by.get("bm25.tokenize", ()) if s[PARENT] in topk_ids]
    m["bm25.query_tokenize_us"] = median(query_tok) * 1e6
    m["bm25.topk_self_ms_p50"] = median(_self_times(spans, {"bm25.retrieve_top_k"})) * 1e3
    for key, values in (("postings_per_query", ctx.get("postings_per_query", [])),
                        ("matching_docs_per_query", ctx.get("matching_docs", []))):
        m[f"bm25.{key}_p50"] = percentile(values, 50)
        m[f"bm25.{key}_p99"] = percentile(values, 99)

    for fn in ("load_corpus", "read_run", "write_run", "write_scored", "read_scored",
               "load_qrels"):
        m[f"data.{fn}_s"] = total(f"data.{fn}")
    m["data.scored_mb"] = ctx.get("scored_mb", 0.0)
    m["types.validate_s"] = total("types.validate_run") + total("types.validate_candidate_list")

    assembled = by.get("prompts.assemble_prompt", [])
    m["prompts.assemble_calls"] = len(assembled)
    m["prompts.assemble_us"] = median([_dur(s) for s in assembled]) * 1e6
    m["prompts.prompt_kb"] = (
        statistics.fmean(s[NOTE] for s in assembled) / 1024 if assembled else 0.0
    )

    posts = by.get("backend.http.post", [])
    ok = [s for s in posts if s[NOTE] and s[NOTE][1] == 200]
    for kind in ("score", "generate", "probe"):
        m[f"backend.requests.{kind}"] = sum(1 for s in ok if s[NOTE][0] == kind)
    refused = {s[SID] for s in posts if s[NOTE] and (s[NOTE][1] == 429 or s[NOTE][1] >= 500)}
    m["backend.retries"] = len(refused)
    m["backend.failed"] = sum(1 for s in by.get("backend.http.complete", ()) if s[ERROR])
    post_ms = [_dur(s) * 1e3 for s in posts]
    m["backend.request_p50_ms"] = percentile(post_ms, 50)
    m["backend.request_p99_ms"] = percentile(post_ms, 99)
    m["backend.overhead_ms_p50"] = percentile(
        [_dur(s) * 1e3 - s[NOTE][2] for s in posts if s[NOTE]], 50)
    if posts:
        m["backend.client_cpu_ms_per_request"] = ctx.get("untraced_cpu_s", 0.0) * 1e3 / len(posts)
        wall = ctx.get("pass_wall_s", 0.0) * ctx.get("concurrency", 1)
        m["backend.occupancy"] = sum(_dur(s) for s in posts) / wall if wall else 0.0
    by_thread: dict[int, list[tuple]] = {}
    for s in posts:
        by_thread.setdefault(s[THREAD], []).append(s)
    wait = 0.0
    for thread_posts in by_thread.values():
        thread_posts.sort(key=lambda s: s[T0])
        for prev, nxt in zip(thread_posts, thread_posts[1:]):
            if prev[SID] in refused:
                wait += nxt[T0] - prev[T1]
    m["backend.retry_wait_s"] = wait
    m["backend.capture_mb"] = ctx.get("capture_mb", 0.0)
    m["backend.mock_score_us"] = median(
        [_dur(s) for s in by.get("backend.mock.score_decision", ())]) * 1e6
    m["backend.mock_generate_us"] = median(
        [_dur(s) for s in by.get("backend.mock.generate", ())]) * 1e6
    m["backend.mock_retained_mb"] = ctx.get("mock_retained_mb", 0.0)
    m["backend.tokens_generated"] = ctx.get("tokens_generated", 0)
    m["backend.truncated_frac"] = ctx.get("truncated_frac", 0.0)

    pairs = 0
    for s in by.get("rerank.score_candidates", ()):
        strategy, n = s[NOTE] or ("", 0)
        pairs += n
        m[f"rerank.score_s.{strategy}"] += _dur(s)
    backend_calls = (len(posts) + len(by.get("backend.mock.score_decision", ()))
                     + len(by.get("backend.mock.generate", ())))
    if pairs:
        m["rerank.self_us_per_pair"] = sum(_self_times(spans, set(SCORERS))) * 1e6 / pairs
        m["rerank.requests_per_pair"] = backend_calls / pairs
    m["rerank.rerank_s"] = total("rerank.rerank")

    m["metrics.ndcg_s"] = total("metrics.ndcg_at_k")
    m["metrics.classify_s"] = total("metrics.classify")
    m["metrics.bin_s"] = total("metrics.bin_scores")
    for stage, seconds in ctx.get("stage_s", {}).items():
        m[f"cli.stage_s.{stage}"] = seconds

    m["trace.overhead_frac"] = ctx.get("overhead_frac", 0.0)
    m["trace.spans"] = len(spans)
    return m
