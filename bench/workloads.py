"""The three benchmark workloads.

Each workload generates its inputs from the seed, sets up several times
(``setup_s`` is the median), then runs whole passes over a fixed input set
in a closed loop until the run time is used up. Every operation (a query,
a pair, a CLI stage) and every correctness check counts as attempted; a
failed one counts as failed.

With tracing on, a workload instead sets up and runs one pass untraced,
then once more traced, requires both passes to write identical bytes, and
reports per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import gen
import tracer as tracing

import reranklab.bm25 as bm25
import reranklab.cli as cli
import reranklab.data as data
import reranklab.types as types
from reranklab.backend import BackendConfig, HttpCompletionsBackend, ReplayBackend, SamplingParams
from reranklab.prompts import DEFAULT_TEMPLATE

rerank_mod = sys.modules["reranklab.rerank"]  # see tracer.py: the package shadows this name

SIZES = {
    "retrieve-zipf": {
        "full": dict(docs=10000, queries=2000, vocab=30000, batch=250, setups=3,
                     min_queries=1000, oracle_queries=8),
        "tiny": dict(docs=300, queries=40, vocab=2000, batch=10, setups=1,
                     min_queries=10, oracle_queries=2),
    },
    "rerank-http": {
        "full": dict(docs=2000, queries=15, depth=20, vocab=30000, setups=5),
        "tiny": dict(docs=60, queries=2, depth=3, vocab=500, setups=1),
    },
    "pipeline-mock": {
        "full": dict(docs=3000, queries=200, vocab=30000, k=50, samples=8, setups=5),
        "tiny": dict(docs=200, queries=4, vocab=500, k=5, samples=2, setups=1),
    },
}


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): sha256_file(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def tree_mb(root: Path) -> float:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) / 1e6


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scored_dump_facts(paths) -> tuple[float, int, float]:
    """(MB, generated tokens, truncated-trace fraction) over scored dumps."""
    size, tokens, traces, truncated = 0, 0, 0, 0
    for path in paths:
        size += path.stat().st_size
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                for t in json.loads(line)["traces"]:
                    tokens += t["token_count"]
                    traces += 1
                    truncated += not t["terminated"]
    return size / 1e6, tokens, (truncated / traces if traces else 0.0)


def index_facts(index_path: Path, passages, queries) -> dict:
    """Analyzer time over the corpus, and the index work the queries imply.

    Posting-list lengths and matching documents per query bound the work of
    exhaustive scoring; the program keeps no counters of its own.
    """
    index = bm25.load_index(str(index_path))
    t0 = time.perf_counter()
    for p in passages:
        bm25.tokenize(p.text, index.analyzer)
    analyze_s = time.perf_counter() - t0
    postings, matching = [], []
    for q in queries:
        rows = [index.postings.get(t, ()) for t in bm25.tokenize(q.text, index.analyzer)]
        postings.append(sum(len(r) for r in rows))
        matching.append(len({doc for r in rows for doc, _ in r}))
    return dict(analyze_s=analyze_s, index_mb=index_path.stat().st_size / 1e6,
                terms=len(index.postings), postings=sum(len(r) for r in index.postings.values()),
                postings_per_query=postings, matching_docs=matching)


class Outcome:
    """Operation and check counts, metrics and the run record of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str, int]] = {}  # name -> (value, unit, samples)
        self.checks: dict[str, bool] = {}
        self.digests: dict[str, str] = {}
        self.notes: dict[str, object] = {}

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)
        self.ops(1, 0 if ok else 1)

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path, size: str):
        self.seed = seed
        self.work = work
        self.size = SIZES[self.name][size]
        self.tracer = None  # set while a traced set-up and pass run

    def close(self) -> None:
        pass

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        self.generate()
        setups = []
        for i in range(self.size["setups"]):
            t0 = time.perf_counter()
            self.setup(i, out)
            setups.append(time.perf_counter() - t0)
        out.metric("setup_s", median(setups), "s", len(setups))
        self.loop(seconds, out)
        out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)
        self.verify(out)
        return out

    def run_traced(self) -> Outcome:
        out = Outcome()
        self.generate()
        t0 = time.perf_counter()
        self.setup(0, out)
        self.prepare_pass()
        cpu0 = time.process_time()
        t1 = time.perf_counter()
        self.one_pass(out)
        t2 = time.perf_counter()
        untraced_cpu = time.process_time() - cpu0
        plain = self.pass_digests()

        tracer = tracing.Tracer()
        self.tracer = tracer
        tracer.install()
        try:
            t3 = time.perf_counter()
            self.setup(0, out)
            self.prepare_pass()
            t4 = time.perf_counter()
            self.one_pass(out)
            t5 = time.perf_counter()
        finally:
            tracer.restore()
            self.tracer = None
        same = self.pass_digests() == plain
        out.check("traced_outputs_identical", same)
        out.digests.update(plain)
        ctx = self.trace_context()
        ctx.update(untraced_cpu_s=untraced_cpu, pass_wall_s=t5 - t4,
                   overhead_frac=(t5 - t3) / (t2 - t0) - 1.0)
        out.notes["untraced_setup_pass_s"] = [t1 - t0, t2 - t1]
        out.notes["traced_setup_pass_s"] = [t4 - t3, t5 - t4]
        self.verify(out)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        for name, value in tracing.layer_metrics(tracer, ctx).items():
            out.metric(name, value, units[name], 1)
        return out

    def prepare_pass(self) -> None:
        pass

    # subclasses: generate, setup, loop, one_pass, pass_digests, trace_context, verify


class RetrieveZipf(Workload):
    """BM25 top-100 over a Zipf corpus with the Porter analyzer."""

    name = "retrieve-zipf"
    K = 100

    def generate(self) -> None:
        s = self.size
        self.files = gen.retrieve_zipf(self.work, self.seed, s["docs"], s["queries"], s["vocab"])
        self.queries = data.load_queries(str(self.files["queries"]))
        self.index_path = self.work / "bm25_index.json"

    def setup(self, i: int, out: Outcome) -> None:
        self.index = self.built = None  # an earlier set-up's indexes must not add to the peak
        corpus = data.load_corpus(str(self.files["corpus"]))
        built = bm25.build_index(corpus, bm25.AnalyzerConfig(stemmer="porter"), bm25.Bm25Params())
        bm25.save_index(built, str(self.index_path))
        self.index = bm25.load_index(str(self.index_path))
        self.corpus, self.built = corpus, built

    def _batch(self, start: int, digest=None) -> tuple[list[float], int, int]:
        """Retrieve one batch of queries: (latencies, pairs, failures)."""
        lat, pairs, failures = [], 0, 0
        n = len(self.queries)
        for i in range(start, start + self.size["batch"]):
            query = self.queries[i % n]
            t0 = time.perf_counter()
            try:
                found = bm25.retrieve_top_k(self.index, query, self.K)
            except Exception:
                failures += 1
                continue
            lat.append(time.perf_counter() - t0)
            pairs += len(found)
            if digest is not None:
                for c in found:
                    digest.update(f"{c.query_id} {c.passage_id} {c.first_stage_rank} "
                                  f"{c.first_stage_score!r}\n".encode())
        return lat, pairs, failures

    def run(self, seconds: float) -> Outcome:
        """Alternate set-ups with slices of the query loop.

        The sandbox's processor speed drifts over tens of seconds, and this
        memory-bound loop feels it most. Spreading its samples, and the
        set-up samples, across the whole run averages over more of the drift
        than one contiguous stretch would.
        """
        out = Outcome()
        self.generate()
        rounds = self.size["setups"]
        setups, lat, pairs, batches, wall = [], [], 0, [], 0.0
        digest = hashlib.sha256()
        for r in range(1, rounds + 1):
            t0 = time.perf_counter()
            self.setup(r, out)
            setups.append(time.perf_counter() - t0)
            start = time.perf_counter()
            while (time.perf_counter() - start < seconds / rounds
                   or len(lat) < self.size["min_queries"] * r / rounds or not batches):
                t0 = time.perf_counter()
                b_lat, b_pairs, b_failed = self._batch(len(batches) * self.size["batch"],
                                                       digest if not batches else None)
                batches.append(time.perf_counter() - t0)
                lat += b_lat
                pairs += b_pairs
                out.ops(self.size["batch"], b_failed)
            wall += time.perf_counter() - start
        out.digests["first_batch_topk"] = digest.hexdigest()
        out.digests["bm25_index.json"] = sha256_file(self.index_path)
        out.metric("setup_s", median(setups), "s", len(setups))
        out.metric("queries_per_s", len(lat) / wall, "1/s", len(lat))
        out.metric("pairs_per_s", pairs / wall, "1/s", pairs)
        out.metric("query_p50_ms", tracing.percentile(lat, 50) * 1e3, "ms", len(lat))
        out.metric("query_p99_ms", tracing.percentile(lat, 99) * 1e3, "ms", len(lat))
        out.metric("pipeline_s", median(batches), "s", len(batches))
        out.metric("output_mb", self.index_path.stat().st_size / 1e6, "MB", 1)
        out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)
        self.verify(out)
        return out

    def one_pass(self, out: Outcome) -> None:
        self.pass_digest = hashlib.sha256()
        _, _, failed = self._batch(0, self.pass_digest)
        out.ops(self.size["batch"], failed)

    def pass_digests(self) -> dict[str, str]:
        return {"first_batch_topk": self.pass_digest.hexdigest(),
                "bm25_index.json": sha256_file(self.index_path)}

    def trace_context(self) -> dict:
        return index_facts(self.index_path, self.corpus.passages,
                           self.queries[: self.size["batch"]])

    def verify(self, out: Outcome) -> None:
        out.check("index_round_trip", self.index == self.built)
        rng = random.Random(f"oracle:{self.seed}")
        for i in rng.sample(range(self.size["batch"]), self.size["oracle_queries"]):
            query = self.queries[i]
            try:
                ok = self._oracle_agrees(query, rng)
            except Exception:
                ok = False
            out.check(f"oracle:{query.id}", ok)

    def _oracle_agrees(self, query, rng: random.Random) -> bool:
        """Top-k equals an exhaustive ranking, scores bit for bit.

        The exhaustive ranking scores every document that matches a query
        term (any other document scores exactly 0 and is never a candidate)
        with bm25_score's arithmetic in its summation order. ``bm25_score``
        itself scans a posting list per call, so it is called on the top k
        and on a sample of other matching documents, which anchors the
        reference to the program's own oracle.
        """
        index = self.index
        k1, b = index.params.k1, index.params.b
        n = len(index.doc_ids)
        avgdl = sum(index.doc_lengths) / n
        terms = bm25.tokenize(query.text, index.analyzer)
        tf = {t: dict(index.postings[t]) for t in set(terms) if t in index.postings}
        idf = {t: math.log(1.0 + (n - len(rows) + 0.5) / (len(rows) + 0.5)) for t, rows in tf.items()}
        scores = {}
        for doc in set().union(*tf.values()):
            norm = 1.0 - b + b * index.doc_lengths[doc] / avgdl
            score = 0.0
            for t in terms:
                f = tf.get(t, {}).get(doc, 0)
                if f:
                    score += idf[t] * f * (k1 + 1.0) / (f + k1 * norm)
            scores[doc] = score
        ranked = sorted(scores.items(), key=lambda it: (-it[1], index.doc_ids[it[0]]))[: self.K]
        got = bm25.retrieve_top_k(index, query, self.K)
        if [(index.doc_ids[d], s) for d, s in ranked] != [
            (c.passage_id, c.first_stage_score) for c in got
        ]:
            return False
        top = [d for d, _ in ranked]
        rest = sorted(set(scores) - set(top))
        probe = top + rng.sample(rest, min(len(rest), self.K))
        return all(bm25.bm25_score(index, query, d) == scores[d] for d in probe)


class RerankHttp(Workload):
    """Self-consistency reranking against the stub server, as ``cmd_rerank`` does it."""

    name = "rerank-http"
    CONCURRENCY = 2
    SAMPLES = 4
    BUDGET = 128
    TAG = "self_consistency"

    def generate(self) -> None:
        s = self.size
        self.files = gen.rerank_http(self.work, self.seed, s["docs"], s["queries"], s["depth"],
                                     s["vocab"])
        self.stub = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub_server.py")),
             "--seed", str(self.seed)],
            stdout=subprocess.PIPE, text=True,
        )
        port = int(self.stub.stdout.readline())
        self.base_url = f"http://127.0.0.1:{port}"
        self.strategy = rerank_mod.RerankStrategy(
            rerank_mod.StrategyKind.SELF_CONSISTENCY, samples=self.SAMPLES)
        # what cli._sampling chooses for self_consistency
        self.sampling = SamplingParams(temperature=0.7, top_p=0.95, max_tokens=self.BUDGET)

    def close(self) -> None:
        stub = getattr(self, "stub", None)
        if stub is not None:
            stub.terminate()
            try:
                stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                stub.kill()
                stub.wait()
            stub.stdout.close()

    def _config(self, endpoint: str, capture: str | None) -> BackendConfig:
        # the fields cli._build_backend sets; everything else at its default
        return BackendConfig(endpoint=endpoint, model="stub", timeout=120.0,
                             max_in_flight=self.CONCURRENCY, max_attempts=3,
                             capture_path=capture)

    def setup(self, i: int, out: Outcome) -> None:
        self.corpus = data.load_corpus(str(self.files["corpus"]))
        self.queries = {q.id: q for q in data.load_queries(str(self.files["queries"]))}
        entries = data.read_run(str(self.files["run"]))
        self.candidates = [types.Candidate(e.query_id, e.passage_id, e.score, e.rank)
                           for e in entries]
        types.validate_candidate_list(self.candidates)
        self.capture = self.work / f"capture_{i}.jsonl"
        self.capture.unlink(missing_ok=True)
        self.backend = HttpCompletionsBackend(
            self._config(f"{self.base_url}/v1/completions", str(self.capture)))
        self.backend.validate_decision_tokens()

    def prepare_pass(self) -> None:
        with urllib.request.urlopen(f"{self.base_url}/reset", timeout=10) as resp:
            resp.read()

    def _lists(self) -> list[list]:
        by_query: dict[str, list] = {}
        for c in self.candidates:
            by_query.setdefault(c.query_id, []).append(c)
        return [by_query[q] for q in sorted(by_query)]

    def _rerank_pass(self, backend, pass_no: int, out_dir: Path, out: Outcome,
                     latencies: list | None = None) -> int:
        """Rerank every query list once; returns the number of pairs scored."""
        out_dir.mkdir(parents=True, exist_ok=True)
        scored_all, entries_all = [], []
        for cands in self._lists():
            t0 = time.perf_counter()
            try:
                scored, failures = rerank_mod.score_candidates(
                    backend, DEFAULT_TEMPLATE, self.strategy, self.queries, self.corpus, cands,
                    self.sampling, base_seed=pass_no, concurrency=self.CONCURRENCY)
                entries = rerank_mod.rerank(cands, scored, self.TAG)
            except Exception:
                out.ops(len(cands), len(cands))
                continue
            if latencies is not None:
                latencies.append(time.perf_counter() - t0)
            out.ops(len(cands), len(cands) - len(scored))
            scored_all += scored
            entries_all += entries
        data.write_run(str(out_dir / f"{self.TAG}.run"), entries_all)
        data.write_scored(str(out_dir / f"{self.TAG}_scored.jsonl"), scored_all, self.TAG)
        return len(scored_all)

    def loop(self, seconds: float, out: Outcome) -> None:
        lat, pairs, passes = [], 0, []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not passes:
            t0 = time.perf_counter()
            pairs += self._rerank_pass(self.backend, len(passes), self.work / f"pass{len(passes)}",
                                       out, lat)
            passes.append(time.perf_counter() - t0)
            if len(passes) == 1:
                pass0_mb = tree_mb(self.work / "pass0") + self.capture.stat().st_size / 1e6
        wall = time.perf_counter() - start
        self.passes = len(passes)
        out.digests.update(tree_digests(self.work / "pass0"))
        out.metric("queries_per_s", len(lat) / wall, "1/s", len(lat))
        out.metric("pairs_per_s", pairs / wall, "1/s", pairs)
        out.metric("query_p50_ms", tracing.percentile(lat, 50) * 1e3, "ms", len(lat))
        out.metric("query_p99_ms", tracing.percentile(lat, 99) * 1e3, "ms", len(lat))
        out.metric("pipeline_s", median(passes), "s", len(passes))
        out.metric("output_mb", pass0_mb, "MB", 1)

    def one_pass(self, out: Outcome) -> None:
        shutil.rmtree(self.work / "pass0", ignore_errors=True)
        self.passes = 1
        self._rerank_pass(self.backend, 0, self.work / "pass0", out)

    def pass_digests(self) -> dict[str, str]:
        return tree_digests(self.work / "pass0")

    def trace_context(self) -> dict:
        scored_mb, tokens, truncated = scored_dump_facts(
            [self.work / "pass0" / f"{self.TAG}_scored.jsonl"])
        return dict(scored_mb=scored_mb, tokens_generated=tokens, truncated_frac=truncated,
                    capture_mb=self.capture.stat().st_size / 1e6,
                    concurrency=self.CONCURRENCY)

    def verify(self, out: Outcome) -> None:
        """Every pair scored; replaying the capture log rewrites identical files."""
        total = 0
        for p in range(self.passes):
            with open(self.work / f"pass{p}" / f"{self.TAG}.run", encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
        out.check("every_pair_scored", total == self.passes * len(self.candidates))
        try:
            replay = ReplayBackend(str(self.capture), config=self._config(
                f"replay:{self.capture}", None))
            replay.validate_decision_tokens()
            for p in range(self.passes):
                self._rerank_pass(replay, p, self.work / f"replay{p}", Outcome())
                same = (tree_digests(self.work / f"replay{p}")
                        == tree_digests(self.work / f"pass{p}"))
                out.check(f"replay_identical:pass{p}", same)
        except Exception:
            out.check("replay_identical", False)


class PipelineMock(Workload):
    """The offline CLI pipeline: index, retrieve, four rerank strategies, eval, analyze."""

    name = "pipeline-mock"
    CONCURRENCY = 2

    def generate(self) -> None:
        s = self.size
        self.files = gen.pipeline_mock(self.work, self.seed, s["docs"], s["queries"], s["vocab"])
        self.index_dir = self.work / "index"
        self.stage_s: dict[str, float] = {}
        self.mock_retained_mb = 0.0

    def _cli(self, stage: str, argv: list[str], out: Outcome) -> bool:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception:
                code = -1
        self.stage_s[stage] = time.perf_counter() - t0
        if self.tracer is not None and stage.startswith("rerank."):
            self.mock_retained_mb = max(self.mock_retained_mb, self.tracer.retained_mock_mb())
        out.ops(1, 0 if code == 0 else 1)
        return code == 0

    def setup(self, i: int, out: Outcome) -> None:
        self._cli("index", ["index", "--corpus", str(self.files["corpus"]), "--stemmer", "none",
                            "--out-dir", str(self.index_dir)], out)

    def _rerank_argv(self, strategy: str, run_in: Path, out_dir: Path, seed: int,
                     concurrency: int) -> list[str]:
        argv = ["rerank", "--corpus", str(self.files["corpus"]),
                "--queries", str(self.files["queries"]), "--run-in", str(run_in),
                "--strategy", strategy, "--backend", f"mock:{self.files['mock']}",
                "--concurrency", str(concurrency), "--seed", str(seed),
                "--out-dir", str(out_dir)]
        if strategy == "self_consistency":
            argv += ["--samples", str(self.size["samples"])]
        return argv

    def _pipeline_pass(self, pass_no: int, out: Outcome) -> tuple[float, float, int]:
        """One pass; returns (wall s, summed rerank-stage wall s, pairs scored)."""
        root = self.work / f"pass{pass_no}"
        shutil.rmtree(root, ignore_errors=True)
        qrels = str(self.files["qrels"])
        t0 = time.perf_counter()
        self._cli("retrieve", ["retrieve", "--index", str(self.index_dir / "bm25_index.json"),
                               "--queries", str(self.files["queries"]),
                               "--k", str(self.size["k"]), "--out-dir", str(root)], out)
        for s in tracing.STRATEGIES:
            self._cli(f"rerank.{s}", self._rerank_argv(s, root / "bm25.run", root / s,
                                                       pass_no, self.CONCURRENCY), out)
        for s in tracing.STRATEGIES:
            self._cli(f"eval.{s}", ["eval", "--run-in", str(root / s / f"{s}.run"),
                                    "--qrels", qrels, "--out-dir", str(root / s / "eval")], out)
            self._cli(f"analyze.{s}", ["analyze", "--scored", str(root / s / f"{s}_scored.jsonl"),
                                       "--qrels", qrels,
                                       "--out-dir", str(root / s / "analyze")], out)
        wall = time.perf_counter() - t0
        with open(root / "bm25.run", encoding="utf-8") as fh:
            pairs = sum(1 for _ in fh)
        rerank_wall = sum(self.stage_s[f"rerank.{s}"] for s in tracing.STRATEGIES)
        return wall, rerank_wall, pairs * len(tracing.STRATEGIES)

    def loop(self, seconds: float, out: Outcome) -> None:
        passes, rerank_wall, pairs = [], 0.0, 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not passes:
            wall, r_wall, r_pairs = self._pipeline_pass(len(passes), out)
            passes.append(wall)
            rerank_wall += r_wall
            pairs += r_pairs
        total = time.perf_counter() - start
        nq = len(data.load_queries(str(self.files["queries"])))
        # a batch pipeline answers every query of a pass when the pass ends
        per_query = [w for w in passes for _ in range(nq)]
        out.digests.update(self.pass_digests())
        out.metric("queries_per_s", nq * len(passes) / total, "1/s", nq * len(passes))
        out.metric("pairs_per_s", pairs / rerank_wall, "1/s", pairs)
        out.metric("query_p50_ms", tracing.percentile(per_query, 50) * 1e3, "ms", len(per_query))
        out.metric("query_p99_ms", tracing.percentile(per_query, 99) * 1e3, "ms", len(per_query))
        out.metric("pipeline_s", median(passes), "s", len(passes))
        out.metric("output_mb", tree_mb(self.work / "pass0") + tree_mb(self.index_dir), "MB", 1)

    def one_pass(self, out: Outcome) -> None:
        self._pipeline_pass(0, out)

    def pass_digests(self) -> dict[str, str]:
        digests = {f"index/{k}": v for k, v in tree_digests(self.index_dir).items()}
        digests.update(tree_digests(self.work / "pass0"))
        return digests

    def trace_context(self) -> dict:
        root = self.work / "pass0"
        scored_mb, tokens, truncated = scored_dump_facts(
            [root / s / f"{s}_scored.jsonl" for s in tracing.STRATEGIES])
        ctx = index_facts(self.index_dir / "bm25_index.json",
                          data.load_corpus(str(self.files["corpus"])).passages,
                          data.load_queries(str(self.files["queries"])))
        ctx.update(scored_mb=scored_mb, tokens_generated=tokens, truncated_frac=truncated,
                   mock_retained_mb=self.mock_retained_mb, stage_s=dict(self.stage_s))
        return ctx

    def verify(self, out: Outcome) -> None:
        """Concurrency-1 reruns match byte for byte; analyze bins add up."""
        root = self.work / "pass0"
        for s in tracing.STRATEGIES:
            check_dir = self.work / "check" / s
            shutil.rmtree(check_dir, ignore_errors=True)
            ok = self._cli(f"check.{s}", self._rerank_argv(s, root / "bm25.run", check_dir, 0, 1),
                           Outcome())
            for name in (f"{s}.run", f"{s}_scored.jsonl"):
                ok = ok and sha256_file(check_dir / name) == sha256_file(root / s / name)
            out.check(f"concurrency1_identical:{s}", ok)
            try:
                analysis = json.loads((root / s / "analyze" / "analysis.json").read_text())
                with open(root / s / f"{s}.run", encoding="utf-8") as fh:
                    pairs = sum(1 for _ in fh)
                ok = sum(analysis["bin_counts"]) == analysis["total"] == pairs
            except (OSError, KeyError, ValueError):
                ok = False
            out.check(f"analyze_bins_sum:{s}", ok)


WORKLOADS = {w.name: w for w in (RetrieveZipf, RerankHttp, PipelineMock)}
