"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
verdicts. Everything here is offline: synthetic fixtures plus the
deterministic mock backend. Tolerances are pinned in the assertions.
"""

import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from reranklab import (
    AnalyzerConfig,
    Bm25Params,
    Corpus,
    DecisionLogits,
    DEFAULT_TEMPLATE,
    MockBackend,
    Passage,
    PromptMode,
    Query,
    RerankStrategy,
    SamplingParams,
    StrategyKind,
    assemble_prompt,
    bin_scores,
    bm25_score,
    build_index,
    classify,
    derive_seed,
    ndcg_at_k,
    relevance_from_logits,
    rerank,
    retrieve_top_k,
    score_candidates,
    score_pair,
)
from reranklab.cli import main
from reranklab.data import write_run
from reranklab.types import RunEntry, ScoredPair

from conftest import make_corpus, make_queries, write_corpus_file, write_queries_file

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# criterion 1: scoring math
# ---------------------------------------------------------------------------


def test_criterion_1_scoring_math():
    started = time.perf_counter()
    rng = np.random.default_rng(20240601)
    n = 100_000
    z_true = rng.uniform(-700.0, 700.0, size=n)
    z_false = rng.uniform(-700.0, 700.0, size=n)
    # pepper in the extremes explicitly
    z_true[:4] = [700.0, -700.0, 700.0, -700.0]
    z_false[:4] = [-700.0, 700.0, 700.0, -700.0]

    # independent oracle: direct (unshifted) formula in 80-bit floats
    d = z_true.astype(np.longdouble) - z_false.astype(np.longdouble)
    oracle = 1.0 / (1.0 + np.exp(-d))

    got = np.array(
        [relevance_from_logits(DecisionLogits(t, f)) for t, f in zip(z_true, z_false)],
        dtype=np.longdouble,
    )
    max_err = float(np.max(np.abs(got - oracle)))
    assert max_err <= 1e-12

    # spot values frozen from a 50-digit evaluation
    assert abs(relevance_from_logits(DecisionLogits(2.0, 0.0)) - 0.8807970779778824) <= 1e-12
    assert abs(relevance_from_logits(DecisionLogits(5.0, -5.0)) - 0.9999546021312976) <= 1e-12

    # exact shift invariance on dyadic inputs (float addition stays exact
    # there, so the difference is bit-identical)
    py_rng = random.Random(7)
    for _ in range(2000):
        zt = py_rng.randint(-500_000, 500_000) / 1024
        zf = py_rng.randint(-500_000, 500_000) / 1024
        c = float(py_rng.randint(-1000, 1000))
        assert relevance_from_logits(DecisionLogits(zt + c, zf + c)) == relevance_from_logits(
            DecisionLogits(zt, zf)
        )

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1 scoring math: PASS (max err {max_err:.2e}, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 2: prompt fidelity
# ---------------------------------------------------------------------------


def test_criterion_2_prompt_fidelity():
    started = time.perf_counter()
    query = "how to help a jammed finger"
    passage = "A broken finger is often more painful than a jammed finger."
    for mode, golden in [
        (PromptMode.DIRECT, "direct_prompt.txt"),
        (PromptMode.OPEN_THINK, "open_think_prompt.txt"),
        (PromptMode.FORCED_THINK, "forced_think_prompt.txt"),
    ]:
        built = assemble_prompt(DEFAULT_TEMPLATE, query, passage, mode).encode("utf-8")
        assert built == (GOLDEN / golden).read_bytes(), f"{mode} prompt drifted"
    forced = assemble_prompt(DEFAULT_TEMPLATE, query, passage, PromptMode.FORCED_THINK)
    assert "Okay, I have finished thinking." in forced
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 2 prompt fidelity: PASS ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 3: NDCG oracle equivalence
# ---------------------------------------------------------------------------


def _oracle_dcg(grades, k, gain):
    total = 0.0
    for i, g in enumerate(grades[:k], start=1):
        total += (float(2**g - 1) if gain == "exponential" else float(g)) / math.log2(i + 1)
    return total


def test_criterion_3_ndcg_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(99)
    checked = 0
    for trial in range(8):
        n = rng.randint(3, 6)
        grades = [rng.randint(0, 3) for _ in range(n)]
        if not any(grades):
            grades[rng.randrange(n)] = rng.randint(1, 3)
        for gain in ("exponential", "linear"):
            # the ideal found by exhaustive search, not by sorting
            ideal = max(_oracle_dcg(list(p), 10, gain) for p in itertools.permutations(grades))
            for perm in itertools.permutations(range(n)):
                permuted = [grades[j] for j in perm]
                run = [
                    RunEntry("q", f"p{i}", i + 1, float(n - i), "t") for i in range(n)
                ]
                qrels = {"q": {f"p{i}": g for i, g in enumerate(permuted)}}
                got = ndcg_at_k(run, qrels, k=10, gain=gain).per_query["q"]
                want = _oracle_dcg(permuted, 10, gain) / ideal
                assert abs(got - want) <= 1e-12
                checked += 1
        # grade-sorted order must be exactly 1.0
        ordered = sorted(grades, reverse=True)
        run = [RunEntry("q", f"p{i}", i + 1, float(n - i), "t") for i in range(n)]
        qrels = {"q": {f"p{i}": g for i, g in enumerate(ordered)}}
        assert ndcg_at_k(run, qrels, k=10).per_query["q"] == 1.0

    # IDCG-0 skip rule
    run = [RunEntry("qz", "p0", 1, 1.0, "t")]
    report = ndcg_at_k(run, {"qz": {"p0": 0}}, k=10)
    assert report.per_query["qz"] == 0.0
    assert report.skipped == ("qz",)
    assert report.evaluated == 0

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 3 ndcg oracle: PASS ({checked} permutations, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 4: pipeline determinism
# ---------------------------------------------------------------------------


def _write_fixture(root: Path, n_passages=200, n_queries=10):
    corpus = make_corpus(n_passages, seed=23)
    queries = make_queries(n_queries, seed=29)
    write_corpus_file(root / "corpus.jsonl", corpus)
    write_queries_file(root / "queries.jsonl", queries)
    rng = random.Random(31)
    lines = []
    for q in queries:
        judged = rng.sample(list(corpus.passages), 12)
        for p in judged:
            lines.append(f"{q.id} 0 {p.id} {rng.randint(0, 3)}")
    (root / "qrels.txt").write_text("\n".join(lines) + "\n")
    table = {
        "single_token_vocab": ["true", "false"],
        "default_logits": "hash",
        "default_reasoning": "Okay, sample {seed}: weighing terms. Done.</think>",
    }
    (root / "mock.json").write_text(json.dumps(table))


def _run_pipeline(root: Path, out: Path, concurrency: int) -> bytes:
    out.mkdir(parents=True)
    assert main(["index", "--corpus", str(root / "corpus.jsonl"), "--out-dir", str(out)]) == 0
    assert main([
        "retrieve", "--index", str(out / "bm25_index.json"),
        "--queries", str(root / "queries.jsonl"), "--k", "10", "--out-dir", str(out),
    ]) == 0
    assert main([
        "rerank",
        "--corpus", str(root / "corpus.jsonl"),
        "--queries", str(root / "queries.jsonl"),
        "--run-in", str(out / "bm25.run"),
        "--strategy", "reason",
        "--backend", f"mock:{root / 'mock.json'}",
        "--concurrency", str(concurrency),
        "--seed", "0",
        "--out-dir", str(out),
    ]) == 0
    assert main([
        "eval", "--run-in", str(out / "reason.run"),
        "--qrels", str(root / "qrels.txt"), "--out-dir", str(out),
    ]) == 0
    artifacts = [
        "bm25_index.json", "bm25.run", "reason.run", "reason_scored.jsonl",
        "eval.txt", "eval.jsonl",
    ]
    return b"\x00".join((out / name).read_bytes() for name in artifacts)


def test_criterion_4_pipeline_determinism(tmp_path):
    started = time.perf_counter()
    _write_fixture(tmp_path)
    first = _run_pipeline(tmp_path, tmp_path / "run_a", concurrency=1)
    for name, workers in (("run_b", 1), ("run_c", 1), ("run_d", 8)):
        again = _run_pipeline(tmp_path, tmp_path / name, concurrency=workers)
        assert again == first, f"{name} diverged"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 4 pipeline determinism: PASS (3 reruns + concurrency 8, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 5: protocol reproduction in miniature
# ---------------------------------------------------------------------------


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _miniature_fixture():
    """Four queries; per query one passage each of grade 1, 2, 3 and seven of
    grade 0, with the first stage ranking the relevant ones worst-first."""
    queries, corpus_rows, candidates, qrels = [], [], [], {}
    for qn in range(4):
        qid = f"q{qn}"
        queries.append(Query(qid, f"topic {qn} question"))
        qrels[qid] = {}
        order = [1, 2, 3] + [0] * 7  # first-stage rank order by grade
        for rank, grade in enumerate(order, start=1):
            pid = f"{qid}_p{rank}"
            corpus_rows.append(Passage(pid, f"passage {pid} marker-g{grade} body"))
            candidates.append(RunEntry(qid, pid, rank, float(20 - rank)))
            qrels[qid][pid] = grade
    return queries, Corpus(tuple(corpus_rows)), candidates, qrels


GRADED_R = {0: 0.05, 1: 0.35, 2: 0.55, 3: 0.75}
POLAR_R = {0: 0.01, 1: 0.99, 2: 0.99, 3: 0.99}


def _mock_for(mapping):
    def score_fn(prompt):
        for grade, r in mapping.items():
            if f"marker-g{grade} " in prompt:
                return (_logit(r), 0.0)
        raise AssertionError(f"no marker in prompt: {prompt[-120:]}")

    return MockBackend(score_fn=score_fn, generate_fn=lambda p, s: "Hmm, weighing.</think>")


def test_criterion_5_protocol_reproduction_in_miniature():
    started = time.perf_counter()
    queries, corpus, candidates, qrels = _miniature_fixture()
    query_map = {q.id: q for q in queries}
    sampling = SamplingParams(max_tokens=16)

    results = {}
    for label, mapping, kind in (
        ("graded", GRADED_R, StrategyKind.DIRECT),
        ("polarized", POLAR_R, StrategyKind.REASON),
    ):
        scored, failures = score_candidates(
            _mock_for(mapping), DEFAULT_TEMPLATE, RerankStrategy(kind),
            query_map, corpus, candidates, sampling, base_seed=0, concurrency=4,
        )
        assert not failures
        run = rerank(candidates, scored, label)
        results[label] = {
            "ndcg": ndcg_at_k(run, qrels, k=10).mean,
            "report": classify(scored, qrels, score_threshold=0.5, grade_rule="gt2"),
            "dist": bin_scores([s.score for s in scored]),
        }

    graded, polarized = results["graded"], results["polarized"]

    # the graded scorer separates partial relevance and ranks perfectly
    assert graded["ndcg"] == 1.0
    assert polarized["ndcg"] < 1.0
    assert graded["ndcg"] > polarized["ndcg"]

    # the polarized scorer classifies at least as aggressively
    assert polarized["report"].recall >= graded["report"].recall

    # region fractions land exactly on their analytic values
    # graded: per query 7 low (0.05), 3 partial (0.35/0.55/0.75), 0 high
    # polarized: per query 7 low (0.01), 0 partial, 3 high (0.99)
    for dist, (low, partial, high) in (
        (graded["dist"], (0.7, 0.3, 0.0)),
        (polarized["dist"], (0.7, 0.0, 0.3)),
    ):
        assert abs(dist.low_fraction - low) <= 1e-12
        assert abs(dist.partial_fraction - partial) <= 1e-12
        assert abs(dist.high_fraction - high) <= 1e-12
    assert polarized["dist"].high_fraction > graded["dist"].high_fraction

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        "criterion 5 miniature protocol: PASS "
        f"(graded ndcg {graded['ndcg']:.3f} > polarized {polarized['ndcg']:.3f}, "
        f"recall {polarized['report'].recall:.2f} >= {graded['report'].recall:.2f}, "
        f"{elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 6: self-consistency
# ---------------------------------------------------------------------------


def _seeded_mock():
    def generate_fn(prompt, seed):
        return f"variant-{seed % 9} analysis </think>"

    def score_fn(prompt):
        for k in range(9):
            if f"variant-{k} " in prompt:
                return (0.5 * k - 2.0, 0.0)
        return (0.0, 0.0)

    return MockBackend(score_fn=score_fn, generate_fn=generate_fn)


def test_criterion_6_self_consistency(tmp_path):
    q, p = Query("q1", "question"), Passage("p1", "passage body")
    sampling = SamplingParams(temperature=0.7, top_p=0.95, max_tokens=16)

    # mean equals the analytic mean of the per-seed scores
    n = 8
    pair = score_pair(
        _seeded_mock(), DEFAULT_TEMPLATE, RerankStrategy(StrategyKind.SELF_CONSISTENCY, n), q, p,
        sampling, base_seed=42,
    )
    expected = []
    for i in range(n):
        seed = derive_seed(42, q.id, p.id, i)
        d = 0.5 * (seed % 9) - 2.0
        expected.append(1.0 / (1.0 + math.exp(-d)) if d >= 0 else math.exp(d) / (1 + math.exp(d)))
    assert pair.per_sample_scores == tuple(expected)
    assert abs(pair.score - math.fsum(expected) / n) <= 1e-12

    # per-sample seeds are reproducible: same derivation, same constants
    again = score_pair(
        _seeded_mock(), DEFAULT_TEMPLATE, RerankStrategy(StrategyKind.SELF_CONSISTENCY, n), q, p,
        sampling, base_seed=42,
    )
    assert again == pair
    assert derive_seed(0, "q1", "p1", 0) == 1467374414647989287

    # n=1 reduces to a single-sample reasoned run, byte-identically at the
    # run-file level and value-identically at the pair level
    single = score_pair(
        _seeded_mock(), DEFAULT_TEMPLATE, RerankStrategy(StrategyKind.SELF_CONSISTENCY, 1), q, p,
        sampling, base_seed=42,
    )
    reasoned = score_pair(
        _seeded_mock(), DEFAULT_TEMPLATE, RerankStrategy(StrategyKind.REASON), q, p,
        sampling, base_seed=42,
    )
    assert single.score == reasoned.score
    assert single.traces == reasoned.traces

    cand = [RunEntry("q1", "p1", 1, 1.0)]
    run_sc = tmp_path / "sc.run"
    run_rr = tmp_path / "rr.run"
    write_run(str(run_sc), rerank(cand, [single], "same-tag"))
    write_run(str(run_rr), rerank(
        cand, [ScoredPair(reasoned.query_id, reasoned.passage_id, reasoned.score)], "same-tag"
    ))
    assert run_sc.read_bytes() == run_rr.read_bytes()
    print("criterion 6 self-consistency: PASS (analytic mean, n=1 reduction, stable seeds)")


# ---------------------------------------------------------------------------
# criterion 7: classification
# ---------------------------------------------------------------------------


def test_criterion_7_classification():
    # planted confusion matrix: tp=30, fp=10, fn=20, tn=940
    for rule, positive_grade, negative_grade in (("gt2", 3, 2), ("ge2", 2, 1)):
        pairs, qrels = [], {"q": {}}
        counter = 0

        def plant(count, grade, score):
            nonlocal counter
            for _ in range(count):
                pid = f"p{counter}"
                counter += 1
                pairs.append(ScoredPair("q", pid, score))
                qrels["q"][pid] = grade

        plant(30, positive_grade, 0.9)   # tp
        plant(10, negative_grade, 0.9)   # fp
        plant(20, positive_grade, 0.1)   # fn
        plant(940, negative_grade, 0.1)  # tn

        report = classify(pairs, qrels, score_threshold=0.5, grade_rule=rule)
        assert (report.tp, report.fp, report.fn, report.tn) == (30, 10, 20, 940)
        assert abs(report.precision - 0.75) <= 1e-9
        assert abs(report.recall - 0.6) <= 1e-9
        assert abs(report.f1 - 2 / 3) <= 1e-9
    print("criterion 7 classification: PASS (P=0.75 R=0.6 F1=0.667 under gt2 and ge2)")


# ---------------------------------------------------------------------------
# criterion 8: BM25 sanity
# ---------------------------------------------------------------------------


def test_criterion_8_bm25_sanity():
    # hand-computed closed form: ln(4/3) * (1*1.9)/(1 + 0.9*1) = ln(4/3)
    index = build_index(
        Corpus((Passage("d", "a"),)), AnalyzerConfig(), Bm25Params(k1=0.9, b=0.4)
    )
    got = bm25_score(index, Query("q", "a"), 0)
    assert abs(got - math.log(4 / 3)) <= 1e-12

    # top-k agrees with the score-everything oracle on 100-doc corpora
    rng = random.Random(13)
    corpus = make_corpus(100, seed=41)
    index = build_index(corpus, AnalyzerConfig(), Bm25Params())
    for trial in range(12):
        source = corpus.passages[rng.randrange(corpus.size)].text.split()
        query = Query(f"q{trial}", " ".join(rng.sample(source, min(3, len(source)))))
        oracle = sorted(
            ((bm25_score(index, query, i), index.doc_ids[i]) for i in range(100)),
            key=lambda t: (-t[0], t[1]),
        )
        oracle = [(s, d) for s, d in oracle if s > 0.0][:10]
        got = [
            (c.score, c.passage_id)
            for c in retrieve_top_k(index, query, 10)
        ]
        assert got == oracle[: len(got)]
        assert len(got) == len(oracle)
    print("criterion 8 bm25 sanity: PASS (closed form + 12 oracle agreements)")
