"""Property-based invariants: file formats (the index file included) round-trip
exactly and a scored dump's lines are what ``json.dumps`` writes, reranking ignores
input order, the index build, its load-time ascent check, BM25 top-k (pruned, on
skewed vocabularies too) and NDCG match naive references, bins add up, the prompt fill substitutes each placeholder once, the
forced read is the open-think read after fixed think text, the mock transport answers
as the old in-process mock did, a rule-free hash table answers as the hash mock while
other tables keep their answers, and the CLI's per-query rerank writes what one
whole-run rerank writes."""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import operator
import os
import re
import string
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reranklab import (
    AnalyzerConfig,
    BackendError,
    Bm25Params,
    Corpus,
    DEFAULT_TEMPLATE,
    MockBackend,
    Passage,
    PromptMode,
    PromptTemplate,
    Query,
    ReasoningTrace,
    RerankStrategy,
    RunEntry,
    SamplingParams,
    ScoredPair,
    StrategyKind,
    assemble_prompt,
    bin_scores,
    bm25_score,
    build_index,
    load_index,
    ndcg_at_k,
    rerank,
    retrieve_top_k,
    save_index,
)
from reranklab import cli, types
from reranklab.backend import _pieces, load_mock_table
from reranklab.bm25 import TOKEN_PATTERN, _ascend_per_term
from reranklab.data import (
    iter_scored,
    load_corpus,
    load_qrels,
    load_queries,
    read_run,
    write_run,
    write_scored,
)
from reranklab.porter import porter_stem
from reranklab.prompts import decision_prompt
from reranklab.rerank import PairFailure, iter_scores, score_pair
from reranklab.types import ValidationError, validate_run

from conftest import expand_postings, write_qrels_file

ids = st.text(min_size=1, max_size=8)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
traces = st.builds(
    ReasoningTrace,
    text=st.text(max_size=40),
    terminated=st.booleans(),
    token_count=st.integers(min_value=0, max_value=4096),
)


@st.composite
def scored_pairs(draw):
    samples = draw(st.lists(unit, max_size=4))
    score = math.fsum(samples) / len(samples) if samples else draw(unit)
    return ScoredPair(
        draw(ids), draw(ids), score,
        traces=tuple(draw(st.lists(traces, max_size=3))),
        per_sample_scores=tuple(samples),
    )


@settings(max_examples=150, deadline=None)
@given(
    pairs=st.lists(scored_pairs(), min_size=1, max_size=6,
                   unique_by=lambda p: (p.query_id, p.passage_id)),
    strategy=st.text(max_size=20),
)
def test_scored_dump_roundtrip_is_exact(pairs, strategy):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scored.jsonl")
        write_scored(path, pairs, strategy)
        assert list(iter_scored(path)) == [(p, strategy) for p in pairs]


# non-ASCII, line and paragraph separators, control characters and JSON's own escapes
dump_text = st.text(max_size=30) | st.text(st.sampled_from(
    "a \u2028\u2029\x00\x1f\x7f\x85\n\r\t\"\\/é中\U0001f600"), max_size=30)
# subnormals and the two ends of the score range, beside ordinary scores
dump_unit = st.sampled_from([0.0, 1.0, 5e-324, 2.225073858507201e-308]) | unit


@st.composite
def dump_pairs(draw):
    samples = draw(st.lists(dump_unit, max_size=4))
    score = math.fsum(samples) / len(samples) if samples else draw(dump_unit)
    trace = st.builds(ReasoningTrace, text=dump_text, terminated=st.booleans(),
                      token_count=st.integers(min_value=0, max_value=4096))
    return ScoredPair(draw(dump_text), draw(dump_text), score,
                      traces=tuple(draw(st.lists(trace, max_size=3))),
                      per_sample_scores=tuple(samples))


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(dump_pairs(), min_size=1, max_size=4), strategy=dump_text)
def test_each_scored_line_is_json_dumps_of_its_record(pairs, strategy):
    records = [{
        "query_id": p.query_id, "passage_id": p.passage_id, "score": p.score,
        "per_sample_scores": list(p.per_sample_scores),
        "traces": [{"text": t.text, "terminated": t.terminated, "token_count": t.token_count}
                   for t in p.traces],
        "strategy": strategy,
    } for p in pairs]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scored.jsonl")
        write_scored(path, pairs, strategy)
        written = Path(path).read_bytes().decode("utf-8").split("\n")
    assert written == [json.dumps(r, ensure_ascii=False) for r in records] + [""]


@st.composite
def ranked_lists(draw):
    """Candidates for a few queries with ranks 1..k and non-increasing first-stage
    scores, and one outcome per pair: a relevance score (ties likely) or, for some
    pairs, a failure."""
    candidates, outcomes = [], []
    for qid in draw(st.lists(ids, min_size=1, max_size=3, unique=True)):
        pids = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
        stage1 = sorted(draw(st.lists(st.integers(0, 5), min_size=len(pids), max_size=len(pids))),
                        reverse=True)
        for rank, (pid, first_stage) in enumerate(zip(pids, stage1), start=1):
            candidates.append(RunEntry(qid, pid, rank, float(first_stage)))
            if draw(st.booleans()) and draw(st.booleans()):
                outcomes.append(PairFailure(qid, pid, "backend failure"))
            else:
                outcomes.append(ScoredPair(qid, pid, draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))))
    return candidates, outcomes


def naive_rerank(candidates, outcomes, tag):
    """Per query in id order: scored pairs by (-score, rank), then failed pairs by rank,
    each failed pair scored -rank."""
    rank = {(c.query_id, c.passage_id): c.rank for c in candidates}
    entries = []
    for qid in sorted({c.query_id for c in candidates}):
        mine = [o for o in outcomes if o.query_id == qid]
        scored = sorted((-o.score, rank[qid, o.passage_id], o.passage_id)
                        for o in mine if isinstance(o, ScoredPair))
        failed = sorted((rank[qid, o.passage_id], o.passage_id)
                        for o in mine if isinstance(o, PairFailure))
        rows = [(pid, -neg) for neg, _, pid in scored] + [(pid, -float(r)) for r, pid in failed]
        entries += [RunEntry(qid, pid, i, score, tag) for i, (pid, score) in enumerate(rows, 1)]
    return entries


@settings(max_examples=150, deadline=None)
@given(data=ranked_lists(), shuffle=st.randoms(use_true_random=False), depth=st.integers(1, 6))
def test_rerank_ignores_candidate_and_score_order(data, shuffle, depth):
    candidates, outcomes = data
    reference = naive_rerank(candidates, outcomes, "t")
    assert rerank(candidates, outcomes, "t") == reference
    candidates, outcomes = list(candidates), list(outcomes)
    shuffle.shuffle(candidates)
    shuffle.shuffle(outcomes)
    assert rerank(candidates, outcomes, "t") == reference
    # a rank prefix of each query's candidates against every outcome: the others are ignored
    prefix = [c for c in candidates if c.rank <= depth]
    kept = {(c.query_id, c.passage_id) for c in prefix}
    assert rerank(prefix, outcomes, "t") == naive_rerank(
        prefix, [o for o in outcomes if (o.query_id, o.passage_id) in kept], "t")


@settings(max_examples=150, deadline=None)
@given(data=ranked_lists(), shuffle=st.randoms(use_true_random=False))
def test_ranked_lists_restores_rank_order_of_any_shuffle(data, shuffle):
    run = data[0]
    shuffled = list(run)
    shuffle.shuffle(shuffled)
    lists = types.ranked_lists(shuffled)
    assert list(lists) == list(dict.fromkeys(e.query_id for e in shuffled))
    for qid, rows in lists.items():
        assert rows == sorted((e for e in run if e.query_id == qid), key=lambda e: e.rank)
    validate_run(shuffled)


# A small vocabulary so words repeat within and across passages; inflected
# forms so Porter merges some of them; case and punctuation for the analyzer.
WORDS = ("run", "runs", "running", "Runner", "cat", "cats", "the", "a", "connect",
         "connected", "connection", "relational", "caresses", "ponies", "x", "Café")


def naive_postings(corpus: Corpus, cfg: AnalyzerConfig) -> dict:
    """Stem every token with ``porter_stem`` and count with a plain dict."""
    rows: dict[str, list[tuple[int, int]]] = {}
    for ordinal, passage in enumerate(corpus.passages):
        text = passage.text.lower() if cfg.lowercase else passage.text
        counts: dict[str, int] = {}
        for word in TOKEN_PATTERN.findall(text):
            if cfg.stopwords and word in cfg.stopwords:
                continue
            term = porter_stem(word) if cfg.stemmer == "porter" else word
            counts[term] = counts.get(term, 0) + 1
        for term in sorted(counts):
            rows.setdefault(term, []).append((ordinal, counts[term]))
    return {term: tuple(r) for term, r in sorted(rows.items())}


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(st.lists(st.sampled_from(WORDS), max_size=12).map(" ,".join),
                   min_size=1, max_size=8),
    lowercase=st.booleans(),
    stopwords=st.frozensets(st.sampled_from(("the", "a", "cats", "x")), max_size=3),
    stemmer=st.sampled_from(("porter", "none")),
)
def test_build_index_matches_naive_postings(texts, lowercase, stopwords, stemmer):
    corpus = Corpus(tuple(Passage(f"d{i}", t) for i, t in enumerate(texts)))
    cfg = AnalyzerConfig(lowercase=lowercase, stopwords=stopwords, stemmer=stemmer)
    index = build_index(corpus, cfg, Bm25Params())
    expected = naive_postings(corpus, cfg)
    assert list(expand_postings(index.postings).items()) == list(expected.items())
    assert index.doc_lengths == tuple(
        sum(tf for rows in expected.values() for ordinal, tf in rows if ordinal == i)
        for i in range(len(texts))
    )


@settings(max_examples=100, deadline=None)
@given(
    texts=st.lists(st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join),
                   min_size=1, max_size=8),
    ids=st.lists(st.text(string.ascii_letters + "éß-", min_size=1, max_size=4),
                 min_size=8, max_size=8, unique=True),
    lowercase=st.booleans(),
    stopwords=st.frozensets(st.sampled_from(("the", "a", "cats", "x")), max_size=3),
    stemmer=st.sampled_from(("porter", "none")),
    k1=st.floats(min_value=0.01, max_value=4.0),
    b=st.floats(min_value=0.0, max_value=1.0),
    query=st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
)
def test_index_file_round_trip_is_exact(texts, ids, lowercase, stopwords, stemmer, k1, b, query):
    corpus = Corpus(tuple(Passage(i, t) for i, t in zip(ids, texts)))
    cfg = AnalyzerConfig(lowercase=lowercase, stopwords=stopwords, stemmer=stemmer)
    index = build_index(corpus, cfg, Bm25Params(k1=k1, b=b))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        save_index(index, first)
        save_index(index, second)
        with open(first, "rb") as fh1, open(second, "rb") as fh2:
            assert fh1.read() == fh2.read()
        with open(first, "rb") as fh:
            header = fh.readline().decode("utf-8")
        loaded = load_index(first)
    # the streamed header is the line one json.dumps call over the parsed object would write
    assert header == json.dumps(json.loads(header), sort_keys=True, ensure_ascii=False) + "\n"
    assert loaded == index
    assert ((loaded.postings.ordinals.typecode, loaded.postings.tfs.typecode)
            == (index.postings.ordinals.typecode, index.postings.tfs.typecode))
    q = Query("q", query)
    got = retrieve_top_k(loaded, q, len(texts))
    assert got == retrieve_top_k(index, q, len(texts))
    ordinals = {doc_id: i for i, doc_id in enumerate(loaded.doc_ids)}
    assert all(e.score == bm25_score(loaded, q, ordinals[e.passage_id]) for e in got)


@settings(max_examples=100, deadline=None)
@given(
    texts=st.lists(st.lists(st.sampled_from(WORDS), max_size=10).map(" ".join),
                   min_size=1, max_size=8),
    order=st.randoms(use_true_random=False),
    stopwords=st.frozensets(st.sampled_from(("the", "a", "cats", "x")), max_size=3),
    stemmer=st.sampled_from(("porter", "none")),
    query=st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
)
def test_shared_columns_round_trip_and_rank_as_the_naive_rows(texts, order, stopwords, stemmer,
                                                              query):
    doc_ids = [f"d{i}" for i in range(len(texts))]
    order.shuffle(doc_ids)  # so ties do not break in ordinal order
    corpus = Corpus(tuple(Passage(i, t) for i, t in zip(doc_ids, texts)))
    cfg = AnalyzerConfig(stopwords=stopwords, stemmer=stemmer)
    built = build_index(corpus, cfg, Bm25Params())
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        save_index(built, first)
        loaded = load_index(first)
        save_index(loaded, second)
        with open(first, "rb") as fh1, open(second, "rb") as fh2:
            assert fh1.read() == fh2.read()
    assert built == loaded and loaded == built
    expected = naive_postings(corpus, cfg)
    q = Query("q", query)
    for index in (built, loaded):
        assert expand_postings(index.postings) == expected
        scored = ((bm25_score(index, q, i), index.doc_ids[i]) for i in range(index.doc_count))
        ranked = sorted(((s, d) for s, d in scored if s > 0.0), key=lambda t: (-t[0], t[1]))
        for k in sorted({1, max(1, len(ranked) - 1), len(ranked) + 1}):
            got = retrieve_top_k(index, q, k)
            assert [(c.score, c.passage_id) for c in got] == ranked[:k]


@settings(max_examples=300, deadline=None)
@given(
    runs=st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
                  max_size=5),
    code=st.sampled_from("BHIQ"),
)
def test_ascent_check_matches_a_per_term_check(runs, code):
    ordinals = array(code, [o for run in runs for o in run])
    ends = array("Q", itertools.accumulate(map(len, runs)))
    per_term = all(all(map(operator.lt, run, run[1:])) for run in runs)
    assert _ascend_per_term(ordinals, ends) == per_term


@st.composite
def tied_retrievals(draw):
    """A corpus over 3-5 words, so equal scores are common; a query; k in 1..N+2."""
    vocab = draw(st.lists(st.sampled_from(("cat", "dog", "emu", "fox", "gnu")),
                          min_size=3, max_size=5, unique=True))
    texts = draw(st.lists(st.lists(st.sampled_from(vocab), max_size=5).map(" ".join),
                          min_size=1, max_size=10))
    ids = draw(st.permutations([f"d{i}" for i in range(len(texts))]))
    corpus = Corpus(tuple(Passage(i, t) for i, t in zip(ids, texts)))
    query = Query("q", " ".join(draw(st.lists(st.sampled_from(vocab + ["yak"]),
                                              min_size=1, max_size=4))))
    params = Bm25Params(b=draw(st.sampled_from((0.0, 0.4, 1.0))))
    return corpus, params, query, draw(st.integers(1, len(texts) + 2))


@settings(max_examples=300, deadline=None)
@given(data=tied_retrievals())
def test_retrieve_top_k_equals_full_sort_of_bm25_score(data):
    corpus, params, query, k = data
    index = build_index(corpus, AnalyzerConfig(), params)
    scored = ((bm25_score(index, query, i), index.doc_ids[i]) for i in range(index.doc_count))
    expected = sorted(((s, d) for s, d in scored if s > 0.0), key=lambda t: (-t[0], t[1]))[:k]
    for _ in ("cold", "warm"):  # the second query reads the impacts the first one cached
        got = retrieve_top_k(index, query, k)
        assert [(c.score, c.passage_id) for c in got] == expected
        assert [c.rank for c in got] == list(range(1, len(got) + 1))


@st.composite
def skewed_retrievals(draw):
    """Passages over a Zipf-skewed vocabulary, so a few words are in most of them.

    Some passages are copies of others, so equal scores are common; the query
    may repeat a word or hold one the index lacks; k is 1..5.
    """
    rng = draw(st.randoms(use_true_random=False))
    vocab = [f"w{i}" for i in range(40)]
    weights = [1 / rank for rank in range(1, len(vocab) + 1)]
    texts = [" ".join(rng.choices(vocab, weights, k=rng.randint(1, 12)))
             for _ in range(draw(st.integers(4, 40)))]
    texts += [texts[i] for i in draw(st.lists(st.integers(0, len(texts) - 1), max_size=6))]
    ids = draw(st.permutations([f"d{i}" for i in range(len(texts))]))
    corpus = Corpus(tuple(Passage(i, t) for i, t in zip(ids, texts)))
    words = st.sampled_from(vocab[:3] + vocab + ["yak"])  # the common words drawn more often
    query = Query("q", " ".join(draw(st.lists(words, min_size=1, max_size=6))))
    params = Bm25Params(b=draw(st.sampled_from((0.0, 0.4, 1.0))))
    return corpus, params, query, draw(st.integers(1, 5))


@settings(max_examples=200, deadline=None)
@given(data=skewed_retrievals())
def test_pruned_top_k_equals_full_sort_of_bm25_score(data):
    corpus, params, query, k = data
    built = build_index(corpus, AnalyzerConfig(), params)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index")
        save_index(built, path)
        loaded = load_index(path)
    for index in (built, loaded):
        scored = ((bm25_score(index, query, i), index.doc_ids[i]) for i in range(index.doc_count))
        expected = sorted(((s, d) for s, d in scored if s > 0.0), key=lambda t: (-t[0], t[1]))[:k]
        for _ in ("cold", "warm"):  # the second query reads the impacts the first one cached
            got = retrieve_top_k(index, query, k)
            assert [(c.score, c.passage_id) for c in got] == expected
            assert [c.rank for c in got] == list(range(1, len(got) + 1))


def oracle_dcg(grades, k, gain):
    # added in rank order: from Python 3.12, sum() of floats compensates its rounding
    total = 0.0
    for i, g in enumerate(grades[:k], start=1):
        total += (2**g - 1 if gain == "exponential" else g) / math.log2(i + 1)
    return total


@st.composite
def judged_runs(draw):
    """Runs over a few queries, each a shuffled mix of judged and unjudged
    passages, with judgments that may name passages the run never retrieved."""
    run, judgments = [], {}
    for q in range(draw(st.integers(1, 3))):
        qid = f"q{q}"
        grades = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
        judgments[qid] = {f"p{i}": g for i, g in enumerate(grades)}
        pool = [f"p{i}" for i in range(len(grades))] + [f"u{i}" for i in range(3)]
        retrieved = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        run += [RunEntry(qid, pid, rank, float(-rank), "t")
                for rank, pid in enumerate(retrieved, start=1)]
    return run, judgments


@settings(max_examples=150, deadline=None)
@given(data=judged_runs(), k=st.integers(1, 8), gain=st.sampled_from(("exponential", "linear")))
def test_ndcg_in_unit_interval_and_matches_brute_force(data, k, gain):
    run, judgments = data
    report = ndcg_at_k(run, judgments, k=k, gain=gain)
    for qid, grades in judgments.items():
        ranked = [grades.get(e.passage_id, 0) for e in run if e.query_id == qid]
        ideal = max(oracle_dcg(list(p), k, gain) for p in itertools.permutations(grades.values()))
        want = oracle_dcg(ranked, k, gain) / ideal if ideal else 0.0
        assert 0.0 <= report.per_query[qid] <= 1.0
        assert math.isclose(report.per_query[qid], want, rel_tol=1e-12, abs_tol=1e-12)
        if ideal:  # exactly: each DCG summed in rank order, the ideal over the sorted grades
            assert report.per_query[qid] == (
                oracle_dcg(ranked, k, gain) / oracle_dcg(sorted(grades.values(), reverse=True),
                                                         k, gain))
    assert 0.0 <= report.mean <= 1.0
    assert report.evaluated == len(judgments) - len(report.skipped)


ids_no_space = st.text(string.ascii_letters + string.digits + "-_.:", min_size=1, max_size=8)
# values with at most six decimals: the run file's ``score:.6f`` keeps them exact
six_decimals = st.integers(-10**9, 10**9).map(lambda n: n / 10**6)


@st.composite
def runs(draw):
    entries, tag = [], draw(ids_no_space)
    for qid in draw(st.lists(ids_no_space, min_size=1, max_size=3, unique=True)):
        pids = draw(st.lists(ids_no_space, min_size=1, max_size=5, unique=True))
        scores = sorted(draw(st.lists(six_decimals, min_size=len(pids), max_size=len(pids))),
                        reverse=True)
        entries += [RunEntry(qid, pid, rank, score, tag)
                    for rank, (pid, score) in enumerate(zip(pids, scores), start=1)]
    return entries


@settings(max_examples=150, deadline=None)
@given(entries=runs())
def test_run_file_roundtrip_is_exact(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.run")
        write_run(path, entries)
        assert read_run(path) == entries


score_texts = st.one_of(
    six_decimals.map(str),
    st.floats().map(repr),  # includes nan, inf and -inf
    st.sampled_from(["NaN", "-inf", "1e999", "-0"]),
)


@st.composite
def run_files(draw):
    """Run-file lines: mostly contiguous ranks per query, any score text, any order."""
    lines = []
    for qid in draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)):
        pids = draw(st.lists(st.sampled_from("wxyz"), min_size=1, max_size=4, unique=True))
        n = len(pids)
        ranks = draw(st.one_of(
            st.permutations(range(1, n + 1)), st.lists(st.integers(0, 5), min_size=n, max_size=n)
        ))
        lines += [f"{qid} Q0 {pid} {rank} {draw(score_texts)} t\n"
                  for pid, rank in zip(pids, ranks)]
    return draw(st.permutations(lines))


@settings(max_examples=300, deadline=None)
@given(lines=run_files())
def test_read_run_accepts_only_ranked_lists_with_finite_scores(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.run")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        try:
            entries = read_run(path)
        except ValidationError:
            return
    assert all(math.isfinite(e.score) for e in entries)
    validate_run(entries)


@settings(max_examples=150, deadline=None)
@given(judgments=st.dictionaries(
    ids_no_space, st.dictionaries(ids_no_space, st.integers(0, 4), min_size=1, max_size=5),
    min_size=1, max_size=4,
))
def test_qrels_roundtrip_is_exact(judgments):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "qrels.txt")
        write_qrels_file(path, judgments)
        assert load_qrels(path) == judgments


@settings(max_examples=150, deadline=None)
@given(scores=st.lists(unit, min_size=1, max_size=50))
def test_bin_counts_sum_to_total(scores):
    dist = bin_scores(scores)
    assert sum(dist.bin_counts) == dist.total == len(scores)
    assert math.isclose(dist.low_fraction + dist.partial_fraction + dist.high_fraction, 1.0)
    assert dist.low_fraction == sum(s < 0.1 for s in scores) / len(scores)
    assert dist.high_fraction == sum(s >= 0.9 for s in scores) / len(scores)


# placeholder-like pieces in the values must come through verbatim
fill_values = st.lists(
    st.sampled_from(["{query}", "{passage}", "{", "}", "query", "a", " ", "\n", "é"]), max_size=6
).map("".join)
template_text = st.text(alphabet="ab{} \n", max_size=6)


def partition_fill(user: str, query_text: str, passage_text: str) -> str:
    """Replace each placeholder of ``user`` once, splitting only the template."""
    (first, first_text), (second, second_text) = sorted(
        [("{query}", query_text), ("{passage}", passage_text)], key=lambda p: user.index(p[0])
    )
    head, _, rest = user.partition(first)
    middle, _, tail = rest.partition(second)
    return head + first_text + middle + second_text + tail


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(template_text, min_size=3, max_size=3),
    query_first=st.booleans(),
    query_text=fill_values,
    passage_text=fill_values,
    mode=st.sampled_from(PromptMode),
)
def test_prompt_fill_is_a_single_literal_pass(parts, query_first, query_text, passage_text, mode):
    order = ("{query}", "{passage}") if query_first else ("{passage}", "{query}")
    user = parts[0] + order[0] + parts[1] + order[1] + parts[2]
    template = PromptTemplate(user=user)
    prompt = assemble_prompt(template, query_text, passage_text, mode)
    segment = prompt.split("<|im_start|>user\n", 1)[1]
    segment = segment.rsplit("\n<|im_end|>\n<|im_start|>assistant\n", 1)[0]
    assert segment == partition_fill(user, query_text, passage_text)


marker = st.text(alphabet="<>/think \n", min_size=1, max_size=8)
block_text = st.text(alphabet="ab<>/ \n{}", max_size=10)


@settings(max_examples=200, deadline=None)
@given(think_open=marker, think_close=marker, forced_body=block_text,
       answer_scaffold=block_text, query_text=fill_values.filter(bool), passage_text=fill_values)
def test_forced_read_is_the_open_think_read_after_fixed_text(
        think_open, think_close, forced_body, answer_scaffold, query_text, passage_text):
    template = PromptTemplate(think_open=think_open, think_close=think_close,
                              forced_body=forced_body, answer_scaffold=answer_scaffold)
    read = decision_prompt(
        template, assemble_prompt(template, query_text, passage_text, PromptMode.OPEN_THINK),
        "\n" + forced_body + "\n",
    )
    forced = assemble_prompt(template, query_text, passage_text, PromptMode.FORCED_THINK)
    assert forced + answer_scaffold == read
    seen = []
    mock = MockBackend(score_fn=lambda prompt: (seen.append(prompt), (0.0, 0.0))[1])
    score_pair(mock, template, RerankStrategy(StrategyKind.FORCED_NO_REASON, max_passage_chars=0),
               Query("q", query_text), Passage("p", passage_text), SamplingParams())
    assert seen == [read]


STOP = DEFAULT_TEMPLATE.think_close
# \x1c-\x1f, \x85, \xa0, \u2028 and \u3000 are Unicode whitespace; \u200b only looks like it
reasoning_text = st.text(st.sampled_from(
    " \n\tab</>think\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\u200b"), max_size=160) | st.text(max_size=40)


@settings(max_examples=300, deadline=None)
@given(body=reasoning_text, tail=st.none() | st.text(max_size=20), budget=st.integers(1, 64))
@example(body="", tail=" after", budget=1)  # the marker at position 0
@example(body="one two three", tail="", budget=3)  # exactly at budget, marker present
@example(body="one two three", tail=None, budget=3)  # exactly at budget, no marker
@example(body="\x1cone\x85two\u2028", tail="", budget=3)  # leading Unicode space is a piece
@example(body="\u3000\xa0a\u200bb\x1f", tail="", budget=1)  # one over budget: cut, not stopped
@example(body="\u200bone\u200b two", tail="", budget=2)  # zero-width space is not a break
def test_mock_generation_cuts_at_the_marker_then_the_budget(body, tail, budget):
    raw = body if tail is None else body + STOP + tail
    head, marker, _ = raw.partition(STOP)
    pieces = _pieces(head)
    mock = MockBackend(generate_fn=lambda prompt, seed: raw)
    trace = mock.generate("prompt<think>", SamplingParams(max_tokens=budget), STOP)
    assert head.startswith(trace.text)
    assert trace.terminated == (bool(marker) and len(pieces) <= budget)
    assert trace.token_count == len(_pieces(trace.text))
    assert trace.text == "".join(pieces[:budget])


def test_pieces_break_where_str_split_does():
    """The mock counts an in-budget trace's pieces as ``len(head.split())`` plus one for
    leading space; that is ``len(_pieces(head))`` only while re's ``\\s`` is ``str.isspace``."""
    space = re.compile(r"\s")
    assert [c for c in map(chr, range(0x110000)) if c.isspace() != bool(space.match(c))] == []


logits = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(z=st.tuples(logits, logits), prompt=st.text(min_size=1, max_size=40))
def test_mock_score_decision_returns_the_score_fn_logits_exactly(z, prompt):
    read = MockBackend(score_fn=lambda p: z).score_decision(prompt)
    assert (read.true_logit.hex(), read.false_logit.hex()) == (z[0].hex(), z[1].hex())


def _mock_table(table: dict) -> MockBackend:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mock.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh)
        return load_mock_table(path)


seeds = st.none() | st.integers(0, 2**63 - 1)


@settings(max_examples=150, deadline=None)
@given(prompt=st.text(min_size=1, max_size=80), seed=seeds, budget=st.integers(1, 16))
def test_a_rule_free_hash_table_answers_as_the_hash_mock(prompt, seed, budget):
    hash_mock, sampling = MockBackend(), SamplingParams(max_tokens=budget)
    for table in ({"default_logits": "hash"},
                  {"single_token_vocab": ["true", "false"], "default_logits": "hash", "rules": []}):
        mock = _mock_table(table)
        assert mock.score_decision(prompt) == hash_mock.score_decision(prompt)
        assert (mock.generate(prompt, sampling, STOP, seed)
                == hash_mock.generate(prompt, sampling, STOP, seed))


RULED_TABLE = {"default_logits": "hash", "rules": [
    {"contains": ["boom"], "fail": True},
    {"contains": ["cat", "hat"], "logits": [2.0, 0.0], "reasoning": "cat {seed}</think>"},
    {"contains": ["cat"], "reasoning": "just a cat</think>"},
]}


@settings(max_examples=150, deadline=None)
@given(prompt=st.text(st.sampled_from("a cthbom"), min_size=1, max_size=16), seed=seeds)
@example(prompt="boom cat hat", seed=1)  # the first matching rule wins, and it fails
@example(prompt="a cat in a hat", seed=None)
@example(prompt="cat", seed=7)
def test_tables_with_fixed_answers_or_rules_keep_their_meaning(prompt, seed):
    hash_mock, sampling = MockBackend(), SamplingParams(max_tokens=64)
    hashed = hash_mock.generate(prompt, sampling, STOP, seed)

    fixed = _mock_table({"default_logits": [1.5, -0.5]})
    assert fixed.score_decision(prompt) == types.DecisionLogits(1.5, -0.5)
    assert fixed.generate(prompt, sampling, STOP, seed) == hashed
    assert _mock_table({}).score_decision(prompt) == types.DecisionLogits(0.0, 0.0)

    seeded = _mock_table({"default_logits": "hash", "default_reasoning": "seed {seed} says no"
                                                                         "</think>tail"})
    assert seeded.score_decision(prompt) == hash_mock.score_decision(prompt)
    assert seeded.generate(prompt, sampling, STOP, seed) == ReasoningTrace(
        f"seed {seed} says no", True, 4)

    ruled = _mock_table(RULED_TABLE)
    if "boom" in prompt:
        with pytest.raises(BackendError, match="^mock rule requested a failure$"):
            ruled.score_decision(prompt)
        with pytest.raises(BackendError, match="^mock rule requested a failure$"):
            ruled.generate(prompt, sampling, STOP, seed)
    elif "cat" in prompt:
        hat = "hat" in prompt
        assert ruled.score_decision(prompt) == (types.DecisionLogits(2.0, 0.0) if hat
                                                else hash_mock.score_decision(prompt))
        assert ruled.generate(prompt, sampling, STOP, seed) == (
            ReasoningTrace(f"cat {seed}", True, 2) if hat else ReasoningTrace("just a cat", True, 3))
    else:
        assert ruled.score_decision(prompt) == hash_mock.score_decision(prompt)
        assert ruled.generate(prompt, sampling, STOP, seed) == hashed


@st.composite
def interleaved_runs(draw):
    """A first-stage run file's lines, its queries interleaved and out of id order, and the
    mock rules: some passages fail, some share fixed logits so their scores tie."""
    qids = draw(st.lists(st.sampled_from("qzabcm") | st.text("0123456789q", min_size=1,
                                                                  max_size=3),
                         min_size=1, max_size=4, unique=True))
    rows = []
    for qid in qids:
        pids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True))
        rows += [(qid, f"p{pid}", rank) for rank, pid in enumerate(pids, start=1)]
    order = draw(st.permutations(rows))
    lines = [f"{qid} Q0 {pid} {rank} {100 - rank:.6f} bm25\n" for qid, pid, rank in order]
    rules = [{"contains": [f"Passage: about p{pid} here\n"], "fail": True}
             for pid in draw(st.sets(st.integers(0, 9), max_size=4))]
    rules += [{"contains": [f"Passage: about p{pid} here\n"], "logits": [1.0, 0.0]}
              for pid in draw(st.sets(st.integers(0, 9), max_size=4))]
    return lines, qids, rules


@settings(max_examples=60, deadline=None)
@given(run=interleaved_runs())
def test_cli_per_query_rerank_writes_what_one_whole_run_rerank_writes(run):
    lines, qids, rules = run
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "corpus.jsonl").write_text("".join(
            json.dumps({"id": f"p{i}", "text": f"about p{i} here"}) + "\n" for i in range(10)))
        (d / "queries.jsonl").write_text("".join(
            json.dumps({"id": qid, "text": f"question {qid}"}) + "\n" for qid in qids))
        (d / "first.run").write_text("".join(lines))
        (d / "mock.json").write_text(json.dumps({
            "single_token_vocab": ["true", "false"], "default_logits": "hash", "rules": rules}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["rerank", "--corpus", str(d / "corpus.jsonl"),
                             "--queries", str(d / "queries.jsonl"),
                             "--run-in", str(d / "first.run"), "--strategy", "direct",
                             "--backend", f"mock:{d / 'mock.json'}", "--allow-partial",
                             "--out-dir", str(d / "out")]) == 0

        candidates = read_run(str(d / "first.run"))
        # each query's rows together, queries in the order of their first row in the file:
        # ranked_lists flattened, the order in which cmd_rerank takes the stream query by query
        first_rows = dict.fromkeys(line.split()[0] for line in lines)
        assert candidates == [e for qid in first_rows for e in types.ranked_lists(candidates)[qid]]
        outcomes = list(iter_scores(
            load_mock_table(str(d / "mock.json")), DEFAULT_TEMPLATE,
            RerankStrategy(StrategyKind.DIRECT), {q.id: q for q in load_queries(
                str(d / "queries.jsonl"))},
            load_corpus(str(d / "corpus.jsonl")), candidates, SamplingParams(),
            allow_partial=True,
        ))
        write_run(str(d / "whole.run"), rerank(candidates, outcomes, "direct"))
        assert (d / "out" / "direct.run").read_bytes() == (d / "whole.run").read_bytes()
        failures = "".join(json.dumps(dataclasses.asdict(o)) + "\n" for o in outcomes
                           if isinstance(o, PairFailure))
        written = d / "out" / "direct_failures.jsonl"
        assert (written.read_text() if written.exists() else "") == failures
