"""Property-based invariants: file formats (the index file included) round-trip
exactly, reranking ignores input order, the index build, BM25 top-k and NDCG
match naive references, bins add up, the prompt fill substitutes each
placeholder once, and the mock transport answers as the old in-process mock
did."""

import itertools
import math
import os
import string
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reranklab import (
    AnalyzerConfig,
    Bm25Params,
    Corpus,
    DEFAULT_TEMPLATE,
    MockBackend,
    Passage,
    PromptMode,
    PromptTemplate,
    Query,
    ReasoningTrace,
    RunEntry,
    SamplingParams,
    ScoredPair,
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
from reranklab import types
from reranklab.backend import _pieces
from reranklab.bm25 import TOKEN_PATTERN
from reranklab.data import load_qrels, read_run, read_scored, write_qrels, write_run, write_scored
from reranklab.porter import porter_stem
from reranklab.types import ValidationError, validate_run

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
        assert read_scored(path) == (pairs, strategy)


@st.composite
def ranked_lists(draw):
    """Candidates for a few queries with ranks 1..k and non-increasing first-stage
    scores, a relevance score per pair (ties likely) and a subset of failed pairs."""
    candidates, scores, failed = [], [], set()
    for qid in draw(st.lists(ids, min_size=1, max_size=3, unique=True)):
        pids = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
        stage1 = sorted(draw(st.lists(st.integers(0, 5), min_size=len(pids), max_size=len(pids))),
                        reverse=True)
        for rank, (pid, first_stage) in enumerate(zip(pids, stage1), start=1):
            candidates.append(RunEntry(qid, pid, rank, float(first_stage)))
            if draw(st.booleans()) and draw(st.booleans()):
                failed.add((qid, pid))
            else:
                scores.append(ScoredPair(qid, pid, draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))))
    return candidates, scores, frozenset(failed)


@settings(max_examples=150, deadline=None)
@given(data=ranked_lists(), shuffle=st.randoms(use_true_random=False))
def test_rerank_ignores_candidate_and_score_order(data, shuffle):
    candidates, scores, failed = data
    reference = rerank(candidates, scores, "t", failed=failed)
    candidates, scores = list(candidates), list(scores)
    shuffle.shuffle(candidates)
    shuffle.shuffle(scores)
    assert rerank(candidates, scores, "t", failed=failed) == reference


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
    assert list(index.postings.items()) == list(expected.items())
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
        loaded = load_index(first)
    assert loaded == index
    q = Query("q", query)
    got = retrieve_top_k(loaded, q, len(texts))
    assert got == retrieve_top_k(index, q, len(texts))
    ordinals = {doc_id: i for i, doc_id in enumerate(loaded.doc_ids)}
    assert all(e.score == bm25_score(loaded, q, ordinals[e.passage_id]) for e in got)


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


def oracle_dcg(grades, k, gain):
    return sum((2**g - 1 if gain == "exponential" else g) / math.log2(i + 1)
               for i, g in enumerate(grades[:k], start=1))


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
        write_qrels(path, judgments)
        assert load_qrels(path) == judgments


@settings(max_examples=150, deadline=None)
@given(scores=st.lists(unit, min_size=1, max_size=50))
def test_bin_counts_sum_to_total(scores):
    dist = bin_scores(scores)
    assert sum(dist.counts) == dist.total == len(scores)
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


STOP = DEFAULT_TEMPLATE.think_close
reasoning_text = st.text(st.sampled_from(" \n\tab</>think"), max_size=160) | st.text(max_size=40)


@settings(max_examples=300, deadline=None)
@given(body=reasoning_text, tail=st.none() | st.text(max_size=20), budget=st.integers(1, 64))
@example(body="", tail=" after", budget=1)  # the marker at position 0
@example(body="one two three", tail="", budget=3)  # exactly at budget, marker present
@example(body="one two three", tail=None, budget=3)  # exactly at budget, no marker
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


logits = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(z=st.tuples(logits, logits), prompt=st.text(min_size=1, max_size=40))
def test_mock_score_decision_returns_the_score_fn_logits_exactly(z, prompt):
    read = MockBackend(score_fn=lambda p: z).score_decision(prompt)
    assert (read.true_logit.hex(), read.false_logit.hex()) == (z[0].hex(), z[1].hex())
