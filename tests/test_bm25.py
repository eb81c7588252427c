import dataclasses
import gc
import json
import math
import random
import struct
import sys
import threading
import tracemalloc
from array import array
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import FunctionType, ModuleType
from unittest import mock

import pytest

from reranklab import (
    AnalyzerConfig,
    Bm25Params,
    Corpus,
    Passage,
    Query,
    ValidationError,
    bm25_score,
    build_index,
    load_index,
    retrieve_top_k,
    save_index,
    tokenize,
)

import reranklab.bm25 as bm25_module
from reranklab.bm25 import Postings
from reranklab.porter import porter_stem

from conftest import expand_postings, make_corpus, make_queries

CFG = AnalyzerConfig()
PARAMS = Bm25Params()  # k1=0.9, b=0.4

# tiny_index.json pins the v3 file bytes for this corpus and analyzer: stemming
# merges words, stopwords drop (d4 keeps no token at all), d3 has non-ASCII text.
GOLDEN_INDEX = Path(__file__).parent / "golden" / "tiny_index.json"
GOLDEN_CFG = AnalyzerConfig(stopwords=frozenset({"the", "a", "of", "on"}), stemmer="porter")
GOLDEN_CORPUS = Corpus((
    Passage("d1", "The runners were running; a runner runs."),
    Passage("d2", "Connected connections connecting the connection"),
    Passage("d3", "Café résumé naïve: generalizations of generalization"),
    Passage("d4", "the of a on"),
    Passage("d5", "Relational hopefulness, caresses, ponies and cats"),
))


class TestTokenize:
    def test_lowercase_split(self):
        assert tokenize("Jammed finger vs. broken finger", CFG) == [
            "jammed", "finger", "vs", "broken", "finger",
        ]

    def test_empty(self):
        assert tokenize("", CFG) == []

    def test_alphanumeric_runs(self):
        assert tokenize("A100 GPUs!", CFG) == ["a100", "gpus"]

    def test_underscore_is_a_separator(self):
        assert tokenize("foo_bar", CFG) == ["foo", "bar"]

    def test_stopwords_and_stemmer(self):
        cfg = AnalyzerConfig(stopwords=frozenset({"the"}), stemmer="porter")
        assert tokenize("the cats jammed", cfg) == ["cat", "jam"]

    def test_no_lowercase(self):
        cfg = AnalyzerConfig(lowercase=False)
        assert tokenize("Foo foo", cfg) == ["Foo", "foo"]

    def test_deterministic(self):
        text = "Repeatedly tokenizing the SAME text, 42 times!"
        first = tokenize(text, CFG)
        for _ in range(5):
            assert tokenize(text, CFG) == first

    def test_bad_stemmer_rejected(self):
        with pytest.raises(ValidationError):
            AnalyzerConfig(stemmer="snowball")


class TestBuildIndex:
    def test_counts(self):
        corpus = Corpus((Passage("a", "x"), Passage("b", "y"), Passage("c", "z")))
        index = build_index(corpus, CFG, PARAMS)
        assert index.doc_count == 3
        assert index.length_norms == (PARAMS.k1,) * 3  # every length is the average

    def test_postings_shape(self):
        corpus = Corpus((Passage("p0", "a b"), Passage("p1", "a")))
        index = build_index(corpus, CFG, PARAMS)
        assert expand_postings(index.postings) == {"a": ((0, 1), (1, 1)), "b": ((0, 1),)}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_index(Corpus(()), CFG, PARAMS)

    def test_corpus_without_tokens(self):
        # every word is a stopword: no postings, average length 0
        cfg = AnalyzerConfig(stopwords=frozenset({"the", "of"}))
        index = build_index(Corpus((Passage("a", "the"), Passage("b", "of the"))), cfg, PARAMS)
        assert index.length_norms == (PARAMS.k1 * (1.0 - PARAMS.b),) * 2
        assert expand_postings(index.postings) == {}
        assert retrieve_top_k(index, Query("q", "the cat"), 5) == []
        assert bm25_score(index, Query("q", "the cat"), 1) == 0.0

    def test_duplicate_ids_rejected_at_corpus(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Corpus((Passage("a", "x"), Passage("a", "y")))

    def test_each_distinct_word_stemmed_once_per_build(self, monkeypatch, tiny_corpus):
        calls = []

        def counting_stem(word):
            calls.append(word)
            return porter_stem(word)

        monkeypatch.setattr(bm25_module, "porter_stem", counting_stem)
        cfg = AnalyzerConfig(stemmer="porter")
        build_index(tiny_corpus, cfg, PARAMS)
        words = [w for p in tiny_corpus.passages for w in tokenize(p.text, CFG)]
        assert len(set(words)) < len(words)
        assert sorted(calls) == sorted(set(words))
        build_index(tiny_corpus, cfg, PARAMS)  # the memo does not outlive a build
        assert len(calls) == 2 * len(set(words))

    def test_rebuild_identical(self, tmp_path, tiny_corpus):
        p1, p2 = tmp_path / "i1.json", tmp_path / "i2.json"
        save_index(build_index(tiny_corpus, CFG, PARAMS), str(p1))
        save_index(build_index(tiny_corpus, CFG, PARAMS), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestScore:
    def test_no_matching_terms_scores_zero(self, tiny_corpus):
        index = build_index(tiny_corpus, CFG, PARAMS)
        assert bm25_score(index, Query("q", "xylophone"), 0) == 0.0

    def test_single_doc_closed_form(self):
        # one doc "a", query "a": tf=1, dl=avgdl=1, df=1, N=1
        # idf = ln(1 + 0.5/1.5) = ln(4/3); tf term = 1.9/(1 + 0.9) = 1
        index = build_index(Corpus((Passage("d", "a"),)), CFG, PARAMS)
        got = bm25_score(index, Query("q", "a"), 0)
        assert abs(got - math.log(4 / 3)) <= 1e-12

    def test_tf_saturation_monotone_and_bounded(self):
        # same term repeated more often never lowers the score, and the
        # score stays under the idf * (k1 + 1) asymptote
        scores = []
        for tf in (1, 2, 4, 8, 16):
            corpus = Corpus(
                (Passage("d", " ".join(["cat"] * tf)), Passage("e", "dog " * 5))
            )
            index = build_index(corpus, CFG, PARAMS)
            scores.append(bm25_score(index, Query("q", "cat"), 0))
            lo, hi = index.postings.span("cat")
            bound = index._idf(hi - lo) * (PARAMS.k1 + 1.0)
            assert scores[-1] < bound
        assert all(b >= a for a, b in zip(scores, scores[1:]))

    def test_score_nonnegative(self, tiny_corpus):
        index = build_index(tiny_corpus, CFG, PARAMS)
        q = Query("q", "the cat dog quantum")
        for i in range(index.doc_count):
            assert bm25_score(index, q, i) >= 0.0

    def test_ordinal_bounds(self, tiny_corpus):
        index = build_index(tiny_corpus, CFG, PARAMS)
        with pytest.raises(ValidationError):
            bm25_score(index, Query("q", "cat"), 99)


class TestRetrieve:
    def test_k_larger_than_corpus(self, tiny_corpus):
        index = build_index(tiny_corpus, CFG, PARAMS)
        hits = retrieve_top_k(index, Query("q", "cat"), 100)
        assert 0 < len(hits) < 100
        assert [c.rank for c in hits] == list(range(1, len(hits) + 1))

    def test_tie_broken_by_ascending_id(self):
        corpus = Corpus((Passage("zz", "cat"), Passage("aa", "cat")))
        index = build_index(corpus, CFG, PARAMS)
        hits = retrieve_top_k(index, Query("q", "cat"), 2)
        assert [c.passage_id for c in hits] == ["aa", "zz"]
        assert hits[0].score == hits[1].score

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_ties_cut_at_k_by_ascending_id(self, k):
        ids = ["p3", "p0", "p4", "p1", "p2"]
        corpus = Corpus(tuple(Passage(i, "cat") for i in ids) + (Passage("x", "dog"),))
        hits = retrieve_top_k(build_index(corpus, CFG, PARAMS), Query("q", "cat"), k)
        assert [c.passage_id for c in hits] == sorted(ids)[:k]
        assert len({c.score for c in hits}) == 1

    @pytest.mark.parametrize("text", ["cat cat", "cat dog cat"])
    def test_repeated_query_token_sums_in_query_order(self, tiny_corpus, text):
        index = build_index(tiny_corpus, CFG, PARAMS)
        hits = retrieve_top_k(index, Query("q", text), 10)
        by_id = {c.passage_id: c.score for c in hits}
        assert all(score > 0.0 for score in by_id.values())
        for ordinal, doc_id in enumerate(index.doc_ids):
            expected = 0.0
            for token in text.split():  # one term per occurrence, left to right
                expected += bm25_score(index, Query("t", token), ordinal)
            assert by_id.get(doc_id, 0.0) == expected
            assert bm25_score(index, Query("q", text), ordinal) == expected

    def test_no_matching_term_returns_nothing(self, tiny_corpus):
        index = build_index(tiny_corpus, CFG, PARAMS)
        assert retrieve_top_k(index, Query("q", "xylophone zebra"), 3) == []

    def test_k_validation(self, tiny_corpus):
        index = build_index(tiny_corpus, CFG, PARAMS)
        with pytest.raises(ValidationError):
            retrieve_top_k(index, Query("q", "cat"), 0)

    def test_agrees_with_score_all_oracle(self):
        # oracle: score every document directly, sort, compare
        rng = random.Random(3)
        corpus = make_corpus(20, seed=5)
        index = build_index(corpus, CFG, PARAMS)
        for trial in range(10):
            words = rng.sample(corpus.passages[trial].text.split(), 2)
            q = Query(f"q{trial}", " ".join(words))
            oracle = sorted(
                (
                    (bm25_score(index, q, i), index.doc_ids[i])
                    for i in range(index.doc_count)
                ),
                key=lambda t: (-t[0], t[1]),
            )
            oracle = [(s, d) for s, d in oracle if s > 0.0]
            got = retrieve_top_k(index, q, len(oracle) + 5)
            assert [(c.score, c.passage_id) for c in got] == oracle

    def test_deterministic_across_runs(self, tiny_corpus):
        q = Query("q", "the cat dog")
        first = retrieve_top_k(build_index(tiny_corpus, CFG, PARAMS), q, 5)
        again = retrieve_top_k(build_index(tiny_corpus, CFG, PARAMS), q, 5)
        assert first == again


class TestPostingList:
    """A term's rows, ``postings[term]``: a tuple of ``(ordinal, tf)`` pairs."""

    PAIRS = ((0, 2), (3, 1), (7, 5))

    @staticmethod
    def rows(code="I", ordinals=(0, 3, 7)) -> tuple:
        return Postings(("x",), array("Q", [3]), array(code, ordinals), array(code, [2, 1, 5]))["x"]

    def test_equals_a_tuple_of_pairs_in_both_operand_orders(self):
        rows = self.rows()
        assert type(rows) is tuple and repr(rows) == repr(self.PAIRS)
        assert rows == self.PAIRS and self.PAIRS == rows
        assert not rows != self.PAIRS and not self.PAIRS != rows
        assert rows != self.PAIRS[:2] and self.PAIRS[:2] != rows
        assert rows != ((0, 2), (3, 1), (7, 6)) and rows != list(self.PAIRS)
        assert rows == self.rows("B") and rows != self.rows("I", (0, 3, 8))

    def test_reads_as_a_sequence_of_pairs(self):
        rows = self.rows()
        assert len(rows) == 3 and dict(rows) == {0: 2, 3: 1, 7: 5}
        assert list(rows) == list(self.PAIRS) and (3, 1) in rows and (3, 2) not in rows
        assert rows[0] == (0, 2) and rows[-1] == (7, 5) and rows[-3] == (0, 2)
        assert rows[1:] == self.PAIRS[1:] and rows[::-1] == self.PAIRS[::-1]
        assert rows[5:] == ()
        with pytest.raises(IndexError):
            rows[3]

    def test_built_equals_loaded_across_typecodes(self, tmp_path, tiny_corpus):
        # the shared columns: built in the file's narrowest codes, and loaded in them
        built = build_index(tiny_corpus, CFG, PARAMS)
        path = tmp_path / "index.json"
        save_index(built, str(path))
        loaded = load_index(str(path))
        assert _typecodes(built) == _typecodes(loaded) == ("B", "B")
        assert built == loaded and loaded == built
        assert expand_postings(built.postings) == expand_postings(loaded.postings)
        # columns of other typecodes hold equal rows, and save the same bytes
        wide = Postings(built.postings.terms, built.postings.ends,
                        array("I", built.postings.ordinals), array("Q", built.postings.tfs))
        widened = dataclasses.replace(built, postings=wide)
        assert widened == built and built == widened
        save_index(widened, str(tmp_path / "wide.json"))
        assert (tmp_path / "wide.json").read_bytes() == path.read_bytes()


class TestPostings:
    """``InvertedIndex.postings``: a read-only mapping over the shared columns."""

    @pytest.fixture(params=["built", "loaded"])
    def postings(self, request):
        index = (build_index(GOLDEN_CORPUS, GOLDEN_CFG, PARAMS) if request.param == "built"
                 else load_index(str(GOLDEN_INDEX)))
        return index.postings

    def test_reads_as_the_dict_of_rows(self, postings):
        rows = {t: tuple(map(tuple, r)) for t, r in GOLDEN_ROWS.items()}
        assert len(postings) == len(rows) and list(postings) == sorted(rows)
        assert "cat" in postings and "xylophone" not in postings and "" not in postings
        assert postings["connect"] == ((1, 4),) and postings.get("xylophone") is None
        assert postings.get("xylophone", ()) == () and dict(postings.items()) == rows
        with pytest.raises(KeyError):
            postings["xylophone"]
        assert postings != rows and rows != postings  # only another Postings compares equal

    @pytest.mark.parametrize("texts, other", [
        (("cat", "dog"), ("dog", "cat")),  # only the ordinals differ
        (("cat cat dog", "cat dog dog"), ("cat dog dog", "cat cat dog")),  # only the tfs
    ])
    def test_indexes_differing_only_in_one_column_are_unequal(self, texts, other):
        def index(pair):
            return build_index(Corpus((Passage("d0", pair[0]), Passage("d1", pair[1]))),
                               CFG, PARAMS)

        a, b = index(texts), index(other)
        assert a.postings.terms == b.postings.terms and a.postings.ends == b.postings.ends
        assert a.postings != b.postings and a != b and b != a

    def test_read_only(self, postings):
        with pytest.raises(TypeError):
            postings["cat"] = ()
        with pytest.raises(TypeError, match="unhashable"):
            hash(postings)


class TestImpactCache:
    QUERIES = (Query("q1", "running cats"), Query("q2", "connections of the caresses"),
               Query("q3", "cat ponies cat"))

    @pytest.mark.parametrize("side", ["built", "loaded"])
    def test_queries_leave_the_index_as_it_was(self, tmp_path, side):
        index = (build_index(GOLDEN_CORPUS, GOLDEN_CFG, PARAMS) if side == "built"
                 else load_index(str(GOLDEN_INDEX)))
        before = repr(index)
        for query in self.QUERIES:
            assert retrieve_top_k(index, query, 3)
        assert index._impact_cache  # the queries filled it
        fresh = load_index(str(GOLDEN_INDEX))
        assert index == fresh and fresh == index and repr(index) == before
        path = tmp_path / "index.json"
        save_index(index, str(path))
        assert path.read_bytes() == GOLDEN_INDEX.read_bytes()

    def test_only_terms_in_the_index_are_cached(self, tiny_corpus):
        index = build_index(tiny_corpus, CFG, PARAMS)
        assert retrieve_top_k(index, Query("q", "xylophone zebra"), 3) == []
        assert index._impact_cache == {}
        retrieve_top_k(index, Query("q", "xylophone cat zebra"), 3)
        assert list(index._impact_cache) == ["cat"]

    def test_replaced_params_score_as_a_fresh_build(self, tiny_corpus):
        index = build_index(tiny_corpus, CFG, PARAMS)
        query = Query("q", "the cat dog")
        warm = retrieve_top_k(index, query, 5)
        params = Bm25Params(k1=1.5)
        replaced = dataclasses.replace(index, params=params)
        got = retrieve_top_k(replaced, query, 5)
        assert got == retrieve_top_k(build_index(tiny_corpus, CFG, params), query, 5)
        assert [c.score for c in got] != [c.score for c in warm]

    def test_bm25_score_does_not_read_the_cache(self, monkeypatch, tiny_corpus):
        index = build_index(tiny_corpus, CFG, PARAMS)
        query = Query("q", "the cat dog")
        ranked = retrieve_top_k(index, query, 5)

        def refuse(self, term):
            raise AssertionError(f"impact cache read for {term!r}")

        monkeypatch.setattr(bm25_module.InvertedIndex, "_impacts", refuse)
        ordinals = {doc_id: i for i, doc_id in enumerate(index.doc_ids)}
        assert [bm25_score(index, query, ordinals[c.passage_id]) for c in ranked] == [
            c.score for c in ranked]
        with pytest.raises(AssertionError, match="impact cache read"):
            retrieve_top_k(index, query, 5)

    def test_a_column_per_document_from_a_quarter_of_the_documents(self):
        # 8 documents: "half" has rows in 4, "quarter" in 2 (the threshold), "rare" in 1
        texts = ["half quarter rare", "half quarter", "half", "half"] + ["other"] * 4
        index = build_index(Corpus(tuple(Passage(f"d{i}", t) for i, t in enumerate(texts))),
                            CFG, PARAMS)
        for term, rows in (("half", 4), ("quarter", 2), ("rare", 1)):
            bound, ordinals, impacts = index._impacts(term)
            assert len(ordinals) == rows
            per_row = [bm25_score(index, Query("q", term), o) for o in ordinals]
            assert bound == max(per_row)
            if term == "rare":  # below a quarter: one impact per row
                assert list(impacts) == per_row
            else:  # one impact per document, 0.0 where the term has no row
                assert list(impacts) == [dict(zip(ordinals, per_row)).get(o, 0.0)
                                         for o in range(index.doc_count)]

    def test_pruning_looks_up_the_common_term_for_candidates_only(self):
        # every document holds "common"; "zebra", in three, closes the query at
        # k=2 on its own, so "common" is looked up for those three at most
        texts = [f"common filler{i % 7}" for i in range(400)]
        texts[5], texts[77], texts[301] = "zebra zebra zebra common", "zebra zebra common", \
            "zebra common filler1"
        corpus = Corpus(tuple(Passage(f"d{i:03d}", t) for i, t in enumerate(texts)))
        index, query = build_index(corpus, CFG, PARAMS), Query("q", "common zebra common")
        scored = ((bm25_score(index, query, i), index.doc_ids[i]) for i in range(index.doc_count))
        expected = sorted(scored, key=lambda t: (-t[0], t[1]))[:2]
        assert [(c.score, c.passage_id) for c in retrieve_top_k(index, query, 2)] == expected
        bound, ordinals, impacts = index._impact_cache["common"]
        assert len(impacts) == len(ordinals) == index.doc_count  # a column per document

        class IndexOnly:
            """The column, read by index alone: iterating it fails, reads are counted."""

            def __init__(self):
                self.reads = 0

            def __len__(self):
                return len(impacts)

            def __getitem__(self, ordinal):
                self.reads += 1
                return impacts[ordinal]

            def __iter__(self):
                raise AssertionError("the column per document was iterated")

        column = IndexOnly()
        index._impact_cache["common"] = (bound, ordinals, column)
        assert [(c.score, c.passage_id) for c in retrieve_top_k(index, query, 2)] == expected
        # a query that never closed would read all 400 rows, twice
        assert 0 < column.reads <= 3 * 3

    def test_concurrent_queries_on_a_cold_index_match_a_serial_run(self):
        # the module docstring promises concurrent queries need no coordination:
        # eight threads take the same queries in the same order from one cold
        # index, so they race to fill each term's impacts, per row for some
        # terms and per document for others; a few rounds, each on a fresh
        # index, because a race need not show in every one
        corpus, queries = make_corpus(2000, seed=13, max_len=28), make_queries(20, seed=17)
        serial = [retrieve_top_k(build_index(corpus, CFG, PARAMS), q, 10) for q in queries]

        def run(index, start: threading.Barrier) -> list:
            start.wait(timeout=30)
            return [retrieve_top_k(index, q, 10) for q in queries]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                shared, start = build_index(corpus, CFG, PARAMS), threading.Barrier(8)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(run, shared, start) for _ in range(8)]
                    assert all(f.result(timeout=60) == serial for f in futures)
                per_document = [len(i) == shared.doc_count
                                for _, _, i in shared._impact_cache.values()]
                assert any(per_document) and not all(per_document)
        finally:
            sys.setswitchinterval(interval)


def _arrays_held(root) -> int:
    """How many ``array`` objects ``root`` reaches through its fields and containers."""
    seen, todo, found = set(), [root], 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
            continue
        seen.add(id(obj))
        found += isinstance(obj, array)
        todo.extend(gc.get_referents(obj))
    return found


def _typecodes(index) -> tuple[str, str]:
    return index.postings.ordinals.typecode, index.postings.tfs.typecode


def _traced(call):
    """``call()``'s result, the bytes it allocated and still holds, and the peak traced."""
    gc.collect()
    tracemalloc.start()
    try:
        return call(), *tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peak traced bytes of building, saving and loading, beyond what they must hold.

    2000 passages of 40 words drawn by a Zipf law from 3000: 63,405 postings
    over 2,980 terms, a 247,129-byte file (312,517 bytes in format v2, whose
    columns were base64 text). Turning every ordinal and tf into a Python int
    on save costs 37 bytes per posting here; a term's own posting list and
    two arrays on load, 27. The shared columns take 16 and 13; built in
    4-byte rows and columns beside a ``Counter`` of term ids, the build takes
    16.4 beyond what it keeps, and 8.0 with narrow ones. Saving a v2 file as
    one JSON text peaked at 4.3 times its size. A v3 save that wrote the
    header's lists in chunks through a buffered text layer peaked at 117 KB,
    0.47 of the file's size; streamed by ``json.dump`` to a write-through
    text layer, the header leaves a peak of 45 KB, 0.18. Loading a v2 file
    through ``json.load`` peaked at 0.96 of its size beyond what the index
    keeps, since it held the text and every base64 string; a v3 load, which
    holds the header line and one chunk of a column, at 117 KB, 0.47 of the
    file.
    """

    BUILD_BEYOND_KEPT = 10  # bytes per posting
    SAVE_PEAK_OF_FILE = 0.25  # of the file's size
    LOAD_BEYOND_KEPT_OF_FILE = 0.6
    CACHE_PER_TERM = 500  # bytes: its dict entry and key, tuple, bound and two array headers

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = random.Random(5)
        vocab = [f"w{i}" for i in range(3000)]
        weights = [1 / rank for rank in range(1, len(vocab) + 1)]
        return Corpus(tuple(Passage(f"p{i}", " ".join(rng.choices(vocab, weights, k=40)))
                            for i in range(2000)))

    @pytest.fixture(scope="class")
    def built(self, corpus):
        index = build_index(corpus, CFG, PARAMS)
        assert len(index.postings.ordinals) >= 50_000
        return index

    def test_build_peak_per_posting(self, corpus):
        index, kept, peak = _traced(lambda: build_index(corpus, CFG, PARAMS))
        assert (peak - kept) / len(index.postings.ordinals) <= self.BUILD_BEYOND_KEPT

    def test_save_never_holds_the_file_text(self, tmp_path, built):
        path = tmp_path / "index.json"
        _, _, peak = _traced(lambda: save_index(built, str(path)))
        assert peak <= self.SAVE_PEAK_OF_FILE * path.stat().st_size
        # every column spans several chunks, and the streamed header is one JSON text
        assert len(built.postings) > 3 * bm25_module._CHUNK
        header = path.read_bytes().split(b"\n", 1)[0].decode("utf-8")
        assert header == json.dumps(json.loads(header), sort_keys=True, ensure_ascii=False)
        assert load_index(str(path)) == built

    def test_load_never_holds_the_file_text(self, tmp_path, built):
        path = tmp_path / "index.json"
        save_index(built, str(path))
        assert len(built.postings.ordinals) > 4 * bm25_module._CHUNK  # read in several pieces
        loaded, kept, peak = _traced(lambda: load_index(str(path)))
        assert peak - kept <= self.LOAD_BEYOND_KEPT_OF_FILE * path.stat().st_size
        assert loaded == built

    def test_impact_cache_bytes_per_posting_within_the_stated_bound(self, corpus):
        # the module docstring: 8 bytes a posting for a term in under a quarter
        # of the documents, at most 8 x doc_count (32 a posting) for a commoner
        # one, plus the ordinal width either way
        index = build_index(corpus, CFG, PARAMS)

        def fill() -> None:
            for i in range(0, 3000, 7):
                retrieve_top_k(index, Query("q", f"w{i} w{i // 50}"), 10)

        _, held, _ = _traced(fill)
        cached, width = index._impact_cache.values(), index.postings.ordinals.itemsize
        for _, ordinals, impacts in cached:
            rows = len(ordinals)
            assert len(impacts) == (rows if 4 * rows < index.doc_count else index.doc_count)
            assert impacts.itemsize * len(impacts) + width * rows <= (32 + width) * rows
        assert sum(4 * len(o) >= index.doc_count for _, o, _ in cached) >= 3
        rows = sum(len(o) for _, o, _ in cached)
        per_term = self.CACHE_PER_TERM * len(cached)
        assert (held - per_term) / rows <= 32 + width, (held - per_term) / rows

    def test_loaded_index_holds_no_array_per_term(self, tmp_path, built):
        path = tmp_path / "index.json"
        save_index(built, str(path))
        loaded = load_index(str(path))
        # the shared ordinals, tfs and term ends, however many terms there are
        assert _arrays_held(loaded) == 3 and len(loaded.postings) > 1000


class TestPersistence:
    def test_roundtrip_identical_scores(self, tmp_path, tiny_corpus):
        index = build_index(tiny_corpus, CFG, PARAMS)
        path = tmp_path / "index.json"
        save_index(index, str(path))
        loaded = load_index(str(path))
        q = Query("q", "the cat dog quantum mat")
        for i in range(index.doc_count):
            assert bm25_score(loaded, q, i) == bm25_score(index, q, i)
        assert retrieve_top_k(loaded, q, 5) == retrieve_top_k(index, q, 5)

    def test_version_header_checked(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValidationError, match="not a"):
            load_index(str(bad))

    def test_analyzer_roundtrip(self, tmp_path, tiny_corpus):
        cfg = AnalyzerConfig(stopwords=frozenset({"the", "a"}), stemmer="porter")
        index = build_index(tiny_corpus, cfg, Bm25Params(k1=1.2, b=0.75))
        path = tmp_path / "index.json"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert loaded.analyzer == cfg
        assert loaded.params == Bm25Params(k1=1.2, b=0.75)

    def test_empty_stopword_set_roundtrip(self, tmp_path, tiny_corpus):
        cfg = AnalyzerConfig(stopwords=frozenset(), stemmer="porter")
        assert cfg == AnalyzerConfig(stemmer="porter")
        index = build_index(tiny_corpus, cfg, PARAMS)
        path = tmp_path / "index.json"
        save_index(index, str(path))
        assert load_index(str(path)) == index

    def test_golden_v3_bytes(self, tmp_path):
        index = build_index(GOLDEN_CORPUS, GOLDEN_CFG, PARAMS)
        path = tmp_path / "index.json"
        save_index(index, str(path))
        assert path.read_bytes() == GOLDEN_INDEX.read_bytes()
        assert GOLDEN_INDEX.read_bytes() == _index_file({**GOLDEN_HEADER,
                                                         "postings": _postings(GOLDEN_ROWS)})
        assert load_index(str(GOLDEN_INDEX)) == index
        assert expand_postings(index.postings) == {t: tuple(map(tuple, rows))
                                                  for t, rows in GOLDEN_ROWS.items()}

    def test_columns_are_narrowest_little_endian(self, tmp_path):
        # 300 documents share "common" (df and ordinals need 2 bytes); one
        # document repeats "cat" 70000 times (its tf needs 4 bytes)
        texts = ["common cat " + "cat " * 69999] + [f"common w{i}" for i in range(299)]
        corpus = Corpus(tuple(Passage(f"p{i}", t) for i, t in enumerate(texts)))
        index = build_index(corpus, CFG, PARAMS)
        path = tmp_path / "index.json"
        save_index(index, str(path))
        rows = expand_postings(index.postings)
        assert _payload(path)["postings"] == _postings(rows, codes=("H", "H", "I"))
        assert load_index(str(path)) == index
        assert _typecodes(load_index(str(path))) == _typecodes(index) == ("H", "I")

    @pytest.mark.parametrize("tf, code", [(255, "B"), (256, "H"), (300, "H"), (65535, "H"),
                                          (65536, "I"), (70000, "I")])
    def test_built_tfs_widen_exactly(self, tmp_path, tf, code):
        # the first document's tfs fit in a byte, so the column widens mid-build
        corpus = Corpus((Passage("a", "cat dog"), Passage("b", "cat " * tf + "dog")))
        index = build_index(corpus, CFG, PARAMS)
        assert _typecodes(index) == ("B", code)
        assert expand_postings(index.postings) == {"cat": ((0, 1), (1, tf)),
                                                  "dog": ((0, 1), (1, 1))}
        path = tmp_path / "index.json"
        save_index(index, str(path))
        assert _typecodes(load_index(str(path))) == ("B", code)

    @pytest.mark.parametrize("empty_tail, code", [(0, "H"), (1, "B"), (44, "B")])
    def test_built_ordinals_hold_the_last_ordinal_with_a_row(self, tmp_path, empty_tail, code):
        # 257 documents, the last empty_tail of them without a token
        texts = [f"w{i}" for i in range(257 - empty_tail)] + [""] * empty_tail
        index = build_index(Corpus(tuple(Passage(f"p{i}", t) for i, t in enumerate(texts))),
                            CFG, PARAMS)
        assert _typecodes(index) == (code, "B") and len(index.postings) == 257 - empty_tail
        path = tmp_path / "index.json"
        save_index(index, str(path))
        assert _typecodes(load_index(str(path))) == (code, "B")


# the header and rows tiny_index.json holds; _index_file encodes them
# independently of save_index
GOLDEN_HEADER = {
    "format": "reranklab-bm25-index", "version": 3,
    "analyzer": {"lowercase": True, "stemmer": "porter", "stopwords": ["a", "of", "on", "the"],
                 "token_pattern": "[^\\W_]+"},
    "params": {"k1": 0.9, "b": 0.4},
    "doc_ids": ["d1", "d2", "d3", "d4", "d5"], "doc_lengths": [5, 4, 5, 0, 6],
}
GOLDEN_ROWS = {
    "and": [[4, 1]], "café": [[2, 1]], "caress": [[4, 1]], "cat": [[4, 1]],
    "connect": [[1, 4]], "gener": [[2, 2]], "hope": [[4, 1]], "naïv": [[2, 1]],
    "poni": [[4, 1]], "relat": [[4, 1]], "run": [[0, 2]], "runner": [[0, 2]],
    "résumé": [[2, 1]], "were": [[0, 1]],
}
_WIDTHS = {"B": 1, "H": 2, "I": 4, "Q": 8, "b": 1}
_COLUMNS = ("df", "ordinals", "tfs")


def _column(values, code="B") -> dict:
    """A column's header section, with its little-endian bytes under "bytes"."""
    values = list(values)
    raw = b"".join(v.to_bytes(_WIDTHS[code], "little", signed=code.islower()) for v in values)
    return {"count": len(values), "type": code, "bytes": raw}


def _postings(rows: dict, codes=("B", "B", "B")) -> dict:
    runs = list(rows.values())
    return {
        "terms": list(rows),
        "df": _column(map(len, runs), codes[0]),
        "ordinals": _column((o for run in runs for o, _ in run), codes[1]),
        "tfs": _column((tf for run in runs for _, tf in run), codes[2]),
    }


def _index_file(payload: dict) -> bytes:
    """The file for ``payload``: its JSON header line, then the "bytes" each
    column section holds (taken out of ``payload``), in ``_COLUMNS`` order."""
    body = b""
    postings = payload.get("postings")
    for name in _COLUMNS:
        section = postings.get(name) if isinstance(postings, dict) else None
        if isinstance(section, dict):
            body += section.pop("bytes", b"")
    return json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8") + b"\n" + body


def _payload(path) -> dict:
    """An index file's header, each column's section holding its bytes under "bytes"."""
    header, body = Path(path).read_bytes().split(b"\n", 1)
    payload = json.loads(header)
    for name in _COLUMNS:
        section = payload["postings"][name]
        size = section["count"] * _WIDTHS[section["type"]]
        section["bytes"], body = body[:size], body[size:]
    return payload


def _golden_payload() -> dict:
    return _payload(GOLDEN_INDEX)


def _rows(**changed):
    """Replace the postings with GOLDEN_ROWS, some terms' rows changed."""
    return _set(_postings({**GOLDEN_ROWS, **changed}), "postings")


def _without(key):
    def edit(payload):
        del payload[key]
    return edit


def _without_column(name):
    def edit(payload):
        del payload["postings"][name]
    return edit


def _set(value, *keys):
    def edit(payload):
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return edit


class TestLoadValidation:
    @pytest.mark.parametrize("content", [
        b"{not json", b"", b"\xff\xfe{}", b"[]", b"42", b'"reranklab-bm25-index"',
    ], ids=["broken", "empty", "not-utf8", "array", "number", "string"])
    def test_not_an_index_object(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match="bad.json"):
            load_index(str(path))

    @pytest.mark.parametrize("edit, message", [
        *[pytest.param(_without(key), f"lacks {key}", id=f"no-{key}") for key in
          ("analyzer", "params", "doc_ids", "doc_lengths", "postings")],
        pytest.param(_set(1, "version"), "re-run `reranklab index`", id="v1-file"),
        pytest.param(_set(2, "version"), "v2 is no longer read; re-run", id="v2-file"),
        pytest.param(_set(4, "version"), "unsupported index version 4", id="v4-file"),
        pytest.param(_set({"lowercase": True}, "analyzer"), "malformed", id="analyzer-fields"),
        pytest.param(_set(r"\w+", "analyzer", "token_pattern"), r"token_pattern must be",
                     id="other-token-pattern"),
        pytest.param(_set({"k1": "high", "b": 0.4}, "params"), "malformed", id="params-type"),
        pytest.param(_set([], "postings"), "malformed", id="postings-array"),
        *[pytest.param(_without_column(name), "malformed", id=f"no-{name}")
          for name in ("terms", "df", "ordinals", "tfs")],
        pytest.param(_set(7, "postings", "ordinals"), "malformed", id="rows-number"),
        pytest.param(_set("ab", "postings", "ordinals"), "malformed", id="rows-string"),
        pytest.param(_set(None, "postings", "tfs"), "malformed", id="row-null"),
        pytest.param(_set("14", "postings", "tfs", "count"), "'tfs' count must be an integer",
                     id="row-number"),
        pytest.param(_set(b"\x01" * 13, "postings", "tfs", "bytes"),
                     "ends inside postings column 'tfs', after 13 of its 14 items",
                     id="column-cut-short"),
        pytest.param(_set(b"\x01" * 15, "postings", "tfs", "bytes"),
                     "runs on after postings column 'tfs'", id="trailing-bytes"),
        pytest.param(_set(15, "postings", "df", "count"), "ends inside postings column 'tfs'",
                     id="count-disagrees"),
        pytest.param(_set("x", "postings", "tfs", "type"), "typecode", id="typecode-unknown"),
        pytest.param(_set({"type": "d", "count": 1, "bytes": struct.pack("<d", 0.0)},
                          "postings", "ordinals"), "typecode 'd'", id="ordinal-float"),
        pytest.param(_set(_column([-1], "b"), "postings", "ordinals"), "typecode 'b'",
                     id="ordinal-negative"),
        pytest.param(_set(["run", 5], "postings", "terms"), "list of strings", id="term-number"),
        pytest.param(_set(list(GOLDEN_ROWS)[:-1] + ["run"], "postings", "terms"), "terms repeat",
                     id="term-duplicate"),
        pytest.param(_set(list(GOLDEN_ROWS)[:-1], "postings", "terms"), "disagree",
                     id="terms-short"),
        pytest.param(_set(sorted(GOLDEN_ROWS, reverse=True), "postings", "terms"),
                     "terms repeat or do not ascend", id="terms-unsorted"),
        pytest.param(_set(_column([1] * 13 + [2]), "postings", "df"), "disagree",
                     id="df-sum-long"),
        pytest.param(_set(_column([1] * 13), "postings", "tfs"), "disagree", id="row-short"),
        pytest.param(_rows(run=[]), "df below 1", id="df-zero"),
        pytest.param(_rows(run=[[5, 2]]), "outside 0..4", id="ordinal-high"),
        pytest.param(_rows(run=[[0, 0]]), "tf below 1", id="tf-zero"),
        pytest.param(_rows(run=[[0, 2], [0, 1]]), "repeat or do not ascend",
                     id="ordinal-repeated"),
        pytest.param(_rows(run=[[2, 1], [0, 2]]), "repeat or do not ascend",
                     id="ordinal-descending"),
        pytest.param(_set([5, 4, 5, 0], "doc_lengths"), "per document", id="lengths-short"),
        pytest.param(_set(["d1", "d2", "d3", "d4", 5], "doc_ids"), "per document",
                     id="id-number"),
        pytest.param(_set([-3, 4, 5, 0, 6], "doc_lengths"), "doc_lengths entry is negative",
                     id="length-negative"),
        pytest.param(_set(["d1", "d1", "d3", "d4", "d5"], "doc_ids"), "doc_ids repeat",
                     id="id-repeated"),
        pytest.param(_set("world", "analyzer", "stopwords"), "stopwords a list of strings",
                     id="stopwords-string"),
        pytest.param(_set("no", "analyzer", "lowercase"), "lowercase must be a bool",
                     id="lowercase-string"),
        pytest.param(_set(True, "params", "k1"), "k1 and b must be numbers", id="k1-bool"),
        pytest.param(_set(False, "params", "b"), "k1 and b must be numbers", id="b-bool"),
    ])
    def test_malformed_sections(self, tmp_path, edit, message):
        payload = _golden_payload()
        edit(payload)
        path = tmp_path / "bad.json"
        path.write_bytes(_index_file(payload))
        with pytest.raises(ValidationError, match=message):
            load_index(str(path))

    @pytest.mark.parametrize("chunk", [1, 5, 1 << 16])
    def test_every_truncation_is_refused(self, tmp_path, chunk):
        content = GOLDEN_INDEX.read_bytes()
        path = tmp_path / "bad.json"
        with mock.patch.object(bm25_module, "_CHUNK", chunk):
            for cut in range(len(content)):
                path.write_bytes(content[:cut])
                with pytest.raises(ValidationError, match=r"bad\.json: (invalid JSON index|"
                                                          r"the file ends inside postings column)"):
                    load_index(str(path))
