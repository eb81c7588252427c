import json
import math
import random
from pathlib import Path

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
from reranklab.porter import porter_stem

from conftest import make_corpus

CFG = AnalyzerConfig()
PARAMS = Bm25Params()  # k1=0.9, b=0.4

# tiny_index.json pins the v1 file bytes for this corpus and analyzer: stemming
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
        assert index.avg_doc_length == 1.0

    def test_postings_shape(self):
        corpus = Corpus((Passage("p0", "a b"), Passage("p1", "a")))
        index = build_index(corpus, CFG, PARAMS)
        assert index.postings["a"] == ((0, 1), (1, 1))
        assert index.postings["b"] == ((0, 1),)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_index(Corpus(()), CFG, PARAMS)

    def test_corpus_without_tokens(self):
        # every word is a stopword: no postings, average length 0
        cfg = AnalyzerConfig(stopwords=frozenset({"the", "of"}))
        index = build_index(Corpus((Passage("a", "the"), Passage("b", "of the"))), cfg, PARAMS)
        assert index.avg_doc_length == 0.0 and index.postings == {}
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
            bound = index._idf("cat") * (PARAMS.k1 + 1.0)
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

    def test_golden_v1_bytes(self, tmp_path):
        index = build_index(GOLDEN_CORPUS, GOLDEN_CFG, PARAMS)
        path = tmp_path / "index.json"
        save_index(index, str(path))
        assert path.read_bytes() == GOLDEN_INDEX.read_bytes()
        assert load_index(str(GOLDEN_INDEX)) == index


def _golden_payload() -> dict:
    return json.loads(GOLDEN_INDEX.read_text(encoding="utf-8"))


def _without(key):
    def edit(payload):
        del payload[key]
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
        pytest.param(_set({"lowercase": True}, "analyzer"), "malformed", id="analyzer-fields"),
        pytest.param(_set({"k1": "high", "b": 0.4}, "params"), "malformed", id="params-type"),
        pytest.param(_set([], "postings"), "malformed", id="postings-array"),
        pytest.param(_set(7, "postings", "run"), "malformed", id="rows-number"),
        pytest.param(_set([3], "postings", "run"), "malformed", id="row-number"),
        pytest.param(_set([None], "postings", "run"), "malformed", id="row-null"),
        pytest.param(_set("ab", "postings", "run"), "pair", id="rows-string"),
        pytest.param(_set([[0]], "postings", "run"), "pair", id="row-short"),
        pytest.param(_set([[0, 2, 1]], "postings", "run"), "pair", id="row-long"),
        pytest.param(_set([["0", 2]], "postings", "run"), "pair", id="ordinal-string"),
        pytest.param(_set([[0.0, 2]], "postings", "run"), "pair", id="ordinal-float"),
        pytest.param(_set([[0, True]], "postings", "run"), "pair", id="tf-bool"),
        pytest.param(_set([[5, 2]], "postings", "run"), "outside 0..4", id="ordinal-high"),
        pytest.param(_set([[-1, 2]], "postings", "run"), "outside 0..4", id="ordinal-negative"),
        pytest.param(_set([[0, 0]], "postings", "run"), "tf below 1", id="tf-zero"),
        pytest.param(_set([5, 4, 5, 0], "doc_lengths"), "per document", id="lengths-short"),
        pytest.param(_set(["d1", "d2", "d3", "d4", 5], "doc_ids"), "per document",
                     id="id-number"),
    ])
    def test_malformed_sections(self, tmp_path, edit, message):
        payload = _golden_payload()
        edit(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError, match=message):
            load_index(str(path))
