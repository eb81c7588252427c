"""First-stage retrieval: inverted index with Okapi BM25 scoring.

Scores use the non-negative IDF variant ln(1 + (N - df + 0.5)/(df + 0.5)),
so every score is >= 0 and small test corpora cannot produce negative-score
rank pathologies. Default parameters are k1=0.9, b=0.4.

The index is immutable once built; queries may be evaluated concurrently
without coordination. Top-k retrieval is exact, with no pruning: it scores
every matching document term by term, finds the k-th largest score with a
heap, and sorts only the documents at or above it. Each document's length
norm ``k1 * (1 - b + b*dl/avgdl)`` is computed once, when the index is made,
and both scoring paths read it from the same table.

Building stems each distinct word once: ``build_index`` keeps a word-to-stem
memo for the length of that one call and drops it on return, so nothing
stays warm between builds or between a build and later queries. Queries
stem through ``tokenize`` without a memo. The persisted file is format v1,
byte for byte what earlier versions wrote for the same index.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from bisect import bisect_left
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from .data import read_json_object
from .porter import porter_stem
from .types import Corpus, Query, RunEntry, ValidationError

INDEX_FORMAT = "reranklab-bm25-index"
INDEX_VERSION = 1

_STEMMERS = ("none", "porter")
_SECTIONS = ("analyzer", "params", "doc_ids", "doc_lengths", "postings")


@dataclass(frozen=True)
class AnalyzerConfig:
    """Deterministic text-to-token rules shared by indexing and querying."""

    lowercase: bool = True
    token_pattern: str = r"[^\W_]+"  # runs of alphanumerics
    stopwords: frozenset[str] | None = None
    stemmer: str = "none"

    def __post_init__(self) -> None:
        if self.stemmer not in _STEMMERS:
            raise ValidationError(f"stemmer must be one of {_STEMMERS}, got {self.stemmer!r}")
        try:
            re.compile(self.token_pattern)
        except re.error as exc:
            raise ValidationError(f"invalid token pattern {self.token_pattern!r}: {exc}") from exc
        if self.stopwords is not None and not self.stopwords:
            # an empty set filters nothing and persists as null, so it loads as None
            object.__setattr__(self, "stopwords", None)


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        if self.k1 <= 0:
            raise ValidationError(f"k1 must be > 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValidationError(f"b must be in [0, 1], got {self.b}")


def tokenize(text: str, cfg: AnalyzerConfig) -> list[str]:
    return _tokenize(text, cfg, porter_stem)


def _tokenize(text: str, cfg: AnalyzerConfig, stem: Callable[[str], str]) -> list[str]:
    if cfg.lowercase:
        text = text.lower()
    tokens = re.findall(cfg.token_pattern, text)
    if cfg.stopwords:
        tokens = [t for t in tokens if t not in cfg.stopwords]
    if cfg.stemmer == "porter":
        tokens = [stem(t) for t in tokens]
    return tokens


class _StemMemo(dict):
    """Word -> Porter stem, filled on first sight of each word."""

    def __missing__(self, word: str) -> str:
        stem = self[word] = porter_stem(word)
        return stem


@dataclass(frozen=True)
class InvertedIndex:
    doc_ids: tuple[str, ...]
    doc_lengths: tuple[int, ...]
    postings: dict[str, tuple[tuple[int, int], ...]]  # term -> ((ordinal, tf), ...)
    analyzer: AnalyzerConfig
    params: Bm25Params
    avg_doc_length: float = field(init=False)
    # k1 * (1 - b + b*dl/avgdl) per document ordinal; derived from the fields
    # above, so equality and repr leave it out
    length_norms: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.doc_ids:
            raise ValidationError("index must contain at least one document")
        avgdl = sum(self.doc_lengths) / len(self.doc_lengths)
        k1, b = self.params.k1, self.params.b
        if avgdl:
            norms = tuple(k1 * (1.0 - b + b * dl / avgdl) for dl in self.doc_lengths)
        else:  # no document kept a token, so there are no postings to score
            norms = (k1 * (1.0 - b),) * len(self.doc_lengths)
        object.__setattr__(self, "avg_doc_length", avgdl)
        object.__setattr__(self, "length_norms", norms)

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    def _idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        if df == 0:
            return 0.0
        n = self.doc_count
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def build_index(corpus: Corpus, cfg: AnalyzerConfig, params: Bm25Params) -> InvertedIndex:
    """Build an immutable inverted index over ``corpus``.

    Rebuilding from the same inputs produces an identical index (and an
    identical persisted file). Each distinct word is stemmed once per call.
    """
    if corpus.size == 0:
        raise ValidationError("cannot index an empty corpus")
    stem = _StemMemo().__getitem__
    doc_lengths = []
    accumulating: defaultdict[str, list[tuple[int, int]]] = defaultdict(list)
    for ordinal, passage in enumerate(corpus.passages):
        tokens = _tokenize(passage.text, cfg, stem)
        doc_lengths.append(len(tokens))
        # ordinals only grow, so each term's rows come out in ordinal order
        for term, tf in Counter(tokens).items():
            accumulating[term].append((ordinal, tf))
    postings = {term: tuple(rows) for term, rows in sorted(accumulating.items())}
    return InvertedIndex(
        doc_ids=tuple(p.id for p in corpus.passages),
        doc_lengths=tuple(doc_lengths),
        postings=postings,
        analyzer=cfg,
        params=params,
    )


def bm25_score(index: InvertedIndex, query: Query, ordinal: int) -> float:
    """Score one document against the query.

    Sum over query token occurrences of idf(t) * tf*(k1+1) / (tf + k1*norm)
    with norm = 1 - b + b*dl/avgdl. Terms absent from the document (or the
    index) contribute 0.
    """
    if not 0 <= ordinal < index.doc_count:
        raise ValidationError(f"ordinal {ordinal} out of range 0..{index.doc_count - 1}")
    k1 = index.params.k1
    k1_norm = index.length_norms[ordinal]
    score = 0.0
    for term in tokenize(query.text, index.analyzer):
        rows = index.postings.get(term, ())
        i = bisect_left(rows, ordinal, key=itemgetter(0))  # rows ascend by ordinal
        if i == len(rows) or rows[i][0] != ordinal:
            continue
        tf = rows[i][1]
        score += index._idf(term) * tf * (k1 + 1.0) / (tf + k1_norm)
    return score


def retrieve_top_k(index: InvertedIndex, query: Query, k: int) -> list[RunEntry]:
    """Exact top-k candidates as untagged rows, scores descending, ties by ascending id.

    Only documents matching at least one query term are candidates, so fewer
    than k results may come back. Every match is scored; only those scoring
    at least the k-th largest score are sorted.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    k1 = index.params.k1
    norms = index.length_norms
    # term-at-a-time accumulation in query-token order: float summation order
    # matches bm25_score exactly, so the two paths agree bit-for-bit
    scores: dict[int, float] = {}
    get = scores.get
    for term in tokenize(query.text, index.analyzer):
        rows = index.postings.get(term)
        if not rows:
            continue
        idf = index._idf(term)
        numerators = {tf: idf * tf * (k1 + 1.0) for tf in set(map(itemgetter(1), rows))}
        for ordinal, tf in rows:
            scores[ordinal] = get(ordinal, 0.0) + numerators[tf] / (tf + norms[ordinal])
    matches = scores.items()
    if len(scores) > k:
        # keep every tie at the k-th score, so the id order below cuts them
        # exactly where a sort of all matches would
        kth = heapq.nlargest(k, scores.values())[-1]
        matches = [(ordinal, score) for ordinal, score in matches if score >= kth]
    ranked = sorted(matches, key=lambda item: (-item[1], index.doc_ids[item[0]]))
    return [
        RunEntry(query.id, index.doc_ids[ordinal], rank, score)
        for rank, (ordinal, score) in enumerate(ranked[:k], start=1)
    ]


def save_index(index: InvertedIndex, path: str) -> None:
    """Persist as a single self-describing JSON file with a version header.

    The output is format v1, byte-identical to what earlier versions wrote:
    keys sorted, no ASCII escaping, one trailing newline, posting rows as
    ``[ordinal, tf]`` arrays. The whole file is encoded in one ``json.dumps``
    call, which runs the C encoder; ``json.dump`` would stream it through the
    pure-Python one.
    """
    payload = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "analyzer": {
            "lowercase": index.analyzer.lowercase,
            "token_pattern": index.analyzer.token_pattern,
            "stopwords": sorted(index.analyzer.stopwords) if index.analyzer.stopwords else None,
            "stemmer": index.analyzer.stemmer,
        },
        "params": {"k1": index.params.k1, "b": index.params.b},
        # tuples encode as JSON arrays, so the index's own rows need no copy
        "doc_ids": index.doc_ids,
        "doc_lengths": index.doc_lengths,
        "postings": index.postings,
    }
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_index(path: str) -> InvertedIndex:
    """Read an index written by :func:`save_index`.

    A file that is not JSON, not a v1 index object, lacks a section, or has
    a posting row other than an ``[ordinal, tf]`` pair of integers naming a
    document in its table raises :class:`ValidationError`.
    """
    payload = read_json_object(path, "index")
    if payload.get("format") != INDEX_FORMAT:
        raise ValidationError(f"{path}: not a {INDEX_FORMAT} file")
    if payload.get("version") != INDEX_VERSION:
        raise ValidationError(
            f"{path}: unsupported index version {payload.get('version')!r}"
        )
    missing = [key for key in _SECTIONS if key not in payload]
    if missing:
        raise ValidationError(f"{path}: index lacks {', '.join(missing)}")
    try:
        analyzer_raw = payload["analyzer"]
        analyzer = AnalyzerConfig(
            lowercase=analyzer_raw["lowercase"],
            token_pattern=analyzer_raw["token_pattern"],
            stopwords=frozenset(analyzer_raw["stopwords"] or ()),
            stemmer=analyzer_raw["stemmer"],
        )
        params = Bm25Params(**payload["params"])
        doc_ids = tuple(payload["doc_ids"])
        doc_lengths = tuple(payload["doc_lengths"])
        # each term's parsed rows are dropped as they are converted, so the
        # parsed lists and the row tuples are never all alive at once
        raw = payload["postings"]
        postings = {term: tuple(map(tuple, raw.pop(term))) for term in list(raw.keys())}
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: malformed index: {exc!r}") from exc
    if not (_all(str, doc_ids) and _all(int, doc_lengths) and len(doc_ids) == len(doc_lengths)):
        raise ValidationError(f"{path}: doc_ids and doc_lengths must pair one string id "
                              "with one integer length per document")

    def column(i: int):
        return map(itemgetter(i), chain.from_iterable(postings.values()))

    if set(map(len, chain.from_iterable(postings.values()))) - {2} or not (
        _all(int, column(0)) and _all(int, column(1))
    ):
        raise ValidationError(f"{path}: a posting row is not an [ordinal, tf] pair of integers")
    if not (0 <= min(column(0), default=0) and max(column(0), default=-1) < len(doc_ids)
            and min(column(1), default=1) >= 1):
        raise ValidationError(f"{path}: a posting row names an ordinal outside "
                              f"0..{len(doc_ids) - 1} or a tf below 1")
    return InvertedIndex(
        doc_ids=doc_ids,
        doc_lengths=doc_lengths,
        postings=postings,
        analyzer=analyzer,
        params=params,
    )


def _all(kind: type, items) -> bool:
    """Every item's type is exactly ``kind`` (so ``True`` is not an int)."""
    return set(map(type, items)) <= {kind}
