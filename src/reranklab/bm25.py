"""First-stage retrieval: inverted index with Okapi BM25 scoring.

Scores use the non-negative IDF variant ln(1 + (N - df + 0.5)/(df + 0.5)),
so every score is >= 0 and small test corpora cannot produce negative-score
rank pathologies. Default parameters are k1=0.9, b=0.4.

The index is immutable once built; queries may be evaluated concurrently
without coordination. Its posting rows are held in memory as one pair of
integer ``array`` columns shared by every term (:class:`Postings`): document
ordinals and their term frequencies, the terms in sorted order, each term's
ordinals ascending, with one column of per-term end offsets beside them. A
posting so costs its two column cells, a few bytes, and a term costs its
string and one 8-byte end; there is no object per term or per row.
Looking a term up bisects the sorted terms and returns its rows as a tuple
of ``(ordinal, tf)`` pairs. Each document's length norm
``k1 * (1 - b + b*dl/avgdl)`` is computed once, when the index is made, and
both scoring paths read it from the same table.

Top-k retrieval is exact, and skips documents that cannot rank (MaxScore,
Turtle and Flood 1995). A term's impacts ``idf * tf*(k1+1) / (tf + norm)``
depend on the index alone, so the first query that uses the term computes
them, with their largest, the term's bound, and the index keeps them next to
a copy of the term's ordinals (a loop over an array runs faster than over a
view of the shared column). A term with rows in under a quarter of the
documents keeps one double per row, 8 bytes plus the ordinal width per
posting. A commoner term keeps one double per document, 0.0 where it has no
row, so a document's impact is one index and not a bisect: at most
8 x ``doc_count`` bytes, so at most 32 bytes per posting of that term, plus
its ordinals. The cache so costs at most 32 bytes plus the ordinal width per
posting of the terms some query has used (plus a small fixed cost per term),
and holds no entry for words the index lacks. It is derived state, left out
of equality and ``repr``. Threads that fill the same term at once compute
equal columns and one of them is kept, so no lock is needed.

A query visits its tokens by descending bound and adds each one's impacts
into partial sums until k documents have a partial above the summed bounds
of the tokens not yet visited. It is then closed: a document with no partial
yet cannot reach the k-th score, so each later token adds its impact to the
candidates alone, and a candidate is dropped once its partial plus the
remaining bounds falls short of the k-th partial. The survivors are scored
again by adding their impacts in query-token order, as ``bm25_score`` sums
its terms, so the two paths agree bit for bit; they are then sorted. The
partial sums are taken in another order, so their rounding may differ from
the final scores': both comparisons carry a relative margin of (query
tokens) x 2**-50, beyond what rounding two sums of that many non-negative
terms can move, so a document that ties the k-th score is never dropped. A
query that never closes, with fewer than k matches, ends with every match
scored. ``bm25_score`` never reads the cache: it bisects the term's span of
the shared columns for the document, which keeps it an independent oracle
for the cached path.

Building makes the columns directly, with no column per term: one pass over
the documents collects a (term id, tf) row per distinct term of each
document, in document order, and a counting pass moves each row to its
term's span. The row columns start at one byte and widen only when a value
overflows them; the df count is a list indexed by term id. The output
``tfs`` column takes the rows' typecode, and ``ordinals`` the narrowest that
holds the last ordinal with a row, so a built index's columns have the
typecodes of its saved and loaded copy, and the build holds, beyond what it
keeps, about the rows (3 bytes a posting when terms need 2-byte ids) and a
few words per term. It stems each distinct word once: ``build_index`` wraps
``porter_stem`` in ``functools.cache`` for that document pass and drops it
after, so nothing stays warm between builds or between a build and later
queries. Queries stem through ``tokenize`` without a memo.

The persisted file is format v3: one line of JSON holding the header
sections (analyzer, params, document ids and lengths, the sorted terms, and
each posting column's typecode and item count), then the raw little-endian
bytes of three integer columns, ``df`` (rows per term, in ``terms`` order),
``ordinals`` and ``tfs``, each in the narrowest typecode that holds it.
Saving streams the file: ``json.dump`` writes the header piece by piece
through a write-through text layer, and each column is written a chunk of
items at a time, so the save holds no text as long as the file, only a
piece's or a chunk's worth beside the index. The header's bytes are those of
``json.dumps`` with sorted keys and non-ASCII text as is. Loading reads the
header line with ``json.loads`` and each column a chunk of items at a time
into an array of the file's typecode, so it holds nothing beyond what the
index keeps but the header's text and one chunk. Files of format v1 (one
JSON array per posting row) and v2 (base64 columns inside one JSON object)
are refused; rebuild them with ``reranklab index``.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import re
import sys
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, ge, le, sub

from .porter import porter_stem
from .types import Corpus, Query, RunEntry, ValidationError

INDEX_FORMAT = "reranklab-bm25-index"
INDEX_VERSION = 3

_STEMMERS = ("none", "porter")
TOKEN_PATTERN = re.compile(r"[^\W_]+")  # runs of alphanumerics
_SECTIONS = ("analyzer", "params", "doc_ids", "doc_lengths", "postings")
_COLUMNS = ("df", "ordinals", "tfs")
_TYPECODES = ("B", "H", "I", "Q")  # unsigned, 1, 2, 4 and 8 bytes
_CHUNK = 3 << 8  # items of a column written or read at a time


@dataclass(frozen=True, slots=True)
class AnalyzerConfig:
    """Deterministic text-to-token rules shared by indexing and querying."""

    lowercase: bool = True
    stopwords: frozenset[str] | None = None
    stemmer: str = "none"

    def __post_init__(self) -> None:
        if self.stemmer not in _STEMMERS:
            raise ValidationError(f"stemmer must be one of {_STEMMERS}, got {self.stemmer!r}")
        if self.stopwords is not None and not self.stopwords:
            # an empty set filters nothing and persists as null, so it loads as None
            object.__setattr__(self, "stopwords", None)


@dataclass(frozen=True, slots=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k1) and self.k1 > 0):  # NaN is not valid JSON in the index
            raise ValidationError(f"k1 must be finite and > 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValidationError(f"b must be in [0, 1], got {self.b}")


def tokenize(text: str, cfg: AnalyzerConfig) -> list[str]:
    return _tokenize(text, cfg, porter_stem)


def _tokenize(text: str, cfg: AnalyzerConfig, stem: Callable[[str], str]) -> list[str]:
    if cfg.lowercase:
        text = text.lower()
    tokens = TOKEN_PATTERN.findall(text)
    if cfg.stopwords:
        tokens = [t for t in tokens if t not in cfg.stopwords]
    if cfg.stemmer == "porter":
        tokens = [stem(t) for t in tokens]
    return tokens


class Postings(Mapping):
    """Term -> its ``(ordinal, tf)`` rows, every term's rows in one shared column pair.

    ``terms`` ascend; term ``i``'s rows are ``ordinals[lo:hi]`` and
    ``tfs[lo:hi]``, where ``hi`` is ``ends[i]`` and ``lo`` the end before it
    (0 for the first term). Looking a term up returns its rows as a new
    tuple of pairs, so nothing is held per term beyond its string and its
    end. A read-only mapping that iterates its terms in sorted order and
    compares equal to another :class:`Postings` with the same columns.
    """

    __slots__ = ("terms", "ends", "ordinals", "tfs")

    def __init__(self, terms: tuple[str, ...], ends: array, ordinals: array, tfs: array) -> None:
        self.terms, self.ends, self.ordinals, self.tfs = terms, ends, ordinals, tfs

    def span(self, term: str) -> tuple[int, int] | None:
        """``(lo, hi)`` of the term's rows in the columns, or None if it has none."""
        terms = self.terms
        i = bisect_left(terms, term)
        if i == len(terms) or terms[i] != term:
            return None
        return (self.ends[i - 1] if i else 0), self.ends[i]

    def __getitem__(self, term: str) -> tuple[tuple[int, int], ...]:
        span = self.span(term)
        if span is None:
            raise KeyError(term)
        lo, hi = span
        return tuple(zip(self.ordinals[lo:hi], self.tfs[lo:hi]))

    def __contains__(self, term) -> bool:
        return self.span(term) is not None

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other) -> bool:  # equal columns hold equal rows: no slice per term
        if not isinstance(other, Postings):
            return NotImplemented
        return (self.terms == other.terms and self.ends == other.ends
                and self.ordinals == other.ordinals and self.tfs == other.tfs)


@dataclass(frozen=True, slots=True)
class InvertedIndex:
    doc_ids: tuple[str, ...]
    doc_lengths: tuple[int, ...]
    # term -> rows (ordinal, tf), ordinals ascending, in shared columns; left out of repr,
    # which would otherwise show the object's address
    postings: Postings = field(repr=False)
    analyzer: AnalyzerConfig
    params: Bm25Params
    # k1 * (1 - b + b*dl/avgdl) per document ordinal, and term -> (bound,
    # ordinals, impacts) filled by _impacts; derived from the fields above, so
    # equality and repr leave them out
    length_norms: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _impact_cache: dict[str, tuple[float, array, array]] = field(init=False, repr=False,
                                                                 compare=False)

    def __post_init__(self) -> None:
        if not self.doc_ids:
            raise ValidationError("index must contain at least one document")
        avgdl = sum(self.doc_lengths) / len(self.doc_lengths)
        k1, b = self.params.k1, self.params.b
        if avgdl:
            norms = tuple(k1 * (1.0 - b + b * dl / avgdl) for dl in self.doc_lengths)
        else:  # no document kept a token, so there are no postings to score
            norms = (k1 * (1.0 - b),) * len(self.doc_lengths)
        object.__setattr__(self, "length_norms", norms)
        object.__setattr__(self, "_impact_cache", {})

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    def _idf(self, df: int) -> float:
        """The idf of a term with ``df`` rows, the length of its span."""
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))

    def _impacts(self, term: str) -> tuple[float, array, array] | None:
        """``(bound, ordinals, impacts)`` of the term, or None if the index lacks it.

        ``bound`` is the largest impact. ``impacts`` is one double per row, or,
        for a term with rows in at least a quarter of the documents, one per
        document ordinal, 0.0 where the term has no row.
        Computed on the term's first use and kept; see the module docstring.
        """
        cached = self._impact_cache.get(term)
        if cached is None:
            span = self.postings.span(term)
            if span is None:
                return None
            lo, hi = span
            # a copied slice: iterating an array is faster than a memoryview of one
            ordinals, tfs = self.postings.ordinals[lo:hi], self.postings.tfs[lo:hi]
            idf, k1, norms = self._idf(hi - lo), self.params.k1, self.length_norms
            numerators = {tf: idf * tf * (k1 + 1.0) for tf in set(tfs)}
            impacts = [numerators[tf] / (tf + norms[ordinal]) for ordinal, tf in zip(ordinals, tfs)]
            bound = max(impacts)
            if 4 * len(impacts) >= self.doc_count:
                column = _zeros("d", self.doc_count)
                for ordinal, impact in zip(ordinals, impacts):
                    column[ordinal] = impact
            else:
                column = array("d", impacts)
            cached = self._impact_cache[term] = (bound, ordinals, column)
        return cached


def build_index(corpus: Corpus, cfg: AnalyzerConfig, params: Bm25Params) -> InvertedIndex:
    """Build an immutable inverted index over ``corpus``.

    Rebuilding from the same inputs produces an identical index (and an
    identical persisted file). Each distinct word is stemmed once per call.
    """
    if corpus.size == 0:
        raise ValidationError("cannot index an empty corpus")
    stem = functools.cache(porter_stem)
    doc_lengths = []
    ids = defaultdict(count().__next__)  # term -> id in row_terms, in order of first sight
    # one row per (document, term), in document order; the term and tf
    # columns start at one byte and widen when a value overflows them
    row_terms, row_tfs, row_counts = array("B"), array("B"), array("I")
    for passage in corpus.passages:
        tokens = _tokenize(passage.text, cfg, stem)
        doc_lengths.append(len(tokens))
        counts = Counter(tokens)
        row_terms = _extended(row_terms, list(map(ids.__getitem__, counts)))
        row_tfs = _extended(row_tfs, list(counts.values()))
        row_counts.append(len(counts))
    del stem  # the memo is done with; free it before the columns are made
    return InvertedIndex(
        doc_ids=tuple(p.id for p in corpus.passages),
        doc_lengths=tuple(doc_lengths),
        postings=_invert(ids, row_terms, row_tfs, row_counts),
        analyzer=cfg,
        params=params,
    )


def _narrowest(top: int) -> str:
    """The narrowest of ``_TYPECODES`` that holds ``top``."""
    return next(c for c in _TYPECODES if top >> 8 * array(c).itemsize == 0)


def _extended(column: array, values: list[int]) -> array:
    """``column`` with ``values`` appended, widened first if one of them overflows it.

    ``fromlist`` appends nothing when an item does not fit, and a list is
    copied in faster than any other iterable. Widening copies the column into
    the narrowest typecode that holds the largest value, so a column that
    ends with maximum ``top`` has ``_narrowest(top)`` and was copied at most
    three times.
    """
    try:
        column.fromlist(values)
    except OverflowError:
        column = array(_narrowest(max(values)), column)
        column.fromlist(values)
    return column


def _zeros(code: str, n: int) -> array:
    return array(code, bytes(array(code).itemsize * n))


def _invert(ids: dict[str, int], row_terms: array, row_tfs: array, row_counts: array) -> Postings:
    """Postings from rows in document order, the first ``row_counts[0]`` of
    them document 0's, and so on; ``ids`` maps each term to its id in ``row_terms``.

    The output columns take the typecodes :func:`save_index` writes: ``tfs``
    that of ``row_tfs``, and ``ordinals`` the narrowest that holds the last
    ordinal with a row.
    """
    terms = tuple(sorted(ids))
    df = [0] * len(ids)  # term id -> rows; a list counts twice as fast as an array
    for term_id in row_terms:
        df[term_id] += 1
    # a term's rows end where the row counts of the terms up to it sum to
    ends = array("Q", accumulate(map(df.__getitem__, map(ids.__getitem__, terms))))
    next_row = df  # term id -> where its next row goes; the counts are done with
    for term, start in zip(terms, chain((0,), ends)):
        next_row[ids[term]] = start
    last = max(compress(count(), row_counts), default=0)  # the last ordinal with a row
    ordinals, tfs = _zeros(_narrowest(last), len(row_terms)), _zeros(row_tfs.typecode, len(row_tfs))
    rows = zip(row_terms, row_tfs)
    # documents come in ordinal order, so each term's ordinals come out ascending
    for ordinal, n in enumerate(row_counts):
        for term_id, tf in islice(rows, n):
            i = next_row[term_id]
            ordinals[i], tfs[i], next_row[term_id] = ordinal, tf, i + 1
    return Postings(terms, ends, ordinals, tfs)


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
    postings = index.postings
    score = 0.0
    for term in tokenize(query.text, index.analyzer):
        span = postings.span(term)
        if span is None:
            continue
        lo, hi = span
        i = bisect_left(postings.ordinals, ordinal, lo, hi)  # a term's ordinals ascend
        if i == hi or postings.ordinals[i] != ordinal:
            continue
        tf = postings.tfs[i]
        score += index._idf(hi - lo) * tf * (k1 + 1.0) / (tf + k1_norm)
    return score


def retrieve_top_k(index: InvertedIndex, query: Query, k: int) -> list[RunEntry]:
    """Exact top-k candidates as untagged rows, scores descending, ties by ascending id.

    Only documents matching at least one query term are candidates, so fewer
    than k results may come back. Query tokens are visited by descending
    bound, their impacts added into partial sums, until k documents have a
    partial above the summed bounds of the tokens not yet visited; from then
    on no new document is taken, and a candidate is dropped once its partial
    plus those bounds cannot reach the k-th partial. The survivors, at most
    k or those within the float margin of the k-th, are scored in
    query-token order, as ``bm25_score`` sums, and sorted. See the module
    docstring.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    tokens = tokenize(query.text, index.analyzer)
    entries = {term: index._impacts(term) for term in tokens}
    tokens = [term for term in tokens if entries[term] is not None]  # repeats kept
    if not tokens:
        return []
    bounds = [entries[term][0] for term in tokens]
    visit = sorted(range(len(tokens)), key=bounds.__getitem__, reverse=True)
    # rests[step]: the summed bounds of the tokens after visit[step]
    rests = list(accumulate((bounds[i] for i in reversed(visit[1:])), initial=0.0))[::-1]
    # the sums below are taken in another order than the final scores: a
    # margin beyond what rounding sums of len(tokens) terms can move keeps ties
    margin = len(tokens) * 2.0 ** -50
    doc_count, partial = index.doc_count, {}
    get = partial.get
    for step, i in enumerate(visit):
        _, ordinals, impacts = entries[tokens[i]]
        if len(impacts) == doc_count:  # one impact per document: read the term's rows
            impacts = map(impacts.__getitem__, ordinals)
        for ordinal, impact in zip(ordinals, impacts):
            partial[ordinal] = get(ordinal, 0.0) + impact
        # closed once no document without a partial can reach the k-th partial
        kth = _kth_at_least(partial.values(), k, rests[step] * (1.0 + margin))
        if kth is not None:
            break
    candidates, partials = list(partial), list(partial.values())
    while len(candidates) > k:  # keep those whose partial plus the rest can reach the k-th
        floor = kth * (1.0 - margin) - rests[step]
        if floor > min(partials):  # else the prune would drop nothing
            kept = list(map(floor.__le__, partials))
            candidates, partials = list(compress(candidates, kept)), list(compress(partials, kept))
        step += 1
        if step == len(visit):
            break
        partials = list(map(add, partials, _gathered(entries[tokens[visit[step]]], candidates,
                                                     doc_count)))
        kth = _kth_at_least(partials, k, kth)  # partials only grow
    # the survivors' scores, summed in query-token order as bm25_score sums them
    gathered = {term: _gathered(entries[term], candidates, doc_count) for term in set(tokens)}
    scores = [0.0] * len(candidates)
    for term in tokens:
        scores = list(map(add, scores, gathered[term]))
    ranked = sorted(zip(candidates, scores), key=lambda item: (-item[1], index.doc_ids[item[0]]))
    return [
        RunEntry(query.id, index.doc_ids[ordinal], rank, score)
        for rank, (ordinal, score) in enumerate(ranked[:k], start=1)
    ]


def _kth_at_least(values, k: int, floor: float) -> float | None:
    """The k-th largest of ``values`` if at least k of them are at least ``floor``, else None."""
    values = list(filter(floor.__le__, values))
    if len(values) < k:
        return None
    # a sort is faster up to about 16 k values (further at k = 10), nlargest's
    # loop past that (BENCH_2026-10-21_pruned_topk.json, cutoff_ab)
    if len(values) > 16 * k:
        return heapq.nlargest(k, values)[-1]
    return sorted(values, reverse=True)[k - 1]


def _gathered(entry: tuple[float, array, array], wanted: list[int], doc_count: int) -> list[float]:
    """The cached term's impact on each ``wanted`` ordinal, 0.0 where it has no row."""
    _, ordinals, impacts = entry
    if len(impacts) == doc_count:  # one impact per document
        return list(map(impacts.__getitem__, wanted))
    # a dict of the rows is faster than a bisect per ordinal while the term has
    # up to about 4 rows per ordinal wanted (BENCH_2026-10-21_pruned_topk.json, cutoff_ab)
    if len(ordinals) <= 4 * len(wanted):
        return list(map(dict(zip(ordinals, impacts)).get, wanted, repeat(0.0)))
    rows, found = len(ordinals), []
    for ordinal in wanted:
        i = bisect_left(ordinals, ordinal)
        found.append(impacts[i] if i < rows and ordinals[i] == ordinal else 0.0)
    return found


def save_index(index: InvertedIndex, path: str) -> None:
    """Persist as one self-describing file, format v3.

    The first line is a JSON header with sorted keys and non-ASCII text as
    is. ``postings`` holds the sorted ``terms`` and, for each of three integer
    columns built from the rows in that term order, ``df`` (each term's row
    count), ``ordinals`` and ``tfs``, ``{"count": <items>, "type": <array
    typecode>}``, with the narrowest of ``B``/``H``/``I``/``Q`` that holds the
    column's maximum. The columns' little-endian bytes follow the header's
    newline in that order, so the bytes are the same on any host. The same
    index always writes the same bytes.
    """
    postings = index.postings
    columns = {
        # each term's row count is its end less the end before it
        "df": array("Q", map(sub, postings.ends, chain((0,), postings.ends))),
        "ordinals": postings.ordinals,
        "tfs": postings.tfs,
    }
    codes = {name: _narrowest(max(column, default=0)) for name, column in columns.items()}
    header = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "analyzer": {
            "lowercase": index.analyzer.lowercase,
            "token_pattern": TOKEN_PATTERN.pattern,
            "stopwords": sorted(index.analyzer.stopwords) if index.analyzer.stopwords else None,
            "stemmer": index.analyzer.stemmer,
        },
        "params": {"k1": index.params.k1, "b": index.params.b},
        # tuples encode as JSON arrays, so the document table needs no copy
        "doc_ids": index.doc_ids,
        "doc_lengths": index.doc_lengths,
        "postings": {
            "terms": postings.terms,
            **{name: {"count": len(column), "type": codes[name]}
               for name, column in columns.items()},
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.reconfigure(write_through=True)  # no queue of the encoder's small pieces
        json.dump(header, fh, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
        for name, column in columns.items():
            _write_column(fh.buffer, column, codes[name])


def _write_column(fh, column: array, code: str) -> None:
    """Write ``column``'s items as little-endian ``code`` integers, ``_CHUNK`` at a time."""
    for start in range(0, len(column), _CHUNK):
        chunk = column[start:start + _CHUNK]
        if code != chunk.typecode:
            chunk = array(code, chunk)  # narrowed item by item, with no list of ints
        if sys.byteorder == "big":
            chunk.byteswap()
        chunk.tofile(fh)


def _read_column(path: str, fh, name: str, raw: dict) -> array:
    """Column ``name``, described by its header section ``raw``, read from ``fh``
    ``_CHUNK`` items at a time."""
    code, n = raw["type"], raw["count"]
    if code not in _TYPECODES:
        raise ValidationError(f"{path}: postings column {name!r} has typecode {code!r}, "
                              f"not one of {', '.join(_TYPECODES)}")
    if not (type(n) is int and n >= 0):
        raise ValidationError(f"{path}: postings column {name!r} count must be an integer "
                              f">= 0, got {n!r}")
    column = array(code)
    try:
        while len(column) < n:
            column.fromfile(fh, min(_CHUNK, n - len(column)))
    except EOFError:
        raise ValidationError(f"{path}: the file ends inside postings column {name!r}, "
                              f"after {len(column)} of its {n} items") from None
    if sys.byteorder == "big":
        column.byteswap()
    return column


def _ascend_per_term(ordinals: array, ends: array) -> bool:
    """Each term's ordinals strictly ascend, given ``ends`` that strictly ascend.

    A row whose ordinal does not exceed the one before it must start a term,
    so there are as many such rows in all as at the term starts.
    """
    drops = sum(map(le, islice(ordinals, 1, None), ordinals))
    starts = ends[:-1]  # the last end is the column's length
    return drops == sum(ordinals[i] <= ordinals[i - 1] for i in starts)


def _read_header(path: str, fh) -> dict:
    """The header line of the index file open as ``fh``, checked to be a v3 index's."""
    try:
        header = json.loads(fh.readline())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"{path}: invalid JSON index: {exc}") from exc
    if not isinstance(header, dict):
        raise ValidationError(f"{path}: index must be a JSON object")
    if header.get("format") != INDEX_FORMAT:
        raise ValidationError(f"{path}: not a {INDEX_FORMAT} file")
    if header.get("version") in (1, 2):
        raise ValidationError(f"{path}: index format v{header['version']} is no longer read; "
                              "re-run `reranklab index` to rebuild it")
    if header.get("version") != INDEX_VERSION:
        raise ValidationError(
            f"{path}: unsupported index version {header.get('version')!r}"
        )
    missing = [key for key in _SECTIONS if key not in header]
    if missing:
        raise ValidationError(f"{path}: index lacks {', '.join(missing)}")
    return header


def load_index(path: str) -> InvertedIndex:
    """Read an index written by :func:`save_index`.

    A file whose first line is not a JSON object, that is not a v3 index or
    lacks a section raises :class:`ValidationError`, as does an analyzer
    ``lowercase`` that is not a bool or ``stopwords`` that are not a list of
    strings or null, a ``k1`` or ``b`` that is not a number (a bool is not), a
    repeated document id, a negative document length, a column whose bytes
    end before its count or are followed by more, or a postings section whose
    columns disagree in length, list the terms other than strictly ascending
    (lookups bisect them), give a term no rows, name an ordinal outside the
    document table, hold a tf below 1, or list a term's ordinals other than
    strictly ascending (both scoring paths rely on that order). A v1 or v2
    file is refused with a message to rebuild it.
    """
    try:
        with open(path, "rb") as fh:
            header = _read_header(path, fh)
            raw = header["postings"]
            terms = raw["terms"]
            df, ordinals, tfs = (_read_column(path, fh, name, raw[name]) for name in _COLUMNS)
            if fh.read(1):
                raise ValidationError(f"{path}: the file runs on after postings column 'tfs'")
        analyzer_raw = header["analyzer"]
        if analyzer_raw["token_pattern"] != TOKEN_PATTERN.pattern:  # queries would split otherwise
            raise ValidationError(f"{path}: index token_pattern must be {TOKEN_PATTERN.pattern!r}")
        lowercase, stopwords = analyzer_raw["lowercase"], analyzer_raw["stopwords"]
        if not (type(lowercase) is bool
                and (stopwords is None or type(stopwords) is list and _all(str, stopwords))):
            raise ValidationError(f"{path}: index analyzer lowercase must be a bool "
                                  "and stopwords a list of strings or null")
        analyzer = AnalyzerConfig(lowercase, frozenset(stopwords or ()), analyzer_raw["stemmer"])
        params = Bm25Params(**header["params"])
        if not set(map(type, (params.k1, params.b))) <= {int, float}:  # True passes k1 > 0
            raise ValidationError(f"{path}: index params k1 and b must be numbers")
        doc_ids = tuple(header["doc_ids"])
        doc_lengths = tuple(header["doc_lengths"])
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: malformed index: {exc!r}") from exc
    if not (_all(str, doc_ids) and _all(int, doc_lengths) and len(doc_ids) == len(doc_lengths)):
        raise ValidationError(f"{path}: doc_ids and doc_lengths must pair one string id "
                              "with one integer length per document")
    if min(doc_lengths, default=0) < 0:  # would turn length norms negative and inflate scores
        raise ValidationError(f"{path}: a doc_lengths entry is negative")
    if len(set(doc_ids)) != len(doc_ids):
        raise ValidationError(f"{path}: doc_ids repeat")
    if not (type(terms) is list and _all(str, terms)):
        raise ValidationError(f"{path}: postings terms must be a list of strings")
    if any(map(ge, terms, islice(terms, 1, None))):
        raise ValidationError(f"{path}: postings terms repeat or do not ascend")
    if not (len(terms) == len(df) and sum(df) == len(ordinals) == len(tfs)):
        raise ValidationError(
            f"{path}: postings columns disagree: {len(terms)} terms, {len(df)} df, "
            f"sum(df) {sum(df)}, {len(ordinals)} ordinals, {len(tfs)} tfs")
    if min(df, default=1) < 1:
        raise ValidationError(f"{path}: a postings term has df below 1")
    if not (max(ordinals, default=-1) < len(doc_ids) and min(tfs, default=1) >= 1):
        raise ValidationError(f"{path}: a posting row names an ordinal outside "
                              f"0..{len(doc_ids) - 1} or a tf below 1")
    ends = array("Q", accumulate(df))
    if not _ascend_per_term(ordinals, ends):
        raise ValidationError(f"{path}: a postings term's ordinals repeat or do not ascend")
    return InvertedIndex(
        doc_ids=doc_ids,
        doc_lengths=doc_lengths,
        postings=Postings(tuple(terms), ends, ordinals, tfs),
        analyzer=analyzer,
        params=params,
    )


def _all(kind: type, items) -> bool:
    """Every item's type is exactly ``kind`` (so ``True`` is not an int)."""
    return set(map(type, items)) <= {kind}
