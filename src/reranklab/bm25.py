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
Looking a term up bisects the sorted terms and returns a copy of its rows as
a :class:`PostingList`. Each document's length norm
``k1 * (1 - b + b*dl/avgdl)`` is computed once, when the index is made, and
both scoring paths read it from the same table.

Top-k retrieval is exact, with no pruning: it scores every matching document
term by term, finds the k-th largest score with a heap, and sorts only the
documents at or above it. A term's per-row impacts
``idf * tf*(k1+1) / (tf + norm)`` depend on the index alone, so the first
query that uses the term computes them into a column of doubles and the
index keeps it, next to a copy of the term's ordinals (a loop over an array
runs faster than over a view of the shared column). The cache so costs 8
bytes plus the ordinal width per posting of the terms some query has used
(plus a small fixed cost per term), never more than that per posting in the
index, and holds no entry for words the index lacks. It is derived state,
left out of equality and ``repr``. Threads that fill the same term at once
compute equal columns and one of them is kept, so no lock is needed.
Impacts are summed in query-token order, as ``bm25_score`` sums its terms,
so the two paths agree bit for bit. ``bm25_score`` never reads the cache: it
bisects the term's span of the shared columns for the document, which keeps
it an independent oracle for the cached path.

Building makes the columns directly, with no column per term: one pass over
the documents collects a (term id, tf) row per distinct term of each
document, in document order, and a counting pass moves each row to its
term's span. The row columns start at one byte and widen only when a value
overflows them; the df count is a list indexed by term id. The output
``tfs`` column takes the rows' typecode, and ``ordinals`` the narrowest that
holds the last ordinal with a row, so a built index's columns have the
typecodes of its saved and loaded copy, and the build holds, beyond what it
keeps, about the rows (3 bytes a posting when terms need 2-byte ids) and a
few words per term. It stems each distinct word once: ``build_index`` keeps
a word-to-stem memo for that document pass and drops it after, so nothing
stays warm between builds or between a build and later queries. Queries
stem through ``tokenize`` without a memo.

The persisted file is format v2: one JSON object whose header sections
(analyzer, params, document ids and lengths) are plain JSON and whose
postings are three packed little-endian integer columns, ``df`` (rows per
term, in ``terms`` order), ``ordinals`` and ``tfs``, each base64-encoded in
the narrowest typecode that holds it. Saving streams the file: each list
and each column is written a chunk of items at a time, so the save holds
no text as long as the file, only a chunk's worth beside the index. Its
bytes are those of one ``json.dumps`` call with sorted keys over the whole
object. Loading streams it too: the file is read a chunk at a time, and
each ``"base64"`` string is decoded as it arrives, in whole 4-character
groups, so only the text outside those strings (the header sections and
the terms, which the index keeps anyway) is held whole and parsed by
``json.loads``. The columns keep the file's typecodes. A file in any JSON
layout loads; one the stream cannot take (not UTF-8 JSON holding one
object, or a base64 string holding an escape or other text) is read by
``json.load`` instead, which loads it or says why it is not an index, as
before. Files of format v1 (one JSON array per posting row) are refused;
rebuild them with ``reranklab index``.
"""

from __future__ import annotations

import base64
import heapq
import json
import math
import re
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, islice
from operator import ge, le, sub

from .data import read_json_object
from .porter import porter_stem
from .types import Corpus, Query, RunEntry, ValidationError

INDEX_FORMAT = "reranklab-bm25-index"
INDEX_VERSION = 2

_STEMMERS = ("none", "porter")
TOKEN_PATTERN = re.compile(r"[^\W_]+")  # runs of alphanumerics
_SECTIONS = ("analyzer", "params", "doc_ids", "doc_lengths", "postings")
_COLUMNS = ("df", "ordinals", "tfs")
_TYPECODES = ("B", "H", "I", "Q")  # unsigned, 1, 2, 4 and 8 bytes
_CHUNK = 3 << 8  # items of a list or column written at a time
_READ = 1 << 16  # characters of an index file read at a time

# how JSON may spell the key "base64": any character as its \u escape (all
# six escapes have decimal hex digits, so there is no case to vary)
_KEY_NAME = "".join(rf"(?:{c}|\\u{ord(c):04x})" for c in "base64")
_KEY = re.compile(rf'"{_KEY_NAME}"[ \t\n\r]*:[ \t\n\r]*"')  # up to a string value's quote
_KEY_STRING = re.compile(rf'"{_KEY_NAME}"')
_KEY_UNDECIDED = re.compile(r"[ \t\n\r]*(?::[ \t\n\r]*)?")  # may yet run on into a value
# text outside strings and up to 64 whole strings with no escape, up to a
# string spelling "base64", holding an escape or not complete in the text.
# A regex repeat of a group keeps backtracking state for each pass (Python
# 3.10 has no possessive or atomic repeat to drop it), so the passes are
# bounded and escapes are left to _string_end, which steps over the strings
# this stops at
_SKIP = re.compile(rf'[^"]*(?:"(?!{_KEY_NAME}")[^"\\]*"[^"]*){{0,64}}')
_QUOTE_OR_BACKSLASH = re.compile(r'["\\]')
_BASE64_RUN = re.compile(r"[A-Za-z0-9+/=]*")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


class _StemMemo(dict):
    """Word -> Porter stem, filled on first sight of each word."""

    def __missing__(self, word: str) -> str:
        stem = self[word] = porter_stem(word)
        return stem


class _TermIds(dict):
    """Term -> 0, 1, 2, ... in order of first sight."""

    def __missing__(self, term: str) -> int:
        term_id = self[term] = len(self)
        return term_id


class PostingList(Sequence):
    """One term's posting rows as two columns, ``ordinals`` (ascending) and ``tfs``.

    A read-only sequence of ``(ordinal, tf)`` pairs that compares equal to
    another posting list or a tuple holding the same pairs, whatever the
    columns' array typecodes, and whose ``repr`` is that tuple's. It is
    unhashable, as a list is.
    """

    __slots__ = ("ordinals", "tfs")

    def __init__(self, ordinals: array, tfs: array) -> None:
        self.ordinals, self.tfs = ordinals, tfs

    def __len__(self) -> int:
        return len(self.ordinals)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PostingList(self.ordinals[i], self.tfs[i])
        return self.ordinals[i], self.tfs[i]

    def __iter__(self):
        return zip(self.ordinals, self.tfs)

    def __eq__(self, other) -> bool:
        if isinstance(other, PostingList):
            return self.ordinals == other.ordinals and self.tfs == other.tfs
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(tuple(self))


class Postings(Mapping):
    """Term -> :class:`PostingList`, every term's rows in one shared column pair.

    ``terms`` ascend; term ``i``'s rows are ``ordinals[lo:hi]`` and
    ``tfs[lo:hi]``, where ``hi`` is ``ends[i]`` and ``lo`` the end before it
    (0 for the first term). Looking a term up returns a copy of its slice, so
    nothing is held per term beyond its string and its end. A read-only
    mapping that iterates its terms in sorted order and compares equal to a
    dict holding the same rows, with that dict's ``repr``.
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

    def __getitem__(self, term: str) -> PostingList:
        span = self.span(term)
        if span is None:
            raise KeyError(term)
        lo, hi = span
        return PostingList(self.ordinals[lo:hi], self.tfs[lo:hi])

    def __contains__(self, term) -> bool:
        return self.span(term) is not None

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Postings):  # equal columns hold equal rows: no slice per term
            return (self.terms == other.terms and self.ends == other.ends
                    and self.ordinals == other.ordinals and self.tfs == other.tfs)
        return super().__eq__(other)

    __hash__ = None

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class InvertedIndex:
    doc_ids: tuple[str, ...]
    doc_lengths: tuple[int, ...]
    postings: Postings  # term -> rows (ordinal, tf), ordinals ascending, in shared columns
    analyzer: AnalyzerConfig
    params: Bm25Params
    avg_doc_length: float = field(init=False)
    # k1 * (1 - b + b*dl/avgdl) per document ordinal, and term -> (ordinals,
    # impacts) filled by _impacts; derived from the fields above, so equality
    # and repr leave them out
    length_norms: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _impact_cache: dict[str, tuple[array, array]] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_impact_cache", {})

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    def _idf(self, term: str) -> float:
        span = self.postings.span(term)
        if span is None:
            return 0.0
        df, n = span[1] - span[0], self.doc_count
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def _impacts(self, term: str) -> tuple[array, array] | None:
        """``(ordinals, impacts)`` of the term's rows, or None if the index lacks it.

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
            idf, k1, norms = self._idf(term), self.params.k1, self.length_norms
            numerators = {tf: idf * tf * (k1 + 1.0) for tf in set(tfs)}
            impacts = array("d", [numerators[tf] / (tf + norms[ordinal])
                                  for ordinal, tf in zip(ordinals, tfs)])
            cached = self._impact_cache[term] = (ordinals, impacts)
        return cached


def build_index(corpus: Corpus, cfg: AnalyzerConfig, params: Bm25Params) -> InvertedIndex:
    """Build an immutable inverted index over ``corpus``.

    Rebuilding from the same inputs produces an identical index (and an
    identical persisted file). Each distinct word is stemmed once per call.
    """
    if corpus.size == 0:
        raise ValidationError("cannot index an empty corpus")
    stem = _StemMemo().__getitem__
    doc_lengths = []
    ids = _TermIds()  # term -> id in row_terms
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
    # term-at-a-time accumulation in query-token order: float summation order
    # matches bm25_score exactly, so the two paths agree bit-for-bit
    scores: dict[int, float] = {}
    get = scores.get
    for term in tokenize(query.text, index.analyzer):
        columns = index._impacts(term)
        if columns is None:
            continue
        for ordinal, impact in zip(*columns):
            scores[ordinal] = get(ordinal, 0.0) + impact
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
    """Persist as a single self-describing JSON file, format v2.

    Keys are sorted, non-ASCII text is written as is, and the file ends in
    one newline. ``postings`` holds the sorted ``terms`` and three integer
    columns built from the rows in that term order: ``df`` (each term's row
    count), ``ordinals`` and ``tfs``. Each column is
    ``{"type": <array typecode>, "base64": <little-endian bytes>}``, with the
    narrowest of ``B``/``H``/``I``/``Q`` that holds its maximum, so the bytes
    are the same on any host. The same index always writes the same bytes.
    """
    postings = index.postings
    payload = {
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
            # each term's row count is its end less the end before it
            "df": array("Q", map(sub, postings.ends, chain((0,), postings.ends))),
            "ordinals": postings.ordinals,
            "tfs": postings.tfs,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, payload)
        fh.write("\n")


def _write_json(fh, value) -> None:
    """Write ``value`` as ``json.dumps(value, sort_keys=True, ensure_ascii=False)``
    would, with each ``array`` in it as a packed column.

    Dicts are walked here, and lists, tuples and columns written ``_CHUNK``
    items at a time, so no text longer than a chunk's is made. Each chunk of
    a list is one ``json.dumps`` call, which runs the C encoder: its cost,
    a string object per item and separator, stays bounded by the chunk.
    """
    if isinstance(value, dict):
        fh.write("{")
        for i, key in enumerate(sorted(value)):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_json(fh, value[key])
        fh.write("}")
    elif isinstance(value, array):
        _write_column(fh, value)
    elif isinstance(value, (list, tuple)):  # one json.dumps per chunk of items
        fh.write("[")
        for start in range(0, len(value), _CHUNK):
            text = json.dumps(value[start:start + _CHUNK], sort_keys=True, ensure_ascii=False)
            fh.write(f"{', ' if start else ''}{text[1:-1]}")
        fh.write("]")
    else:
        fh.write(json.dumps(value, sort_keys=True, ensure_ascii=False))


def _write_column(fh, column: array) -> None:
    """Write ``{"base64": <little-endian bytes>, "type": <code>}`` for ``column``.

    The code is the narrowest that holds the column's maximum. The column is
    converted and encoded ``_CHUNK`` items at a time, a multiple of 3, so
    each chunk's bytes are whole base64 groups and the chunks join into the
    encoding of the whole column with no padding between them.
    """
    code = _narrowest(max(column, default=0))
    fh.write('{"base64": "')
    for start in range(0, len(column), _CHUNK):
        chunk = column[start:start + _CHUNK]
        if code != chunk.typecode:
            chunk = array(code, chunk)  # narrowed item by item, with no list of ints
        if sys.byteorder == "big":
            chunk.byteswap()
        fh.write(base64.b64encode(chunk.tobytes()).decode("ascii"))
    fh.write(f'", "type": "{code}"}}')


def _read_streamed(path: str) -> tuple[dict, list[bytearray]] | None:
    """The index file's JSON object, each string under a ``"base64"`` key decoded as it is read.

    The file is read ``_READ`` characters at a time. The text outside those
    strings goes to one ``json.loads``, with each string replaced by the
    number, as a string, of its entry in the returned list: its bytes. A string
    spelling "base64" is always found whole, so every string left under such
    a key is a number. Returns None where ``json.load`` must read the file
    instead: it is not UTF-8 JSON holding one object, or a base64 string
    holds an escape, a character base64 lacks, padding before its end, or
    text ``b64decode`` refuses.
    """
    out, columns = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            text, start, pos = fh.read(_READ), 0, 0
            while True:
                pos = _SKIP.match(text, pos).end()
                key = _KEY.match(text, pos)
                if key is not None:
                    decoded = _decode_string(fh, text, key.end())
                    if decoded is None:
                        return None
                    out.append(f"{text[start:key.end()]}{len(columns)}\"")
                    column, text, pos = decoded
                    columns.append(column)
                    start = pos
                    continue
                name = _KEY_STRING.match(text, pos)
                if name is None:
                    end = _string_end(text, pos)
                    if end is not None:  # a string with an escape, or the 65th
                        pos = end
                        continue
                elif not _KEY_UNDECIDED.fullmatch(text, name.end()):
                    pos = name.end()  # a "base64" that is no key of a string
                    continue
                # the text is used up, or ends inside a string or after a "base64"
                out.append(text[start:pos])
                more = fh.read(_READ)
                if not more:
                    out.append(text[pos:])
                    break
                text, start, pos = text[pos:] + more, 0, 0
        payload = json.loads("".join(out))
    except ValueError:  # JSONDecodeError, UnicodeDecodeError, binascii.Error
        return None
    return (payload, columns) if isinstance(payload, dict) else None


def _string_end(text: str, pos: int) -> int | None:
    """The position just past the string whose quote is ``text[pos]``; None
    if the text ends first. One search per escape, with no regex state."""
    while True:
        found = _QUOTE_OR_BACKSLASH.search(text, pos + 1)
        if found is None:
            return None
        if found[0] == '"':
            return found.end()
        pos = found.start() + 1  # the escaped character, passed over by the next search


def _decode_string(fh, text: str, pos: int) -> tuple[bytearray, str, int] | None:
    """Decode the base64 string whose text starts at ``text[pos]`` and may run on in ``fh``.

    Returns its bytes, the text last read and the position just past the
    closing quote; None if the string holds anything but base64 characters
    with padding at its end, or the file ends inside it.
    """
    column, pending = bytearray(), ""
    while True:
        end = _BASE64_RUN.match(text, pos).end()
        data = pending + text[pos:end]
        if end < len(text):  # the closing quote, or a character base64 lacks
            if text[end] != '"':
                return None
            column += base64.b64decode(data, validate=True)
            return column, text, end + 1
        whole = len(data) - len(data) % 4
        pad = data.find("=")
        if pad >= 0:  # padding ends a base64 string: decode its group with the end
            if data[pad:] not in ("=", "=="):
                return None
            whole = pad - pad % 4
        column += base64.b64decode(data[:whole], validate=True)
        pending = data[whole:]
        text, pos = fh.read(_READ), 0
        if not text:
            return None


def _unpack(path: str, name: str, raw: dict, columns: list[bytearray] | None) -> array:
    """Column ``name`` from its section ``raw``: its base64 text, or, for a
    streamed file, the number of its decoded bytes in ``columns``."""
    code = raw["type"]
    if code not in _TYPECODES:
        raise ValidationError(f"{path}: postings column {name!r} has typecode {code!r}, "
                              f"not one of {', '.join(_TYPECODES)}")
    data = raw["base64"]
    column = array(code)
    try:
        if columns is not None and type(data) is str:
            column.frombytes(columns[int(data)])
            columns[int(data)] = None  # freed once copied
        else:
            column.frombytes(base64.b64decode(data, validate=True))
    except ValueError as exc:  # bad base64 (binascii.Error), or a partial integer
        raise ValidationError(f"{path}: postings column {name!r} is not base64 of "
                              f"{code!r} integers: {exc}") from exc
    if sys.byteorder == "big":
        column.byteswap()
    return column


def load_index(path: str) -> InvertedIndex:
    """Read an index written by :func:`save_index`.

    A file that is not JSON, not a v2 index object, or lacks a section
    raises :class:`ValidationError`, as does an analyzer ``lowercase`` that
    is not a bool or ``stopwords`` that are not a list of strings or null, a
    ``k1`` or ``b`` that is not a number (a bool is not), a repeated
    document id, a negative document length, or a postings section whose
    columns disagree in length, list the terms other than strictly ascending
    (lookups bisect them), give a term no rows, name an ordinal outside the
    document table, hold a tf below 1, or list a term's ordinals other than
    strictly ascending (both scoring paths rely on that order). A v1 file is
    refused with a message to rebuild it.
    """
    streamed = _read_streamed(path)
    if streamed is None:  # json.load reads it whole, and says why it is not an index
        payload, columns = read_json_object(path, "index"), None
    else:
        payload, columns = streamed
    if payload.get("format") != INDEX_FORMAT:
        raise ValidationError(f"{path}: not a {INDEX_FORMAT} file")
    if payload.get("version") == 1:
        raise ValidationError(f"{path}: index format v1 is no longer read; "
                              "re-run `reranklab index` to rebuild it")
    if payload.get("version") != INDEX_VERSION:
        raise ValidationError(
            f"{path}: unsupported index version {payload.get('version')!r}"
        )
    missing = [key for key in _SECTIONS if key not in payload]
    if missing:
        raise ValidationError(f"{path}: index lacks {', '.join(missing)}")
    try:
        analyzer_raw = payload["analyzer"]
        if analyzer_raw["token_pattern"] != TOKEN_PATTERN.pattern:  # queries would split otherwise
            raise ValidationError(f"{path}: index token_pattern must be {TOKEN_PATTERN.pattern!r}")
        lowercase, stopwords = analyzer_raw["lowercase"], analyzer_raw["stopwords"]
        if not (type(lowercase) is bool
                and (stopwords is None or type(stopwords) is list and _all(str, stopwords))):
            raise ValidationError(f"{path}: index analyzer lowercase must be a bool "
                                  "and stopwords a list of strings or null")
        analyzer = AnalyzerConfig(lowercase, frozenset(stopwords or ()), analyzer_raw["stemmer"])
        params = Bm25Params(**payload["params"])
        if not set(map(type, (params.k1, params.b))) <= {int, float}:  # True passes k1 > 0
            raise ValidationError(f"{path}: index params k1 and b must be numbers")
        doc_ids = tuple(payload["doc_ids"])
        doc_lengths = tuple(payload["doc_lengths"])
        raw = payload["postings"]
        terms = raw["terms"]
        # popped, so a column's base64 text read by json.load is freed once it is unpacked
        df, ordinals, tfs = (_unpack(path, name, raw.pop(name), columns) for name in _COLUMNS)
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
    # a row whose ordinal does not exceed the one before it must start a term,
    # that is, be where the term before it ends
    ends = array("Q", accumulate(df))
    breaks = compress(count(1), map(le, islice(ordinals, 1, None), ordinals))
    if not all(ends[bisect_left(ends, row)] == row for row in breaks):
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
