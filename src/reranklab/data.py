"""File ingestion and persistence for corpora, queries, qrels, runs, dumps.

Line-oriented formats:

* corpus / queries — line-delimited JSON records with a string or integer
  ``id`` and a string ``text`` (passages can contain anything, so no CSV),
  or two-column tab-separated ``id <TAB> text``. The two are auto-detected
  per line.
* qrels — whitespace-separated ``qid iteration docid grade`` (grades are
  integers, stored exactly as read).
* run files — ``qid Q0 docid rank score tag`` with scores printed at a
  fixed six decimals; reads tolerate arbitrary whitespace. Both directions
  check the rows as one ranked list with :func:`types.ranked_lists`.
* scored-pair dumps — line-delimited JSON, one record per pair, traces
  included verbatim (JSON escaping handles newlines).
* capture logs — line-delimited JSON ``{"request": …, "response": …}``, one
  line per answered backend request (read by ``backend.ReplayBackend``).

All of them are read by :func:`read_records`: blank lines are skipped, a
repeated key (passage id, query id, judged pair, run pair, scored pair) is
refused, a file with no records is refused, and every error names the file
and line. Corpus and query ids must be usable as one run-file column.

JSON object files — the CLI `--config` file, prompt template overrides, mock
rule tables and persisted BM25 indexes — are read by
:func:`read_json_object`, which refuses anything but one JSON object.

Parsers reject malformed input rather than coercing it.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from typing import Callable, Sequence

from .types import (
    Corpus,
    JudgmentMap,
    Passage,
    Query,
    ReasoningTrace,
    RunEntry,
    ScoredPair,
    ValidationError,
    ranked_lists,
    validate_run,
)

log = logging.getLogger(__name__)


def read_records(path: str, parse: Callable[[str], tuple], what: str, empty: str) -> list:
    """Parse each non-blank line of a text file into one record.

    ``parse(line)`` gets the raw line, newline included, and returns
    ``(key, record)``; a key seen on an earlier line is refused as a
    duplicate ``what``, and a key of ``None`` is not checked. Invalid JSON
    and :class:`ValidationError` from ``parse`` are re-raised with the
    ``path:line:`` prefix. A file with no records raises ``path: <empty>``.
    """
    records = []
    first_seen: dict = {}
    line_no = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if line.isspace():
                    continue
                key, record = parse(line)
                if key is not None:
                    first = first_seen.setdefault(key, line_no)
                    if first != line_no:
                        raise ValidationError(
                            f"duplicate {what} {key!r} (first seen on line {first})"
                        )
                records.append(record)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
    except ValidationError as exc:
        raise ValidationError(f"{path}:{line_no}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    if not records:
        raise ValidationError(f"{path}: {empty}")
    return records


def read_json_object(path: str, what: str) -> dict:
    """Read a file that holds one JSON object (config, template, mock table, index)."""
    try:
        with open(path, encoding="utf-8") as fh:
            value = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"{path}: invalid JSON {what}: {exc}") from exc
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: {what} must be a JSON object")
    return value


def _id_text_records(path: str, what: str, make: Callable, empty: str) -> list:
    """``make(id, text)`` per line of a JSONL or TSV id/text file, keyed by id."""

    def parse(line: str) -> tuple:
        if line.lstrip().startswith("{"):
            record = json.loads(line)
            if "id" not in record or "text" not in record:
                raise ValidationError("record must have 'id' and 'text' fields")
            ident, text = record["id"], record["text"]
            if type(ident) is int:  # a bool is not an id
                ident = str(ident)
            if type(ident) is not str or type(text) is not str:
                raise ValidationError("'id' must be a string or an integer and 'text' a string")
        else:
            ident, tab, text = line.rstrip("\n").partition("\t")
            if not tab:
                raise ValidationError("expected JSON object or 'id<TAB>text'")
        check_run_field(what, ident)
        return ident, make(ident, text)

    return read_records(path, parse, what, empty)


def load_corpus(path: str) -> Corpus:
    return Corpus(tuple(_id_text_records(path, "passage id", Passage, "empty corpus")))


def load_queries(path: str) -> list[Query]:
    return _id_text_records(path, "query id", Query, "no queries")


def _judgment(line: str) -> tuple[tuple[str, str], tuple[str, str, int]]:
    parts = line.split()
    if len(parts) != 4:
        raise ValidationError(f"expected 'qid iteration docid grade', got {len(parts)} fields")
    qid, _iteration, pid, grade_text = parts
    try:
        grade = int(grade_text)
    except ValueError:
        raise ValidationError(f"grade must be an integer, got {grade_text!r}") from None
    if grade < 0:
        raise ValidationError(f"grade must be >= 0, got {grade}")
    return (qid, pid), (qid, pid, grade)


def load_qrels(path: str) -> JudgmentMap:
    judgments: JudgmentMap = {}
    for qid, pid, grade in read_records(path, _judgment, "judgment for", "no judgments"):
        judgments.setdefault(qid, {})[pid] = grade
    return judgments


def write_qrels(path: str, judgments: JudgmentMap) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid in judgments:
            for pid, grade in judgments[qid].items():
                fh.write(f"{qid} 0 {pid} {grade}\n")


def _run_entry(line: str) -> tuple[tuple[str, str], RunEntry]:
    parts = line.split()
    if len(parts) != 6:
        raise ValidationError(
            f"expected 'qid Q0 docid rank score tag', got {len(parts)} fields"
        )
    qid, _q0, pid, rank_text, score_text, tag = parts
    try:
        rank = int(rank_text)
    except ValueError:
        raise ValidationError(f"rank must be an integer, got {rank_text!r}") from None
    try:
        score = float(score_text)
    except ValueError:
        raise ValidationError(f"score must be a finite number, got {score_text!r}") from None
    return (qid, pid), RunEntry(qid, pid, rank, score, tag)


def read_run(path: str) -> list[RunEntry]:
    """Read a six-column run file as a ranked list, each query's rows in rank order.

    Every score must be a finite number, and the rows must pass
    :func:`types.ranked_lists`; its errors are prefixed with the path. Scores
    that are not non-increasing with rank get a warning and the query is
    re-ranked by score (descending, stable) on the way in.
    """
    rows = read_records(path, _run_entry, "run entry for", "empty run file")
    try:
        lists = ranked_lists(rows)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    entries: list[RunEntry] = []
    for qid, group in lists.items():
        scores = [e.score for e in group]
        if any(b > a for a, b in zip(scores, scores[1:])):
            log.warning(
                "%s: query %r scores are not non-increasing with rank; re-ranking by score",
                path,
                qid,
            )
            group.sort(key=lambda e: -e.score)
            group = [
                dataclasses.replace(e, rank=i) for i, e in enumerate(group, start=1)
            ]
        entries.extend(group)
    return entries


def check_run_field(name: str, value: str) -> None:
    """Refuse a value that would not read back as one run-file column."""
    if value.split() != [value]:  # empty, or split into several fields
        raise ValidationError(
            f"{name} must be non-empty without whitespace in a run file, got {value!r}"
        )


def write_run(path: str, entries: Sequence[RunEntry]) -> None:
    """Write a six-column run file, refusing rows that would not read back.

    The rows must pass :func:`types.validate_run` (a ranked list with
    non-increasing scores), and every id and tag must be one column.
    """
    validate_run(entries)
    for e in entries:
        try:
            check_run_field("query id", e.query_id)
            check_run_field("passage id", e.passage_id)
            check_run_field("tag", e.tag)
        except ValidationError as exc:
            raise ValidationError(f"{exc} for {(e.query_id, e.passage_id)}") from None
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(f"{e.query_id} Q0 {e.passage_id} {e.rank} {e.score:.6f} {e.tag}\n")


def write_scored(path: str, pairs: Sequence[ScoredPair], strategy: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            record = {
                "query_id": p.query_id,
                "passage_id": p.passage_id,
                "score": p.score,
                "per_sample_scores": list(p.per_sample_scores),
                "traces": [
                    {"text": t.text, "terminated": t.terminated, "token_count": t.token_count}
                    for t in p.traces
                ],
                "strategy": strategy,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


_NUMBER = {float, int}  # by exact type, so a JSON true is not a score


def _trace(t: dict) -> ReasoningTrace:
    text, terminated, token_count = t["text"], t["terminated"], t["token_count"]
    if not (type(text) is str and type(terminated) is bool
            and type(token_count) is int and token_count >= 0):
        raise TypeError("a trace needs a string text, a bool terminated "
                        "and an integer token_count >= 0")
    return ReasoningTrace(text, terminated, token_count)


def read_scored(path: str) -> tuple[list[ScoredPair], str]:
    """Read a scored-pair dump; returns the pairs and their strategy tag.

    Field types are checked, not coerced: ids, strategy and trace text are
    strings, ``terminated`` a bool, ``token_count`` an integer >= 0, and the
    score and per-sample scores numbers (not bools).
    """
    strategy: str | None = None

    def parse(line: str) -> tuple[tuple[str, str], ScoredPair]:
        nonlocal strategy
        record = json.loads(line)
        try:
            score, samples = record["score"], record.get("per_sample_scores", [])
            if not (type(score) in _NUMBER and set(map(type, samples)) <= _NUMBER):
                raise TypeError("score and per_sample_scores must be numbers")
            pair = ScoredPair(
                query_id=record["query_id"],
                passage_id=record["passage_id"],
                score=score,
                traces=tuple(map(_trace, record.get("traces", []))),
                per_sample_scores=tuple(samples),
            )
            if not (isinstance(pair.query_id, str) and isinstance(pair.passage_id, str)):
                raise TypeError("query_id and passage_id must be strings")
        except (KeyError, TypeError, ValidationError) as exc:
            raise ValidationError(f"bad scored record: {exc}") from exc
        line_strategy = record.get("strategy", "")
        if type(line_strategy) is not str:
            raise ValidationError(f"strategy must be a string, got {json.dumps(line_strategy)}")
        if strategy is None:
            strategy = line_strategy
        elif strategy != line_strategy:
            raise ValidationError(
                f"mixed strategies in one dump ({strategy!r} vs {line_strategy!r})"
            )
        return (pair.query_id, pair.passage_id), pair

    pairs = read_records(path, parse, "scored pair", "empty scored dump")
    return pairs, strategy or ""
