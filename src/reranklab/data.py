"""File ingestion and persistence for corpora, queries, qrels, runs, dumps.

Line-oriented formats:

* corpus / queries — line-delimited JSON records with ``id`` and ``text``
  fields (passages can contain anything, so no CSV), or two-column
  tab-separated ``id <TAB> text``. The two are auto-detected per line.
* qrels — whitespace-separated ``qid iteration docid grade`` (grades are
  integers, stored exactly as read).
* run files — ``qid Q0 docid rank score tag`` with scores printed at a
  fixed six decimals; reads tolerate arbitrary whitespace.
* scored-pair dumps — line-delimited JSON, one record per pair, traces
  included verbatim (JSON escaping handles newlines).
* capture logs — line-delimited JSON ``{"request": …, "response": …}``, one
  line per answered backend request (read by ``backend.ReplayBackend``).

All of them are read by :func:`read_records`: blank lines are skipped, a
repeated key (passage id, query id, judged pair, run pair, scored pair) is
refused, a file with no records is refused, and every error names the file
and line. Corpus and query ids must be usable as one run-file column.

JSON object files — the pipeline config, prompt template overrides, mock
rule tables and persisted BM25 indexes — are read by
:func:`read_json_object`, which refuses anything but one JSON object.

Parsers reject malformed input rather than coercing it.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .types import (
    Corpus,
    Judgment,
    JudgmentMap,
    Passage,
    Query,
    ReasoningTrace,
    RunEntry,
    ScoredPair,
    ValidationError,
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
            ident, text = str(record["id"]), str(record["text"])
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


def _judgment(line: str) -> tuple[tuple[str, str], Judgment]:
    parts = line.split()
    if len(parts) != 4:
        raise ValidationError(f"expected 'qid iteration docid grade', got {len(parts)} fields")
    qid, _iteration, pid, grade_text = parts
    try:
        grade = int(grade_text)
    except ValueError:
        raise ValidationError(f"grade must be an integer, got {grade_text!r}") from None
    return (qid, pid), Judgment(qid, pid, grade)


def load_qrels(path: str) -> JudgmentMap:
    judgments: JudgmentMap = {}
    for j in read_records(path, _judgment, "judgment for", "no judgments"):
        judgments.setdefault(j.query_id, {})[j.passage_id] = j.grade
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
    """Read a six-column run file, restoring per-query rank order.

    Every score must be a finite number. Scores that are not non-increasing
    with rank get a warning and the query is re-ranked by score (descending,
    stable) on the way in.
    """
    parsed: dict[str, list[RunEntry]] = {}
    for e in read_records(path, _run_entry, "run entry for", "empty run file"):
        parsed.setdefault(e.query_id, []).append(e)

    entries: list[RunEntry] = []
    for qid, group in parsed.items():
        group.sort(key=lambda e: e.rank)
        ranks = [e.rank for e in group]
        if ranks != list(range(1, len(group) + 1)):
            raise ValidationError(f"{path}: query {qid!r} ranks are not contiguous 1..m")
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
    """Write a six-column run file, refusing rows that would not read back."""
    validate_run(entries)
    seen: set[tuple[str, str]] = set()
    for e in entries:
        pair = (e.query_id, e.passage_id)
        if pair in seen:
            raise ValidationError(f"duplicate run entry for {pair}")
        seen.add(pair)
        try:
            check_run_field("query id", e.query_id)
            check_run_field("passage id", e.passage_id)
            check_run_field("tag", e.tag)
        except ValidationError as exc:
            raise ValidationError(f"{exc} for {pair}") from None
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


def read_scored(path: str) -> tuple[list[ScoredPair], str]:
    """Read a scored-pair dump; returns the pairs and their strategy tag."""
    strategy: str | None = None

    def parse(line: str) -> tuple[tuple[str, str], ScoredPair]:
        nonlocal strategy
        record = json.loads(line)
        try:
            pair = ScoredPair(
                query_id=record["query_id"],
                passage_id=record["passage_id"],
                score=record["score"],
                traces=tuple(
                    ReasoningTrace(t["text"], t["terminated"], t["token_count"])
                    for t in record.get("traces", [])
                ),
                per_sample_scores=tuple(record.get("per_sample_scores", [])),
            )
            if not (isinstance(pair.query_id, str) and isinstance(pair.passage_id, str)):
                raise TypeError("query_id and passage_id must be strings")
        except (KeyError, TypeError, ValidationError) as exc:
            raise ValidationError(f"bad scored record: {exc}") from exc
        line_strategy = record.get("strategy", "")
        if strategy is None:
            strategy = line_strategy
        elif strategy != line_strategy:
            raise ValidationError(
                f"mixed strategies in one dump ({strategy!r} vs {line_strategy!r})"
            )
        return (pair.query_id, pair.passage_id), pair

    pairs = read_records(path, parse, "scored pair", "empty scored dump")
    return pairs, strategy or ""


@dataclass
class PipelineConfig:
    """Resolved settings for a pipeline run; file values then CLI overrides.

    The config file is a JSON object whose keys are these field names. Every
    command writes its resolved configuration beside its outputs so a run
    can be reproduced from the artifacts alone.
    """

    corpus: str | None = None
    queries: str | None = None
    qrels: str | None = None
    run_in: str | None = None
    index: str | None = None
    template: str | None = None
    out_dir: str | None = None
    scored: str | None = None
    backend: str | None = None
    model: str = ""
    strategy: str = "direct"
    samples: int = 8
    k: int | None = None
    gain: str = "exponential"
    grade_rule: str = "gt2"
    score_threshold: float = 0.5
    concurrency: int = 1
    seed: int = 0
    allow_partial: bool = False
    tag: str | None = None
    k1: float = 0.9
    b: float = 0.4
    stemmer: str = "none"
    stopwords: str | None = None
    no_lowercase: bool = False
    temperature: float | None = None
    top_p: float | None = None
    max_reasoning_tokens: int = 1024
    max_passage_chars: int = 2048
    timeout: float = 120.0
    max_attempts: int = 3
    capture: str | None = None

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in dataclasses.fields(cls)}

    @classmethod
    def from_sources(cls, file_values: dict, cli_values: dict) -> "PipelineConfig":
        unknown = set(file_values) - cls.field_names()
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        merged = dict(file_values)
        merged.update({k: v for k, v in cli_values.items() if v is not None})
        return cls(**{k: v for k, v in merged.items() if k in cls.field_names()})

    def write_resolved(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(self), fh, sort_keys=True, indent=2)
            fh.write("\n")


def require_path(path: str | None, what: str) -> Path:
    if not path:
        raise ValidationError(f"{what} path is required")
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"{what} file not found: {path}")
    return p
