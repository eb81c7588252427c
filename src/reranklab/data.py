"""File ingestion and persistence for corpora, queries, qrels, runs, dumps.

Formats:

* corpus / queries — line-delimited JSON records with ``id`` and ``text``
  fields (passages can contain anything, so no CSV), or two-column
  tab-separated ``id <TAB> text``. The two are auto-detected per file.
* qrels — whitespace-separated ``qid iteration docid grade`` (grades are
  integers, stored exactly as read).
* run files — ``qid Q0 docid rank score tag`` with scores printed at a
  fixed six decimals; reads tolerate arbitrary whitespace.
* scored-pair dumps — line-delimited JSON, one record per pair, traces
  included verbatim (JSON escaping handles newlines).

Parsers reject malformed input rather than coercing it, and every error
names the file and line.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

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


def _iter_id_text(path: str):
    """Yield (line_no, id, text) from a JSONL or TSV id/text file."""
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.lstrip().startswith("{"):
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValidationError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
                if "id" not in record or "text" not in record:
                    raise ValidationError(
                        f"{path}:{line_no}: record must have 'id' and 'text' fields"
                    )
                yield line_no, str(record["id"]), str(record["text"])
            else:
                parts = line.split("\t", 1)
                if len(parts) != 2:
                    raise ValidationError(
                        f"{path}:{line_no}: expected JSON object or 'id<TAB>text'"
                    )
                yield line_no, parts[0], parts[1]


def load_corpus(path: str) -> Corpus:
    passages = []
    seen: dict[str, int] = {}
    for line_no, pid, text in _iter_id_text(path):
        if pid in seen:
            raise ValidationError(
                f"{path}:{line_no}: duplicate passage id {pid!r} (first seen on line {seen[pid]})"
            )
        seen[pid] = line_no
        if not pid:
            raise ValidationError(f"{path}:{line_no}: empty passage id")
        passages.append(Passage(pid, text))
    if not passages:
        raise ValidationError(f"{path}: empty corpus")
    return Corpus(tuple(passages))


def load_queries(path: str) -> list[Query]:
    queries = []
    seen: dict[str, int] = {}
    for line_no, qid, text in _iter_id_text(path):
        if qid in seen:
            raise ValidationError(
                f"{path}:{line_no}: duplicate query id {qid!r} (first seen on line {seen[qid]})"
            )
        seen[qid] = line_no
        try:
            queries.append(Query(qid, text))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{line_no}: {exc}") from exc
    if not queries:
        raise ValidationError(f"{path}: no queries")
    return queries


def load_qrels(path: str) -> JudgmentMap:
    judgments: JudgmentMap = {}
    lines: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValidationError(
                    f"{path}:{line_no}: expected 'qid iteration docid grade', got {len(parts)} fields"
                )
            qid, _iteration, pid, grade_text = parts
            try:
                grade = int(grade_text)
            except ValueError:
                raise ValidationError(
                    f"{path}:{line_no}: grade must be an integer, got {grade_text!r}"
                ) from None
            key = (qid, pid)
            if key in lines:
                raise ValidationError(
                    f"{path}:{line_no}: duplicate judgment for {key} "
                    f"(first seen on line {lines[key]})"
                )
            lines[key] = line_no
            try:
                Judgment(qid, pid, grade)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{line_no}: {exc}") from exc
            judgments.setdefault(qid, {})[pid] = grade
    if not judgments:
        raise ValidationError(f"{path}: no judgments")
    return judgments


def write_qrels(path: str, judgments: JudgmentMap) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid in judgments:
            for pid, grade in judgments[qid].items():
                fh.write(f"{qid} 0 {pid} {grade}\n")


def read_run(path: str) -> list[RunEntry]:
    """Read a six-column run file, restoring per-query rank order.

    Every score must be a finite number. Scores that are not non-increasing
    with rank get a warning and the query is re-ranked by score (descending,
    stable) on the way in.
    """
    parsed: dict[str, list[RunEntry]] = {}
    seen: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ValidationError(
                    f"{path}:{line_no}: expected 'qid Q0 docid rank score tag', "
                    f"got {len(parts)} fields"
                )
            qid, _q0, pid, rank_text, score_text, tag = parts
            if (qid, pid) in seen:
                raise ValidationError(
                    f"{path}:{line_no}: duplicate run entry for ({qid!r}, {pid!r}) "
                    f"(first seen on line {seen[(qid, pid)]})"
                )
            seen[(qid, pid)] = line_no
            try:
                rank = int(rank_text)
            except ValueError:
                raise ValidationError(
                    f"{path}:{line_no}: rank must be an integer, got {rank_text!r}"
                ) from None
            try:
                score = float(score_text)
            except ValueError:
                raise ValidationError(
                    f"{path}:{line_no}: score must be a finite number, got {score_text!r}"
                ) from None
            try:
                entry = RunEntry(qid, pid, rank, score, tag)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{line_no}: {exc}") from exc
            parsed.setdefault(qid, []).append(entry)

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
    if not entries:
        raise ValidationError(f"{path}: empty run file")
    return entries


def write_run(path: str, entries: Sequence[RunEntry]) -> None:
    """Write a six-column run file, refusing rows that would not read back."""
    validate_run(entries)
    for e in entries:
        for name, value in (("query id", e.query_id), ("passage id", e.passage_id), ("tag", e.tag)):
            if value.split() != [value]:  # empty, or split into several fields
                raise ValidationError(
                    f"{name} must be non-empty without whitespace in a run file, "
                    f"got {value!r} for ({e.query_id!r}, {e.passage_id!r})"
                )
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
    pairs: list[ScoredPair] = []
    strategy: str | None = None
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
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
            except (KeyError, TypeError, ValidationError) as exc:
                raise ValidationError(f"{path}:{line_no}: bad scored record: {exc}") from exc
            line_strategy = record.get("strategy", "")
            if strategy is None:
                strategy = line_strategy
            elif strategy != line_strategy:
                raise ValidationError(
                    f"{path}:{line_no}: mixed strategies in one dump "
                    f"({strategy!r} vs {line_strategy!r})"
                )
            pairs.append(pair)
    if not pairs:
        raise ValidationError(f"{path}: empty scored dump")
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


def load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return raw


def require_path(path: str | None, what: str) -> Path:
    if not path:
        raise ValidationError(f"{what} path is required")
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"{what} file not found: {path}")
    return p
