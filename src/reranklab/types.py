"""Shared domain types for the retrieval and reranking pipeline.

Everything here is immutable after construction and safe to share across
threads. Ids are opaque strings; no numeric parsing is ever applied to them.
Relevance scores are plain floats in [0, 1], validated where they are
constructed. ``RunEntry`` is the one ranked-row type: a first-stage candidate
list and a reranked run are both lists of it, and :func:`ranked_lists` is the
one check of such a list (ranks 1..k per query, no passage twice) that every
reader, writer, reranker and metric goes through.

The row and pair types are slotted dataclasses, with no per-instance
``__dict__``, so a run row costs its fields alone. The readers in ``data``
(``read_run``, ``iter_scored``) give all rows of a query one shared
query-id string and all rows of a run one tag string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable


class ValidationError(ValueError):
    """Raised when input data violates a structural invariant."""


@dataclass(frozen=True, slots=True)
class Query:
    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("query id must be non-empty")
        if not self.text:
            raise ValidationError(f"query {self.id!r} has empty text")


@dataclass(frozen=True, slots=True)
class Passage:
    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("passage id must be non-empty")


@dataclass(frozen=True)
class Corpus:
    """An ordered, id-unique collection of passages."""

    passages: tuple[Passage, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for p in self.passages:
            if p.id in seen:
                raise ValidationError(f"duplicate passage id {p.id!r}")
            seen.add(p.id)

    @property
    def size(self) -> int:
        return len(self.passages)

    @cached_property
    def _by_id(self) -> dict[str, Passage]:
        return {p.id: p for p in self.passages}

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._by_id

    def passage(self, passage_id: str) -> Passage:
        try:
            return self._by_id[passage_id]
        except KeyError:
            raise ValidationError(f"unknown passage id {passage_id!r}") from None


@dataclass(frozen=True, slots=True)
class DecisionLogits:
    """Log-scale model scores for the two decision tokens at one position."""

    true_logit: float
    false_logit: float

    def __post_init__(self) -> None:
        for name, v in (("true_logit", self.true_logit), ("false_logit", self.false_logit)):
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v}")


@dataclass(frozen=True, slots=True)
class ReasoningTrace:
    """A generated reasoning continuation.

    ``text`` never contains the end-of-think marker; ``terminated`` records
    whether the marker was actually produced (False means the token budget
    ran out first, or the model ended its output without the marker).
    """

    text: str
    terminated: bool
    token_count: int


# qid -> {passage_id -> grade}; built by data.load_qrels, at most one grade per pair
JudgmentMap = dict[str, dict[str, int]]


@dataclass(frozen=True, slots=True)
class RunEntry:
    """One row of a ranked list: a first-stage candidate or a reranked run row.

    A first-stage row has no tag until a run names it.
    """

    query_id: str
    passage_id: str
    rank: int
    score: float
    tag: str = ""

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValidationError(
                f"rank must be >= 1, got {self.rank} "
                f"for ({self.query_id!r}, {self.passage_id!r})"
            )
        if not math.isfinite(self.score):
            raise ValidationError(
                f"score must be a finite number, got {self.score} "
                f"for ({self.query_id!r}, {self.passage_id!r})"
            )

    # the old Candidate field names, kept while bench/workloads.py reads first_stage_rank
    first_stage_rank = property(lambda self: self.rank)
    first_stage_score = property(lambda self: self.score)


def ranked_lists(entries: Iterable[RunEntry]) -> dict[str, list[RunEntry]]:
    """Each query's rows in rank order, queries in order of their first row.

    This is the one check of a ranked list: within each query the ranks are
    1..k without gaps or repeats, and no passage is listed twice.
    """
    lists: dict[str, list[RunEntry]] = {}
    for e in entries:
        lists.setdefault(e.query_id, []).append(e)
    rank, passage_id = attrgetter("rank"), attrgetter("passage_id")
    for qid, rows in lists.items():
        rows.sort(key=rank)
        ranks = list(map(rank, rows))
        if ranks != list(range(1, len(rows) + 1)):
            # the first place k where the sorted ranks (each >= 1) leave 1..k
            k = next(k for k, r in enumerate(ranks, start=1) if r != k)
            fault = f"rank {k - 1} is repeated" if ranks[k - 1] < k else f"rank {k} is missing"
            raise ValidationError(f"query {qid!r}: ranks are not contiguous 1..k: {fault}")
        pids = list(map(passage_id, rows))
        if len(set(pids)) < len(pids):
            repeated = next(pid for i, pid in enumerate(pids) if pid in pids[:i])
            raise ValidationError(f"duplicate run entry for {(qid, repeated)}")
    return lists


def validate_run(entries: Iterable[RunEntry]) -> None:
    """A ranked list (:func:`ranked_lists`) whose scores do not increase with rank."""
    for qid, rows in ranked_lists(entries).items():
        for row, next_row in zip(rows, rows[1:]):
            if next_row.score > row.score:
                raise ValidationError(
                    f"query {qid!r}: score increases from rank {row.rank} to {next_row.rank}"
                )


# the old first-stage validator, kept while bench/workloads.py and bench/tracer.py call it
validate_candidate_list = validate_run


# the old Candidate constructor and argument order, kept while bench/workloads.py calls it
def Candidate(query_id: str, passage_id: str, first_stage_score: float,
              first_stage_rank: int) -> RunEntry:
    return RunEntry(query_id, passage_id, first_stage_rank, first_stage_score)


@dataclass(frozen=True, slots=True)
class ScoredPair:
    """The relevance score a strategy assigned to one (query, passage) pair.

    ``traces`` is empty for strategies that never generate reasoning.
    ``per_sample_scores`` is populated only by self-consistency; when present
    the aggregate ``score`` equals the arithmetic mean of the samples.
    """

    query_id: str
    passage_id: str
    score: float
    traces: tuple[ReasoningTrace, ...] = ()
    per_sample_scores: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValidationError(
                f"relevance score must be in [0, 1], got {self.score} "
                f"for ({self.query_id!r}, {self.passage_id!r})"
            )
        for s in self.per_sample_scores:
            if not 0.0 <= s <= 1.0:
                raise ValidationError(f"per-sample score {s} out of [0, 1]")
        if self.per_sample_scores:
            mean = math.fsum(self.per_sample_scores) / len(self.per_sample_scores)
            if abs(self.score - mean) > 1e-12:
                raise ValidationError(
                    f"score {self.score} is not the mean of per-sample scores ({mean})"
                )
