"""Pointwise scoring strategies and candidate-list reranking.

Four strategies produce a relevance probability per (query, passage) pair:

* ``direct``            — one decision-logit read at the assistant turn.
* ``reason``            — generate a reasoning chain inside a think block,
                          then read the decision logits after it.
* ``forced_no_reason``  — pre-fill the think block with a fixed sentence so
                          the model must answer immediately; exactly one
                          scoring call per pair, no generation.
* ``self_consistency``  — n sampled reasoning chains; the pair's score is
                          the arithmetic mean of the n probabilities (not a
                          majority vote), which keeps the score continuous.

All strategies share the same logits-to-probability mapping; they differ
only in what the logits are conditioned on, so ``score_pair`` serves all four.
"""

from __future__ import annotations

import hashlib
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .backend import BackendError, CompletionsBackend, SamplingParams
from .prompts import PromptMode, PromptTemplate, assemble_prompt
from .types import (
    Corpus,
    DecisionLogits,
    Passage,
    Query,
    RunEntry,
    ScoredPair,
    ValidationError,
    ranked_lists,
)


class StrategyKind(str, Enum):
    DIRECT = "direct"
    REASON = "reason"
    FORCED_NO_REASON = "forced_no_reason"
    SELF_CONSISTENCY = "self_consistency"


@dataclass(frozen=True)
class RerankStrategy:
    kind: StrategyKind
    samples: int = 1
    max_passage_chars: int = 2048  # prompt-time truncation; 0 disables

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValidationError(f"samples must be >= 1, got {self.samples}")
        if self.max_passage_chars < 0:  # a negative cut would drop the passage's tail
            raise ValidationError(f"max_passage_chars must be >= 0, got {self.max_passage_chars}")
        if self.samples > 1 and self.kind is not StrategyKind.SELF_CONSISTENCY:
            raise ValidationError(
                f"samples > 1 only applies to self_consistency, not {self.kind.value}"
            )


def relevance_from_logits(logits: DecisionLogits) -> float:
    """Two-way softmax probability of the 'true' decision token.

    Computed in the shifted form sigmoid(z_true - z_false), which is exact
    for the two-token softmax and immune to overflow; invariant to adding
    any constant to both logits. The result is in (0, 1) mathematically,
    saturating to 0.0/1.0 only at float64 limits.
    """
    d = logits.true_logit - logits.false_logit
    if d >= 0:
        return 1.0 / (1.0 + math.exp(-d))
    e = math.exp(d)
    return e / (1.0 + e)


def derive_seed(base_seed: int, query_id: str, passage_id: str, sample_index: int) -> int:
    """Deterministic, collision-resistant per-sample seed."""
    material = f"{base_seed}|{query_id}|{passage_id}|{sample_index}"
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # non-negative 63-bit


_PROMPT_MODES = {
    StrategyKind.DIRECT: PromptMode.DIRECT,
    StrategyKind.FORCED_NO_REASON: PromptMode.FORCED_THINK,
    StrategyKind.REASON: PromptMode.OPEN_THINK,
    StrategyKind.SELF_CONSISTENCY: PromptMode.OPEN_THINK,
}


def _truncate(text: str, max_chars: int) -> str:
    if max_chars and len(text) > max_chars:
        return text[:max_chars]
    return text


def score_pair(
    backend: CompletionsBackend,
    template: PromptTemplate,
    strategy: RerankStrategy,
    query: Query,
    passage: Passage,
    sampling: SamplingParams,
    base_seed: int = 0,
    average_over_successes: bool = False,
) -> ScoredPair:
    """Score one pair under any strategy; every decision read is taken here.

    ``direct`` reads at the end of the assembled prompt, and
    ``forced_no_reason`` after its pre-filled think block plus the template's
    answer scaffold. ``reason`` and ``self_consistency`` generate a trace up
    to the template's end-of-think marker, then read at prompt + trace +
    marker + answer scaffold: the marker is re-appended whether or not the
    model emitted it, so a budget-exhausted trace still scores. They average
    ``strategy.samples`` such reads, the i-th seeded with
    ``derive_seed(base_seed, query, passage, i)``, so ``reason`` is
    ``self_consistency`` with n=1. Only ``self_consistency`` reports
    ``per_sample_scores``. By default any failing sample fails the pair; with
    ``average_over_successes`` a self-consistency pair takes the mean over the
    samples that succeeded.
    """
    mode = _PROMPT_MODES[strategy.kind]
    prompt = assemble_prompt(
        template, query.text, _truncate(passage.text, strategy.max_passage_chars), mode
    )
    if mode is not PromptMode.OPEN_THINK:
        if mode is PromptMode.FORCED_THINK:
            prompt += template.answer_scaffold
        logits = backend.score_decision(prompt)
        return ScoredPair(query.id, passage.id, relevance_from_logits(logits))

    close = template.think_close
    sampled = strategy.kind is StrategyKind.SELF_CONSISTENCY
    traces = []
    per_sample = []
    failures = []
    for i in range(strategy.samples):
        seed = derive_seed(base_seed, query.id, passage.id, i)
        try:
            trace = backend.generate(prompt, sampling, close, seed)
            logits = backend.score_decision(prompt + trace.text + close + template.answer_scaffold)
        except BackendError as exc:
            if not (average_over_successes and sampled):
                raise
            failures.append(exc)
            continue
        traces.append(trace)
        per_sample.append(relevance_from_logits(logits))
    if not per_sample:
        raise BackendError(f"all {strategy.samples} samples failed; last error: {failures[-1]}")
    return ScoredPair(
        query.id,
        passage.id,
        math.fsum(per_sample) / len(per_sample),
        traces=tuple(traces),
        per_sample_scores=tuple(per_sample) if sampled else (),
    )


def rerank(
    candidates: Sequence[RunEntry],
    scores: Iterable[ScoredPair],
    tag: str,
    failed: frozenset[tuple[str, str]] = frozenset(),
) -> list[RunEntry]:
    """Reorder each query's candidates by relevance score, descending; queries in id order.

    The candidates must be a ranked list (:func:`types.ranked_lists`). Ties
    keep first-stage rank order, so the output is invariant to the input
    candidate order. Pairs listed in ``failed`` (the allow-partial escape
    hatch) keep no score and sink to the bottom in first-stage order, with
    placeholder run scores below any real probability.
    """
    by_pair: dict[tuple[str, str], ScoredPair] = {}
    for s in scores:
        key = (s.query_id, s.passage_id)
        if key in by_pair:
            raise ValidationError(f"duplicate score for pair {key}")
        by_pair[key] = s

    lists = ranked_lists(candidates)
    entries: list[RunEntry] = []
    for qid in sorted(lists):
        scored: list[tuple[float, RunEntry]] = []
        fallback: list[RunEntry] = []
        for c in lists[qid]:
            key = (qid, c.passage_id)
            if key in failed:
                fallback.append(c)
                continue
            if key not in by_pair:
                raise ValidationError(f"candidate {key} has no score")
            scored.append((by_pair[key].score, c))
        scored.sort(key=itemgetter(0), reverse=True)  # stable: ties stay in rank order
        rank = 0
        for score, c in scored:
            rank += 1
            entries.append(RunEntry(qid, c.passage_id, rank, score, tag))
        for c in fallback:
            rank += 1
            entries.append(RunEntry(qid, c.passage_id, rank, -float(c.rank), tag))
    return entries


@dataclass(frozen=True)
class PairFailure:
    query_id: str
    passage_id: str
    error: str


def score_candidates(
    backend: CompletionsBackend,
    template: PromptTemplate,
    strategy: RerankStrategy,
    queries: Mapping[str, Query],
    corpus: Corpus,
    candidates: Sequence[RunEntry],
    sampling: SamplingParams,
    base_seed: int = 0,
    concurrency: int = 1,
    allow_partial: bool = False,
) -> tuple[list[ScoredPair], list[PairFailure]]:
    """Score every candidate pair, with up to ``concurrency`` requests in flight.

    A wire backend is scored by ``2 * concurrency`` worker threads, and its
    own in-flight gate (the HTTP backend's pool of ``max_in_flight``
    connections) bounds the requests on the wire: a worker asleep in a retry
    backoff or parsing a response holds no connection, so a spare worker
    sends the next request meanwhile. A backend that answers in process
    (mock, replay) is scored on the calling thread at any value, with
    identical output. Results come back in candidate order regardless of
    thread scheduling, so a deterministic backend yields a deterministic
    output. Default error policy is fail-fast (a silent score gap would
    corrupt downstream metric comparisons): the first failure cancels the
    pairs no worker has started. With ``allow_partial`` failed pairs are
    recorded and returned for first-stage fallback placement. The candidates
    must be a ranked list (:func:`types.ranked_lists`) naming known queries
    and passages; that is checked before any request is sent.
    """
    ranked_lists(candidates)
    for c in candidates:
        if c.query_id not in queries:
            raise ValidationError(f"candidate references unknown query id {c.query_id!r}")
        if c.passage_id not in corpus:
            raise ValidationError(f"candidate references unknown passage id {c.passage_id!r}")

    stop = threading.Event()  # fail-fast: once a pair has failed, no other pair starts

    def attempt(c: RunEntry) -> ScoredPair | PairFailure:
        if stop.is_set():  # map raises the failure of a pair dequeued before this one
            raise BackendError("not started: another pair failed first")
        query, passage = queries[c.query_id], corpus.passage(c.passage_id)
        try:
            return score_pair(
                backend, template, strategy, query, passage, sampling, base_seed, allow_partial
            )
        except BackendError as exc:
            if allow_partial:
                return PairFailure(c.query_id, c.passage_id, str(exc))
            stop.set()
            raise BackendError(
                f"scoring failed for ({c.query_id!r}, {c.passage_id!r}): {exc}"
            ) from exc

    # in-process answers hold the interpreter lock, so threads would only contend for it
    if backend.answers_in_process:
        outcomes = [attempt(c) for c in candidates]
    else:  # twice the backend's slots, so a worker in backoff leaves no slot idle
        with ThreadPoolExecutor(max_workers=2 * concurrency) as pool:
            outcomes = list(pool.map(attempt, candidates))
    failures = [out for out in outcomes if isinstance(out, PairFailure)]
    return [out for out in outcomes if not isinstance(out, PairFailure)], failures
