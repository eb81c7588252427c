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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .backend import BackendError, CompletionsBackend, SamplingParams
from .prompts import PromptMode, PromptTemplate, assemble_prompt
from .types import (
    Corpus,
    DecisionLogits,
    Passage,
    Query,
    ReasoningTrace,
    RunEntry,
    ScoredPair,
    ValidationError,
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


def _sampled_read(
    backend: CompletionsBackend,
    template: PromptTemplate,
    prompt: str,
    sampling: SamplingParams,
    seed: int | None,
) -> tuple[ReasoningTrace, float]:
    """Generate reasoning up to the template's end-of-think marker, then decide."""
    sampling = replace(sampling, stop=template.think_close, seed=seed)
    trace, logits = backend.generate_then_score(prompt, sampling, template.answer_scaffold)
    return trace, relevance_from_logits(logits)


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
    """Score one pair under any strategy.

    ``direct`` and ``forced_no_reason`` make one decision read. ``reason``
    and ``self_consistency`` average ``strategy.samples`` reasoning-conditioned
    reads, the i-th seeded with ``derive_seed(base_seed, query, passage, i)``,
    so ``reason`` is ``self_consistency`` with n=1. Only ``self_consistency``
    reports ``per_sample_scores``. By default any failing sample fails the
    pair; with ``average_over_successes`` a self-consistency pair takes the
    mean over the samples that succeeded.
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

    sampled = strategy.kind is StrategyKind.SELF_CONSISTENCY
    traces = []
    per_sample = []
    failures = []
    for i in range(strategy.samples):
        seed = derive_seed(base_seed, query.id, passage.id, i)
        try:
            trace, score = _sampled_read(backend, template, prompt, sampling, seed)
        except BackendError as exc:
            if not (average_over_successes and sampled):
                raise
            failures.append(exc)
            continue
        traces.append(trace)
        per_sample.append(score)
    if not per_sample:
        raise BackendError(f"all {strategy.samples} samples failed; last error: {failures[-1]}")
    return ScoredPair(
        query.id,
        passage.id,
        math.fsum(per_sample) / len(per_sample),
        traces=tuple(traces),
        per_sample_scores=tuple(per_sample) if sampled else (),
    )


def score_reasoned(
    backend: CompletionsBackend,
    template: PromptTemplate,
    query: Query,
    passage: Passage,
    sampling: SamplingParams,
    max_passage_chars: int = 2048,
) -> ScoredPair:
    """Generate reasoning with ``sampling`` as given, then read the decision after it."""
    prompt = assemble_prompt(
        template, query.text, _truncate(passage.text, max_passage_chars), PromptMode.OPEN_THINK
    )
    trace, score = _sampled_read(backend, template, prompt, sampling, sampling.seed)
    return ScoredPair(query.id, passage.id, score, traces=(trace,))


def score_self_consistency(
    backend: CompletionsBackend,
    template: PromptTemplate,
    query: Query,
    passage: Passage,
    sampling: SamplingParams,
    n: int,
    base_seed: int = 0,
    average_over_successes: bool = False,
    max_passage_chars: int = 2048,
) -> ScoredPair:
    """Mean of n sampled reasoning-conditioned scores, seeded as in ``score_pair``.

    With ``average_over_successes`` the number of samples that succeeded is
    visible as len(per_sample_scores).
    """
    strategy = RerankStrategy(StrategyKind.SELF_CONSISTENCY, n, max_passage_chars)
    return score_pair(
        backend, template, strategy, query, passage, sampling, base_seed, average_over_successes
    )


def rerank(
    candidates: Sequence[RunEntry],
    scores: Iterable[ScoredPair],
    tag: str,
    failed: frozenset[tuple[str, str]] = frozenset(),
) -> list[RunEntry]:
    """Reorder candidates by relevance score, descending.

    Ties break by ascending first-stage rank, then ascending passage id, so
    the output is invariant to the input candidate order. Pairs listed in
    ``failed`` (the allow-partial escape hatch) keep no score and sink to
    the bottom in first-stage order, with placeholder run scores below any
    real probability.
    """
    by_pair: dict[tuple[str, str], ScoredPair] = {}
    for s in scores:
        key = (s.query_id, s.passage_id)
        if key in by_pair:
            raise ValidationError(f"duplicate score for pair {key}")
        by_pair[key] = s

    by_query: dict[str, list[RunEntry]] = {}
    for c in candidates:
        by_query.setdefault(c.query_id, []).append(c)

    entries: list[RunEntry] = []
    for qid in sorted(by_query):
        scored: list[tuple[float, RunEntry]] = []
        fallback: list[RunEntry] = []
        for c in by_query[qid]:
            key = (c.query_id, c.passage_id)
            if key in failed:
                fallback.append(c)
                continue
            if key not in by_pair:
                raise ValidationError(f"candidate {key} has no score")
            scored.append((by_pair[key].score, c))
        scored.sort(key=lambda item: (-item[0], item[1].rank, item[1].passage_id))
        fallback.sort(key=lambda c: c.rank)
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
    """Score every candidate pair, concurrently up to ``concurrency``.

    Results come back in candidate order regardless of thread scheduling,
    so a deterministic backend yields a deterministic output. Default error
    policy is fail-fast (a silent score gap would corrupt downstream metric
    comparisons); with ``allow_partial`` failed pairs are recorded and
    returned for first-stage fallback placement.
    """
    for c in candidates:
        if c.query_id not in queries:
            raise ValidationError(f"candidate references unknown query id {c.query_id!r}")
        if c.passage_id not in corpus:
            raise ValidationError(f"candidate references unknown passage id {c.passage_id!r}")

    def attempt(c: RunEntry) -> ScoredPair | PairFailure:
        query, passage = queries[c.query_id], corpus.passage(c.passage_id)
        try:
            return score_pair(
                backend, template, strategy, query, passage, sampling, base_seed, allow_partial
            )
        except BackendError as exc:
            if allow_partial:
                return PairFailure(c.query_id, c.passage_id, str(exc))
            raise BackendError(
                f"scoring failed for ({c.query_id!r}, {c.passage_id!r}): {exc}"
            ) from exc

    if concurrency <= 1:
        outcomes = [attempt(c) for c in candidates]
    else:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            outcomes = list(pool.map(attempt, candidates))

    scored: list[ScoredPair] = []
    failures: list[PairFailure] = []
    for out in outcomes:
        if isinstance(out, PairFailure):
            failures.append(out)
        else:
            scored.append(out)
    return scored, failures
