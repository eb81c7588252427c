"""Pointwise scoring strategies and candidate-list reranking.

Four strategies produce a relevance probability per (query, passage) pair:

* ``direct``            — one decision-logit read at the assistant turn.
* ``reason``            — generate a reasoning chain inside a think block,
                          then read the decision logits after it.
* ``forced_no_reason``  — the ``reason`` read after fixed think text, the
                          template's ``forced_body`` (the paper's RR-NR); one
                          scoring call per pair, no generation.
* ``self_consistency``  — n sampled reasoning chains; the pair's score is
                          the arithmetic mean of the n probabilities (not a
                          majority vote), which keeps the score continuous.

All strategies share the same logits-to-probability mapping; they differ
only in what the logits are conditioned on, so ``score_pair`` serves all four.

What a run's settings mean for each kind is decided in one place,
:meth:`RerankStrategy.resolve`, which the CLI calls once per run. Only
``self_consistency`` takes more than one sample, and only it samples by
default (temperature 0.7, top_p 0.95); every other kind takes one sample
and is greedy unless told otherwise. Only ``reason`` and
``self_consistency`` generate, so only they send the sampling and the
token budget. The sampling is returned beside the strategy, not stored in
it: :func:`score_pair`, :func:`iter_scores` and :func:`score_candidates`
take it as an argument of its own.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .backend import BackendError, CompletionsBackend, SamplingParams
from .prompts import PromptMode, PromptTemplate, assemble_prompt, decision_prompt
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


@dataclass(frozen=True, slots=True)
class RerankStrategy:
    kind: StrategyKind
    samples: int = 1
    max_passage_chars: int = 2048  # prompt-time truncation; 0 disables

    def __post_init__(self) -> None:
        if not isinstance(self.kind, StrategyKind):  # a plain name would fail every `is` test
            raise ValidationError(f"kind must be a StrategyKind, got {self.kind!r}")
        if self.samples < 1:
            raise ValidationError(f"samples must be >= 1, got {self.samples}")
        if self.max_passage_chars < 0:  # a negative cut would drop the passage's tail
            raise ValidationError(f"max_passage_chars must be >= 0, got {self.max_passage_chars}")
        if self.samples > 1 and self.kind is not StrategyKind.SELF_CONSISTENCY:
            raise ValidationError(
                f"samples > 1 only applies to self_consistency, not {self.kind.value}"
            )

    @classmethod
    def resolve(cls, kind: StrategyKind | str, samples: int = 1, max_passage_chars: int = 2048,
                temperature: float | None = None, top_p: float | None = None,
                max_tokens: int = 1024) -> tuple[RerankStrategy, SamplingParams]:
        """A run's settings as the strategy and the sampling its generate reads send.

        ``kind`` is a :class:`StrategyKind` or its name; any other value is
        refused with ``ValidationError``. Only ``self_consistency`` takes
        ``samples``; every other kind takes one. An unset ``temperature`` or
        ``top_p`` is greedy (0 and 1), except 0.7 and 0.95 for
        ``self_consistency``, which needs diverse samples. ``max_tokens`` is
        the budget of each generated trace. The sampling is built, and so
        checked, for every kind, though only ``reason`` and
        ``self_consistency`` send it.
        """
        kind = next((k for k in StrategyKind if k == kind), kind)  # a name becomes its member
        sampled = kind is StrategyKind.SELF_CONSISTENCY
        strategy = cls(kind, samples if sampled else 1, max_passage_chars)
        return strategy, SamplingParams(
            temperature=(0.7 if sampled else 0.0) if temperature is None else temperature,
            top_p=(0.95 if sampled else 1.0) if top_p is None else top_p,
            max_tokens=max_tokens,
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

    ``direct`` reads at the end of the direct prompt; every other read is
    :func:`prompts.decision_prompt` after a think text. ``forced_no_reason``
    is the reasoned read with fixed think text (the paper's RR-NR).
    ``reason`` and ``self_consistency`` read after a trace generated up to
    the end-of-think marker, which is re-appended whether or not the model
    emitted it, so a budget-exhausted trace still scores. They average
    ``strategy.samples`` such reads, the i-th seeded with
    ``derive_seed(base_seed, query, passage, i)``, so ``reason`` is
    ``self_consistency`` with n=1. Only ``self_consistency`` reports
    ``per_sample_scores``. By default any failing sample fails the pair; with
    ``average_over_successes`` a self-consistency pair takes the mean over the
    samples that succeeded.
    """
    direct = strategy.kind is StrategyKind.DIRECT
    prompt = assemble_prompt(
        template, query.text, passage.text[: strategy.max_passage_chars or None],
        PromptMode.DIRECT if direct else PromptMode.OPEN_THINK,
    )
    if strategy.kind is StrategyKind.FORCED_NO_REASON:
        prompt = decision_prompt(template, prompt, template.forced_think_text)
    if direct or strategy.kind is StrategyKind.FORCED_NO_REASON:
        logits = backend.score_decision(prompt)
        return ScoredPair(query.id, passage.id, relevance_from_logits(logits))

    sampled = strategy.kind is StrategyKind.SELF_CONSISTENCY
    traces = []
    per_sample = []
    failure = None
    generate, score_decision, stop = backend.generate, backend.score_decision, template.think_close
    for i in range(strategy.samples):
        seed = derive_seed(base_seed, query.id, passage.id, i)
        try:
            trace = generate(prompt, sampling, stop, seed)
            logits = score_decision(decision_prompt(template, prompt, trace.text))
        except BackendError as exc:
            if not (average_over_successes and sampled):
                raise
            failure = exc
            continue
        traces.append(trace)
        per_sample.append(relevance_from_logits(logits))
    if not per_sample:
        raise BackendError(f"all {strategy.samples} samples failed; last error: {failure}")
    return ScoredPair(
        query.id,
        passage.id,
        math.fsum(per_sample) / len(per_sample),
        traces=tuple(traces),
        per_sample_scores=tuple(per_sample) if sampled else (),
    )


@dataclass(frozen=True, slots=True)
class PairFailure:
    query_id: str
    passage_id: str
    error: str


def rerank(
    candidates: Sequence[RunEntry],
    scores: Iterable[ScoredPair | PairFailure],
    tag: str,
) -> list[RunEntry]:
    """Reorder each query's candidates by relevance score, descending; queries in id order.

    The candidates must be a ranked list (:func:`types.ranked_lists`), and
    ``scores`` must give each candidate pair once, as a :class:`ScoredPair`
    or, under allow-partial, as a :class:`PairFailure`: the outcomes of
    :func:`iter_scores`, in any order. A score whose pair is not among the
    candidates is ignored, so a rank prefix of each query's candidates can
    be reranked with a whole dump's scores. Ties keep first-stage rank
    order, so the output is invariant to the input candidate order. Failed
    pairs keep no score and sink below the scored ones in first-stage order,
    with the placeholder run score ``-rank``, below any real probability.
    The CLI calls it once per query, with that query's candidates and
    outcomes.
    """
    by_pair: dict[tuple[str, str], ScoredPair | PairFailure] = {}
    for s in scores:
        key = (s.query_id, s.passage_id)
        if key in by_pair:
            raise ValidationError(f"duplicate score for pair {key}")
        by_pair[key] = s

    lists = ranked_lists(candidates)
    entries: list[RunEntry] = []
    for qid in sorted(lists):
        # (run score, candidate): the scored pairs, then the failed ones at -rank
        scored: list[tuple[float, RunEntry]] = []
        failed: list[tuple[float, RunEntry]] = []
        for c in lists[qid]:
            outcome = by_pair.get((qid, c.passage_id))
            if outcome is None:
                raise ValidationError(f"candidate {(qid, c.passage_id)} has no score")
            if isinstance(outcome, PairFailure):
                failed.append((-float(c.rank), c))
            else:
                scored.append((outcome.score, c))
        scored.sort(key=itemgetter(0), reverse=True)  # stable: ties stay in rank order
        entries += [RunEntry(qid, c.passage_id, rank, score, tag)
                    for rank, (score, c) in enumerate(scored + failed, start=1)]
    return entries


_UNFINISHED_PER_WORKER = 8  # pairs handed to the pool and not yet done, per worker


def iter_scores(
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
) -> Iterator[ScoredPair | PairFailure]:
    """Score every candidate pair, yielding each outcome in candidate order.

    Each pair's outcome is yielded as soon as it and every earlier pair are
    done, so a caller that writes each one out and keeps no traces holds
    only the traces of pairs it has not yet taken, whatever the run's size.
    Up to ``concurrency`` requests are in flight; a value below 1 is
    refused by this call. A backend that answers in process (mock, replay)
    is scored on the calling thread at any value, with identical output,
    each pair when the caller takes it. A wire backend is scored by
    ``2 * concurrency`` worker threads, and its own in-flight gate (the
    HTTP backend's pool of ``max_in_flight`` connections) bounds the
    requests on the wire: a worker asleep in a retry backoff or parsing a
    response holds no connection, so a spare worker sends the next request
    meanwhile. Each pair takes one of ``8 * workers`` permits before it is
    handed to the workers and gives it back when it is done, so no more
    pairs than that are ever unfinished. While the caller waits on a slow
    pair, each pair that finishes behind it lets the next one in, and their
    outcomes wait for the slow one, as ``Executor.map``'s do. Pairs are
    handed over only while the caller is taking outcomes, so a caller that
    stops taking them hands the workers no more pairs. Outcomes come in
    candidate order regardless of thread scheduling, so a deterministic
    backend yields a deterministic stream. Default error policy is
    fail-fast (a silent score gap would corrupt downstream metric
    comparisons): the first failure ends the handing over, cancels the pairs
    no worker has taken, fails with its error any pair a worker had taken
    but not yet started, and is raised from the stream. With
    ``allow_partial`` a failed pair is yielded as a :class:`PairFailure`,
    which :func:`rerank` sinks below the scored pairs in first-stage order:
    the stream's outcomes, with or without their traces, are ``rerank``'s
    ``scores`` as they come. Closing the stream early starts no further
    pair and waits for the pairs already started. The candidates must be a
    ranked list (:func:`types.ranked_lists`) naming known queries and
    passages; that is checked by this call, before any request is sent.
    """
    if concurrency < 1:  # the wire path would have no worker and no permit
        raise ValidationError(f"concurrency must be >= 1, got {concurrency}")
    ranked_lists(candidates)
    for c in candidates:
        if c.query_id not in queries:
            raise ValidationError(f"candidate references unknown query id {c.query_id!r}")
        if c.passage_id not in corpus:
            raise ValidationError(f"candidate references unknown passage id {c.passage_id!r}")

    failed: list[BackendError] = []  # fail-fast: once a pair has failed, no other pair starts

    def attempt(c: RunEntry) -> ScoredPair | PairFailure:
        # a worker may take a pair before the failed one yet get here after the failure; the
        # stream meets this pair first, so it raises the failure
        if failed:
            raise BackendError(str(failed[0]))
        query, passage = queries[c.query_id], corpus.passage(c.passage_id)
        try:
            return score_pair(
                backend, template, strategy, query, passage, sampling, base_seed, allow_partial
            )
        except BackendError as exc:
            if allow_partial:
                return PairFailure(c.query_id, c.passage_id, str(exc))
            error = BackendError(f"scoring failed for ({c.query_id!r}, {c.passage_id!r}): {exc}")
            failed.append(error)
            raise error from exc

    def outcomes() -> Iterator[ScoredPair | PairFailure]:
        # in-process answers hold the interpreter lock, so threads would only contend for it
        if backend.answers_in_process:
            yield from map(attempt, candidates)
            return
        workers = 2 * concurrency  # twice the backend's slots: a worker in backoff leaves none idle
        permits = threading.Semaphore(_UNFINISHED_PER_WORKER * workers)  # one per unfinished pair
        window: deque[Future] = deque()  # submitted and not yet yielded, in candidate order
        with ThreadPoolExecutor(max_workers=workers) as pool:
            try:
                for c in candidates:
                    while window and window[0].done():
                        yield window.popleft().result()
                    permits.acquire()
                    if failed:  # no pair starts after a failure
                        break
                    window.append(pool.submit(attempt, c))
                    window[-1].add_done_callback(lambda _: permits.release())
                while window:
                    yield window.popleft().result()
            finally:  # closed or failed: no worker starts a pair still waiting
                for future in window:
                    future.cancel()

    return outcomes()


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
    """:func:`iter_scores` as lists: the scored pairs and the failed ones, each in
    candidate order. It holds every pair's traces until it returns. The CLI
    reads the stream itself; :func:`rerank` takes the two lists joined."""
    outcomes = list(iter_scores(
        backend, template, strategy, queries, corpus, candidates, sampling,
        base_seed, concurrency, allow_partial,
    ))
    failures = [out for out in outcomes if isinstance(out, PairFailure)]
    return [out for out in outcomes if not isinstance(out, PairFailure)], failures
