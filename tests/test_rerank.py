import contextlib
import hashlib
import json
import math
import random
import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reranklab import (
    BackendConfig,
    BackendError,
    Corpus,
    DecisionLogits,
    DEFAULT_TEMPLATE,
    HttpCompletionsBackend,
    MockBackend,
    Passage,
    PromptMode,
    PromptTemplate,
    Query,
    ReplayBackend,
    RerankStrategy,
    RunEntry,
    SamplingParams,
    ScoredPair,
    StrategyKind,
    ValidationError,
    assemble_prompt,
    derive_seed,
    relevance_from_logits,
    rerank,
    score_candidates,
    score_pair,
)
from reranklab.backend import CompletionsBackend
from reranklab.rerank import PairFailure, iter_scores

Q = Query("q1", "how to help a jammed finger")
P = Passage("p1", "A broken finger is often more painful than a jammed finger.")
DIRECT = RerankStrategy(StrategyKind.DIRECT)
FORCED = RerankStrategy(StrategyKind.FORCED_NO_REASON)
REASON = RerankStrategy(StrategyKind.REASON)


def _sc(n):
    return RerankStrategy(StrategyKind.SELF_CONSISTENCY, n)


def _read_after_trace(backend, query, passage, sampling, seed):
    """The documented reasoned read under the default template, as two backend reads:
    generate up to ``</think>``, then decide at prompt + trace + ``</think>`` + newline."""
    prompt = assemble_prompt(DEFAULT_TEMPLATE, query.text, passage.text, PromptMode.OPEN_THINK)
    trace = backend.generate(prompt, sampling, "</think>", seed)
    logits = backend.score_decision(prompt + trace.text + "</think>\n")
    return ScoredPair(query.id, passage.id, relevance_from_logits(logits), traces=(trace,))


class TestRelevanceFromLogits:
    def test_symmetry_at_zero(self):
        assert relevance_from_logits(DecisionLogits(0.0, 0.0)) == 0.5

    def test_known_values(self):
        # frozen from a 50-digit evaluation of 1/(1+e^-d)
        assert abs(relevance_from_logits(DecisionLogits(2.0, 0.0)) - 0.8807970779778824) < 1e-15
        assert abs(relevance_from_logits(DecisionLogits(5.0, -5.0)) - 0.9999546021312976) < 1e-15
        assert abs(relevance_from_logits(DecisionLogits(1.45, 0.0)) - 0.8099984339846871) < 1e-15

    def test_shift_invariance(self):
        rng = random.Random(0)
        for _ in range(200):
            z_true = rng.randint(-500_000, 500_000) / 1024  # dyadic: shifts stay exact
            z_false = rng.randint(-500_000, 500_000) / 1024
            c = float(rng.randint(-900, 900))
            base = relevance_from_logits(DecisionLogits(z_true, z_false))
            shifted = relevance_from_logits(DecisionLogits(z_true + c, z_false + c))
            assert shifted == base

    def test_overflow_safe(self):
        assert relevance_from_logits(DecisionLogits(700.0, -700.0)) == 1.0
        assert relevance_from_logits(DecisionLogits(-700.0, 700.0)) == 0.0
        assert 0.0 < relevance_from_logits(DecisionLogits(-700.0, -700.0)) < 1.0

    def test_open_interval_for_moderate_inputs(self):
        for d in (-30, -1, 1, 30):
            r = relevance_from_logits(DecisionLogits(float(d), 0.0))
            assert 0.0 < r < 1.0


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = derive_seed(0, "q1", "p1", 0)
        assert a == derive_seed(0, "q1", "p1", 0)
        others = {
            derive_seed(0, "q1", "p1", 1),
            derive_seed(0, "q1", "p2", 0),
            derive_seed(0, "q2", "p1", 0),
            derive_seed(1, "q1", "p1", 0),
        }
        assert a not in others
        assert len(others) == 4

    def test_frozen_reference_value(self):
        # pinned so reruns on any platform derive identical sample seeds
        assert derive_seed(0, "q1", "p1", 0) == 1467374414647989287


class TestStrategies:
    def test_direct_single_call_no_trace(self):
        mock = MockBackend(score_fn=lambda p: (2.0, 0.0))
        pair = score_pair(mock, DEFAULT_TEMPLATE, DIRECT, Q, P, SamplingParams())
        assert abs(pair.score - 0.8807970779778824) < 1e-12
        assert pair.traces == ()
        assert mock.score_calls == 1
        assert mock.generate_calls == 0

    def test_direct_prompt_is_stable(self):
        prompts = []
        mock = MockBackend(score_fn=lambda p: (prompts.append(p), (0.0, 0.0))[1])
        score_pair(mock, DEFAULT_TEMPLATE, DIRECT, Q, P, SamplingParams())
        score_pair(mock, DEFAULT_TEMPLATE, DIRECT, Q, P, SamplingParams())
        assert prompts[0] == prompts[1]

    def test_reasoned_keeps_trace_and_conditions_on_it(self):
        def score_fn(prompt):
            return (5.0, -5.0) if "answer is true" in prompt else (-5.0, 5.0)

        mock = MockBackend(
            score_fn=score_fn,
            generate_fn=lambda p, s: "Thinking... the answer is true </think>",
        )
        pair = score_pair(mock, DEFAULT_TEMPLATE, REASON, Q, P, SamplingParams(max_tokens=64))
        assert abs(pair.score - 0.9999546021312976) < 1e-12
        assert len(pair.traces) == 1
        assert pair.traces[0].terminated
        assert "</think>" not in pair.traces[0].text

    def test_reasoned_scores_unterminated_trace(self):
        # budget exhaustion: the marker is force-appended, the pair still scores
        seen = []
        mock = MockBackend(
            score_fn=lambda p: (seen.append(p), (1.0, 0.0))[1],
            generate_fn=lambda p, s: " ".join(["word"] * 100),
        )
        pair = score_pair(mock, DEFAULT_TEMPLATE, REASON, Q, P, SamplingParams(max_tokens=5))
        assert not pair.traces[0].terminated
        assert seen[0].rstrip("\n").endswith("</think>")
        assert 0.0 < pair.score < 1.0

    def test_marker_emitted_vs_appended_same_score(self):
        # identical R whether the model emitted the marker or we appended it:
        # one mock terminates cleanly, the other runs out of budget after
        # producing the same text, so the scoring prompts are byte-identical
        text = "short thought"
        emitted = MockBackend(generate_fn=lambda p, s: text + "</think>")
        truncated = MockBackend(generate_fn=lambda p, s: text)
        a = score_pair(emitted, DEFAULT_TEMPLATE, REASON, Q, P, SamplingParams(max_tokens=64))
        b = score_pair(truncated, DEFAULT_TEMPLATE, REASON, Q, P, SamplingParams(max_tokens=2))
        assert a.traces[0].terminated and not b.traces[0].terminated
        assert a.traces[0].text == b.traces[0].text
        assert a.score == b.score

    def test_forced_single_scoring_call_zero_generate(self):
        mock = MockBackend(score_fn=lambda p: (1.45, 0.0))
        pair = score_pair(mock, DEFAULT_TEMPLATE, FORCED, Q, P, SamplingParams())
        assert abs(pair.score - 0.8099984339846871) < 1e-12
        assert pair.traces == ()
        assert mock.score_calls == 1
        assert mock.generate_calls == 0

    def test_forced_prompt_contains_block(self):
        prompts = []
        mock = MockBackend(score_fn=lambda p: (prompts.append(p), (0.0, 0.0))[1])
        score_pair(mock, DEFAULT_TEMPLATE, FORCED, Q, P, SamplingParams())
        assert "<think>\nOkay, I have finished thinking.\n</think>" in prompts[0]

    def test_forced_differs_from_reasoned_with_distinct_tables(self):
        def score_fn(prompt):
            return (3.0, 0.0) if "Okay, I have finished thinking." in prompt else (0.0, 0.0)

        mock = MockBackend(score_fn=score_fn, generate_fn=lambda p, s: "hmm</think>")
        forced = score_pair(mock, DEFAULT_TEMPLATE, FORCED, Q, P, SamplingParams())
        reasoned = score_pair(mock, DEFAULT_TEMPLATE, REASON, Q, P, SamplingParams(max_tokens=8))
        assert forced.score != reasoned.score

    def test_passage_truncation(self):
        long_passage = Passage("p9", "x" * 5000)
        prompts = []
        mock = MockBackend(score_fn=lambda p: (prompts.append(p), (0.0, 0.0))[1])
        truncating = RerankStrategy(StrategyKind.DIRECT, max_passage_chars=100)
        score_pair(mock, DEFAULT_TEMPLATE, truncating, Q, long_passage, SamplingParams())
        assert "x" * 100 in prompts[0]
        assert "x" * 101 not in prompts[0]

    @pytest.mark.parametrize("kind", [StrategyKind.REASON, StrategyKind.SELF_CONSISTENCY])
    def test_sampled_path_uses_template_think_marker(self, kind):
        # a template with its own end-of-think marker: generation stops on it,
        # the trace excludes it, and it (not "</think>") closes the block
        template = PromptTemplate(think_open="<reasoning>", think_close="</reasoning>")
        seen = []
        mock = MockBackend(
            score_fn=lambda p: (seen.append(p), (1.0, 0.0))[1],
            generate_fn=lambda p, s: "weighing it</reasoning> trailing",
        )
        scored, _ = score_candidates(
            mock, template, RerankStrategy(kind), {Q.id: Q}, Corpus((P,)),
            [RunEntry(Q.id, P.id, 1, 1.0)], SamplingParams(max_tokens=64),
        )
        trace = scored[0].traces[0]
        assert trace.terminated
        assert trace.text == "weighing it"
        assert seen[0].endswith("<reasoning>weighing it</reasoning>\n")
        assert "</think>" not in seen[0]

    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_decision_position_off_the_default_template(self, kind):
        # the exact text each decision read sees: the template's own marker and
        # scaffold close every think block, and each sample reads after its own trace
        template = PromptTemplate(
            system="S", user="Q={query} P={passage}", turn_start="<", turn_end=">",
            think_open="<reasoning>", think_close="</reasoning>", forced_body="done",
            answer_scaffold="\nAnswer:",
        )
        head = "<system\nS\n>\n<user\nQ=q text P=p text\n>\n<assistant\n"
        seeds = [derive_seed(0, "q", "p", i) for i in range(2)]
        want = {
            StrategyKind.DIRECT: [head],
            StrategyKind.FORCED_NO_REASON: [head + "<reasoning>\ndone\n</reasoning>\nAnswer:"],
            StrategyKind.REASON: [head + f"<reasoning>trace {seeds[0]}</reasoning>\nAnswer:"],
            StrategyKind.SELF_CONSISTENCY: [
                head + f"<reasoning>trace {seed}</reasoning>\nAnswer:" for seed in seeds
            ],
        }[kind]
        seen = []
        mock = MockBackend(
            score_fn=lambda p: (seen.append(p), (0.0, 0.0))[1],
            generate_fn=lambda p, s: f"trace {s}</reasoning> trailing",
        )
        strategy = RerankStrategy(kind, len(want))
        score_pair(mock, template, strategy, Query("q", "q text"), Passage("p", "p text"),
                   SamplingParams())
        assert seen == want


class TestSelfConsistency:
    def _seed_mock(self):
        # logits depend on the seed marker the trace embeds in the prompt
        def generate_fn(prompt, seed):
            return f"sample-{seed % 5} reasoning </think>"

        def score_fn(prompt):
            for k in range(5):
                if f"sample-{k} " in prompt:
                    return (float(k) - 2.0, 0.0)
            return (0.0, 0.0)

        return MockBackend(score_fn=score_fn, generate_fn=generate_fn)

    def test_mean_of_samples(self):
        mock = self._seed_mock()
        sampling = SamplingParams(temperature=0.7, top_p=0.95, max_tokens=16)
        n = 8
        pair = score_pair(mock, DEFAULT_TEMPLATE, _sc(n), Q, P, sampling, base_seed=0)
        assert len(pair.per_sample_scores) == n
        assert len(pair.traces) == n
        expected = math.fsum(pair.per_sample_scores) / n
        assert pair.score == expected
        assert min(pair.per_sample_scores) <= pair.score <= max(pair.per_sample_scores)

    def test_expected_per_sample_values(self):
        # oracle: recompute each sample's R from the seed the runner derives
        mock = self._seed_mock()
        sampling = SamplingParams(max_tokens=16)
        pair = score_pair(mock, DEFAULT_TEMPLATE, _sc(4), Q, P, sampling, base_seed=7)
        for i, got in enumerate(pair.per_sample_scores):
            seed = derive_seed(7, Q.id, P.id, i)
            d = float(seed % 5) - 2.0
            want = 1.0 / (1.0 + math.exp(-d)) if d >= 0 else math.exp(d) / (1 + math.exp(d))
            assert abs(got - want) < 1e-15

    def test_n1_equals_reasoned_with_derived_seed(self):
        mock = self._seed_mock()
        sampling = SamplingParams(max_tokens=16)
        sc = score_pair(mock, DEFAULT_TEMPLATE, _sc(1), Q, P, sampling, base_seed=3)
        rr = _read_after_trace(mock, Q, P, sampling, derive_seed(3, Q.id, P.id, 0))
        assert sc.score == rr.score
        assert sc.traces == rr.traces
        assert sc.per_sample_scores == (rr.score,)

    def test_constant_backend_mean_is_constant(self):
        mock = MockBackend(score_fn=lambda p: (1.0, 0.0), generate_fn=lambda p, s: "t</think>")
        sampling = SamplingParams(max_tokens=8)
        for n in (1, 3, 8):
            pair = score_pair(mock, DEFAULT_TEMPLATE, _sc(n), Q, P, sampling)
            assert pair.score == relevance_from_logits(DecisionLogits(1.0, 0.0))

    def test_simple_mean(self):
        assert math.fsum([0.2, 0.4, 0.6, 0.8]) / 4 == 0.5

    def test_sample_failure_fails_pair_by_default(self):
        calls = {"n": 0}

        def generate_fn(prompt, seed):
            calls["n"] += 1
            if calls["n"] == 2:
                raise BackendError("boom")
            return "ok</think>"

        mock = MockBackend(generate_fn=generate_fn)
        with pytest.raises(BackendError):
            score_pair(mock, DEFAULT_TEMPLATE, _sc(3), Q, P, SamplingParams(max_tokens=8))

    def test_average_over_successes(self):
        calls = {"n": 0}

        def generate_fn(prompt, seed):
            calls["n"] += 1
            if calls["n"] == 2:
                raise BackendError("boom")
            return "ok</think>"

        mock = MockBackend(score_fn=lambda p: (0.0, 0.0), generate_fn=generate_fn)
        pair = score_pair(
            mock, DEFAULT_TEMPLATE, _sc(3), Q, P, SamplingParams(max_tokens=8),
            average_over_successes=True,
        )
        assert len(pair.per_sample_scores) == 2
        assert pair.score == 0.5

    def test_all_samples_failing_names_the_last_error(self):
        calls = {"n": 0}

        def generate_fn(prompt, seed):
            calls["n"] += 1
            raise BackendError(f"boom {calls['n']}")

        mock = MockBackend(generate_fn=generate_fn)
        with pytest.raises(BackendError, match=r"^all 3 samples failed; last error: boom 3$"):
            score_pair(mock, DEFAULT_TEMPLATE, _sc(3), Q, P, SamplingParams(max_tokens=8),
                       average_over_successes=True)


def _candidates():
    return [
        RunEntry("q1", "p1", 1, 9.0),
        RunEntry("q1", "p2", 2, 8.0),
        RunEntry("q1", "p3", 3, 7.0),
    ]


def _scores(values: dict[str, float]):
    return [ScoredPair("q1", pid, v) for pid, v in values.items()]


class TestRerank:
    def test_sorts_by_score(self):
        entries = rerank(_candidates(), _scores({"p1": 0.9, "p2": 0.1, "p3": 0.5}), "t")
        assert [e.passage_id for e in entries] == ["p1", "p3", "p2"]
        assert [e.rank for e in entries] == [1, 2, 3]

    def test_all_equal_scores_keep_first_stage_order(self):
        entries = rerank(_candidates(), _scores({"p1": 0.5, "p2": 0.5, "p3": 0.5}), "t")
        assert [e.passage_id for e in entries] == ["p1", "p2", "p3"]

    def test_invariant_to_candidate_order(self):
        import itertools

        cands = [
            RunEntry("q1", "p1", 1, 9.0),
            RunEntry("q1", "p2", 2, 8.0),
            RunEntry("q1", "p3", 3, 7.0),
            RunEntry("q1", "p4", 4, 6.0),
            RunEntry("q1", "p5", 5, 5.0),
        ]
        scores = _scores({"p1": 0.3, "p2": 0.9, "p3": 0.3, "p4": 0.1, "p5": 0.9})
        reference = rerank(cands, scores, "t")
        for perm in itertools.permutations(cands):
            assert rerank(list(perm), scores, "t") == reference

    def test_monotone_transform_preserves_order(self):
        cands = _candidates()
        base = {"p1": 0.2, "p2": 0.7, "p3": 0.5}
        before = [e.passage_id for e in rerank(cands, _scores(base), "t")]
        squashed = {k: v**3 / 2 for k, v in base.items()}  # strictly increasing map
        after = [e.passage_id for e in rerank(cands, _scores(squashed), "t")]
        assert before == after

    def test_missing_score_rejected(self):
        with pytest.raises(ValidationError, match="no score"):
            rerank(_candidates(), _scores({"p1": 0.9}), "t")

    def test_duplicate_score_rejected(self):
        scores = _scores({"p1": 0.9, "p2": 0.5, "p3": 0.1})
        for again in (ScoredPair("q1", "p1", 0.2), PairFailure("q1", "p1", "timeout")):
            with pytest.raises(ValidationError, match=r"duplicate score for pair \('q1', 'p1'\)"):
                rerank(_candidates(), scores + [again], "t")  # scored twice; scored and failed

    def test_failed_pairs_sink_in_first_stage_order(self):
        scores = [PairFailure("q1", "p3", "timeout")] + _scores({"p2": 0.4})
        entries = rerank(_candidates(), scores + [PairFailure("q1", "p1", "timeout")], "t")
        assert [e.passage_id for e in entries] == ["p2", "p1", "p3"]
        assert entries[0].score == 0.4
        assert entries[1].score > entries[2].score  # placeholder scores keep order
        assert entries[1].score < 0.0

    def test_multi_query_grouping(self):
        cands = _candidates() + [RunEntry("q0", "p9", 1, 3.0)]
        scores = _scores({"p1": 0.9, "p2": 0.1, "p3": 0.5}) + [ScoredPair("q0", "p9", 0.7)]
        entries = rerank(cands, scores, "t")
        assert [e.query_id for e in entries] == ["q0", "q1", "q1", "q1"]
        assert entries[0].rank == 1


class TestScoreCandidates:
    def _fixture(self):
        corpus = Corpus((Passage("p1", "text one"), Passage("p2", "text two")))
        queries = {"q1": Query("q1", "a question")}
        cands = [RunEntry("q1", "p1", 1, 2.0), RunEntry("q1", "p2", 2, 1.0)]
        return corpus, queries, cands

    def test_results_in_candidate_order(self):
        corpus, queries, cands = self._fixture()
        mock = MockBackend()
        for workers in (1, 4):
            scored, failures = score_candidates(
                mock, DEFAULT_TEMPLATE, RerankStrategy(StrategyKind.DIRECT),
                queries, corpus, cands, SamplingParams(), concurrency=workers,
            )
            assert [s.passage_id for s in scored] == ["p1", "p2"]
            assert failures == []

    def test_concurrency_levels_agree(self):
        corpus, queries, cands = self._fixture()
        runs = []
        for workers in (1, 8):
            mock = MockBackend()
            scored, _ = score_candidates(
                mock, DEFAULT_TEMPLATE, RerankStrategy(StrategyKind.REASON),
                queries, corpus, cands, SamplingParams(max_tokens=16),
                base_seed=5, concurrency=workers,
            )
            runs.append(scored)
        assert runs[0] == runs[1]

    def test_fail_fast_annotates_pair(self):
        corpus, queries, cands = self._fixture()

        def score_fn(prompt):
            if "text two" in prompt:
                raise BackendError("socket闭")
            return (0.0, 0.0)

        mock = MockBackend(score_fn=score_fn)
        with pytest.raises(BackendError, match=r"\('q1', 'p2'\)"):
            score_candidates(
                mock, DEFAULT_TEMPLATE, RerankStrategy(StrategyKind.DIRECT),
                queries, corpus, cands, SamplingParams(),
            )

    def test_fail_fast_error_is_plain_backend_error_with_cause(self):
        corpus, queries, cands = self._fixture()
        cause = BackendError("down")

        def score_fn(prompt):
            if "text two" in prompt:
                raise cause
            return (0.0, 0.0)

        with pytest.raises(BackendError) as info:
            score_candidates(
                MockBackend(score_fn=score_fn), DEFAULT_TEMPLATE,
                RerankStrategy(StrategyKind.DIRECT), queries, corpus, cands, SamplingParams(),
            )
        assert type(info.value) is BackendError
        assert str(info.value) == "scoring failed for ('q1', 'p2'): down"
        assert info.value.__cause__ is cause

    def test_allow_partial_records_failures(self):
        corpus, queries, cands = self._fixture()

        def score_fn(prompt):
            if "text two" in prompt:
                raise BackendError("down")
            return (0.0, 0.0)

        mock = MockBackend(score_fn=score_fn)
        scored, failures = score_candidates(
            mock, DEFAULT_TEMPLATE, RerankStrategy(StrategyKind.DIRECT),
            queries, corpus, cands, SamplingParams(), allow_partial=True,
        )
        assert [s.passage_id for s in scored] == ["p1"]
        assert [(f.query_id, f.passage_id) for f in failures] == [("q1", "p2")]

    def test_unknown_ids_rejected(self):
        corpus, queries, _ = self._fixture()
        bad = [RunEntry("q9", "p1", 1, 1.0)]
        with pytest.raises(ValidationError, match="unknown query"):
            score_candidates(
                MockBackend(), DEFAULT_TEMPLATE, RerankStrategy(StrategyKind.DIRECT),
                queries, corpus, bad, SamplingParams(),
            )

    @pytest.mark.parametrize("kind", [StrategyKind.REASON, StrategyKind.SELF_CONSISTENCY])
    def test_sampled_dump_contract(self, kind):
        # reason is self_consistency with n=1: same scores and traces as one
        # reasoned read at sample seed 0; only self_consistency lists samples
        corpus, queries, cands = self._fixture()
        sampling = SamplingParams(max_tokens=16)
        scored, _ = score_candidates(
            MockBackend(), DEFAULT_TEMPLATE, RerankStrategy(kind),
            queries, corpus, cands, sampling, base_seed=3,
        )
        assert [s.passage_id for s in scored] == ["p1", "p2"]
        for pair in scored:
            seed = derive_seed(3, pair.query_id, pair.passage_id, 0)
            reference = _read_after_trace(
                MockBackend(), queries[pair.query_id], corpus.passage(pair.passage_id),
                sampling, seed,
            )
            assert pair.score == reference.score
            assert pair.traces == reference.traces
            expected = (pair.score,) if kind is StrategyKind.SELF_CONSISTENCY else ()
            assert pair.per_sample_scores == expected

    def test_forced_strategy_makes_zero_generate_calls(self):
        corpus, queries, cands = self._fixture()
        mock = MockBackend()
        score_candidates(
            mock, DEFAULT_TEMPLATE, RerankStrategy(StrategyKind.FORCED_NO_REASON),
            queries, corpus, cands, SamplingParams(),
        )
        assert mock.generate_calls == 0
        assert mock.score_calls == len(cands)  # exactly one scoring call per pair


class _WireFake(CompletionsBackend):
    """A wire transport answering from a hash of the request.

    Its first ``gate`` requests wait for each other at a barrier, so they
    complete only if that many are in flight together.
    """

    def __init__(self, gate: int = 0):
        self.config = BackendConfig(endpoint="fake:", model="fake")
        self._barrier = threading.Barrier(gate, timeout=10) if gate else None
        self._gate = gate
        self._calls = 0
        self._lock = threading.Lock()

    def _complete(self, payload: dict) -> dict:
        with self._lock:
            self._calls += 1
            waits = self._calls <= self._gate
        if waits:
            self._barrier.wait()
        h = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).digest()
        if "logprobs" in payload:  # a decision read
            table = {"true": -h[0] / 64, "false": -h[1] / 64}
            return {"choices": [{"logprobs": {"top_logprobs": [table]}}]}
        return {"choices": [{"text": f"thought {h[:4].hex()}", "finish_reason": "stop"}]}


class _SlowFirstWireFake(_WireFake):
    """A wire transport whose first request is answered only after ``behind``
    later ones have arrived, or after 5 s."""

    def __init__(self, behind: int):
        super().__init__()
        self._behind = behind
        self._seen = 0
        self._others = threading.Event()
        self.first_answered_after_the_rest = False

    def _complete(self, payload: dict) -> dict:
        with self._lock:
            self._seen += 1
            seen = self._seen
        if seen == 1:
            self.first_answered_after_the_rest = self._others.wait(timeout=5)
        elif seen == self._behind + 1:
            self._others.set()
        return super()._complete(payload)


class _FailingWireFake(CompletionsBackend):
    """A wire transport whose first request fails at once; every later one
    stays in flight for 1 s and then fails too."""

    def __init__(self):
        self.config = BackendConfig(endpoint="fake:", model="fake")
        self.prompts = []
        self._lock = threading.Lock()

    def _complete(self, payload: dict) -> dict:
        with self._lock:
            self.prompts.append(payload["prompt"])
            first = len(self.prompts) == 1
        if not first:
            time.sleep(1)
        raise BackendError("refused")


class _HeldWireFake(_WireFake):
    """A :class:`_WireFake` whose first request answers at once; every later
    one is held until ``release`` is set. ``sent`` counts the requests."""

    def __init__(self):
        super().__init__()
        self.sent = 0
        self.release = threading.Event()

    def _complete(self, payload: dict) -> dict:
        with self._lock:
            self.sent += 1
            first = self.sent == 1
        if not first:
            self.release.wait(timeout=10)
        return super()._complete(payload)


class _ScheduledWireFake(_WireFake):
    """A :class:`_WireFake` for the direct pairs of passages ``<0>``, ``<1>``, ...

    Pair ``slow`` is answered only once ``behind`` later pairs' requests have
    arrived or pair ``fail`` has failed; pair ``fail``, if any, fails at once,
    and each pair after it is held until ``release`` is set. ``sent`` lists
    the pairs in the order their requests arrived.
    """

    def __init__(self, slow: int, behind: int, fail: int | None):
        super().__init__()
        self.slow, self.behind, self.fail = slow, behind, fail
        self.sent = []
        self.release = threading.Event()
        self.slow_waited_out = False
        self._slow_may_answer = threading.Event()

    def _complete(self, payload: dict) -> dict:
        i = int(re.search(r"<(\d+)>", payload["prompt"])[1])
        with self._lock:
            self.sent.append(i)
            if i == self.fail or sum(j > self.slow for j in self.sent) >= self.behind:
                self._slow_may_answer.set()
        if i == self.fail:
            raise BackendError(f"pair {i} refused")
        if self.fail is not None and i > self.fail:
            self.release.wait(timeout=10)
        if i == self.slow:
            self.slow_waited_out = not self._slow_may_answer.wait(timeout=10)
        return super()._complete(payload)


class _ThreadRecordingHttp(HttpCompletionsBackend):
    """The HTTP backend, noting which threads send its requests."""

    def __init__(self, config: BackendConfig):
        super().__init__(config)
        self.threads = set()

    def _complete(self, payload: dict) -> dict:
        self.threads.add(threading.get_ident())
        return super()._complete(payload)


class TestSchedule:
    def _fixture(self, n=6):
        corpus = Corpus(tuple(Passage(f"p{i}", f"text {i}") for i in range(n)))
        queries = {"q1": Query("q1", "a question")}
        cands = [RunEntry("q1", f"p{i}", i + 1, float(n - i)) for i in range(n)]
        return corpus, queries, cands

    @pytest.mark.parametrize("strategy", [
        RerankStrategy(StrategyKind.DIRECT),
        RerankStrategy(StrategyKind.SELF_CONSISTENCY, samples=3),
    ], ids=["direct", "self_consistency"])
    def test_in_process_backend_scores_on_calling_thread(self, strategy):
        corpus, queries, cands = self._fixture()
        threads = set()

        def score_fn(prompt):
            threads.add(threading.get_ident())
            return (0.5, 0.0)

        def generate_fn(prompt, seed):
            threads.add(threading.get_ident())
            return f"sample {seed}</think>"

        scored, _ = score_candidates(
            MockBackend(score_fn=score_fn, generate_fn=generate_fn), DEFAULT_TEMPLATE,
            strategy, queries, corpus, cands, SamplingParams(max_tokens=16), concurrency=4,
        )
        assert len(scored) == len(cands)
        assert threads == {threading.get_ident()}

    def test_wire_backend_keeps_requests_in_flight(self):
        # the barrier lets the first 4 requests through only when all 4 are in flight
        corpus, queries, cands = self._fixture()
        strategy = RerankStrategy(StrategyKind.SELF_CONSISTENCY, samples=2)
        sampling = SamplingParams(max_tokens=16)
        threaded, _ = score_candidates(
            _WireFake(gate=4), DEFAULT_TEMPLATE, strategy, queries, corpus, cands,
            sampling, base_seed=7, concurrency=4,
        )
        serial, _ = score_candidates(
            _WireFake(), DEFAULT_TEMPLATE, strategy, queries, corpus, cands,
            sampling, base_seed=7, concurrency=1,
        )
        assert threaded == serial
        assert [s.passage_id for s in threaded] == [c.passage_id for c in cands]

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_connection_pool_bounds_the_requests_in_flight(self, stub_server, concurrency):
        url, state = stub_server
        state.stall_s = 0.02  # long enough that every worker is waiting on the pool
        corpus, queries, cands = self._fixture()
        strategy = RerankStrategy(StrategyKind.SELF_CONSISTENCY, samples=2)
        sampling = SamplingParams(max_tokens=16)
        backend = _ThreadRecordingHttp(
            BackendConfig(endpoint=url, model="m", max_in_flight=concurrency))
        try:
            scored, failures = score_candidates(
                backend, DEFAULT_TEMPLATE, strategy, queries, corpus, cands, sampling,
                base_seed=7, concurrency=concurrency,
            )
            workers = set(backend.threads)
            serial = [score_pair(backend, DEFAULT_TEMPLATE, strategy, queries["q1"],
                                 corpus.passage(c.passage_id), sampling, 7) for c in cands]
        finally:
            backend.close()
        assert failures == [] and scored == serial
        assert len(workers) == 2 * concurrency
        assert state.peak_in_flight == concurrency

    def test_retry_backoff_leaves_the_connection_to_another_pair(self, stub_server, monkeypatch):
        url, state = stub_server
        corpus, queries, cands = self._fixture()
        monkeypatch.setattr("reranklab.backend.RETRY_BACKOFF", 0.3)
        config = BackendConfig(endpoint=url, model="m", max_in_flight=1)
        runs = []
        for refuse in ([], [(503, None)]):  # a 503 without Retry-After: back off 0.3 s
            state.refuse, state.requests = refuse, []
            backend = HttpCompletionsBackend(config)
            try:
                runs.append(score_candidates(
                    backend, DEFAULT_TEMPLATE, DIRECT, queries, corpus, cands, SamplingParams(),
                    concurrency=1,
                ))
            finally:
                backend.close()
        prompts = [r["prompt"] for r in state.requests]  # the run that met the 503
        retry = prompts.index(prompts[0], 1)
        assert retry > 1  # another pair's request reached the stub during the backoff
        assert len(set(prompts)) == len(cands) and len(prompts) == len(cands) + 1
        assert runs[0] == runs[1]

    def test_fail_fast_starts_no_pair_after_a_failure(self):
        corpus, queries, cands = self._fixture(50)
        fake, concurrency = _FailingWireFake(), 2
        with pytest.raises(BackendError, match="scoring failed for"):
            score_candidates(
                fake, DEFAULT_TEMPLATE, DIRECT, queries, corpus, cands, SamplingParams(),
                concurrency=concurrency,
            )
        # direct sends one request per pair: only pairs taken before the failure went out
        assert 1 <= len(fake.prompts) <= 2 * concurrency

    def test_a_pair_reached_after_another_failed_raises_that_failure(self, monkeypatch):
        # a worker takes the first pair, and reaches it only once the second has failed
        corpus, queries, cands = self._fixture(2)
        second_failed = threading.Event()

        class Pool(ThreadPoolExecutor):
            def submit(self, fn, c):
                if c is cands[0]:
                    return super().submit(lambda: second_failed.wait(10) and fn(c))
                future = super().submit(fn, c)
                future.add_done_callback(lambda _: second_failed.set())
                return future

        monkeypatch.setattr(sys.modules["reranklab.rerank"], "ThreadPoolExecutor", Pool)
        with pytest.raises(BackendError, match=r"^scoring failed for \('q1', 'p1'\): refused$"):
            score_candidates(_FailingWireFake(), DEFAULT_TEMPLATE, DIRECT, queries, corpus, cands,
                             SamplingParams())

    def _consume_first_then_fail(self, stream):
        # the consumer fails after the first pair, as a failed dump write would
        with pytest.raises(OSError, match="disk full"), contextlib.closing(stream):
            for _ in stream:
                raise OSError("disk full")

    def test_closing_the_wire_stream_starts_no_further_pair(self, monkeypatch):
        corpus, queries, cands = self._fixture(50)
        fake, concurrency = _HeldWireFake(), 2

        class Pool(ThreadPoolExecutor):
            def shutdown(self, *args, **kwargs):
                # the stream is closed, so its unstarted pairs are cancelled: free the held ones
                fake.release.set()
                super().shutdown(*args, **kwargs)

        # by module: the package's ``rerank`` attribute is the function
        monkeypatch.setattr(sys.modules["reranklab.rerank"], "ThreadPoolExecutor", Pool)
        self._consume_first_then_fail(iter_scores(
            fake, DEFAULT_TEMPLATE, DIRECT, queries, corpus, cands, SamplingParams(),
            concurrency=concurrency,
        ))
        assert fake.release.is_set()
        # direct sends one request per pair: the first, one held on each other worker,
        # and one the first pair's worker took next; none once the stream is closed
        assert 1 <= fake.sent <= 2 * concurrency + 1

    def test_closing_the_in_process_stream_starts_no_further_pair(self):
        corpus, queries, cands = self._fixture(50)
        mock = MockBackend()
        self._consume_first_then_fail(iter_scores(
            mock, DEFAULT_TEMPLATE, DIRECT, queries, corpus, cands, SamplingParams(),
            concurrency=4,
        ))
        assert mock.score_calls == 1

    def test_wire_stream_beyond_its_window_keeps_candidate_order(self):
        # 100 pairs against a window of 8 x 4 workers at concurrency 2
        corpus, queries, cands = self._fixture(100)
        threaded, _ = score_candidates(
            _WireFake(), DEFAULT_TEMPLATE, DIRECT, queries, corpus, cands, SamplingParams(),
            concurrency=2,
        )
        serial = [score_pair(_WireFake(), DEFAULT_TEMPLATE, DIRECT, queries["q1"],
                             corpus.passage(c.passage_id), SamplingParams()) for c in cands]
        assert threaded == serial

    def test_wire_stream_holds_a_bounded_window_of_pairs(self):
        # 200 queries x 100 candidates, the stream held open after its first outcome;
        # submitting every pair at once holds about 1.8 KB of future and work item per pair
        corpus = Corpus(tuple(Passage(f"p{i}", f"text {i}") for i in range(100)))
        queries = {f"q{j}": Query(f"q{j}", f"question {j}") for j in range(200)}
        cands = [RunEntry(f"q{j}", f"p{i}", i + 1, float(100 - i))
                 for j in range(200) for i in range(100)]
        fake, concurrency = _WireFake(), 2
        tracemalloc.start()
        try:
            stream = iter_scores(fake, DEFAULT_TEMPLATE, DIRECT, queries, corpus, cands,
                                 SamplingParams(), concurrency=concurrency)
            with contextlib.closing(stream):
                first = next(stream)
                taken = fake._calls
                time.sleep(0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (first.query_id, first.passage_id) == ("q0", "p0")
        assert peak < 1e6, peak
        # direct sends one request per pair: only the pairs unfinished when the first was
        # taken are sent while the stream is held
        assert fake._calls <= taken + 8 * 2 * concurrency

    def test_wire_stream_scores_on_behind_a_slow_pair(self):
        # the first pair is answered only once 100 later ones have arrived, more than the
        # 8 x 4 workers unfinished at concurrency 2: a window of pairs submitted ahead of
        # the caller would leave the workers idle behind it until the fake's 5 s timeout
        corpus, queries, cands = self._fixture(200)
        fake = _SlowFirstWireFake(behind=100)
        scored, _ = score_candidates(
            fake, DEFAULT_TEMPLATE, DIRECT, queries, corpus, cands, SamplingParams(),
            concurrency=2,
        )
        assert fake.first_answered_after_the_rest
        serial = [score_pair(_WireFake(), DEFAULT_TEMPLATE, DIRECT, queries["q1"],
                             corpus.passage(c.passage_id), SamplingParams()) for c in cands]
        assert scored == serial

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_wire_stream_over_random_schedules(self, data):
        n = data.draw(st.integers(1, 80), label="pairs")
        concurrency = data.draw(st.integers(1, 3), label="concurrency")
        slow = data.draw(st.integers(0, n - 1), label="slow pair")
        behind = data.draw(st.integers(0, n - 1 - slow), label="later arrivals it waits for")
        fail = data.draw(st.none() | st.integers(0, n - 1), label="failing pair")
        corpus = Corpus(tuple(Passage(f"p{i}", f"<{i}>") for i in range(n)))
        queries = {"q1": Query("q1", "a question")}
        cands = [RunEntry("q1", f"p{i}", i + 1, float(n - i)) for i in range(n)]
        fake, peak = _ScheduledWireFake(slow, behind, fail), 0

        class Pool(ThreadPoolExecutor):
            submitted = []

            def submit(self, *args, **kwargs):
                nonlocal peak  # pairs submitted and unfinished, this one included
                peak = max(peak, 1 + sum(not f.done() for f in self.submitted))
                self.submitted.append(super().submit(*args, **kwargs))
                return self.submitted[-1]

            def shutdown(self, *args, **kwargs):
                fake.release.set()  # the stream is over: free the pairs held after the failure
                super().shutdown(*args, **kwargs)

        got, error, switch = [], None, sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys.modules["reranklab.rerank"], "ThreadPoolExecutor", Pool)
            sys.setswitchinterval(1e-5)  # frequent thread switches, so a lost permit would show
            try:
                got.extend(iter_scores(fake, DEFAULT_TEMPLATE, DIRECT, queries, corpus, cands,
                                       SamplingParams(), concurrency=concurrency))
            except BackendError as exc:
                error = exc
            finally:
                sys.setswitchinterval(switch)
        serial = [score_pair(_WireFake(), DEFAULT_TEMPLATE, DIRECT, queries["q1"],
                             corpus.passage(c.passage_id), SamplingParams()) for c in cands]
        assert not fake.slow_waited_out
        assert peak <= 8 * 2 * concurrency
        if fail is None:
            assert error is None and got == serial
        else:
            # a pair before the failed one that no worker had started fails with it
            assert len(got) <= fail and got == serial[:len(got)]
            assert str(error) == f"scoring failed for ('q1', 'p{fail}'): pair {fail} refused"
            assert sum(i > fail for i in fake.sent) <= 2 * concurrency

    @pytest.mark.parametrize("concurrency", [0, -1])
    @pytest.mark.parametrize("wire", [False, True], ids=["mock", "wire"])
    def test_stream_refuses_concurrency_below_one_before_it_is_read(self, wire, concurrency):
        corpus, queries, cands = self._fixture()
        backend = _WireFake() if wire else MockBackend()
        with pytest.raises(ValidationError, match=f"^concurrency must be >= 1, got {concurrency}$"):
            iter_scores(backend, DEFAULT_TEMPLATE, DIRECT, queries, corpus, cands,
                        SamplingParams(), concurrency=concurrency)
        assert (backend._calls if wire else backend.score_calls) == 0

    def test_stream_checks_candidates_before_it_is_read(self):
        corpus, queries, cands = self._fixture()
        mock = MockBackend()
        for extra, message in ((RunEntry("q9", "p0", 1, 1.0), "unknown query id 'q9'"),
                               (RunEntry("q1", "p9", 7, 0.5), "unknown passage id 'p9'")):
            with pytest.raises(ValidationError, match=message):
                iter_scores(mock, DEFAULT_TEMPLATE, DIRECT, queries, corpus, [*cands, extra],
                            SamplingParams())
        assert mock.score_calls == 0

    def test_in_process_is_fixed_per_class(self):
        assert ReplayBackend.answers_in_process and not HttpCompletionsBackend.answers_in_process


class TestStrategyValidation:
    def test_samples_only_for_self_consistency(self):
        RerankStrategy(StrategyKind.SELF_CONSISTENCY, samples=8)
        with pytest.raises(ValidationError):
            RerankStrategy(StrategyKind.DIRECT, samples=2)

    @pytest.mark.parametrize("kind, samples", [("direct", 1), ("nonsense", 1), ("direct", 2)],
                             ids=["name", "unknown-name", "name-with-samples"])
    def test_kind_must_be_a_strategy_kind(self, kind, samples):
        # a plain name equals its member but is not it, so score_pair would read it as reason
        mock = MockBackend()
        with pytest.raises(ValidationError, match="StrategyKind"):
            score_pair(mock, DEFAULT_TEMPLATE, RerankStrategy(kind, samples), Q, P,
                       SamplingParams())
        assert mock.generate_calls == mock.score_calls == 0


class _RecordingMock(MockBackend):
    """The hash mock, keeping the payload of every request it answers."""

    def __init__(self):
        super().__init__()
        self.payloads = []

    def _complete(self, payload: dict) -> dict:
        self.payloads.append(payload)
        return super()._complete(payload)


class TestResolve:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(StrategyKind),
        by_name=st.booleans(),
        samples=st.integers(1, 4),
        temperature=st.none() | st.floats(0, 2),
        top_p=st.none() | st.floats(0, 1, exclude_min=True),
        max_tokens=st.integers(1, 64),
        max_passage_chars=st.integers(0, 80),
    )
    def test_the_backend_sees_what_was_resolved(self, kind, by_name, samples, temperature,
                                                top_p, max_tokens, max_passage_chars):
        strategy, sampling = RerankStrategy.resolve(
            kind.value if by_name else kind, samples, max_passage_chars,
            temperature, top_p, max_tokens,
        )
        sampled = kind is StrategyKind.SELF_CONSISTENCY
        generated = kind in (StrategyKind.REASON, StrategyKind.SELF_CONSISTENCY)
        n = samples if sampled else 1
        assert strategy == RerankStrategy(kind, n, max_passage_chars)
        assert sampling == SamplingParams(
            (0.7 if sampled else 0.0) if temperature is None else temperature,
            (0.95 if sampled else 1.0) if top_p is None else top_p,
            max_tokens,
        )
        passage = Passage("p1", "αβγδεζηθικλμνξοπρστυφχψω" * 4)  # 96 letters no prompt has
        mock = _RecordingMock()
        pair = score_pair(mock, DEFAULT_TEMPLATE, strategy, Q, passage, sampling)
        generates = [p for p in mock.payloads if "stop" in p]
        reads = [p for p in mock.payloads if "stop" not in p]
        assert len(generates) == (n if generated else 0)
        assert len(reads) == (n if generated else 1)
        for p in generates:
            assert (p["temperature"], p["top_p"], p["max_tokens"]) == (
                sampling.temperature, sampling.top_p, sampling.max_tokens)
        kept = passage.text[: max_passage_chars or None]
        for p in mock.payloads:
            assert kept in p["prompt"]
            assert kept == passage.text or passage.text[: len(kept) + 1] not in p["prompt"]
        assert len(pair.per_sample_scores) == (n if sampled else 0)

    def test_an_unknown_kind_is_refused(self):
        with pytest.raises(ValidationError, match="StrategyKind"):
            RerankStrategy.resolve("nonsense")
