import math
import random

import pytest

from reranklab import (
    BackendError,
    Corpus,
    DecisionLogits,
    DEFAULT_TEMPLATE,
    MockBackend,
    Passage,
    PromptTemplate,
    Query,
    RerankStrategy,
    RunEntry,
    SamplingParams,
    ScoredPair,
    StrategyKind,
    ValidationError,
    derive_seed,
    relevance_from_logits,
    rerank,
    score_candidates,
    score_pair,
    score_reasoned,
    score_self_consistency,
)

Q = Query("q1", "how to help a jammed finger")
P = Passage("p1", "A broken finger is often more painful than a jammed finger.")
DIRECT = RerankStrategy(StrategyKind.DIRECT)
FORCED = RerankStrategy(StrategyKind.FORCED_NO_REASON)


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
        pair = score_reasoned(mock, DEFAULT_TEMPLATE, Q, P, SamplingParams(max_tokens=64))
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
        pair = score_reasoned(mock, DEFAULT_TEMPLATE, Q, P, SamplingParams(max_tokens=5))
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
        a = score_reasoned(emitted, DEFAULT_TEMPLATE, Q, P, SamplingParams(max_tokens=64))
        b = score_reasoned(truncated, DEFAULT_TEMPLATE, Q, P, SamplingParams(max_tokens=2))
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
        reasoned = score_reasoned(mock, DEFAULT_TEMPLATE, Q, P, SamplingParams(max_tokens=8))
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
        pair = score_self_consistency(
            mock, DEFAULT_TEMPLATE, Q, P, sampling, n=n, base_seed=0
        )
        assert len(pair.per_sample_scores) == n
        assert len(pair.traces) == n
        expected = math.fsum(pair.per_sample_scores) / n
        assert pair.score == expected
        assert min(pair.per_sample_scores) <= pair.score <= max(pair.per_sample_scores)

    def test_expected_per_sample_values(self):
        # oracle: recompute each sample's R from the seed the runner derives
        mock = self._seed_mock()
        sampling = SamplingParams(max_tokens=16)
        pair = score_self_consistency(
            mock, DEFAULT_TEMPLATE, Q, P, sampling, n=4, base_seed=7
        )
        for i, got in enumerate(pair.per_sample_scores):
            seed = derive_seed(7, Q.id, P.id, i)
            d = float(seed % 5) - 2.0
            want = 1.0 / (1.0 + math.exp(-d)) if d >= 0 else math.exp(d) / (1 + math.exp(d))
            assert abs(got - want) < 1e-15

    def test_n1_equals_reasoned_with_derived_seed(self):
        mock = self._seed_mock()
        sampling = SamplingParams(max_tokens=16)
        sc = score_self_consistency(mock, DEFAULT_TEMPLATE, Q, P, sampling, n=1, base_seed=3)
        rr = score_reasoned(
            mock, DEFAULT_TEMPLATE, Q, P, sampling.with_seed(derive_seed(3, Q.id, P.id, 0))
        )
        assert sc.score == rr.score
        assert sc.traces == rr.traces
        assert sc.per_sample_scores == (rr.score,)

    def test_constant_backend_mean_is_constant(self):
        mock = MockBackend(score_fn=lambda p: (1.0, 0.0), generate_fn=lambda p, s: "t</think>")
        sampling = SamplingParams(max_tokens=8)
        for n in (1, 3, 8):
            pair = score_self_consistency(mock, DEFAULT_TEMPLATE, Q, P, sampling, n=n)
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
            score_self_consistency(
                mock, DEFAULT_TEMPLATE, Q, P, SamplingParams(max_tokens=8), n=3
            )

    def test_average_over_successes(self):
        calls = {"n": 0}

        def generate_fn(prompt, seed):
            calls["n"] += 1
            if calls["n"] == 2:
                raise BackendError("boom")
            return "ok</think>"

        mock = MockBackend(score_fn=lambda p: (0.0, 0.0), generate_fn=generate_fn)
        pair = score_self_consistency(
            mock, DEFAULT_TEMPLATE, Q, P, SamplingParams(max_tokens=8),
            n=3, average_over_successes=True,
        )
        assert len(pair.per_sample_scores) == 2
        assert pair.score == 0.5


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
        scores = _scores({"p1": 0.9, "p2": 0.5, "p3": 0.1}) + [ScoredPair("q1", "p1", 0.2)]
        with pytest.raises(ValidationError, match="duplicate"):
            rerank(_candidates(), scores, "t")

    def test_failed_pairs_sink_in_first_stage_order(self):
        scores = _scores({"p2": 0.4})
        entries = rerank(
            _candidates(), scores, "t", failed=frozenset({("q1", "p1"), ("q1", "p3")})
        )
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
            reference = score_reasoned(
                MockBackend(), DEFAULT_TEMPLATE, queries[pair.query_id],
                corpus.passage(pair.passage_id), sampling.with_seed(seed),
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


class TestStrategyValidation:
    def test_samples_only_for_self_consistency(self):
        RerankStrategy(StrategyKind.SELF_CONSISTENCY, samples=8)
        with pytest.raises(ValidationError):
            RerankStrategy(StrategyKind.DIRECT, samples=2)
