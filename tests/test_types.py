import math

import pytest

from reranklab import (
    AnalyzerConfig,
    Bm25Params,
    Corpus,
    DecisionLogits,
    DEFAULT_TEMPLATE,
    MockBackend,
    Passage,
    Query,
    RerankStrategy,
    RunEntry,
    SamplingParams,
    ScoredPair,
    StrategyKind,
    ValidationError,
    build_index,
    ndcg_at_k,
    rerank,
    retrieve_top_k,
    score_candidates,
)
from reranklab.data import read_run, write_run
from reranklab.types import Candidate, ranked_lists, validate_candidate_list, validate_run


class TestConstructionInvariants:
    def test_query_requires_id_and_text(self):
        with pytest.raises(ValidationError):
            Query("", "text")
        with pytest.raises(ValidationError):
            Query("q1", "")

    def test_corpus_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Corpus((Passage("p1", "a"), Passage("p1", "b")))

    def test_corpus_lookup(self):
        corpus = Corpus((Passage("p1", "a"), Passage("p2", "b")))
        assert corpus.size == 2
        assert "p1" in corpus
        assert corpus.passage("p2").text == "b"
        with pytest.raises(ValidationError):
            corpus.passage("p9")

    def test_decision_logits_must_be_finite(self):
        DecisionLogits(2.0, -3.0)
        with pytest.raises(ValidationError):
            DecisionLogits(float("nan"), 0.0)
        with pytest.raises(ValidationError):
            DecisionLogits(0.0, float("inf"))

    def test_scored_pair_score_range(self):
        ScoredPair("q1", "p1", 0.5)
        with pytest.raises(ValidationError):
            ScoredPair("q1", "p1", 1.5)
        with pytest.raises(ValidationError):
            ScoredPair("q1", "p1", 0.5, per_sample_scores=(0.2, -0.1))


class TestRankedRow:
    """RunEntry is the one ranked row; the old first-stage names are aliases of it."""

    def test_candidate_alias_keeps_old_argument_order(self):
        assert Candidate("q1", "p1", 2.5, 3) == RunEntry("q1", "p1", 3, 2.5)

    def test_validate_candidate_list_is_validate_run(self):
        assert validate_candidate_list is validate_run

    def test_first_stage_rows_are_untagged_run_entries(self):
        corpus = Corpus((Passage("p1", "cat dog"), Passage("p2", "cat"), Passage("p3", "dog")))
        hits = retrieve_top_k(build_index(corpus, AnalyzerConfig(), Bm25Params()),
                              Query("q1", "cat"), 10)
        assert len(hits) == 2
        for c in hits:
            assert type(c) is RunEntry and c.tag == ""
            assert (c.first_stage_rank, c.first_stage_score) == (c.rank, c.score)

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_score_must_be_finite(self, score):
        with pytest.raises(ValidationError, match="finite"):
            RunEntry("q1", "p1", 1, score, "t")

    def test_rank_error_names_the_pair(self):
        with pytest.raises(ValidationError, match=r"got 0 for \('q1', 'p1'\)"):
            RunEntry("q1", "p1", 0, 1.0, "t")


class TestListInvariants:
    def test_candidate_ranks_contiguous(self):
        good = [
            RunEntry("q1", "p1", 1, 2.0),
            RunEntry("q1", "p2", 2, 1.0),
            RunEntry("q2", "p1", 1, 9.0),
        ]
        validate_run(good)
        with pytest.raises(ValidationError, match="contiguous"):
            validate_run([RunEntry("q1", "p1", 2, 2.0)])

    @pytest.mark.parametrize("ranks, fault", [
        ([2, 3], "rank 1 is missing"),
        ([1, 2, 4], "rank 3 is missing"),
        ([3, 1, 2, 2], "rank 2 is repeated"),
        ([*range(1, 50), *range(51, 102)], "rank 50 is missing"),  # 100 rows, one gap
    ])
    def test_contiguity_error_names_the_first_broken_rank(self, ranks, fault):
        rows = [RunEntry("q0", f"d{i}", rank, 1.0 / rank, "t") for i, rank in enumerate(ranks)]
        with pytest.raises(ValidationError) as info:
            ranked_lists(rows)
        assert str(info.value) == f"query 'q0': ranks are not contiguous 1..k: {fault}"

    def test_candidate_scores_non_increasing(self):
        bad = [RunEntry("q1", "p1", 1, 1.0), RunEntry("q1", "p2", 2, 2.0)]
        with pytest.raises(ValidationError, match="score increases"):
            validate_run(bad)

    def test_run_invariants(self):
        validate_run(
            [RunEntry("q1", "p1", 1, 0.9, "t"), RunEntry("q1", "p2", 2, 0.4, "t")]
        )
        with pytest.raises(ValidationError):
            validate_run([RunEntry("q1", "p1", 1, 0.1, "t"), RunEntry("q1", "p2", 2, 0.4, "t")])

    def test_immutability(self):
        q = Query("q1", "text")
        with pytest.raises(AttributeError):
            q.text = "other"


# Lists that are not ranked lists, each after a well-formed query, and ranked_lists' refusal.
MALFORMED = {
    "rank-gap": ([("q0", "d0", 1), ("q0", "d1", 3)],
                 r"query 'q0': ranks are not contiguous 1\.\.k: rank 2 is missing$"),
    "repeated-rank": ([("q0", "d0", 1), ("q0", "d1", 1)],
                      r"query 'q0': ranks are not contiguous 1\.\.k: rank 1 is repeated$"),
    "passage-twice": ([("q0", "d0", 1), ("q0", "d0", 2)],
                      r"duplicate run entry for \('q0', 'd0'\)"),
}


def _malformed(case):
    rows, message = MALFORMED[case]
    good = [RunEntry("q1", "d0", 1, 0.9, "t"), RunEntry("q1", "d1", 2, 0.5, "t")]
    return good + [RunEntry(q, d, rank, 1.0 / rank, "t") for q, d, rank in rows], message


@pytest.mark.parametrize("case", MALFORMED)
class TestOneRankedListCheck:
    """Every reader, writer, reranker and metric refuses a malformed list with one message."""

    def test_ranked_lists(self, case):
        run, message = _malformed(case)
        with pytest.raises(ValidationError, match=message):
            ranked_lists(run)

    def test_write_run(self, case, tmp_path):
        run, message = _malformed(case)
        with pytest.raises(ValidationError, match=message):
            write_run(str(tmp_path / "x.run"), run)
        assert not (tmp_path / "x.run").exists()

    def test_read_run(self, case, tmp_path):
        run, message = _malformed(case)
        path = tmp_path / "x.run"
        path.write_text("".join(f"{e.query_id} Q0 {e.passage_id} {e.rank} {e.score:.6f} t\n"
                                for e in run))
        with pytest.raises(ValidationError, match=r"x\.run:(\d+:)? " + message):
            read_run(str(path))

    def test_ndcg_at_k(self, case):
        run, message = _malformed(case)
        with pytest.raises(ValidationError, match=message):
            ndcg_at_k(run, {"q0": {"d0": 1}, "q1": {"d1": 2}})

    def test_rerank(self, case):
        run, message = _malformed(case)
        scores = {(e.query_id, e.passage_id): ScoredPair(e.query_id, e.passage_id, 0.5)
                  for e in run}
        with pytest.raises(ValidationError, match=message):
            rerank(run, scores.values(), "t")

    def test_score_candidates_sends_no_request(self, case):
        run, message = _malformed(case)
        corpus = Corpus((Passage("d0", "zero"), Passage("d1", "one")))
        queries = {"q0": Query("q0", "a question"), "q1": Query("q1", "another")}
        mock = MockBackend()
        with pytest.raises(ValidationError, match=message):
            score_candidates(mock, DEFAULT_TEMPLATE, RerankStrategy(StrategyKind.REASON),
                             queries, corpus, run, SamplingParams())
        assert mock.score_calls == mock.generate_calls == 0
