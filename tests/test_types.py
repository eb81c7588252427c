import math

import pytest

from reranklab import (
    AnalyzerConfig,
    Bm25Params,
    Corpus,
    DecisionLogits,
    Judgment,
    Passage,
    Query,
    RunEntry,
    ScoredPair,
    ValidationError,
    build_index,
    retrieve_top_k,
)
from reranklab.types import Candidate, validate_candidate_list, validate_run


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

    def test_judgment_rejects_negative_grade(self):
        with pytest.raises(ValidationError):
            Judgment("q1", "p1", -1)

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
            Candidate("q1", "p1", 2.0, 1),
            Candidate("q1", "p2", 1.0, 2),
            Candidate("q2", "p1", 9.0, 1),
        ]
        validate_candidate_list(good)
        with pytest.raises(ValidationError, match="contiguous"):
            validate_candidate_list([Candidate("q1", "p1", 2.0, 2)])

    def test_candidate_scores_non_increasing(self):
        bad = [Candidate("q1", "p1", 1.0, 1), Candidate("q1", "p2", 2.0, 2)]
        with pytest.raises(ValidationError, match="score increases"):
            validate_candidate_list(bad)

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
