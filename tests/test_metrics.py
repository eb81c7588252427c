import itertools
import math
import random
import re

import pytest

from reranklab import (
    RunEntry,
    ScoredPair,
    ValidationError,
    bin_scores,
    classify,
    ndcg_at_k,
)

# ---------------------------------------------------------------------------
# independent oracle: DCG summed directly; the ideal found by brute force
# over every permutation instead of sorting
# ---------------------------------------------------------------------------


def oracle_dcg(grades_in_rank_order, k, gain):
    total = 0.0
    for i, g in enumerate(grades_in_rank_order[:k], start=1):
        value = float(2**g - 1) if gain == "exponential" else float(g)
        total += value / math.log2(i + 1)
    return total


def oracle_ideal_dcg(grades, k, gain):
    return max(oracle_dcg(list(p), k, gain) for p in itertools.permutations(grades))


def _run_of(grades, qid="q1"):
    m = len(grades)
    return [
        RunEntry(qid, f"p{i}", i + 1, float(m - i), "t") for i in range(m)
    ]


def _qrels_of(grades, qid="q1"):
    return {qid: {f"p{i}": g for i, g in enumerate(grades)}}


class TestNdcg:
    def test_worked_example(self):
        # ranks 1..3 carry grades (0, 3, 1); exponential gain, k=3
        report = ndcg_at_k(_run_of([0, 3, 1]), _qrels_of([0, 3, 1]), k=3)
        dcg = 7 / math.log2(3) + 1 / 2
        idcg = 7 + 1 / math.log2(3)
        assert abs(report.per_query["q1"] - dcg / idcg) < 1e-12
        assert abs(report.per_query["q1"] - 0.6442869262030828) < 1e-12

    def test_grade_sorted_order_is_exactly_one(self):
        for grades in ([3, 2, 1, 0], [2, 2, 1], [1, 0, 0, 0]):
            report = ndcg_at_k(_run_of(grades), _qrels_of(grades), k=10)
            assert report.per_query["q1"] == 1.0

    def test_matches_brute_force_oracle_over_permutations(self):
        rng = random.Random(17)
        for trial in range(6):
            n = rng.randint(2, 5)
            grades = [rng.randint(0, 3) for _ in range(n)]
            if not any(grades):
                grades[0] = 2
            for gain in ("exponential", "linear"):
                ideal = oracle_ideal_dcg(grades, 10, gain)
                for perm in itertools.permutations(range(n)):
                    permuted = [grades[j] for j in perm]
                    run = _run_of(permuted)
                    qrels = _qrels_of(permuted)
                    report = ndcg_at_k(run, qrels, k=10, gain=gain)
                    want = oracle_dcg(permuted, 10, gain) / ideal
                    assert abs(report.per_query["q1"] - want) < 1e-12

    def test_all_zero_grades_skipped_from_mean(self):
        run = _run_of([0, 0]) + _run_of([3, 1], qid="q2")
        qrels = {**_qrels_of([0, 0]), **_qrels_of([3, 1], qid="q2")}
        report = ndcg_at_k(run, qrels, k=10)
        assert report.per_query["q1"] == 0.0
        assert "q1" in report.skipped
        assert report.evaluated == 1
        assert report.mean == report.per_query["q2"]

    def test_unjudged_query_ignored(self):
        run = _run_of([3, 1]) + _run_of([2], qid="q_unjudged")
        report = ndcg_at_k(run, _qrels_of([3, 1]), k=10)
        assert "q_unjudged" not in report.per_query

    def test_judged_query_absent_from_the_run_is_not_evaluated(self):
        # as trec_eval without -c: the query counts neither per query nor in the mean
        qrels = {**_qrels_of([3, 1]), **_qrels_of([2], qid="q2")}
        report = ndcg_at_k(_run_of([3, 1]), qrels, k=10)
        assert list(report.per_query) == ["q1"]
        assert report.evaluated == 1 and report.skipped == ()
        assert report.mean == report.per_query["q1"] == 1.0

    def test_unjudged_passages_are_grade_zero(self):
        run = _run_of([3, 0, 2])
        qrels = {"q1": {"p0": 3, "p2": 2}}  # p1 unjudged
        report = ndcg_at_k(run, qrels, k=10)
        want = oracle_dcg([3, 0, 2], 10, "exponential") / oracle_ideal_dcg(
            [3, 2], 10, "exponential"
        )
        assert abs(report.per_query["q1"] - want) < 1e-12

    def test_judged_but_unretrieved_passages_raise_ideal(self):
        # a judged grade-3 passage missing from the run still counts in the ideal
        run = _run_of([2, 1])
        qrels = {"q1": {"p0": 2, "p1": 1, "missing": 3}}
        report = ndcg_at_k(run, qrels, k=10)
        want = oracle_dcg([2, 1], 10, "exponential") / oracle_ideal_dcg(
            [2, 1, 3], 10, "exponential"
        )
        assert abs(report.per_query["q1"] - want) < 1e-12

    def test_linear_vs_exponential_differ(self):
        run = _run_of([1, 3])
        qrels = _qrels_of([1, 3])
        exp = ndcg_at_k(run, qrels, k=10, gain="exponential").per_query["q1"]
        lin = ndcg_at_k(run, qrels, k=10, gain="linear").per_query["q1"]
        assert exp != lin

    def test_invariant_to_run_score_scale(self):
        grades = [0, 2, 1, 3]
        base = _run_of(grades)
        rescaled = [
            RunEntry(e.query_id, e.passage_id, e.rank, e.score * 100 + 7, e.tag)
            for e in base
        ]
        a = ndcg_at_k(base, _qrels_of(grades), k=10)
        b = ndcg_at_k(rescaled, _qrels_of(grades), k=10)
        assert a.per_query == b.per_query

    def test_duplicate_pair_rejected(self):
        run = _run_of([1, 2]) + [RunEntry("q1", "p0", 3, 0.0, "t")]
        with pytest.raises(ValidationError, match="duplicate"):
            ndcg_at_k(run, _qrels_of([1, 2]), k=10)

    def test_unknown_gain_names_the_choices(self):
        with pytest.raises(ValidationError, match=re.escape(
                "gain must be one of ('exponential', 'linear'), got 'log'")):
            ndcg_at_k(_run_of([1, 2]), _qrels_of([1, 2]), k=10, gain="log")

    def test_adjacent_swap_low_high_never_decreases(self):
        # putting the higher grade first never lowers NDCG@k
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(2, 6)
            grades = [rng.randint(0, 3) for _ in range(n)]
            if not any(grades):
                continue
            i = rng.randrange(n - 1)
            lo, hi = sorted((grades[i], grades[i + 1]))
            worse = grades[:i] + [lo, hi] + grades[i + 2:]
            better = grades[:i] + [hi, lo] + grades[i + 2:]
            r_worse = ndcg_at_k(_run_of(worse), _qrels_of(worse), k=10)
            r_better = ndcg_at_k(_run_of(better), _qrels_of(better), k=10)
            assert r_better.per_query["q1"] >= r_worse.per_query["q1"] - 1e-15


def _pairs(rows):
    return [ScoredPair(q, p, s) for q, p, s in rows]


class TestClassify:
    def test_perfect_scores(self):
        pairs = _pairs([("q1", "a", 1.0), ("q1", "b", 0.0)])
        qrels = {"q1": {"a": 3, "b": 0}}
        report = classify(pairs, qrels)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_synthetic_confusion(self):
        # planted tp=3, fp=1, fn=2, tn=0 -> P=0.75, R=0.6
        rows = (
            [("q", f"tp{i}", 0.9) for i in range(3)]
            + [("q", "fp0", 0.9)]
            + [("q", f"fn{i}", 0.1) for i in range(2)]
        )
        qrels = {"q": {**{f"tp{i}": 3 for i in range(3)}, "fp0": 0, "fn0": 3, "fn1": 3}}
        report = classify(_pairs(rows), qrels)
        assert (report.tp, report.fp, report.fn, report.tn) == (3, 1, 2, 0)
        assert report.precision == 0.75
        assert report.recall == 0.6
        assert abs(report.f1 - 2 / 3) < 1e-12

    def test_strict_threshold_inequality(self):
        pairs = _pairs([("q", "at", 0.5), ("q", "above", 0.5000001)])
        qrels = {"q": {"at": 3, "above": 3}}
        report = classify(pairs, qrels, score_threshold=0.5)
        assert report.tp == 1 and report.fn == 1

    def test_grade_rules(self):
        pairs = _pairs([("q", "g2", 0.9), ("q", "g3", 0.9)])
        qrels = {"q": {"g2": 2, "g3": 3}}
        gt2 = classify(pairs, qrels, grade_rule="gt2")
        ge2 = classify(pairs, qrels, grade_rule="ge2")
        assert (gt2.tp, gt2.fp) == (1, 1)
        assert (ge2.tp, ge2.fp) == (2, 0)
        assert "positive grades: ge2  (the gt2 convention also exists" in ge2.format()

    def test_unknown_grade_rule_names_the_choices(self):
        with pytest.raises(ValidationError, match=re.escape(
                "grade rule must be one of ('gt2', 'ge2'), got 'gt3'")):
            classify(_pairs([("q", "a", 0.9)]), {"q": {"a": 3}}, grade_rule="gt3")

    def test_unjudged_excluded_and_counted(self):
        pairs = _pairs([("q", "judged", 0.9), ("q", "mystery", 0.9)])
        qrels = {"q": {"judged": 3}}
        report = classify(pairs, qrels)
        assert report.judged == 1
        assert report.unjudged == 1

    def test_counts_partition_judged_pairs(self):
        rng = random.Random(9)
        rows = [("q", f"p{i}", rng.random()) for i in range(200)]
        qrels = {"q": {f"p{i}": rng.randint(0, 3) for i in range(150)}}
        report = classify(_pairs(rows), qrels)
        assert report.judged == 150
        assert report.unjudged == 50

    def test_zero_denominators_flagged(self):
        pairs = _pairs([("q", "a", 0.1)])
        qrels = {"q": {"a": 0}}
        report = classify(pairs, qrels)
        assert report.precision == 0.0 and report.precision_undefined
        assert report.recall == 0.0 and report.recall_undefined
        assert report.f1 == 0.0

    def test_reference_report_formatting(self):
        # fixture rates from a published-style benchmark row; only the
        # rendering is under test (counts cannot reproduce them offline)
        from reranklab import ClassificationReport

        report = ClassificationReport(
            tp=0, fp=0, tn=0, fn=0,
            precision=0.714, recall=0.803, f1=0.756,
            score_threshold=0.5, grade_rule="gt2", unjudged=0,
        )
        text = report.format()
        assert "precision=0.7140" in text
        assert "recall=0.8030" in text
        assert "f1=0.7560" in text
        assert "score > 0.5" in text
        assert "gt2" in text and "ge2" in text  # the alternative rule is surfaced


class TestBinScores:
    def test_worked_example(self):
        scores = [0.05] * 7 + [0.5] + [0.95] * 2
        dist = bin_scores(scores)
        assert dist.low_fraction == 0.7
        assert dist.partial_fraction == 0.1
        assert dist.high_fraction == 0.2

    def test_boundaries(self):
        dist = bin_scores([0.0, 0.1, 1.0])
        assert dist.bin_counts[0] == 1  # 0.0 in the first bin
        assert dist.bin_counts[1] == 1  # 0.1 opens the second bin
        assert dist.bin_counts[9] == 1  # 1.0 closes the last bin

    def test_every_decimal_edge(self):
        edges = [i / 10 for i in range(10)]
        dist = bin_scores(edges)
        assert dist.bin_counts == tuple([1] * 10)

    def test_counts_sum_and_fractions(self):
        rng = random.Random(2)
        scores = [rng.random() for _ in range(1000)]
        dist = bin_scores(scores)
        assert sum(dist.bin_counts) == dist.total == 1000
        total = dist.low_fraction + dist.partial_fraction + dist.high_fraction
        assert abs(total - 1.0) < 1e-12

    def test_permutation_invariant(self):
        rng = random.Random(3)
        scores = [rng.random() for _ in range(100)]
        shuffled = scores[:]
        rng.shuffle(shuffled)
        assert bin_scores(scores) == bin_scores(shuffled)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            bin_scores([0.5, 1.5])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            bin_scores([])
