"""Ranking evaluation and score-distribution analysis.

NDCG@k follows the trec-eval lineage: per query, DCG sums gain(grade) /
log2(rank + 1) over the top k, the ideal DCG uses all judged grades for
the query sorted descending, and queries whose ideal DCG is zero (no
relevant documents) are skipped when averaging. Both the exponential
(2^g - 1, default) and linear (g) gain conventions exist in the wild, so
the choice is explicit in every report.

Classification treats each scored pair as a binary prediction (score
strictly above the threshold) against thresholded graded judgments. Two
grade rules ship because the conventions genuinely disagree on 0-3 scales:
``gt2`` takes only the top grade as positive, ``ge2`` also counts grade 2.

Score distributions use ten decimal bins, half-open except the last, and
three aggregate regions: low [0, 0.1), partial [0.1, 0.9), high [0.9, 1.0].
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .types import JudgmentMap, RunEntry, ScoredPair, ValidationError, ranked_lists

GAIN_MODES = ("exponential", "linear")
GRADE_RULES = ("gt2", "ge2")


def _gain(grade: int, mode: str) -> float:
    if mode == "exponential":
        return float(2**grade - 1)
    if mode == "linear":
        return float(grade)
    raise ValidationError(f"gain must be one of {GAIN_MODES}, got {mode!r}")


def grade_is_positive(grade: int, rule: str) -> bool:
    if rule == "gt2":
        return grade > 2
    if rule == "ge2":
        return grade >= 2
    raise ValidationError(f"grade rule must be one of {GRADE_RULES}, got {rule!r}")


@dataclass(frozen=True)
class EvalReport:
    per_query: dict[str, float]  # every judged query, including skipped ones at 0.0
    mean: float                  # over judged queries with a nonzero ideal DCG
    evaluated: int
    skipped: tuple[str, ...]     # judged queries with no relevant documents
    gain: str
    k: int

    def format(self) -> str:
        lines = [f"ndcg@{self.k}  gain={self.gain}"]
        for qid in self.per_query:
            marker = "  (skipped: no relevant docs)" if qid in self.skipped else ""
            lines.append(f"{qid}\t{self.per_query[qid]:.4f}{marker}")
        lines.append(f"mean\t{self.mean:.4f}  ({self.evaluated} queries)")
        return "\n".join(lines)


def ndcg_at_k(
    run: Sequence[RunEntry],
    judgments: JudgmentMap,
    k: int = 10,
    gain: str = "exponential",
) -> EvalReport:
    """NDCG@k per query and its mean.

    The run must be a ranked list (:func:`types.ranked_lists`); its order is
    read from the ranks, never from the scores. Unjudged passages in the run
    count as grade 0. Queries absent from the judgments are not evaluated at
    all; judged queries with an all-zero ideal are reported at 0.0 but
    excluded from the mean.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    _gain(0, gain)  # validate mode

    per_query: dict[str, float] = {}
    skipped: list[str] = []
    contributing: list[float] = []
    for qid, entries in ranked_lists(run).items():
        grades_for_query = judgments.get(qid)
        if grades_for_query is None:
            continue
        dcg = 0.0
        for i, e in enumerate(entries[:k], start=1):
            g = grades_for_query.get(e.passage_id, 0)
            dcg += _gain(g, gain) / math.log2(i + 1)
        ideal_grades = sorted(grades_for_query.values(), reverse=True)
        idcg = 0.0
        for i, g in enumerate(ideal_grades[:k], start=1):
            idcg += _gain(g, gain) / math.log2(i + 1)
        if idcg == 0.0:
            per_query[qid] = 0.0
            skipped.append(qid)
            continue
        value = dcg / idcg
        per_query[qid] = value
        contributing.append(value)

    mean = math.fsum(contributing) / len(contributing) if contributing else 0.0
    return EvalReport(
        per_query=per_query,
        mean=mean,
        evaluated=len(contributing),
        skipped=tuple(skipped),
        gain=gain,
        k=k,
    )


@dataclass(frozen=True)
class ClassificationReport:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float
    score_threshold: float
    grade_rule: str
    unjudged: int  # scored pairs skipped for lack of a judgment
    precision_undefined: bool = False
    recall_undefined: bool = False

    @property
    def judged(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def format(self) -> str:
        other = "ge2" if self.grade_rule == "gt2" else "gt2"
        lines = [
            f"relevance classification  (predict positive when score > {self.score_threshold})",
            f"positive grades: {self.grade_rule}  (the {other} convention also exists; "
            "see --grade-rule)",
            f"tp={self.tp} fp={self.fp} tn={self.tn} fn={self.fn}"
            f"  judged={self.judged} unjudged={self.unjudged}",
            f"precision={self.precision:.4f}"
            + ("  [undefined: no positive predictions]" if self.precision_undefined else ""),
            f"recall={self.recall:.4f}"
            + ("  [undefined: no positive labels]" if self.recall_undefined else ""),
            f"f1={self.f1:.4f}",
        ]
        return "\n".join(lines)


def classify(
    scores: Sequence[ScoredPair],
    judgments: JudgmentMap,
    score_threshold: float = 0.5,
    grade_rule: str = "gt2",
) -> ClassificationReport:
    """Confusion counts and precision/recall/F1 over the judged pairs.

    Prediction is the strict inequality score > threshold. Pairs without a
    judgment are excluded from the counts and tallied separately.
    """
    grade_is_positive(0, grade_rule)  # validate rule
    if not math.isfinite(score_threshold):  # score > NaN is never true
        raise ValidationError(f"score_threshold must be finite, got {score_threshold}")
    tp = fp = tn = fn = unjudged = 0
    for pair in scores:
        grade = judgments.get(pair.query_id, {}).get(pair.passage_id)
        if grade is None:
            unjudged += 1
            continue
        predicted = pair.score > score_threshold
        actual = grade_is_positive(grade, grade_rule)
        if predicted and actual:
            tp += 1
        elif predicted:
            fp += 1
        elif actual:
            fn += 1
        else:
            tn += 1

    precision_undefined = (tp + fp) == 0
    recall_undefined = (tp + fn) == 0
    precision = 0.0 if precision_undefined else tp / (tp + fp)
    recall = 0.0 if recall_undefined else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return ClassificationReport(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        precision=precision,
        recall=recall,
        f1=f1,
        score_threshold=score_threshold,
        grade_rule=grade_rule,
        unjudged=unjudged,
        precision_undefined=precision_undefined,
        recall_undefined=recall_undefined,
    )


BIN_EDGES = tuple(i / 10 for i in range(11))


@dataclass(frozen=True)
class ScoreDistribution:
    counts: tuple[int, ...]  # ten bins: [0,0.1), ..., [0.8,0.9), [0.9,1.0]
    total: int
    low_fraction: float      # [0, 0.1)
    partial_fraction: float  # [0.1, 0.9)
    high_fraction: float     # [0.9, 1.0]

    def format(self) -> str:
        lines = ["score distribution (10 bins; last bin closed at 1.0)"]
        for i, count in enumerate(self.counts):
            left, right = BIN_EDGES[i], BIN_EDGES[i + 1]
            closer = "]" if i == 9 else ")"
            lines.append(f"[{left:.1f}, {right:.1f}{closer}\t{count}\t{count / self.total:.4f}")
        lines.append(f"total\t{self.total}")
        lines.append(
            f"regions: low={self.low_fraction:.4f} partial={self.partial_fraction:.4f} "
            f"high={self.high_fraction:.4f}"
        )
        return "\n".join(lines)


def bin_scores(scores: Sequence[float]) -> ScoreDistribution:
    """Histogram relevance scores into the ten decimal bins."""
    if not scores:
        raise ValidationError("cannot bin an empty score list")
    counts = [0] * 10
    for v in scores:
        if not 0.0 <= v <= 1.0:
            raise ValidationError(f"score {v} out of [0, 1]")
        idx = bisect_right(BIN_EDGES, v) - 1
        counts[min(idx, 9)] += 1
    total = len(scores)
    return ScoreDistribution(
        counts=tuple(counts),
        total=total,
        low_fraction=counts[0] / total,
        partial_fraction=sum(counts[1:9]) / total,
        high_fraction=counts[9] / total,
    )
