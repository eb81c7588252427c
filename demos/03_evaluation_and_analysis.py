"""Evaluation and score-distribution analysis on synthetic scores.

Contrasts a graded scorer (spreads probability across partial-relevance
bins) with a polarized one (everything near 0 or 1): the graded scorer
ranks better even when both classify identically.

Run:  python demos/03_evaluation_and_analysis.py
"""

import math

from reranklab import (
    RunEntry,
    ScoredPair,
    bin_scores,
    classify,
    ndcg_at_k,
    rerank,
)


def logit(p):
    return math.log(p / (1 - p))


def sigmoid(d):
    return 1 / (1 + math.exp(-d))


# one query, ten candidates: grades 3/2/1 buried at the bottom of the
# first-stage order, seven grade-0 passages above them
grades = {f"p{i}": g for i, g in enumerate([0] * 7 + [1, 2, 3])}
qrels = {"q1": grades}
candidates = [RunEntry("q1", f"p{i}", i + 1, float(10 - i)) for i in range(10)]

graded_scores = [  # monotone in grade: partial relevance preserved
    ScoredPair("q1", pid, sigmoid(logit({0: 0.05, 1: 0.35, 2: 0.55, 3: 0.75}[g])))
    for pid, g in grades.items()
]
polarized_scores = [  # relevant-or-not only
    ScoredPair("q1", pid, 0.99 if g > 0 else 0.01) for pid, g in grades.items()
]

for label, scores in (("graded", graded_scores), ("polarized", polarized_scores)):
    run = rerank(candidates, scores, label)
    report = ndcg_at_k(run, qrels, k=10)
    cls = classify(scores, qrels, score_threshold=0.5, grade_rule="gt2")
    dist = bin_scores([s.score for s in scores])
    print(f"--- {label} scorer ---")
    print(f"ndcg@10      {report.mean:.4f}")
    print(f"precision    {cls.precision:.3f}   recall {cls.recall:.3f}   f1 {cls.f1:.3f}")
    print(f"regions      low {dist.low_fraction:.2f}  "
          f"partial {dist.partial_fraction:.2f}  high {dist.high_fraction:.2f}")
    print()

print("the polarized scorer ties all relevant passages at 0.99, so the")
print("first-stage order decides among them and the grade-3 passage stays buried;")
print("the graded scorer separates them and ranks perfectly.")
