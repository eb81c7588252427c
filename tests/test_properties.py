"""Property-based invariants: scored dumps round-trip, reranking ignores input order."""

import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from reranklab import Candidate, ReasoningTrace, ScoredPair, rerank
from reranklab.data import read_scored, write_scored

ids = st.text(min_size=1, max_size=8)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
traces = st.builds(
    ReasoningTrace,
    text=st.text(max_size=40),
    terminated=st.booleans(),
    token_count=st.integers(min_value=0, max_value=4096),
)


@st.composite
def scored_pairs(draw):
    samples = draw(st.lists(unit, max_size=4))
    score = math.fsum(samples) / len(samples) if samples else draw(unit)
    return ScoredPair(
        draw(ids), draw(ids), score,
        traces=tuple(draw(st.lists(traces, max_size=3))),
        per_sample_scores=tuple(samples),
    )


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(scored_pairs(), min_size=1, max_size=6), strategy=st.text(max_size=20))
def test_scored_dump_roundtrip_is_exact(pairs, strategy):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scored.jsonl")
        write_scored(path, pairs, strategy)
        assert read_scored(path) == (pairs, strategy)


@st.composite
def ranked_lists(draw):
    """Candidates for a few queries with ranks 1..k and non-increasing first-stage
    scores, a relevance score per pair (ties likely) and a subset of failed pairs."""
    candidates, scores, failed = [], [], set()
    for qid in draw(st.lists(ids, min_size=1, max_size=3, unique=True)):
        pids = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
        stage1 = sorted(draw(st.lists(st.integers(0, 5), min_size=len(pids), max_size=len(pids))),
                        reverse=True)
        for rank, (pid, first_stage) in enumerate(zip(pids, stage1), start=1):
            candidates.append(Candidate(qid, pid, float(first_stage), rank))
            if draw(st.booleans()) and draw(st.booleans()):
                failed.add((qid, pid))
            else:
                scores.append(ScoredPair(qid, pid, draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))))
    return candidates, scores, frozenset(failed)


@settings(max_examples=150, deadline=None)
@given(data=ranked_lists(), shuffle=st.randoms(use_true_random=False))
def test_rerank_ignores_candidate_and_score_order(data, shuffle):
    candidates, scores, failed = data
    reference = rerank(candidates, scores, "t", failed=failed)
    candidates, scores = list(candidates), list(scores)
    shuffle.shuffle(candidates)
    shuffle.shuffle(scores)
    assert rerank(candidates, scores, "t", failed=failed) == reference
