"""Deterministic synthetic inputs for the benchmark workloads.

Everything is drawn from one ``random.Random(seed)`` and written as plain
files in the formats the program reads (JSONL id/text, TREC qrels, TREC
runs, a mock rule table). Nothing is downloaded and the generator imports
nothing from the program, so no generator state reaches the code under test.

Text follows a Zipf law over a generated vocabulary: word of rank r has
weight 1 / r**s. Queries sample 2-8 words from a source passage, so they
are Zipf-distributed too: most hit the long posting lists of frequent
words, a minority hit only rare ones.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

ZIPF_S = 1.07
ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t",
          "v", "w", "z", "br", "ch", "cr", "dr", "fl", "gr", "pl", "sh", "st", "tr")
VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
# suffixes give the Porter stemmer real work (steps 1-5 all fire on some of them)
SUFFIXES = ("", "", "", "s", "ing", "ed", "ies", "ation", "ational", "ness",
            "ful", "ly", "ment", "izer", "ence", "ible", "ate")


def vocabulary(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct pronounceable words, in random frequency-rank order."""
    words: set[str] = set()
    out: list[str] = []
    while len(out) < size:
        syllables = rng.randint(1, 3)
        stem = "".join(rng.choice(ONSETS) + rng.choice(VOWELS) for _ in range(syllables))
        word = stem + rng.choice(SUFFIXES)
        if word not in words:
            words.add(word)
            out.append(word)
    return out


class ZipfText:
    def __init__(self, rng: random.Random, vocab_size: int):
        self.rng = rng
        self.vocab = vocabulary(rng, vocab_size)
        self.cum = list(itertools.accumulate(1.0 / r**ZIPF_S for r in range(1, vocab_size + 1)))

    def words(self, n: int) -> list[str]:
        return self.rng.choices(self.vocab, cum_weights=self.cum, k=n)

    def passage(self) -> str:
        return " ".join(self.words(self.rng.randint(30, 90)))


def _write_id_text(path: Path, prefix: str, texts: list[str]) -> list[str]:
    ids = [f"{prefix}{i:06d}" for i in range(len(texts))]
    with open(path, "w", encoding="utf-8") as fh:
        for pid, text in zip(ids, texts):
            fh.write(json.dumps({"id": pid, "text": text}) + "\n")
    return ids


def _queries_from(rng: random.Random, passages: list[str], n: int) -> list[tuple[int, str]]:
    """(source passage ordinal, query text) pairs: 2-8 distinct words of a passage."""
    out = []
    for _ in range(n):
        src = rng.randrange(len(passages))
        distinct = sorted(set(passages[src].split()))
        k = min(len(distinct), rng.randint(2, 8))
        out.append((src, " ".join(rng.sample(distinct, k))))
    return out


def retrieve_zipf(root: Path, seed: int, docs: int, queries: int, vocab: int) -> dict:
    rng = random.Random(f"retrieve-zipf:{seed}")
    text = ZipfText(rng, vocab)
    passages = [text.passage() for _ in range(docs)]
    _write_id_text(root / "corpus.jsonl", "d", passages)
    qs = _queries_from(rng, passages, queries)
    _write_id_text(root / "queries.jsonl", "q", [t for _, t in qs])
    return {"corpus": root / "corpus.jsonl", "queries": root / "queries.jsonl"}


def rerank_http(root: Path, seed: int, docs: int, queries: int, depth: int, vocab: int) -> dict:
    """Corpus, queries and a first-stage run made without any retriever."""
    rng = random.Random(f"rerank-http:{seed}")
    text = ZipfText(rng, vocab)
    passages = [text.passage() for _ in range(docs)]
    pids = _write_id_text(root / "corpus.jsonl", "d", passages)
    qs = _queries_from(rng, passages, queries)
    qids = _write_id_text(root / "queries.jsonl", "q", [t for _, t in qs])
    with open(root / "first_stage.run", "w", encoding="utf-8") as fh:
        for qid in qids:
            picked = rng.sample(pids, depth)
            scores = sorted((rng.uniform(1.0, 30.0) for _ in picked), reverse=True)
            for rank, (pid, score) in enumerate(zip(picked, scores), start=1):
                fh.write(f"{qid} Q0 {pid} {rank} {score:.6f} synthetic\n")
    return {
        "corpus": root / "corpus.jsonl",
        "queries": root / "queries.jsonl",
        "run": root / "first_stage.run",
    }


def pipeline_mock(root: Path, seed: int, docs: int, queries: int, vocab: int) -> dict:
    """Corpus, queries, graded qrels and a hash-logit mock table.

    Each query's source passage is judged grade 3 and a few random passages
    get grades 0-2, so NDCG and classification have both classes to count.
    """
    rng = random.Random(f"pipeline-mock:{seed}")
    text = ZipfText(rng, vocab)
    passages = [text.passage() for _ in range(docs)]
    pids = _write_id_text(root / "corpus.jsonl", "d", passages)
    qs = _queries_from(rng, passages, queries)
    qids = _write_id_text(root / "queries.jsonl", "q", [t for _, t in qs])
    with open(root / "qrels.txt", "w", encoding="utf-8") as fh:
        for qid, (src, _) in zip(qids, qs):
            fh.write(f"{qid} 0 {pids[src]} 3\n")
            for other in rng.sample(range(docs), 6):
                if other != src:
                    fh.write(f"{qid} 0 {pids[other]} {rng.randint(0, 2)}\n")
    table = {"single_token_vocab": ["true", "false"], "default_logits": "hash"}
    (root / "mock.json").write_text(json.dumps(table) + "\n", encoding="utf-8")
    return {
        "corpus": root / "corpus.jsonl",
        "queries": root / "queries.jsonl",
        "qrels": root / "qrels.txt",
        "mock": root / "mock.json",
    }
