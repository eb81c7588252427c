"""First-stage retrieval walkthrough: tokenize, index, score, retrieve.

Run:  python demos/01_bm25_retrieval.py
"""

import math
import tempfile
from pathlib import Path

from reranklab import (
    AnalyzerConfig,
    Bm25Params,
    Corpus,
    Passage,
    Query,
    bm25_score,
    build_index,
    load_index,
    retrieve_top_k,
    save_index,
    tokenize,
)

corpus = Corpus((
    Passage("p1", "Jammed finger vs. broken finger: both may be treated using a splint."),
    Passage("p2", "A broken finger causes severe pain and swelling that lasts for days."),
    Passage("p3", "Icing and elevation help reduce swelling in minor hand injuries."),
    Passage("p4", "Quantum entanglement links the states of two distant photons."),
    Passage("p5", "Splints immobilize an injured finger while it heals."),
))

# --- tokenization --------------------------------------------------------
cfg = AnalyzerConfig()  # lowercase, split on non-alphanumerics
print("tokens:", tokenize("Jammed finger vs. broken finger!", cfg))

stemmed = AnalyzerConfig(stemmer="porter", stopwords=frozenset({"a", "the", "and"}))
print("stemmed:", tokenize("Icing and elevation help injured fingers", stemmed))

# --- indexing ------------------------------------------------------------
index = build_index(corpus, cfg, Bm25Params(k1=0.9, b=0.4))
print(f"\nindexed {index.doc_count} passages, {len(index.postings)} terms, "
      f"avg length {index.avg_doc_length:.2f}")

# the classic sanity check: one-word corpus scores exactly ln(4/3)
tiny = build_index(Corpus((Passage("d", "a"),)), cfg, Bm25Params(0.9, 0.4))
print("single-doc score:", bm25_score(tiny, Query("q", "a"), 0),
      "== ln(4/3):", math.log(4 / 3))

# --- retrieval -----------------------------------------------------------
query = Query("q1", "how to treat a jammed finger")
print(f"\ntop candidates for: {query.text!r}")
for c in retrieve_top_k(index, query, k=3):
    print(f"  rank {c.rank}  {c.passage_id}  score {c.score:.4f}")

# --- persistence: reload must reproduce identical scores ------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "index.json"
    save_index(index, str(path))
    reloaded = load_index(str(path))
    assert retrieve_top_k(reloaded, query, 3) == retrieve_top_k(index, query, 3)
    print(f"\nindex round-trips through {path.name}: scores identical")
