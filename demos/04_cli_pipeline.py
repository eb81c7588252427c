"""End-to-end pipeline through the CLI, offline against a mock table.

index -> retrieve -> rerank -> eval -> analyze -> dump-traces, with every
stage handing off through files in a scratch directory.

Run:  python demos/04_cli_pipeline.py
"""

import json
import random
import tempfile
from pathlib import Path

from reranklab.cli import main

words = ("splint finger swelling ice elevation fracture sprain joint "
         "bandage knuckle tendon bruise").split()
rng = random.Random(0)

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)

    # synthetic corpus, queries, graded judgments
    with open(root / "corpus.jsonl", "w") as fh:
        for i in range(120):
            text = " ".join(rng.choices(words, k=rng.randint(4, 10)))
            fh.write(json.dumps({"id": f"p{i:03d}", "text": text}) + "\n")
    with open(root / "queries.jsonl", "w") as fh:
        for i in range(5):
            text = " ".join(rng.sample(words, 3))
            fh.write(json.dumps({"id": f"q{i}", "text": text}) + "\n")
    with open(root / "qrels.txt", "w") as fh:
        for i in range(5):
            for j in rng.sample(range(120), 15):
                fh.write(f"q{i} 0 p{j:03d} {rng.randint(0, 3)}\n")

    # a deterministic mock backend: hash-derived logits, seeded reasoning
    (root / "mock.json").write_text(json.dumps({
        "single_token_vocab": ["true", "false"],
        "default_logits": "hash",
        "default_reasoning": "Okay, sample {seed}: comparing terms. Done.</think>",
    }))

    out = root / "out"
    steps = [
        ["index", "--corpus", str(root / "corpus.jsonl"), "--out-dir", str(out)],
        ["retrieve", "--index", str(out / "bm25_index.json"),
         "--queries", str(root / "queries.jsonl"), "--k", "20", "--out-dir", str(out)],
        ["rerank", "--corpus", str(root / "corpus.jsonl"),
         "--queries", str(root / "queries.jsonl"),
         "--run-in", str(out / "bm25.run"),
         "--strategy", "self_consistency", "--samples", "4",
         "--backend", f"mock:{root / 'mock.json'}",
         "--concurrency", "8", "--seed", "0", "--out-dir", str(out)],
        ["eval", "--run-in", str(out / "self_consistency.run"),
         "--qrels", str(root / "qrels.txt"), "--out-dir", str(out)],
        ["analyze", "--scored", str(out / "self_consistency_scored.jsonl"),
         "--qrels", str(root / "qrels.txt"), "--out-dir", str(out)],
        ["dump-traces", "--scored", str(out / "self_consistency_scored.jsonl"),
         "--corpus", str(root / "corpus.jsonl"), "--queries", str(root / "queries.jsonl"),
         "--out-dir", str(out)],
    ]
    for argv in steps:
        print(f"\n$ reranklab {' '.join(argv)}")
        code = main(argv)
        assert code == 0, f"step failed with exit code {code}"

    print("\nartifacts:")
    for path in sorted(out.iterdir()):
        print(f"  {path.name}  ({path.stat().st_size} bytes)")
