"""reranklab benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload retrieve-zipf --seed 1 --seconds 15 --trace 0

Workloads: retrieve-zipf, rerank-http, pipeline-mock (see BENCHMARK.json).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The program is imported from ``src/`` of the same
checkout; without it the run fails with exit code 2 and prints no result.
Inputs and outputs live in ``.bench_work/`` and are removed at exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
is the run record: Python version, core count, a digest of the program's
source, the seed, sample counts, correctness checks and the sha256 of
every output artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def source_digest() -> str:
    """sha256 over the program's source files; the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "reranklab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def why(workload: str) -> str:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return ""
    return next((w["why"] for w in spec.get("workloads", []) if w.get("name") == workload), "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["retrieve-zipf", "rerank-http", "pipeline-mock"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input size; tiny is for the harness self-test only")
    args = parser.parse_args()

    if not (SRC / "reranklab" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'reranklab'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reranklab

    if Path(reranklab.__file__).resolve().parent != SRC / "reranklab":
        print(f"bench: imported reranklab from {reranklab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    # relative paths keep the absolute checkout location out of the artifacts
    os.chdir(ROOT)
    work = Path(".bench_work") / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work, args.size)
    # a terminated run still stops the stub server and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        out = workload.run_traced() if args.trace else workload.run(args.seconds)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    correct = all(out.checks.values()) and out.failed == 0
    for name, (value, unit, samples) in out.metrics.items():
        print(f"{name:40s} {value:16.6f} {unit:6s} n={samples}")
    print(f"attempted {out.attempted}  failed {out.failed}  "
          f"checks {sum(out.checks.values())}/{len(out.checks)} passed")
    record = {
        "workload": args.workload,
        "why": why(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "source_sha256": source_digest(),
        "samples": {name: samples for name, (_, _, samples) in out.metrics.items()},
        "checks": out.checks,
        "artifact_sha256": out.digests,
        "notes": out.notes,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
