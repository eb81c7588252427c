"""Tiny-size self-test of the benchmark harness, so it cannot rot unnoticed.

    python3 bench/selftest.py

Runs every workload at tiny size with tracing off and on, and checks that
the result line follows BENCHMARK.json: every named metric present with its
unit, end-to-end values nonzero, all correctness checks passing. It also
checks that a directory holding only the benchmark, without the program,
fails with no result. It takes well under a minute and is not part of the
full runs or of the test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc: subprocess.CompletedProcess, metrics: list[dict], nonzero: bool) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    expected = {m["name"]: m["unit"] for m in metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metric names/units differ: {set(got) ^ set(expected)}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or (nonzero and m["value"] == 0):
            problems.append(f"{name} = {m['value']!r}")
    return problems


def main() -> int:
    failures = []
    for w in SPEC["workloads"]:
        for trace, metrics in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            problems = check_result(run(ROOT, w["name"], trace), metrics, nonzero=trace == 0)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{w['name']:14s} trace={trace}: {status}")
            failures += problems

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"without the program: {'ok' if ok else 'FAIL'} (exit code {proc.returncode})")
    if not ok:
        failures.append("benchmark did not fail without the program")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
