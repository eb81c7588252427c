"""Every demo script runs to completion against the package in src/."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OLDEST_PYTHON = "python3.10"  # the oldest that pyproject.toml's requires-python allows


def _run(python, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [python, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    _run(sys.executable, demo)


def test_cli_demo_runs_on_the_oldest_supported_python():
    python = shutil.which(OLDEST_PYTHON)
    runs = python and subprocess.run([python, "-c", "pass"], capture_output=True).returncode == 0
    if not runs:
        pytest.skip(f"no {OLDEST_PYTHON} on PATH runs `-c pass`")
    _run(python, ROOT / "demos" / "04_cli_pipeline.py")
