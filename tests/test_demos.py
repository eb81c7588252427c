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


def _oldest_python() -> str | None:
    """The first ``python3.10`` that runs: the one on PATH (a pyenv shim may not
    run), then each pyenv install of 3.10."""
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    installs = map(str, sorted(pyenv.glob(f"versions/3.10*/bin/{OLDEST_PYTHON}")))
    for python in (shutil.which(OLDEST_PYTHON), *installs):
        if python and subprocess.run([python, "-c", "pass"], capture_output=True).returncode == 0:
            return python
    return None


def test_cli_demo_runs_on_the_oldest_supported_python():
    python = _oldest_python()
    if python is None:
        pytest.skip(f"no {OLDEST_PYTHON} on PATH or under pyenv runs `-c pass`")
    _run(python, ROOT / "demos" / "04_cli_pipeline.py")
