"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def run_demo(script: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, script):
    proc = run_demo(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_error_sweep_demo_runs_small(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_demo(
        ROOT / "demos" / "05_error_sweep.py",
        tmp_path,
        *("--n", "40", "--resolutions", "6", "--epochs", "20", "--mc", "2000"),
        *("--out", str(out)),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
