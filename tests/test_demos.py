"""Every demo script runs to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import votingpower

DEMOS_DIR = Path(__file__).resolve().parents[1] / "demos"
PACKAGE_ROOT = Path(votingpower.__file__).resolve().parents[1]
DEMOS = sorted(DEMOS_DIR.glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    child = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip()
    assert "Traceback" not in child.stdout + child.stderr
