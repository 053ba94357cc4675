"""Every demo script runs to the end without a diagnostic."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout
