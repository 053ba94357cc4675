"""The benchmark's traced run installs over the package and reaches every
layer it expects, on each workload.

``perfbench/tests`` cannot join this suite's test paths: an in-process
``Tracer.install()`` would find the originals that the modules of this suite
import, and refuse to install.  So the traced run starts in its own
interpreter, from the repository root, as ``perfbench/run.py --trace 1``.
That run also fails when a layer it expects records no calls, for example
when the engine stops reaching ``trees.set_partitions``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ("suite-small", "symbolic-sums", "edge-swell"))
def test_traced_run_installs_and_is_correct(workload):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stdout
    assert result["attempted"] > 0
    assert result["failed"] == 0
