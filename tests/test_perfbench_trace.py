"""The benchmark's tracer still installs over the package.

``perfbench/tests`` cannot join this suite's test paths: an in-process
``Tracer.install()`` would find the originals that the modules of this suite
import, and refuse to install.  So the traced child runs in its own
interpreter, from the repository root, as ``perfbench/run.py --trace 1``
starts it.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_suite_small_installs_and_is_correct():
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "child.py"), "suite-small", "1", "--trace"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["problems"]
    assert result["trace"] is not None
