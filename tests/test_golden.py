"""Byte-identity of CLI output: each command's stdout against a pinned file.

The files under ``tests/golden/`` hold the exact stdout of the commands
below.  A change that is meant to alter an output rewrites its file with
``PYTHONPATH=src python tests/test_golden.py``, run from the repository
root.
"""

import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"
CLI = [sys.executable, "-m", "diffeorules.cli"]

COMMANDS = {
    "rules_free": ["rules", "--n", "4", "--kind", "free", "--format", "json"],
    "rules_interaction": ["rules", "--n", "4", "--kind", "interaction", "--s", "3", "--format", "json"],
    "rules_total": ["rules", "--n", "4", "--kind", "total", "--format", "json"],
    "rules_generalized": ["rules", "--n", "4", "--kind", "generalized", "--format", "json"],
    "treesum_b6": ["treesum", "--kind", "b", "--n", "6", "--format", "json"],
    "treesum_bprime5": ["treesum", "--kind", "bprime", "--n", "5", "--format", "json"],
    "treesum_bprime5_reduced": ["treesum", "--kind", "bprime", "--n", "5", "--reduced", "--format", "json"],
    "treesum_A5_all": ["treesum", "--kind", "A", "--n", "5", "--offshell", "all", "--format", "json"],
    "treesum_S6": ["treesum", "--kind", "S", "--n", "6", "--format", "json"],
    "treesum_S4_trace": ["treesum", "--kind", "S", "--n", "4", "--trace", "--format", "json"],
    "verify_n4": ["verify", "--max-n", "4", "--seed", "1", "--format", "json"],
    "verify_n4_csv": ["verify", "--max-n", "4", "--seed", "1", "--format", "csv"],
}


def _stdout(argv):
    out = subprocess.run(CLI + argv, capture_output=True, check=True)
    return out.stdout


def _path(name, argv):
    suffix = ".csv" if "csv" in argv else ".json"
    return GOLDEN / (name + suffix)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_is_byte_identical(name):
    argv = COMMANDS[name]
    assert _stdout(argv) == _path(name, argv).read_bytes()


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        _path(name, argv).write_bytes(_stdout(argv))
