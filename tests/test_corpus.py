"""Byte-identity of a corpus of CLI runs and check witnesses.

``tests/golden/corpus.json`` pins, for each command below, the SHA-256 of
its stdout, its exit code and its stderr without the ``verify`` timing
line; and the report of each ``tamper`` witness run through the Python API.
The commands run in process through ``cli.main``.  A change that is meant
to alter an output rewrites the file with
``PYTHONPATH=src python tests/test_corpus.py``, run from the repository
root, and lists the changed entries.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from diffeorules import cli, verify
from diffeorules.algebra import RF_ONE, Scalar, edge_symbol, rf

CORPUS = pathlib.Path(__file__).parent / "golden" / "corpus.json"

CONFIGS = {
    None: None,
    # Zero and rational a_j beside a symbolic one, and two powers, one with
    # a rational coupling.
    "mixed": {
        "diffeo": {"a": {"1": "0", "2": "1/3", "3": "0", "4": "a4"}},
        "theory": {"interactions": [{"s": 3}, {"s": 4, "coupling": "4/7"}]},
    },
    "generalized": {"theory": {"propagator": "generalized"}},
}

_KINDS = [
    ["--kind", "b"],
    ["--kind", "bprime"],
    ["--kind", "bprime", "--reduced"],
    ["--kind", "S"],
    ["--kind", "S", "--s", "4"],
    *(["--kind", "A", "--offshell", spec] for spec in ("all", "1", "none", "n", "1,2")),
]


def _commands() -> list[tuple[list[str], str | None]]:
    out = []
    for config in CONFIGS:
        for n in range(3, 7):
            for kind in _KINDS:
                argv = ["treesum", *kind, "--n", str(n), "--format", "json"]
                out.append(([str(n) if a == "n" else a for a in argv], config))
        for max_n in range(2, 6):
            out.append((["verify", "--max-n", str(max_n), "--format", "json"], config))
    return out


def _run(argv: list[str], config: str | None, directory: pathlib.Path) -> dict:
    prefix = []
    if config is not None:
        path = directory / f"{config}.json"
        path.write_text(json.dumps(CONFIGS[config]))
        prefix = ["--config", str(path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([argv[0], *prefix, *argv[1:]])
    lines = [line for line in stderr.getvalue().splitlines() if not line.startswith("suite wall time:")]
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
        "stderr": "\n".join(lines),
    }


# Each tamper changes the compared value at one n or at every n.
_TAMPERS = {
    "plus_one_at_3": lambda n, v: v + RF_ONE if n == 3 else v,
    "doubled_at_4": lambda n, v: v.scaled(Scalar(2)) if n == 4 else v,
    "plus_x1": lambda n, v: v + rf(edge_symbol(frozenset((1,)))),
}
_TAMPERED = [
    ("bn", {"max_n": 5}),
    ("interaction_cancellation", {"s": 3, "max_n": 5}),
    ("interaction_cancellation", {"s": 4, "max_n": 6}),
    ("bprime", {"s": 3, "max_n": 5}),
]


def _witnesses() -> list[dict]:
    out = []
    for name, params in _TAMPERED:
        for tamper, fn in _TAMPERS.items():
            report = verify._CHECKS[name](**params, tamper=fn)
            out.append({"check": name, "params": params, "tamper": tamper, "status": report.status, "witness": report.witness})
    return out


def _key(argv: list[str], config: str | None) -> str:
    return " ".join(argv) + (f" [{config}]" if config else "")


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus")


def test_the_corpus_lists_every_command(corpus):
    assert [(entry["argv"], entry["config"]) for entry in corpus["commands"]] == _commands()


@pytest.mark.parametrize("argv, config", _commands(), ids=[_key(*c) for c in _commands()])
def test_command_output_is_pinned(argv, config, corpus, directory):
    (entry,) = (e for e in corpus["commands"] if e["argv"] == argv and e["config"] == config)
    assert _run(argv, config, directory) == {k: entry[k] for k in ("exit", "stdout_sha256", "stderr")}


def test_tamper_witnesses_are_pinned(corpus):
    assert json.loads(json.dumps(_witnesses())) == corpus["witnesses"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        commands = [{"argv": argv, "config": config, **_run(argv, config, pathlib.Path(tmp))} for argv, config in _commands()]
    CORPUS.write_text(json.dumps({"commands": commands, "witnesses": _witnesses()}, indent=1) + "\n")
