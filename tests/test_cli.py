"""Command-line interface: outputs, config parsing, exit codes, determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from diffeorules import cli, verify
from diffeorules.algebra import RF_ZERO

CLI = [sys.executable, "-m", "diffeorules.cli"]


def run_cli(*args, config=None, tmp_path=None, timeout=None):
    argv = list(CLI)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    argv += list(args)
    return subprocess.run(argv, capture_output=True, text=True, timeout=timeout)


# Index tables that treesum refuses, each with the key its one-line error must
# name: the propagator tables ``theory.beta`` and ``theory.alpha`` are not
# config keys, since a generalized edge variable stands for the whole
# propagator polynomial, and ``diffeo.a`` takes integer indices.
_BAD_INDEX_TABLES = [
    ({"theory": {"beta": {"1": "5"}}}, "theory.beta"),
    ({"theory": {"alpha": {"1": "5"}}}, "theory.alpha"),
    ({"theory": {"propagator": "generalized", "beta": {"-1": "1"}}}, "theory.beta"),
    ({"theory": {"propagator": "generalized", "alpha": {"-1": "1"}}}, "theory.alpha"),
    ({"theory": {"propagator": "generalized", "alpha": {"one": "1"}}}, "theory.alpha"),
    ({"theory": {"propagator": "generalized", "beta": {"1": "1"}, "alpha": {"1": "1"}}}, "theory.alpha"),
    ({"diffeo": {"a": {"x": "1"}}}, "diffeo.a"),
]
_TREESUM_A = ["treesum", "--kind", "A", "--n", "3", "--offshell", "1"]


class TestRules:
    def test_free_three_point(self):
        out = run_cli("rules", "--n", "3", "--kind", "free")
        assert out.returncode == 0
        assert "2*i*a1*x1+2*i*a1*x2+2*i*a1*x3" in out.stdout

    def test_interaction_above_power_is_zero(self):
        out = run_cli("rules", "--n", "3", "--kind", "interaction", "--s", "4")
        assert out.returncode == 0
        assert "canonical: 0" in out.stdout

    def test_generalized_four_point(self):
        out = run_cli("rules", "--n", "4", "--kind", "generalized", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["valence"] == 4
        assert "4*i*a1^2*x{1+2}" in payload["canonical"]
        assert {"coefficient": "6*i*a2", "edges": [[1]]} in payload["terms"]

    @pytest.mark.parametrize("kind", ["free", "interaction", "total", "generalized"])
    def test_size_above_the_cap_is_refused(self, kind):
        power = ["--s", "3"] if kind == "interaction" else []
        at_cap = run_cli("rules", "--n", str(cli.RULES_MAX_N), "--kind", kind, *power, timeout=60)
        assert at_cap.returncode == 0
        out = run_cli("rules", "--n", "3000", "--kind", kind, *power, timeout=30)
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert str(cli.RULES_MAX_N) in line

    @pytest.mark.parametrize("kind", ["free", "total", "generalized"])
    def test_s_is_refused_by_a_kind_that_does_not_read_it(self, kind):
        out = run_cli("rules", "--n", "4", "--kind", kind, "--s", "3")
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert line == f"error: rules --s is not read by --kind {kind}"

    def test_s_is_read_by_the_interaction_kind(self):
        out = run_cli("rules", "--n", "4", "--kind", "interaction", "--s", "3")
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""

    def test_invalid_valence_is_usage_error(self):
        out = run_cli("rules", "--n", "2", "--kind", "free")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "error" in out.stderr


class TestTreesum:
    def test_b3(self):
        out = run_cli("treesum", "--kind", "b", "--n", "3")
        assert out.returncode == 0
        assert "value: 12*a1^2-6*a2" in out.stdout
        assert "tree_count: 4" in out.stdout

    def test_s_cancellation(self):
        out = run_cli("treesum", "--kind", "S", "--n", "4", "--s", "3")
        assert out.returncode == 0
        assert "value: 0" in out.stdout

    def test_amputated_full_offshell(self):
        out = run_cli("treesum", "--kind", "A", "--n", "4", "--offshell", "all", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["offshell_set"] == [1, 2, 3, 4]
        assert "x{1+2}" in payload["value"]

    def test_bad_offshell_spec(self):
        out = run_cli("treesum", "--kind", "A", "--n", "4", "--offshell", "1,9")
        assert out.returncode == 2

    def test_b_ignores_configured_interactions(self, tmp_path):
        cfg = {"theory": {"interactions": [{"s": 3}]}}
        out = run_cli("treesum", "--kind", "b", "--n", "3", config=cfg, tmp_path=tmp_path)
        assert out.returncode == 0, out.stderr
        assert "value: 12*a1^2-6*a2\n" in out.stdout
        assert "tree_count: 4\n" in out.stdout
        assert "decorated_count: 4\n" in out.stdout

    @pytest.mark.parametrize(
        "argv",
        [("rules", "--kind", "bogus", "--n", "4"), ("treesum", "--kind", "b")],
        ids=["unknown rule kind", "treesum without --n"],
    )
    def test_argparse_refuses_before_any_command_runs(self, argv):
        out = run_cli(*argv)
        assert out.returncode == 2
        assert out.stdout == ""

    def test_configured_coupling_reaches_value_and_trace(self, tmp_path):
        cfg = {"theory": {"interactions": [{"s": 3, "coupling": "2"}]}}
        out = run_cli(
            "treesum", "--kind", "S", "--n", "3", "--trace", "--format", "json",
            config=cfg, tmp_path=tmp_path,
        )
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["value"] == "-2*i"
        assert [row["amplitude"] for row in payload["trace"]] == ["-2*i"]

    @pytest.mark.parametrize("kind", ["b", "S"])
    def test_size_above_the_cap_is_refused_at_once(self, kind):
        start = time.perf_counter()
        out = run_cli("treesum", "--kind", kind, "--n", "40", timeout=30)
        assert time.perf_counter() - start < 1.0
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert str(cli.TREESUM_MAX_N) in line

    @pytest.mark.parametrize(
        "kind, flag",
        [
            ("b", ["--offshell", "1"]),
            ("bprime", ["--offshell", "none"]),
            ("S", ["--offshell", "all"]),
            ("b", ["--reduced"]),
            ("A", ["--reduced"]),
            ("S", ["--reduced"]),
            ("b", ["--s", "3"]),
            ("A", ["--s", "4"]),
        ],
    )
    def test_a_flag_the_kind_does_not_read_is_refused(self, kind, flag):
        out = run_cli("treesum", "--kind", kind, "--n", "3", *flag)
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert flag[0] in line and f"--kind {kind}" in line

    @pytest.mark.parametrize(
        "kind, flag",
        [("A", ["--offshell", "1"]), ("bprime", ["--reduced"]), ("bprime", ["--s", "4"]), ("S", ["--s", "4"])],
    )
    def test_a_flag_the_kind_reads_is_accepted(self, kind, flag):
        out = run_cli("treesum", "--kind", kind, "--n", "3", *flag)
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""

    @pytest.mark.parametrize("kind", ["bprime", "S"])
    def test_interacting_sums_refuse_generalized_theory(self, kind, tmp_path):
        cfg = {"theory": {"propagator": "generalized"}}
        out = run_cli("treesum", "--kind", kind, "--n", "3", config=cfg, tmp_path=tmp_path)
        assert out.returncode == 2
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1

    def test_trace_lists_decorated_trees(self):
        out = run_cli(
            "treesum", "--kind", "S", "--n", "4", "--s", "3", "--trace", "--format", "json"
        )
        payload = json.loads(out.stdout)
        assert len(payload["trace"]) == payload["decorated_count"] == 7
        topologies = {row["topology"] for row in payload["trace"]}
        assert len(topologies) == payload["tree_count"] == 4

    @pytest.mark.parametrize("argv", [["b"], ["bprime"], ["bprime", "--reduced"]])
    def test_one_leg_trace_is_the_bare_edge(self, argv):
        out = run_cli("treesum", "--kind", *argv, "--n", "1", "--trace", "--format", "json")
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert payload["value"] == "1"
        assert [row["amplitude"] for row in payload["trace"]] == ["1"]


class TestVerify:
    def test_single_check_passes(self):
        out = run_cli("verify", "--check", "bn", "--max-n", "4")
        assert out.returncode == 0
        assert "[PASS] bn" in out.stdout

    def test_unknown_check_is_usage_error(self):
        out = run_cli("verify", "--check", "nonsense")
        assert out.returncode == 2
        assert "unknown check" in out.stderr

    def test_json_output_is_byte_identical_for_same_config(self, tmp_path):
        cfg = {"suite": {"seed": 3, "trials": 5}}
        args = ("verify", "--check", "kinematics", "--format", "json")
        first = run_cli(*args, config=cfg, tmp_path=tmp_path)
        second = run_cli(*args, config=cfg, tmp_path=tmp_path)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_csv_format(self):
        out = run_cli("verify", "--check", "bn", "--max-n", "3", "--format", "csv")
        assert out.returncode == 0
        header, row = out.stdout.strip().splitlines()
        assert header.startswith("name,params,status")
        assert row.startswith("bn,")


def planned_specs(monkeypatch, *argv):
    """The specs ``verify`` would run for ``argv``, without running them."""
    planned = []

    def record(specs):
        planned.extend(specs)
        return []

    monkeypatch.setattr(verify, "run_suite", record)
    assert cli.main(["verify", "--format", "json", *argv]) == 0
    return planned


class TestVerifyPlan:
    @pytest.mark.parametrize("name", verify.check_names())
    def test_single_check_takes_the_default_suite_params(self, name, monkeypatch):
        suite = planned_specs(monkeypatch)
        assert planned_specs(monkeypatch, "--check", name) == [
            spec for spec in suite if spec.name == name
        ]
        assert suite == verify.default_suite()

    def test_a_repeated_check_is_refused_before_any_check(self, monkeypatch, capsys):
        # Each copy would run the check again: no bound on one command's time.
        monkeypatch.setattr(verify, "run_suite", lambda specs: pytest.fail("a check ran"))
        assert cli.main(["verify", "--check", "bn", "--check", "kinematics", "--check", "bn", "--max-n", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: verify --check repeats bn; each check runs once\n"

    def test_checks_run_in_the_order_given(self, monkeypatch):
        specs = planned_specs(monkeypatch, "--check", "kinematics", "--check", "bn")
        assert [spec.name for spec in specs] == ["kinematics", "bn"]

    def test_s_flag_reaches_bprime(self, monkeypatch):
        (spec,) = planned_specs(monkeypatch, "--s", "4", "--check", "bprime")
        assert spec.params["s"] == 4
        suite = planned_specs(monkeypatch, "--s", "4")
        assert [s.params["s"] for s in suite if s.name == "bprime"] == [4]

    @pytest.mark.parametrize("flag", [["--max-n", "0"], ["--order", "0"], ["--s", "0"], ["--s", "2"]])
    def test_out_of_range_flag_is_usage_error(self, flag):
        out = run_cli("verify", "--check", "bn", *flag)
        assert out.returncode == 2
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1


class TestVerifyCaps:
    def test_max_n_above_the_cap_is_refused_at_once(self):
        out = run_cli("verify", "--check", "bn", "--max-n", "40", timeout=30)
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert "max_n" in line and str(cli.VERIFY_CAPS["max_n"]) in line

    @pytest.mark.parametrize("key", ["trials", "order", "dimension"])
    def test_config_value_above_the_cap_is_refused_at_once(self, key, tmp_path):
        cfg = {"suite": {key: 100000000}}
        out = run_cli("verify", "--check", "kinematics", config=cfg, tmp_path=tmp_path, timeout=30)
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert key in line and str(cli.VERIFY_CAPS[key]) in line

    def test_order_flag_above_the_cap_is_refused(self):
        out = run_cli("verify", "--check", "adiabatic", "--order", "1001", timeout=30)
        assert out.returncode == 2
        (line,) = out.stderr.splitlines()
        assert str(cli.VERIFY_CAPS["order"]) in line

    def test_dimension_below_two_is_refused_before_any_check(self, monkeypatch, tmp_path, capsys):
        # A kinematic point needs momenta of dimension 2 or more.
        runs = []
        monkeypatch.setattr(verify, "run_suite", runs.append)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"suite": {"dimension": 1}}))
        assert cli.main(["verify", "--config", str(path)]) == 2
        assert runs == []
        (line,) = capsys.readouterr().err.splitlines()
        assert "dimension" in line and "at least 2" in line

    def test_values_at_the_caps_are_accepted(self, monkeypatch, tmp_path):
        # trials and dimension cannot both be at their caps: each goes to its
        # cap with the other at the largest value the joint cap allows.
        caps, work = cli.VERIFY_CAPS, cli.VERIFY_KINEMATICS_WORK
        for suite in (
            {**caps, "trials": work // caps["dimension"]},
            {**caps, "dimension": work // caps["trials"]},
        ):
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"suite": suite}))
            specs = planned_specs(monkeypatch, "--config", str(path))
            assert specs == verify.default_suite(**suite)

    @pytest.mark.parametrize(
        "suite,argv",
        [
            ({"trials": 5000, "dimension": 1024}, []),
            ({"trials": 51, "dimension": 1024}, []),
            ({"trials": 5000, "dimension": 11}, ["--max-n", "2", "--order", "5", "--seed", "3"]),
        ],
    )
    def test_kinematics_work_above_the_cap_is_refused_at_once(self, suite, argv, tmp_path):
        # trials and dimension have no flags; the other flags do not lift the cap.
        out = run_cli(
            "verify", "--check", "kinematics", *argv, config={"suite": suite}, tmp_path=tmp_path, timeout=30
        )
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert "trials * dimension" in line and str(cli.VERIFY_KINEMATICS_WORK) in line

    @pytest.mark.parametrize(
        "argv",
        # One step past the cap: s - 1 gains a bit at order 10 and at order 1000.
        [["--s", str(2 ** (cli.VERIFY_RESIDUAL_WORK // 10) + 1)], ["--order", "1000", "--s", "5"]],
    )
    def test_residual_work_above_the_cap_is_refused_at_once(self, argv):
        out = run_cli("verify", "--check", "adiabatic", "--max-n", "2", *argv, timeout=30)
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert "order" in line and str(cli.VERIFY_RESIDUAL_WORK) in line

    def test_long_s_values_is_refused_at_once(self, tmp_path):
        cfg = {"suite": {"s_values": list(range(3, 4 + cli.VERIFY_MAX_S_VALUES))}}
        out = run_cli("verify", "--max-n", "2", config=cfg, tmp_path=tmp_path, timeout=30)
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert "s_values" in line and str(cli.VERIFY_MAX_S_VALUES) in line

    def test_residual_work_at_the_cap_runs(self):
        # s - 1 = 2**200 - 1 at order 10 is exactly at the cap; its tuned
        # coefficients all vanish, so (s - 1)! is never computed.
        s = 2 ** (cli.VERIFY_RESIDUAL_WORK // 10)
        out = run_cli("verify", "--check", "adiabatic", "--max-n", "2", "--s", str(s), timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("[PASS] adiabatic")

    def test_s_values_at_the_caps_are_accepted(self, monkeypatch, tmp_path):
        s_values = list(range(3, 2 + cli.VERIFY_MAX_S_VALUES)) + [2 ** (cli.VERIFY_RESIDUAL_WORK // 10)]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"suite": {"s_values": s_values}}))
        specs = planned_specs(monkeypatch, "--config", str(path))
        assert specs == verify.default_suite(s_values=s_values)


def _treesum_parser():
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["treesum"]


# Per kind, the largest --trace run the cap admits at default settings; the
# next --n is refused.  A new kind without a measured entry here fails below.
_TRACE_AT_CAP = {
    "b": ["--n", "6"],
    "bprime": ["--n", "5"],
    "A": ["--n", "7"],
    "S": ["--n", "6"],
}
# The treesum flags whose worst --trace run at the cap was measured (README's
# cap table): the slowest is A at n = 7 with --offshell all.
_TRACE_MEASURED_FLAGS = {"-h", "--help", "--config", "--format", "--kind", "--n", "--s", "--offshell", "--reduced", "--trace"}


class TestTraceCaps:
    def test_every_kind_and_flag_has_a_measured_trace_cap(self):
        parser = _treesum_parser()
        (kind,) = (a for a in parser._actions if "--kind" in a.option_strings)
        assert set(kind.choices) == set(_TRACE_AT_CAP)
        assert {flag for a in parser._actions for flag in a.option_strings} == _TRACE_MEASURED_FLAGS

    @pytest.mark.parametrize("kind", sorted(_TRACE_AT_CAP))
    def test_trace_at_the_cap_runs_and_one_past_is_refused_at_once(self, kind):
        at_cap = run_cli("treesum", "--kind", kind, *_TRACE_AT_CAP[kind], "--trace", "--format", "json", timeout=60)
        assert at_cap.returncode == 0, at_cap.stderr
        rows = len(json.loads(at_cap.stdout)["trace"])
        assert 0 < rows <= cli.TREESUM_TRACE_MAX
        n = int(_TRACE_AT_CAP[kind][1]) + 1
        start = time.perf_counter()
        out = run_cli("treesum", "--kind", kind, "--n", str(n), "--trace", timeout=30)
        assert time.perf_counter() - start < 1.0
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert str(cli.TREESUM_TRACE_MAX) in line

    @pytest.mark.parametrize(
        "argv, cfg",
        [
            (["--kind", "b", "--n", "5"], {"theory": {"interactions": [{"s": 3}]}}),
            (["--kind", "bprime", "--n", "4", "--s", "4"], None),
            (["--kind", "bprime", "--n", "4", "--reduced"], None),
            (["--kind", "A", "--n", "5", "--offshell", "all"], {"theory": {"interactions": [{"s": 3}, {"s": 4}]}}),
            (["--kind", "S", "--n", "5"], None),
        ],
    )
    def test_the_refused_count_is_the_dumped_row_count(self, argv, cfg, monkeypatch, tmp_path, capsys):
        prefix = []
        if cfg is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(cfg))
            prefix = ["--config", str(path)]
        assert cli.main(["treesum", *prefix, *argv, "--trace", "--format", "json"]) == 0
        rows = len(json.loads(capsys.readouterr().out)["trace"])
        monkeypatch.setattr(cli, "TREESUM_TRACE_MAX", rows - 1)
        assert cli.main(["treesum", *prefix, *argv, "--trace"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.endswith(f"got {rows}")


def _legs(k: int) -> str:
    return ",".join(map(str, range(1, k + 1))) or "none"


# One past each kind's cap: for A, one past the cap of each offshell-set
# size, and every leg offshell past the last.
_PAST_THE_CAPS = [
    *(["--kind", kind, "--n", str(caps[0] + 1)] for kind, caps in cli.TREESUM_CAPS.items() if kind != "A"),
    ["--kind", "bprime", "--reduced", "--n", str(cli.TREESUM_CAPS["bprime"][0] + 1)],
    *(["--kind", "A", "--offshell", _legs(k), "--n", str(cap + 1)] for k, cap in enumerate(cli.TREESUM_CAPS["A"])),
    ["--kind", "A", "--offshell", "all", "--n", str(cli.TREESUM_CAPS["A"][-1] + 1)],
]


# Powers 3 and 4 configured: one past each cap of A with an interaction, and
# one past S's cap, which does not fall.
_INTERACTING = {"theory": {"interactions": [{"s": 3}, {"s": 4}]}}
_PAST_THE_INTERACTING_CAPS = [
    *(["--kind", "A", "--offshell", _legs(k), "--n", str(cap + 1)] for k, cap in enumerate(cli.TREESUM_INTERACTING_A_CAPS)),
    ["--kind", "A", "--offshell", "all", "--n", str(cli.TREESUM_INTERACTING_A_CAPS[-1] + 1)],
    ["--kind", "S", "--n", str(cli.TREESUM_CAPS["S"][0] + 1)],
]


def _stub_sums(monkeypatch):
    result = verify.trees.TreeSumResult(RF_ZERO, 0, 0)
    for name in ("rooted_tree_sum", "interacting_rooted_tree_sum", "amputated_tree_sum", "coupling_linear_tree_sum"):
        monkeypatch.setattr(cli.trees, name, lambda *args, **kwargs: result)


class TestTreesumCaps:
    def test_every_kind_has_a_measured_cap(self):
        (kind,) = (a for a in _treesum_parser()._actions if "--kind" in a.option_strings)
        assert set(kind.choices) == set(cli.TREESUM_CAPS)
        caps = [*cli.TREESUM_CAPS.values(), cli.TREESUM_INTERACTING_A_CAPS]
        assert all(cap <= cli.TREESUM_MAX_N for row in caps for cap in row)

    @pytest.mark.parametrize("argv", _PAST_THE_CAPS, ids=" ".join)
    def test_one_past_each_cap_is_refused_at_once(self, argv):
        start = time.perf_counter()
        out = run_cli("treesum", *argv, timeout=30)
        assert time.perf_counter() - start < 1.0
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert f"limited to {int(argv[-1]) - 1}" in line

    @pytest.mark.parametrize("argv", _PAST_THE_CAPS, ids=" ".join)
    def test_each_cap_admits_its_own_size(self, argv, monkeypatch, capsys):
        # The sums are stubbed: this pins the admission, README's cap table
        # the time a run at the cap takes.
        _stub_sums(monkeypatch)
        at_cap = [*argv[:-1], str(int(argv[-1]) - 1)]
        assert cli.main(["treesum", *at_cap]) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("argv", _PAST_THE_INTERACTING_CAPS, ids=" ".join)
    def test_one_past_each_interacting_cap_is_refused_at_once(self, argv, tmp_path):
        start = time.perf_counter()
        out = run_cli("treesum", *argv, config=_INTERACTING, tmp_path=tmp_path, timeout=30)
        assert time.perf_counter() - start < 1.0
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert f"limited to {int(argv[-1]) - 1}" in line
        assert line.endswith(f"and an interaction configured, got {argv[-1]}") == (argv[1] == "A")

    @pytest.mark.parametrize("argv", _PAST_THE_INTERACTING_CAPS, ids=" ".join)
    def test_each_interacting_cap_admits_its_own_size(self, argv, monkeypatch, capsys, tmp_path):
        _stub_sums(monkeypatch)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_INTERACTING))
        at_cap = [*argv[:-1], str(int(argv[-1]) - 1)]
        assert cli.main(["treesum", "--config", str(path), *at_cap]) == 0, capsys.readouterr().err

    def test_an_interaction_above_n_keeps_the_free_caps(self, monkeypatch, capsys, tmp_path):
        # No vertex of an n-leg sum has valence above n.
        _stub_sums(monkeypatch)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"theory": {"interactions": [{"s": 9}]}}))
        argv = ["treesum", "--config", str(path), "--kind", "A", "--offshell", "1"]
        assert cli.main([*argv, "--n", "8"]) == 0, capsys.readouterr().err
        assert cli.main([*argv, "--n", "9"]) == 2
        assert capsys.readouterr().err.strip().endswith("and an interaction configured, got 9")


class TestStreams:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rules", "--n", "4", "--kind", "free"],
            ["verify", "--check", "bn", "--max-n", "2", "--format", "json"],
        ],
    )
    def test_closed_stdout_exits_141_without_a_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(CLI + argv, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert out.returncode == 141
        assert out.stderr == ""

    def test_interrupt_exits_130_with_one_line(self, monkeypatch, capsys):
        def interrupted(args, cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_rules", interrupted)
        assert cli.main(["rules", "--n", "4"]) == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["rules", "--n", "4", "--format", "csv"],
            ["--format", "csv", "rules", "--n", "4"],
            ["treesum", "--kind", "b", "--n", "3", "--format", "csv"],
            ["--format", "csv", "treesum", "--kind", "b", "--n", "3"],
        ],
    )
    def test_csv_is_refused_outside_verify(self, argv):
        out = run_cli(*argv, timeout=30)
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert "csv" in line


class TestUsageErrors:
    """argparse's own usage errors are one ``error:`` line and exit 2, as
    every other bad argument is; ``-h`` still prints the help and exits 0.
    Each line is matched on a fragment, since argparse words them a little
    differently from one Python version to the next."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["rules", "--n", "3", "--kind", "bogus"], "argument --kind: invalid choice: 'bogus'"),
            (["treesum", "--kind", "A"], "the following arguments are required: --n"),
            (["treesum", "--kind", "b", "--n", "3", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
            (["verify", "--bogus"], "unrecognized arguments: --bogus"),
            ([], "the following arguments are required: command"),
            (["--version"], "the following arguments are required: command"),
        ],
        ids=["rules kind", "treesum without --n", "treesum format", "verify flag", "no command", "version"],
    )
    def test_one_line_and_exit_2(self, argv, fragment, capsys):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ") and fragment in line

    def test_the_line_is_all_a_run_prints(self):
        out = run_cli("verify", "--bogus", timeout=30)
        assert (out.returncode, out.stdout, out.stderr) == (2, "", "error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("argv", [["-h"], ["rules", "-h"], ["treesum", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: diffeorules") and err == ""


# Integer spellings that ``int`` reads but the CLI refuses: an underscore, the
# Arabic-Indic three and the superscript three.
_NOT_ASCII_INTS = ["1_0", "\u0663", "\u00b3"]


def _refused_at_once(monkeypatch, capsys, argv, bad):
    monkeypatch.setattr(verify, "run_suite", lambda specs: pytest.fail("a check ran"))
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: expected an integer in ASCII digits, got {bad!r}\n"


class TestIntegerFlags:
    """Every integer flag takes an optional sign and ASCII digits only, as
    config literals do; anything else is one line on stderr and exit 2."""

    @pytest.mark.parametrize("bad", _NOT_ASCII_INTS)
    @pytest.mark.parametrize("flags", [["--n", "{}"], ["--n", "3", "--kind", "interaction", "--s", "{}"]])
    def test_rules(self, flags, bad, monkeypatch, capsys):
        _refused_at_once(monkeypatch, capsys, ["rules"] + [f.format(bad) for f in flags], bad)

    @pytest.mark.parametrize("bad", _NOT_ASCII_INTS)
    @pytest.mark.parametrize("flags", [["--kind", "A", "--n", "{}"], ["--kind", "S", "--n", "3", "--s", "{}"]])
    def test_treesum(self, flags, bad, monkeypatch, capsys):
        _refused_at_once(monkeypatch, capsys, ["treesum"] + [f.format(bad) for f in flags], bad)

    @pytest.mark.parametrize("bad", _NOT_ASCII_INTS)
    @pytest.mark.parametrize("flag", ["--max-n", "--s", "--order", "--seed"])
    def test_verify(self, flag, bad, monkeypatch, capsys):
        _refused_at_once(monkeypatch, capsys, ["verify", flag, bad], bad)

    @pytest.mark.parametrize("bad", _NOT_ASCII_INTS)
    def test_offshell_legs(self, bad, capsys):
        spec = f"1,{bad}"
        assert cli.main(["treesum", "--kind", "A", "--n", "3", "--offshell", spec]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: bad offshell spec {spec!r}\n"

    def test_signs_and_ascii_digits_are_read(self, monkeypatch, capsys):
        assert cli.main(["treesum", "--kind", "A", "--n", "+3", "--offshell", "+1,3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 3 and payload["offshell_set"] == [1, 3]
        (spec,) = planned_specs(monkeypatch, "--check", "bn", "--max-n", "+4")
        assert spec.params["max_n"] == 4


class TestConfig:
    @pytest.mark.parametrize(
        "cfg, argv",
        [
            ({"theory": {"interactions": [3]}}, ["treesum", "--kind", "b", "--n", "2"]),
            ({"theory": {"interactions": [{"coupling": "lambda3"}]}}, ["treesum", "--kind", "b", "--n", "2"]),
            ({"suite": {"trials": "many"}}, ["verify", "--check", "kinematics"]),
            ({"theory": {"mass_sq": True}}, ["treesum", "--kind", "b", "--n", "2"]),
            ({"diffeo": {"a": {"1": True}}}, ["treesum", "--kind", "b", "--n", "2"]),
            ({"suite": {"s_values": [4] * 8, "order": 1000}}, ["verify"]),
            # Literals take ASCII digits only: int() alone read "1_0" as 10,
            # the Arabic-Indic three as 3 and "a" before it as the symbol a3.
            ({"diffeo": {"a": {"1": "1_0", "2": "\u0663"}}}, ["treesum", "--kind", "b", "--n", "3"]),
            ({"diffeo": {"a": {"1": "a\u0663"}}}, ["treesum", "--kind", "b", "--n", "3"]),
        ]
        + [(cfg, _TREESUM_A) for cfg, _ in _BAD_INDEX_TABLES],
    )
    def test_malformed_field_is_one_line_usage_error(self, cfg, argv, tmp_path):
        out = run_cli(*argv, config=cfg, tmp_path=tmp_path)
        assert out.returncode == 2
        assert out.stdout == ""
        assert "Traceback" not in out.stderr
        assert len(out.stderr.splitlines()) == 1

    def test_repeated_power_is_named(self, tmp_path):
        # Each copy of a power would plan the same two checks again.
        out = run_cli("verify", config={"suite": {"s_values": [3, 5, 6, 5]}}, tmp_path=tmp_path, timeout=30)
        assert out.returncode == 2
        (line,) = out.stderr.splitlines()
        assert "suite.s_values repeats the power 5" in line

    @pytest.mark.parametrize("cfg, key", _BAD_INDEX_TABLES)
    def test_bad_propagator_table_names_its_key(self, cfg, key, tmp_path):
        out = run_cli(*_TREESUM_A, config=cfg, tmp_path=tmp_path)
        (line,) = out.stderr.splitlines()
        assert key in line

    @pytest.mark.parametrize(
        "cfg",
        [{"diffeo": {"a": {"1": "1/2"}}}, {"theory": {"interactions": [{"s": 3}]}}],
    )
    def test_verify_refuses_sections_it_does_not_read(self, cfg, tmp_path):
        out = run_cli("verify", "--check", "bn", "--max-n", "3", config=cfg, tmp_path=tmp_path)
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert next(iter(cfg)) in line

    @pytest.mark.parametrize(
        "raw, reason",
        [
            (b"{not json", "not valid JSON"),
            (b"[" * 100000 + b"]" * 100000, "nests too deeply"),
            (b'{"suite": "\xff\xfe"}', "not valid UTF-8"),
        ],
        ids=["not-json", "deep-nesting", "not-utf8"],
    )
    def test_malformed_config_is_usage_error(self, raw, reason, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        out = run_cli("--config", str(path), "treesum", "--kind", "b", "--n", "2")
        assert out.returncode == 2
        (line,) = out.stderr.splitlines()
        assert reason in line and str(path) in line

    def test_rejects_a0_binding(self, tmp_path):
        # The keys are integers j >= 1: 0 is refused as the fixed a0, and a
        # negative key by its form.
        for key, message in (("0", "a0 is fixed to 1"), ("-1", "diffeo.a keys must be integers >= 1, got '-1'")):
            cfg = {"diffeo": {"a": {key: "1"}}}
            out = run_cli("treesum", "--kind", "b", "--n", "2", config=cfg, tmp_path=tmp_path)
            assert out.returncode == 2
            assert out.stdout == ""
            (line,) = out.stderr.splitlines()
            assert message in line

    @pytest.mark.parametrize(
        "coeffs", [{"1": "1/2", "01": "3", "2": "0"}, {"01": "3", "1": "1/2", "2": "0"}], ids=["01 last", "01 first"]
    )
    def test_an_index_has_one_spelling(self, coeffs, tmp_path):
        # Either order of "1" and "01" is refused, so neither binding can
        # silently win.
        out = run_cli("treesum", "--kind", "b", "--n", "3", config={"diffeo": {"a": coeffs}}, tmp_path=tmp_path)
        assert out.returncode == 2
        assert out.stdout == ""
        (line,) = out.stderr.splitlines()
        assert line == "error: diffeo.a key '01' must be written '1'"

    def test_a_plain_index_is_read(self, tmp_path):
        cfg = {"diffeo": {"a": {"1": "1/2", "2": "0"}}}
        out = run_cli("treesum", "--kind", "b", "--n", "3", config=cfg, tmp_path=tmp_path)
        assert out.returncode == 0, out.stderr
        assert "value: 3" in out.stdout  # 12 (1/2)^2 - 6 * 0

    def test_rejects_low_interaction_power(self, tmp_path):
        cfg = {"theory": {"interactions": [{"s": 2}]}}
        out = run_cli("treesum", "--kind", "b", "--n", "2", config=cfg, tmp_path=tmp_path)
        assert out.returncode == 2

    def test_rational_bindings(self, tmp_path):
        cfg = {"diffeo": {"a": {"1": "1/2", "2": "1/2"}}}
        out = run_cli("treesum", "--kind", "b", "--n", "3", config=cfg, tmp_path=tmp_path)
        assert out.returncode == 0
        assert "value: 0" in out.stdout  # 12 (1/2)^2 - 6 (1/2) = 0

    def test_generalized_theory(self, tmp_path):
        cfg = {"theory": {"propagator": "generalized"}}
        out = run_cli(
            "treesum", "--kind", "A", "--n", "3", "--offshell", "1",
            "--format", "json", config=cfg, tmp_path=tmp_path,
        )
        payload = json.loads(out.stdout)
        assert payload["theory"] == "generalized"
        assert "X1" in payload["value"]

    @pytest.mark.parametrize(
        "cfg, argv, key",
        [
            ({"suite": {"max-n": 2}}, ["verify", "--check", "bn"], "suite.max-n"),
            ({"sutie": {}}, ["verify", "--check", "bn"], "sutie"),
            (
                {"theory": {"interactions": [{"s": 3, "couplng": "2"}]}},
                ["treesum", "--kind", "S", "--n", "3"],
                "theory.interactions[0].couplng",
            ),
            ({"diffeo": {"b": {}}}, ["treesum", "--kind", "b", "--n", "3"], "diffeo.b"),
            ({"theory": {"beta": {"1": "5"}}}, ["rules", "--n", "3"], "theory.beta"),
            (
                {"theory": {"propagator": "generalized", "alpha": {"1": "1/3"}}},
                _TREESUM_A,
                "theory.alpha",
            ),
        ],
    )
    def test_unknown_key_is_refused(self, cfg, argv, key, tmp_path):
        out = run_cli(*argv, config=cfg, tmp_path=tmp_path)
        assert out.returncode == 2
        assert out.stdout == ""
        assert "Traceback" not in out.stderr
        (line,) = out.stderr.splitlines()
        assert f"unknown config key {key};" in line

    def test_readme_config_example(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        cfg = json.loads(block)
        for argv in (["rules", "--n", "3"], ["treesum", "--kind", "b", "--n", "3"]):
            out = run_cli(*argv, config=cfg, tmp_path=tmp_path)
            assert out.returncode == 0, out.stderr
        # verify fixes its own theories and substitutions.
        out = run_cli("verify", "--check", "bn", config=cfg, tmp_path=tmp_path)
        assert out.returncode == 2
        (line,) = out.stderr.splitlines()
        assert "reads only the config's suite section" in line

    def test_data_and_diagnostics_streams_are_separate(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        out = run_cli("--config", str(path), "verify", "--check", "bn")
        assert out.returncode == 2 and out.stdout == "" and out.stderr
