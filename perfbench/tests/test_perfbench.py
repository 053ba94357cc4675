"""Tests of the benchmark itself: its correctness gate, its negative
controls and the tracer's coverage.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import baseline  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
from tracer import METRICS, Tracer, TracerError  # noqa: E402

pkg = child.import_package()


def _golden() -> str:
    with open(child.GOLDEN, encoding="utf-8") as handle:
        return handle.read()


def test_golden_is_the_cli_serialization():
    golden = _golden()
    assert json.dumps(json.loads(golden), indent=2, sort_keys=True) + "\n" == golden
    assert child.expected_suite_output(child.GOLDEN_SEED) == golden


def test_other_seeds_change_only_the_kinematics_seed():
    other = child.expected_suite_output(7)
    assert other != _golden()
    assert other.replace('"seed": 7', '"seed": 1') == _golden()


@pytest.mark.parametrize(
    "output",
    [
        {"exit": 1, "stdout": ""},
        {"exit": 0, "stdout": ""},
        {"exit": 0, "stdout": None},
    ],
)
def test_suite_check_rejects_a_broken_run(output):
    if output["stdout"] is None:
        output = {"exit": 0, "stdout": _golden().replace('"pass"', '"fail"', 1)}
    attempted, failed, problems, _ = child.check_output("suite-small", 1, output)
    assert attempted >= 2
    assert failed >= 1 and problems


def test_suite_check_accepts_the_golden_output():
    attempted, failed, problems, _ = child.check_output("suite-small", 1, {"exit": 0, "stdout": _golden()})
    assert (attempted, failed, problems) == (12, 0, [])


def test_tampered_run_reports_failures():
    result = run.measure("symbolic-sums", seed=1, seconds=1, tamper=True)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any("bn" in p for p in result["problems"])
    assert any("interaction_cancellation" in p for p in result["problems"])


def test_tamper_is_refused_where_it_would_do_nothing():
    for workload in ("suite-small", "edge-swell"):
        with pytest.raises(run.MeasureError, match="exited with 2"):
            run.measure(workload, seed=1, seconds=1, tamper=True)


def test_reported_metrics_are_those_benchmark_json_declares():
    with open(run.BENCHMARK, encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [m["name"] for m in declared["per_layer"]] == [*METRICS, "trace.overhead_ref", "host.ref_s", "host.wall_s"]
    with pytest.raises(run.MeasureError, match="differ from BENCHMARK.json"):
        run.with_units({"wall_s": 1.0}, "end_to_end")


def test_tracer_patches_every_binding_and_restores_them():
    # Only ids are kept: a reference to an original would make the tracer
    # refuse to install, which the next test relies on.
    before = {
        "propagator": id(pkg.rules.propagator),
        "check_bn": id(pkg.verify.check_bn),
        "symbolic_coeffs": id(pkg.series.symbolic_coeffs),
    }
    tracer = Tracer(pkg)
    tracer.install()
    try:
        # Copies made by ``from .rules import ...`` and the check table.
        assert pkg.trees.propagator is pkg.rules.propagator
        assert id(pkg.rules.propagator) != before["propagator"]
        assert pkg.trees.generalized_vertex is pkg.rules.generalized_vertex
        assert pkg.generalized_vertex is pkg.rules.generalized_vertex
        assert pkg.trees.tree_sum_closed_form is pkg.series.tree_sum_closed_form
        assert pkg.verify._CHECKS["bn"] is pkg.verify.check_bn
        assert id(pkg.verify.check_bn) != before["check_bn"]
        pkg.verify.run_suite([pkg.verify.CheckSpec("bn", {"max_n": 4})])
    finally:
        tracer.uninstall()
    metrics = tracer.result()
    assert set(metrics) == set(METRICS)
    for name in ("verify.check_bn.s", "rules.vertex.calls", "rules.propagator.calls", "series.calls", "trees.partitions"):
        assert metrics[name] > 0, name
    assert id(pkg.trees.propagator) == id(pkg.rules.propagator) == before["propagator"]
    assert id(pkg.verify._CHECKS["bn"]) == before["check_bn"]
    # A default argument value is restored too.
    assert id(pkg.series.tree_sum_closed_form.__defaults__[0]) == before["symbolic_coeffs"]


def test_tracer_refuses_a_binding_it_cannot_patch():
    hidden = {"vertex": pkg.rules.generalized_vertex}
    tracer = Tracer(pkg)
    with pytest.raises(TracerError, match="generalized_vertex"):
        tracer.install()
    assert pkg.trees.generalized_vertex is hidden["vertex"]
    assert pkg.verify.check_bn is pkg.verify._CHECKS["bn"]


def test_traced_counts_repeat_exactly():
    first = run.measure_traced("suite-small", seed=1)
    second = run.measure_traced("suite-small", seed=1)
    assert first["correct"] and second["correct"]
    counted = [m for m in first["metrics"] if m.endswith((".calls", "partitions", "term_pairs")) or ".peak_" in m]
    assert counted
    for name in counted:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_baseline_row_is_checked():
    row = baseline.run_row("b_7")
    assert row["ok"] and row["wall_s"] > 0


def test_exits_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
