"""Benchmark of the diffeorules verifier: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # one summary table

Run it from the root of a checkout; it measures the code in that checkout's
``src/``.  Every repetition runs in a fresh interpreter (``child.py``), one
at a time, so set-up and memory are those of a real invocation and nothing
is cached between repetitions.

``--trace 0`` repeats the workload until ``--seconds`` are used and reports
the end-to-end metrics as medians over the repetitions:

  wall_ref      the wall time of the workload's timed work (wall_s) over the
                time of a fixed reference kernel (exact Fraction
                multiply-add, no diffeorules code) sampled in the same
                process and thread while the work runs; the host's speed
                drifts within seconds, and this ratio cancels most of it
  setup_s       fresh interpreter until diffeorules is imported and the
                inputs are built, as seen by the parent process
  peak_rss_mib  peak resident memory of the repetition's process

The raw wall_s is printed in the summary line but is not a gated metric: on
a shared host it follows the host's speed more than the program's.

``--trace 1`` runs the workload once untraced and once traced (see
``tracer.py``), checks that both give identical output, and reports the
per-layer metrics plus ``trace.overhead_ref``, the traced minus the untraced
``wall_ref``, and ``host.wall_s``, the untraced repetition's raw wall time.
The spans are written to ``perfbench/out/``.

Every output is checked exactly; an operation is one check report or one
exact output comparison, and ``failed``/``attempted`` count them.  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit code 0 means the benchmark ran; 1 means a repetition
could not be measured (crash, timeout, incomplete trace); 2 is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, HERE)
from child import WORKLOADS  # noqa: E402
from tracer import METRICS  # noqa: E402

# Set-up is short and noisy, so before each repetition it is sampled this
# many extra times in processes that exit right after set-up.
SETUP_SAMPLES = 3
# Every run must end within 180 s; children get what is left of this budget.
DEADLINE_S = 170.0

# Entry points each workload must reach; a traced run in which one of them
# records no calls fails instead of reporting a zero.
_COMMON = [
    "algebra.scalar_mul.calls",
    "algebra.poly_mul.calls",
    "algebra.poly_add.calls",
    "algebra.rf_new.calls",
    "trees.tree_sum.calls",
    "trees.partitions",
    "rules.vertex.calls",
    "rules.propagator.calls",
    "series.calls",
]
EXPECTED = {
    "suite-small": _COMMON
    + ["algebra.rf_substitute.calls", "trees.kinematics.s", "cli.main.s"]
    + [m for m in METRICS if m.startswith("verify.check_")],
    "symbolic-sums": _COMMON + ["verify.check_bn.s", "verify.check_interaction_cancellation.s"],
    "edge-swell": _COMMON + ["algebra.rf_substitute.calls", "verify.check_adiabatic.s"],
}


class MeasureError(RuntimeError):
    """A repetition could not be measured."""


def with_units(metrics: dict[str, float], kind: str) -> dict[str, dict]:
    """``metrics`` with the units that BENCHMARK.json declares for them;
    ``kind`` is ``end_to_end`` or ``per_layer``, and the names must match."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        units = {m["name"]: m["unit"] for m in json.load(handle)[kind]}
    if set(metrics) != set(units):
        raise MeasureError(f"{kind} metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


class Runner:
    """Starts the children one at a time within one run's time budget."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = perf_counter() + DEADLINE_S

    def spawn(self, *flags: str) -> tuple[float, dict | None]:
        """Run one child; returns (set-up seconds, result or None)."""
        cmd = [sys.executable, CHILD, self.workload, str(self.seed), *flags]
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            first = proc.stdout.readline()
            setup = perf_counter() - start
            out, err = proc.communicate(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise MeasureError(f"{self.workload}: a repetition ran past the time budget")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if first != "ready\n" or proc.returncode != 0:
            tail = (err or first).strip().splitlines()[-3:]
            raise MeasureError(f"{self.workload}: child exited with {proc.returncode}: {' | '.join(tail)}")
        if "--setup-only" in flags:
            return setup, None
        return setup, json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, *, tamper: bool = False) -> dict:
    """End-to-end metrics from untraced repetitions filling ``seconds``."""
    runner = Runner(workload, seed)
    setups: list[float] = []
    reps: list[dict] = []
    start = perf_counter()
    while True:
        setups += [runner.spawn("--setup-only")[0] for _ in range(SETUP_SAMPLES)]
        setup, rep = runner.spawn(*(["--tamper"] if tamper else []))
        setups.append(setup)
        reps.append(rep)
        elapsed = perf_counter() - start
        # Start another repetition only if it would end less than half a
        # repetition past the budget.
        if elapsed + elapsed / len(reps) / 2 > seconds:
            break
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    # Same seed, same bytes: every repetition must reproduce the first.
    attempted += len(reps) - 1
    failed += sum(r["fingerprint"] != reps[0]["fingerprint"] for r in reps[1:])
    metrics = {
        "wall_ref": median(r["wall_s"] / r["ref_s"] for r in reps),
        "setup_s": median(setups),
        "peak_rss_mib": median(r["maxrss_kib"] for r in reps) / 1024,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units(metrics, "end_to_end"),
        "wall_s": median(r["wall_s"] for r in reps),
        "ref_s": median(r["ref_s"] for r in reps),
        "repetitions": len(reps),
        "setup_samples": len(setups),
        "problems": sorted({p for r in reps for p in r["problems"]}),
    }


def measure_traced(workload: str, seed: int) -> dict:
    """Per-layer metrics from one traced repetition, next to an untraced one."""
    runner = Runner(workload, seed)
    _, plain = runner.spawn()
    _, traced = runner.spawn("--trace")
    layer = traced["trace"]["metrics"]
    missing = [name for name in EXPECTED[workload] if not layer[name]]
    if missing:
        raise MeasureError(f"{workload}: the trace recorded no calls for {', '.join(missing)}")
    attempted = plain["attempted"] + traced["attempted"] + 1
    failed = plain["failed"] + traced["failed"] + (plain["fingerprint"] != traced["fingerprint"])
    # Every probe round is excluded from the layers' time, so their self
    # times add up to at most the traced wall time, which excludes it too.
    self_s = sum(layer[f"{name}.self_s"] for name in ("algebra", "trees", "rules", "series", "verify", "cli"))
    if self_s > traced["wall_s"] * (1 + 1e-9):
        raise MeasureError(f"{workload}: the layers' self times add up to {self_s:.6g} s, over the wall time")
    metrics = dict(layer)
    metrics["trace.overhead_ref"] = traced["wall_s"] / traced["ref_s"] - plain["wall_s"] / plain["ref_s"]
    metrics["host.ref_s"] = (plain["ref_s"] + traced["ref_s"]) / 2
    metrics["host.wall_s"] = plain["wall_s"]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "metrics": metrics, "spans": traced["trace"]["spans"]}, handle)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units(metrics, "per_layer"),
        "problems": sorted(set(plain["problems"]) | set(traced["problems"])),
        "spans_file": os.path.relpath(path, ROOT),
    }


def summary_line(workload: str, result: dict) -> str:
    parts = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    ratio = result["failed"] / result["attempted"]
    parts.append(f"failed_ratio={ratio:g} ({result['failed']}/{result['attempted']} operations)")
    if "ref_s" in result:
        parts.append(f"wall_s={result['wall_s']:.6g} s (not gated)")
        parts.append(f"ref_s={result['ref_s']:.6g} s")
        parts.append(f"{result['repetitions']} repetitions, {result['setup_samples']} set-up samples")
    parts.append("correct" if result["correct"] else "INCORRECT")
    return f"{workload}: " + ", ".join(parts)


def _public(result: dict) -> dict:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "diffeorules", "__init__.py")):
        sys.stderr.write(f"error: no diffeorules sources under {os.path.join(ROOT, 'src')}\n")
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            if args.trace:
                result = measure_traced(name, args.seed)
            else:
                result = measure(name, args.seed, args.seconds)
            for problem in result["problems"]:
                print(f"{name}: FAILED {problem}")
            if args.trace:
                print(f"{name}: spans written to {result['spans_file']}")
            print(summary_line(name, result))
            results[name] = _public(result)
    except MeasureError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
