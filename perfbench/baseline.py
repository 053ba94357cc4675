"""Times the rows of the ROADMAP baseline table once, on demand.

    python3 perfbench/baseline.py     # every row, about 15 minutes

This is not a benchmark workload and the gated runs never call it: it exists
so that a change can show the default suite's wall time (and each check's
share) and the largest tree sums the suite uses next to the table.  Each row
runs in its own fresh interpreter and is checked exactly; the reference
kernel of ``child.py`` samples the host's speed while the row runs, so
``wall_ref`` is reported next to the wall time.  The result also goes to ``perfbench/out/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import child  # noqa: E402

ROWS = ("suite", "S_8", "b_7", "bprime_6", "bprime_6_s_only", "bprime_7")
ROW_TIMEOUT_S = 3600


def _tuned_bprime(pkg, n: int, mode: str):
    tuned = pkg.DiffeoSpec.tuned(3, n)
    value = pkg.trees.interacting_rooted_tree_sum(n, 3, tuned, mode=mode).value
    root = pkg.edge_symbol(frozenset(range(1, n + 1)))
    bound = value.substitute({root: pkg.rf(pkg.fixed_offshell())})
    detail = f"{len(value.num.terms)} numerator terms over {len(value.den.pairs)} denominator factors"
    return bound.is_zero(), detail


def run_row(row: str) -> dict:
    """Time one row in this process; returns the timings and the verdict."""
    pkg = child.import_package()
    checks: list[dict] = []
    with child.SpeedProbe() as probe:
        start = perf_counter()
        if row == "suite":
            for spec in pkg.verify.default_suite():
                t0, p0 = perf_counter(), probe.probe_s
                (report,) = pkg.verify.run_suite([spec])
                elapsed = perf_counter() - t0 - (probe.probe_s - p0)
                checks.append({"check": spec.name, "params": spec.params, "wall_s": elapsed, "status": report.status})
            ok = all(c["status"] == "pass" for c in checks)
            detail = f"{len(checks)} checks"
        elif row == "S_8":
            ok = pkg.trees.coupling_linear_tree_sum(8, 3).value.is_zero()
            detail = "S^(3)_8 = 0"
        elif row == "b_7":
            value = pkg.trees.rooted_tree_sum(7).value
            ok = value == pkg.series.tree_sum_closed_form(7)
            detail = "b_7 equals its closed form"
        elif row.startswith("bprime_"):
            n = int(row.split("_")[1])
            ok, detail = _tuned_bprime(pkg, n, "s_only" if row.endswith("s_only") else "all_vertices")
        else:
            raise ValueError(f"unknown row {row!r}")
        wall = perf_counter() - start - probe.probe_s
    ref = probe.ref_s
    return {
        "row": row,
        "wall_s": wall,
        "ref_s": ref,
        "wall_ref": wall / ref,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok": ok,
        "detail": detail,
        "checks": checks,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Time the ROADMAP baseline rows once.")
    parser.add_argument("--in-process", dest="in_process", choices=ROWS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.in_process:
        print(json.dumps(run_row(args.in_process)))
        return 0
    results = []
    for row in ROWS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--in-process", row],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=ROW_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.stderr.write(f"error: row {row} exited with {proc.returncode}\n")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        for check in result["checks"]:
            params = json.dumps(check["params"], sort_keys=True)
            print(f"  {check['check']:<26} {params:<60} {check['wall_s']:9.2f} s  {check['status']}")
        verdict = "ok" if result["ok"] else "WRONG"
        print(
            f"{row:<16} {result['wall_s']:9.2f} s  wall_ref {result['wall_ref']:9.1f}  "
            f"ref_s {result['ref_s']:.4f}  peak {result['peak_rss_mib']:.1f} MiB  {verdict}: {result['detail']}",
            flush=True,
        )
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
    print(json.dumps({"rows": results}))
    return 0 if all(r["ok"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
