"""One measured repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED [--setup-only] [--trace] [--tamper]

``diffeorules`` is imported from the ``src/`` directory of the checkout this
file sits in, never from an installed copy.  The child prints ``ready`` on
stdout as soon as the package is imported and the workload's inputs are
built; the parent times set-up up to that line.  It then times the workload
while sampling the host's speed with a reference kernel, checks every output
exactly, and prints one JSON line with the result.

``--trace`` wraps the package's public functions (see ``tracer.py``) around
the timed work.  ``--tamper`` injects a fault through the ``tamper`` hooks of
symbolic-sums' checks, the only workload that has them; the benchmark's
tests use it to prove that a wrong result is caught.
"""

import os
import sys

# Other imports are deferred to where they are used, so that set-up time
# measures diffeorules and not this harness.

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "perfbench", "golden", "suite-small.json")
GOLDEN_SEED = 1

# Each workload's inputs: the command line for ``cli.main``, or the
# ``verify`` checks to call with their parameters.  README.md says why.
WORKLOADS = {
    "suite-small": ["verify", "--max-n", "5", "--format", "json", "--seed", "{seed}"],
    "symbolic-sums": [("check_bn", {"max_n": 7}), ("check_interaction_cancellation", {"s": 3, "max_n": 7})],
    "edge-swell": [("check_adiabatic", {"s": 3, "max_n": 6})],
}


def import_package():
    """The whole package, command-line module included, as the
    ``diffeorules`` command loads it."""
    sys.path.insert(0, SRC)
    import diffeorules
    import diffeorules.cli

    where = os.path.dirname(os.path.abspath(diffeorules.__file__))
    if where != os.path.join(SRC, "diffeorules"):
        raise SystemExit(f"diffeorules was imported from {where}, not from {SRC}")
    return diffeorules


def build_inputs(workload: str, seed: int) -> list:
    if workload == "suite-small":
        return [arg.format(seed=seed) for arg in WORKLOADS[workload]]
    return [(name, dict(params)) for name, params in WORKLOADS[workload]]


# The reference kernel: a sparse product of two 40-term polynomials with
# Fraction coefficients and exponent-tuple keys, accumulated in a dict, in
# plain stdlib code.  It does the kind of work diffeorules' inner loops do,
# but runs no diffeorules code, and the garbage collector is paused while it
# runs, so its allocations start no collection over the workload's heap.  It
# still shares the process with the workload, so a change to the package
# could move it through shared state such as the allocator's; that effect
# has not been measured.  Every round does the same work, about 5 ms on a
# 2-core VM.  The host's speed changes within a second, so the kernel is
# timed while the work runs: a SIGALRM handler in the same thread runs one
# round every PROBE_INTERVAL_S of wall time.
PROBE_INTERVAL_S = 0.2


def _kernel_factor(stride: int) -> dict:
    from fractions import Fraction

    terms = {}
    for i in range(40):
        code = stride * i % 4096
        terms[tuple(code >> (2 * j) & 3 for j in range(6))] = Fraction(i % 17 - 8 or 1, i % 6 + 1)
    return terms


class SpeedProbe:
    """Samples the reference kernel before, during and after a timed block.

    ``ref_s`` is the harmonic mean of the round times: with samples evenly
    spaced in wall time, ``wall / ref_s`` sums the time slices each weighted
    by the host's speed at that moment.  ``probe_s`` is the time the
    in-block samples took, to be subtracted from the block's wall time;
    ``on_sample``, if given, is told the time of each in-block sample.
    """

    def __init__(self, on_sample=None):
        self.samples: list[float] = []
        self.probe_s = 0.0
        self._on_sample = on_sample
        self._p, self._q = _kernel_factor(97), _kernel_factor(61)
        self._pq_sum = sum(self._p.values()) * sum(self._q.values())

    def reference_round(self) -> float:
        import gc
        from time import perf_counter

        # Everything the round allocates is freed by reference counting.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            out: dict = {}
            for m1, c1 in self._p.items():
                for m2, c2 in self._q.items():
                    m = tuple([a + b for a, b in zip(m1, m2)])
                    c = c1 * c2
                    acc = out.get(m)
                    new = c if acc is None else acc + c
                    if new:
                        out[m] = new
                    else:
                        out.pop(m, None)
            elapsed = perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        if sum(out.values()) != self._pq_sum:
            raise SystemExit("reference kernel computed a wrong product")
        return elapsed

    def _sample(self, signum, frame) -> None:
        elapsed = self.reference_round()
        self.samples.append(elapsed)
        self.probe_s += elapsed
        if self._on_sample is not None:
            self._on_sample(elapsed)

    def __enter__(self) -> "SpeedProbe":
        import signal

        self.samples.append(self.reference_round())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(self.reference_round())

    @property
    def ref_s(self) -> float:
        return len(self.samples) / sum(1 / t for t in self.samples)


def run_workload(pkg, workload: str, inputs, tamper: bool):
    """The timed work.  Entry points are looked up at call time, so a
    tracer installed beforehand sees every call."""
    if workload == "suite-small":
        import io
        from contextlib import redirect_stderr, redirect_stdout

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = pkg.cli.main(list(inputs))
        return {"exit": code, "stdout": out.getvalue()}
    # Only symbolic-sums' checks have ``tamper`` hooks; main rejects the
    # flag for the other workloads.
    fault = {"tamper": lambda n, value: value + pkg.algebra.RF_ONE} if tamper else {}
    return [getattr(pkg.verify, name)(**params, **fault) for name, params in inputs]


def expected_suite_output(seed: int) -> str:
    """The golden stdout of ``suite-small``, recorded at seed 1.  When every
    check passes, the seed appears only in the kinematics check's params."""
    import json

    with open(GOLDEN, encoding="utf-8") as handle:
        golden = handle.read()
    if seed == GOLDEN_SEED:
        return golden
    doc = json.loads(golden)
    for row in doc["reports"]:
        if row["name"] == "kinematics":
            row["params"]["seed"] = seed
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def check_output(workload: str, seed: int, output) -> tuple[int, int, list[str], str]:
    """Exact checks of one repetition's output.  Returns (attempted, failed,
    problems, fingerprint); the fingerprint identifies the output bytes."""
    import hashlib
    import json

    problems: list[str] = []
    attempted = 0

    def expect(ok: bool, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            problems.append(what)

    if workload == "suite-small":
        stdout = output["stdout"]
        expect(output["exit"] == 0, f"exit code {output['exit']}")
        try:
            rows = json.loads(stdout)["reports"]
        except (ValueError, KeyError, TypeError):
            rows = []
            expect(False, "stdout is not the verify JSON document")
        for row in rows:
            expect(row.get("status") == "pass", f"report {row.get('name')} {row.get('params')}: {row.get('status')}")
        expect(stdout == expected_suite_output(seed), "stdout differs from the golden output")
        text = stdout
    else:
        rows = []
        for report in output:
            expect(report.status == "pass", f"report {report.name} {report.params}: {report.status} {report.witness}")
            row = report.to_dict()
            row.pop("wall_ms")
            rows.append(row)
        text = json.dumps(rows, sort_keys=True)
    return attempted, len(problems), problems, hashlib.sha256(text.encode()).hexdigest()


TAMPERABLE = ("symbolic-sums",)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in WORKLOADS:
        sys.stderr.write(f"usage: child.py {{{','.join(WORKLOADS)}}} SEED [--setup-only] [--trace] [--tamper]\n")
        return 2
    workload, seed, flags = argv[0], int(argv[1]), set(argv[2:])
    if "--tamper" in flags and workload not in TAMPERABLE:
        sys.stderr.write(f"usage: --tamper works only for {', '.join(TAMPERABLE)}\n")
        return 2
    pkg = import_package()
    inputs = build_inputs(workload, seed)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if "--setup-only" in flags:
        return 0

    import json
    import resource
    from time import perf_counter

    tracer = None
    if "--trace" in flags:
        from tracer import Tracer

        tracer = Tracer(pkg)
        tracer.install()
    # The traced run excludes the probe's rounds from every layer's time.
    with SpeedProbe(None if tracer is None else tracer.exclude) as probe:
        start = perf_counter()
        output = run_workload(pkg, workload, inputs, "--tamper" in flags)
        wall = perf_counter() - start - probe.probe_s
    if tracer is not None:
        tracer.uninstall()
    attempted, failed, problems, fingerprint = check_output(workload, seed, output)
    result = {
        "wall_s": wall,
        "ref_s": probe.ref_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "fingerprint": fingerprint,
        "trace": None if tracer is None else {"metrics": tracer.result(), "spans": tracer.spans},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
