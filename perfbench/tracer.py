"""Outside-in tracer for the per-layer metrics of the benchmark.

The tracer wraps public functions of the ``diffeorules`` modules from the
outside; no file of the package changes.  Layers nest as

    cli > verify > trees > rules, series > algebra

and a layer's self time is the time spent in its wrapped calls minus the
time of the wrapped calls made from inside them.  Each call is charged to
the innermost wrapped frame, so a layer's self time does not depend on
how its own functions call each other.

A function can be bound under several names: ``from .rules import
propagator`` copies the binding into ``trees``, ``verify._CHECKS`` holds the
check functions in a dict, and ``series`` uses ``symbolic_coeffs`` as a
default argument value.  Patching one name would miss the others and record
zero calls without any error.  ``install`` therefore patches every binding it
can find and then asks the garbage collector whether anything else still
refers to an original; if so it refuses to trace.

Aggregates and the span records of the coarse layers stay in memory; the
caller reads ``result()`` and ``spans`` once, at the end of the run.
"""

from __future__ import annotations

import gc
import sys
import types
from collections import defaultdict
from time import perf_counter

# Layers whose grouped calls are few enough to keep one span record each;
# the hot algebra, rules and series calls are only aggregated.
SPAN_LAYERS = ("cli", "verify", "trees")

# (attribute, metric group or None) per module.  A group gathers call counts
# and inclusive time under ``<layer>.<group>``; functions without a group only
# add to their layer's self time.  Every public function of ``series`` is
# wrapped under the single group ``series``.  Scalar multiplication and set
# partitions are counted, not timed, by dedicated wrappers below.
_ALGEBRA = [
    ("Polynomial.__mul__", "poly_mul"),
    ("Polynomial.__add__", "poly_add"),
    ("Polynomial.__sub__", None),
    ("Polynomial.__neg__", None),
    ("Polynomial.scaled", None),
    ("Polynomial.__pow__", None),
    ("Polynomial.coefficient_of", None),
    ("RationalFunction.__init__", "rf_new"),
    ("RationalFunction.substitute", "rf_substitute"),
    ("RationalFunction.__add__", None),
    ("RationalFunction.__sub__", None),
    ("RationalFunction.__neg__", None),
    ("RationalFunction.__mul__", None),
    ("RationalFunction.__pow__", None),
    ("RationalFunction.__eq__", None),
    ("RationalFunction.scaled", None),
    ("RationalFunction.over", None),
    ("RationalFunction.inverse", None),
]
_RULES = [
    ("free_vertex", "vertex"),
    ("interaction_vertex", "vertex"),
    ("total_vertex", "vertex"),
    ("generalized_vertex", "vertex"),
    ("propagator", "propagator"),
    ("nonlocal_beta", None),
    ("edge_var", None),
    ("canonical_subset", None),
    ("vertex_terms", None),
]
_TREES = [
    ("rooted_tree_sum", "tree_sum"),
    ("interacting_rooted_tree_sum", "tree_sum"),
    ("amputated_tree_sum", "tree_sum"),
    ("symmetrized_one_offshell_sum", "tree_sum"),
    ("coupling_linear_tree_sum", "tree_sum"),
    ("recursive_tree_sum", "tree_sum"),
    ("glue_four_point", "tree_sum"),
    ("vertex_pair_edge_coefficient", "tree_sum"),
    ("random_conserving_momenta", "kinematics"),
    ("evaluate_at_kinematics", "kinematics"),
    ("amplitude", None),
    ("enumerate_trees", None),
    ("enumerate_decorations", None),
]
CHECKS = (
    "bn",
    "smatrix_free",
    "interaction_cancellation",
    "bprime",
    "adiabatic",
    "generalized",
    "nonlocal",
    "kinematics",
)
_VERIFY = [(f"check_{name}", f"check_{name}") for name in CHECKS] + [
    ("run_suite", None),
    ("default_suite", None),
]
_CLI = [("main", "main")]

# Every per-layer metric the traced run reports, in output order.
METRICS = (
    [
        "algebra.scalar_mul.calls",
        "algebra.scalar_mul.complex_share",
        "algebra.poly_mul.calls",
        "algebra.poly_mul.s",
        "algebra.poly_mul.term_pairs",
        "algebra.poly_add.calls",
        "algebra.poly_add.s",
        "algebra.rf_new.calls",
        "algebra.rf_new.s",
        "algebra.rf_new.reduce_attempts",
        "algebra.rf_new.cancel_share",
        "algebra.rf_substitute.calls",
        "algebra.rf_substitute.s",
        "algebra.peak_num_terms",
        "algebra.peak_den_factors",
        "algebra.self_s",
        "trees.tree_sum.calls",
        "trees.tree_sum.s",
        "trees.partitions",
        "trees.kinematics.s",
        "trees.self_s",
        "rules.vertex.calls",
        "rules.vertex.s",
        "rules.propagator.calls",
        "rules.self_s",
        "series.calls",
        "series.s",
        "series.self_s",
    ]
    + [f"verify.check_{name}.s" for name in CHECKS]
    + ["verify.self_s", "cli.main.s", "cli.self_s"]
)


class TracerError(RuntimeError):
    """The tracer could not cover a layer completely."""


class _Binding:
    """One place that holds a reference to a wrapped function."""

    __slots__ = ("container", "key", "original")

    def __init__(self, container, key, original):
        self.container = container
        self.key = key
        self.original = original

    def get(self):
        if isinstance(self.container, type):
            return self.container.__dict__[self.key]
        if isinstance(self.container, types.FunctionType):
            return self.container.__defaults__[self.key]
        return self.container[self.key]

    def set(self, value) -> None:
        if isinstance(self.container, type):
            setattr(self.container, self.key, value)
        elif isinstance(self.container, types.FunctionType):
            defaults = self.container.__defaults__
            self.container.__defaults__ = defaults[: self.key] + (value,) + defaults[self.key + 1 :]
        else:
            self.container[self.key] = value


class Tracer:
    """Wraps the package's public functions and aggregates their calls."""

    def __init__(self, package: types.ModuleType):
        prefix = package.__name__
        self._modules = [
            m for name, m in sorted(sys.modules.items()) if name == prefix or name.startswith(prefix + ".")
        ]
        self._package = package
        self._bindings: list[_Binding] = []
        self._wrappers: list = []
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._active: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        # Seconds spent outside the traced code while it ran; see exclude().
        self._excluded = [0.0]
        # [name, start, end, index of the enclosing recorded span], with
        # times on the tracer's clock, which stops while excluded time runs.
        self.spans: list[list] = []
        self._open_spans: list[int] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, layer: str, key: str | None, extra=None):
        """Charge ``fn`` to ``layer``; ``key`` (a metric prefix) also gets
        the call count and the inclusive time of its outermost calls."""
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        active, stack, excluded = self._active, self._stack, self._excluded

        spans, open_spans = self.spans, self._open_spans
        record = key is not None and key.split(".", 1)[0] in SPAN_LAYERS
        name = f"{layer}.{fn.__name__}"

        def wrapper(*args, **kwargs):
            if extra is not None:
                extra(args)
            frame = [0.0]
            stack.append(frame)
            if key is not None:
                active[key] += 1
            # The clock is read last: a signal handler runs only after a
            # call returns, so ``excluded`` already holds every probe round
            # that ended before the clock was read.
            start = -excluded[0] + perf_counter()
            if record:
                span = [name, start, None, open_spans[-1] if open_spans else None]
                open_spans.append(len(spans))
                spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = -excluded[0] + perf_counter()
                elapsed = end - start
                if record:
                    span[2] = end
                    open_spans.pop()
                stack.pop()
                self_time[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if key is not None:
                    calls[key] += 1
                    active[key] -= 1
                    if not active[key]:
                        inclusive[key] += elapsed

        return wrapper

    def exclude(self, seconds: float) -> None:
        """Stop the tracer's clock for ``seconds`` that were just spent
        outside the traced code, such as a round of the speed probe run by
        a signal handler, so that no layer is charged for them."""
        self._excluded[0] += seconds

    def _scalar_mul(self, fn):
        counts = self.counts

        def wrapper(a, b):
            counts["algebra.scalar_mul.calls"] += 1
            if a.im or b.im:
                counts["algebra.scalar_mul.complex"] += 1
            return fn(a, b)

        return wrapper

    def _poly_mul_pairs(self, args) -> None:
        self.counts["algebra.poly_mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def _rf_new(self, fn):
        counts = self.counts
        one = self._package.algebra.MONO_ONE

        def init(obj, num, den=one):
            fn(obj, num, den)
            if den.pairs and num.terms:
                counts["algebra.rf_new.reduce_attempts"] += 1
                if obj.den is not den:
                    counts["algebra.rf_new.cancels"] += 1
            if len(obj.num.terms) > counts["algebra.peak_num_terms"]:
                counts["algebra.peak_num_terms"] = len(obj.num.terms)
            if len(obj.den.pairs) > counts["algebra.peak_den_factors"]:
                counts["algebra.peak_den_factors"] = len(obj.den.pairs)

        return init

    def _set_partitions(self, fn):
        counts = self.counts
        inner = fn.__code__

        def counted(gen):
            for part in gen:
                counts["trees.partitions"] += 1
                yield part

        def wrapper(items):
            gen = fn(items)
            # The function recurses through its module global; only the
            # partitions handed to outside callers are counted.
            if sys._getframe(1).f_code is inner:
                return gen
            return counted(gen)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _targets(self):
        pkg = self._package
        out = []
        for path, group in _ALGEBRA:
            cls_name, attr = path.split(".")
            cls = getattr(pkg.algebra, cls_name)
            fn = cls.__dict__[attr]
            key = f"algebra.{group}" if group else None
            if path == "RationalFunction.__init__":
                out.append((fn, self._timed(self._rf_new(fn), "algebra", key)))
            elif path == "Polynomial.__mul__":
                out.append((fn, self._timed(fn, "algebra", key, self._poly_mul_pairs)))
            else:
                out.append((fn, self._timed(fn, "algebra", key)))
        scalar_mul = pkg.algebra.Scalar.__dict__["__mul__"]
        out.append((scalar_mul, self._scalar_mul(scalar_mul)))
        for module, table in (
            (pkg.rules, _RULES),
            (pkg.trees, _TREES),
            (pkg.verify, _VERIFY),
            (pkg.cli, _CLI),
        ):
            layer = module.__name__.rsplit(".", 1)[1]
            for name, group in table:
                fn = getattr(module, name)
                out.append((fn, self._timed(fn, layer, f"{layer}.{group}" if group else None)))
        set_partitions = pkg.trees.set_partitions
        out.append((set_partitions, self._set_partitions(set_partitions)))
        for name, fn in vars(pkg.series).items():
            if isinstance(fn, types.FunctionType) and fn.__module__ == pkg.series.__name__ and not name.startswith("_"):
                out.append((fn, self._timed(fn, "series", "series")))
        return out

    def _find_bindings(self, originals: dict[int, object]) -> list[_Binding]:
        """Every module global, module-level dict entry, class attribute and
        positional default argument value of the package that holds an
        original."""
        namespaces: list[dict] = []
        classes: list[type] = []
        for module in self._modules:
            namespaces.append(vars(module))
            for value in vars(module).values():
                if isinstance(value, dict):
                    namespaces.append(value)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    classes.append(value)
        found = [_Binding(ns, k, v) for ns in namespaces for k, v in ns.items() if id(v) in originals]
        found += [_Binding(cls, k, v) for cls in classes for k, v in vars(cls).items() if id(v) in originals]
        functions = [
            v
            for ns in namespaces + [vars(cls) for cls in classes]
            for v in ns.values()
            if isinstance(v, types.FunctionType)
        ]
        for fn in functions:
            for index, value in enumerate(fn.__defaults__ or ()):
                if id(value) in originals:
                    found.append(_Binding(fn, index, value))
        unique = {(id(b.container), str(b.key)): b for b in found}
        return list(unique.values())

    def install(self) -> None:
        if self._bindings:
            raise TracerError("tracer already installed")
        wrappers = {id(fn): (fn, w) for fn, w in self._targets()}
        bindings = self._find_bindings({key: fn for key, (fn, _) in wrappers.items()})
        for binding in bindings:
            binding.set(wrappers[id(binding.original)][1])
        self._bindings = bindings
        self._wrappers = [w for _, w in wrappers.values()]
        missing = [fn.__qualname__ for key, (fn, _) in wrappers.items() if key not in {id(b.original) for b in bindings}]
        if missing:
            self.uninstall()
            raise TracerError(f"no binding found for {', '.join(missing)}")
        originals = [fn for fn, _ in wrappers.values()]
        del wrappers
        self._check_complete(originals)

    def _check_complete(self, originals: list) -> None:
        """Refuse to trace when an original is still reachable by a name."""
        gc.collect()  # drop unreachable holders, such as an earlier tracer's wrappers
        allowed = {id(cell) for w in self._wrappers for cell in (w.__closure__ or ())}
        allowed.add(id(originals))
        allowed.update(id(b) for b in self._bindings)
        for fn in originals:
            holders = [
                r
                for r in gc.get_referrers(fn)
                if id(r) not in allowed
                and not isinstance(r, types.FrameType)
                and not (isinstance(r, types.CellType) and self._is_inner_cell(r))
            ]
            if holders:
                self.uninstall()
                kinds = ", ".join(sorted({type(h).__name__ for h in holders}))
                raise TracerError(f"{fn.__qualname__} is still bound unwrapped (held by {kinds})")

    def _is_inner_cell(self, cell) -> bool:
        """Whether ``cell`` belongs to a helper that a wrapper encloses, such
        as the ``RationalFunction.__init__`` hook."""
        for w in self._wrappers:
            for outer in w.__closure__ or ():
                inner = outer.cell_contents
                if isinstance(inner, types.FunctionType) and cell in (inner.__closure__ or ()):
                    return True
        return False

    def uninstall(self) -> None:
        for binding in self._bindings:
            binding.set(binding.original)
        leftover = [b for b in self._bindings if b.get() is not b.original]
        self._bindings = []
        if leftover:
            raise TracerError(f"could not restore {len(leftover)} bindings")

    # -- results ------------------------------------------------------------

    def result(self) -> dict[str, float]:
        c, calls, incl, self_t = self.counts, self.calls, self.inclusive, self.self_time
        smul = c["algebra.scalar_mul.calls"]
        attempts = c["algebra.rf_new.reduce_attempts"]
        out = {
            "algebra.scalar_mul.calls": smul,
            "algebra.scalar_mul.complex_share": c["algebra.scalar_mul.complex"] / smul if smul else 0.0,
            "algebra.poly_mul.term_pairs": c["algebra.poly_mul.term_pairs"],
            "algebra.rf_new.reduce_attempts": attempts,
            "algebra.rf_new.cancel_share": c["algebra.rf_new.cancels"] / attempts if attempts else 0.0,
            "algebra.peak_num_terms": c["algebra.peak_num_terms"],
            "algebra.peak_den_factors": c["algebra.peak_den_factors"],
            "trees.partitions": c["trees.partitions"],
        }
        for name in METRICS:
            if name in out:
                continue
            if name.endswith(".self_s"):
                out[name] = self_t[name.split(".", 1)[0]]
            elif name.endswith(".calls"):
                out[name] = calls[name[: -len(".calls")]]
            elif name.endswith(".s"):
                out[name] = incl[name[: -len(".s")]]
            else:
                raise TracerError(f"no rule for metric {name}")
        return {name: out[name] for name in METRICS}
