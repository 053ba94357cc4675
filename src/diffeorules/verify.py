"""Theorem-check suite with structured pass/fail reports.

Every check is deterministic given its parameters and seed, returns a
:class:`Report`, and attaches a witness (the offending index and the exact
symbolic residual) whenever it fails.  ``run_suite`` executes a list of
:class:`CheckSpec` records and aggregates the exit status.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .algebra import (
    Kind,
    RationalFunction,
    RF_MINUS_I,
    RF_ZERO,
    Scalar,
    coupling,
    diffeo_coeff,
    edge_symbol,
    fixed_offshell,
    generic_symbol,
    mass_sq,
    rf,
)
from . import rules, series, trees
from .rules import DiffeoSpec, NonlocalSpec, TheorySpec


@dataclass(frozen=True)
class CheckSpec:
    name: str
    params: dict = field(default_factory=dict)


@dataclass
class Report:
    name: str
    params: dict
    status: str  # "pass" | "fail"
    witness: dict | None = None
    wall_ms: int = 0

    def __post_init__(self):
        if self.status == "fail" and not self.witness:
            raise ValueError("a failing report must carry a witness")

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
            "wall_ms": self.wall_ms,
        }


class _Stop(Exception):
    """Raised by :class:`_Checker` at a check's first failed comparison."""


class _Checker:
    """Times a check and ends it at its first failed comparison.

    A check runs its comparisons under ``with _Checker(name, params) as
    chk``.  The first ``expect*`` call that fails records its context as the
    witness and raises :class:`_Stop`, which ``__exit__`` swallows; the check
    then returns ``chk.report()``.
    """

    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = params
        self.witness: dict | None = None
        self.start = time.monotonic()

    def __enter__(self) -> "_Checker":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return exc_type is _Stop

    def _stop(self, witness: dict):
        self.witness = witness
        raise _Stop

    def expect_zero(self, value: RationalFunction, **context) -> None:
        if not value.is_zero():
            self._stop({**context, "residual": str(value)})

    def expect_equal(self, left: RationalFunction, right: RationalFunction, **context) -> None:
        self.expect_zero(left - right, **context)

    def expect(self, condition: bool, **context) -> None:
        if not condition:
            self._stop(dict(context))

    def report(self) -> Report:
        wall = int((time.monotonic() - self.start) * 1000)
        status = "pass" if self.witness is None else "fail"
        return Report(self.name, self.params, status, self.witness, wall)


Tamper = Callable[[int, RationalFunction], RationalFunction]


def _rooted_sums(tree_sum: Callable[[int], trees.TreeSumResult], max_n: int) -> list:
    """``[None, b_1, ..., b_max_n]`` from one rooted sum on ``max_n`` legs
    (at least one): the sums on fewer legs come off the same walk, so a
    check sums each rooted kind once."""
    result = tree_sum(max(max_n, 1))
    return [None, *result.metadata["below"], result.value]


# The substitution every check but ``adiabatic`` sums over.
_SYMBOLIC = DiffeoSpec.symbolic()


def check_bn(max_n: int = 7, tamper: Tamper | None = None) -> Report:
    """Enumerated one-offshell tree sums vs the closed form vs the inverse
    series, and the constancy of the result (no edge / mass symbols)."""
    with _Checker("bn", {"max_n": max_n}) as chk:
        inverses = series.inverse_series_tree_sums(max_n)
        closed_forms = series.tree_sum_closed_forms(max_n, _SYMBOLIC.a)
        sums = _rooted_sums(lambda n: trees.rooted_tree_sum(n, _SYMBOLIC), max_n)
        for n in range(2, max_n + 1):
            enum = sums[n]
            closed = closed_forms[n]
            if tamper is not None:
                closed = tamper(n, closed)
            chk.expect_equal(enum, closed, n=n, compared="enumerated vs closed form")
            chk.expect_equal(enum, inverses[n], n=n, compared="enumerated vs series inverse")
            kinds = {s.kind for s in enum.symbols()}
            chk.expect(
                Kind.EDGE not in kinds and Kind.MASS_SQ not in kinds,
                n=n,
                compared="constancy",
                symbols=sorted(s.name for s in enum.symbols()),
            )
    return chk.report()


def _one_offshell_sums(max_n: int, theory: TheorySpec) -> dict:
    """``{(n, j): A^j_n}`` for ``3 <= n <= max_n`` and ``0 <= j <= n``,
    ``j = 0`` for every leg onshell: one engine per offshell set, read at
    every ``n`` from ``max(3, j)`` up (:func:`trees.amputated_family`), the
    case ``j = n`` of an offshell virtual root included."""
    sums = {}
    for j in range(max_n + 1):
        family = trees.amputated_family(max_n, (j,) if j else (), theory, _SYMBOLIC)
        sums.update({(n, j): result.value for n, result in family.items()})
    return sums


def _expect_one_offshell_shape(
    chk: _Checker, n: int, sums: dict, closed_forms: list, theory: TheorySpec, compared: tuple[str, str]
) -> tuple:
    """Compare A^0_n with zero and each A^1_n with -i b_{n-1} x_j under the
    labels ``compared``, reading ``sums`` of :func:`_one_offshell_sums` and
    the ``closed_forms`` of :func:`series.tree_sum_closed_forms`; return
    b_{n-1} and the sum of the A^1_n."""
    chk.expect_zero(sums[n, 0], n=n, compared=compared[0])
    b = closed_forms[n - 1]
    symmetric = RF_ZERO
    for j in range(1, n + 1):
        single = sums[n, j]
        expect = RF_MINUS_I * b * rf(edge_symbol(frozenset((j,)), theory.generalized))
        chk.expect_equal(single, expect, n=n, offshell_leg=j, compared=compared[1])
        symmetric = symmetric + single
    return b, symmetric


def check_smatrix_free(max_n: int = 7) -> Report:
    """Vanishing onshell amplitude and the one-offshell shape
    A^1_n = -i b_{n-1} (x_1 + ... + x_n) for the free diffeomorphism."""
    theory = TheorySpec.free()
    with _Checker("smatrix_free", {"max_n": max_n}) as chk:
        amputated = _one_offshell_sums(max_n, theory)
        closed_forms = series.tree_sum_closed_forms(max_n - 1, _SYMBOLIC.a)
        for n in range(3, max_n + 1):
            b, symmetric = _expect_one_offshell_shape(chk, n, amputated, closed_forms, theory, ("A0", "A1 single leg"))
            total = sum((rf(edge_symbol(frozenset((j,)))) for j in range(1, n + 1)), RF_ZERO)
            chk.expect_equal(symmetric, RF_MINUS_I * b * total, n=n, compared="A1 symmetrized")
    return chk.report()


def check_interaction_cancellation(s: int = 3, max_n: int = 8, tamper: Tamper | None = None) -> Report:
    """S^(s)_n = -i lambda_s delta_{ns} by enumeration and the Bell-sum
    formula, with per-valence agreement of the two decompositions."""
    lam = rf(coupling(s))
    with _Checker("interaction_cancellation", {"s": s, "max_n": max_n}) as chk:
        # One walk on max_n legs gives S^(s)_n for every n, and one call
        # the Bell-sum terms.
        family = trees.amputated_family(max_n, (), TheorySpec.standard(s), _SYMBOLIC, single=True) if max_n >= s else {}
        terms_of = series.coupling_linear_terms(s, max_n) if max_n >= s else {}
        for n in range(s, max_n + 1):
            result = family[n]
            expect = RF_MINUS_I * lam if n == s else RF_ZERO
            terms = terms_of[n]
            formula = sum(terms.values(), RF_ZERO)
            if tamper is not None:
                formula = tamper(n, formula)
            chk.expect_equal(result.value, expect, n=n, compared="enumeration vs delta")
            chk.expect_equal(formula, expect, n=n, compared="Bell formula vs delta")
            by_valence = result.metadata["by_valence"]
            for k in range(s, n + 1):
                term = terms.get(k, RF_ZERO)
                chk.expect_equal(by_valence.get(k, RF_ZERO), term, n=n, valence=k, compared="per-valence term")
    return chk.report()


def check_bprime(s: int = 3, max_n: int = 6, tamper: Tamper | None = None) -> Report:
    """Agreement of the decoration enumeration with the reduced gluing, plus
    the small worked values of the interacting tree sums."""
    lam = rf(coupling(s))
    with _Checker("bprime", {"s": s, "max_n": max_n}) as chk:
        sums = _rooted_sums(lambda n: trees.interacting_rooted_tree_sum(n, s, _SYMBOLIC), max_n)
        closed_forms = series.tree_sum_closed_forms(min(max_n, s - 1), _SYMBOLIC.a)
        for n in range(1, max_n + 1):
            enum = sums[n]
            glued = trees.interacting_rooted_tree_sum(n, s, _SYMBOLIC, mode="s_only").value
            if tamper is not None:
                glued = tamper(n, glued)
            chk.expect_equal(enum, glued, n=n, compared="all_vertices vs s_only")
            if n < s - 1:
                chk.expect_equal(enum, closed_forms[n], n=n, compared="b'_k = b_k below s-1")
            if n == s - 1:
                root = rf(edge_symbol(frozenset(range(1, n + 1))))
                expect = closed_forms[n] + lam * root.inverse()
                chk.expect_equal(enum, expect, n=n, compared="b'_{s-1} pole term")
    return chk.report()


def check_adiabatic(s: int = 3, max_n: int = 7, order: int = 10) -> Report:
    """The interaction-cancelling coefficients: b_k vanish except
    b_{s-1} = -lambda_s/xp, b'_n vanishes at root value xp, and the
    Fuss-Catalan series solves its defining functional equation."""
    with _Checker("adiabatic", {"s": s, "max_n": max_n, "order": order}) as chk:
        tuned = DiffeoSpec.tuned(s, max_n)
        lam = rf(coupling(s))
        xp = rf(fixed_offshell())
        sums = _rooted_sums(lambda n: trees.rooted_tree_sum(n, tuned), max_n)
        closed_forms = series.tree_sum_closed_forms(max_n, tuned.a)
        for k in range(2, max_n + 1):
            closed = closed_forms[k]
            enum = sums[k]
            expect = lam.scaled(Scalar(-1)) * xp.inverse() if k == s - 1 else RF_ZERO
            chk.expect_equal(closed, expect, k=k, compared="closed-form b_k")
            chk.expect_equal(enum, expect, k=k, compared="enumerated b_k")
        bprimes = _rooted_sums(lambda n: trees.interacting_rooted_tree_sum(n, s, tuned), max_n)
        for n in range(2, max_n + 1):
            root = edge_symbol(frozenset(range(1, n + 1)))
            bound = bprimes[n].substitute({root: xp})
            chk.expect_zero(bound, n=n, compared="b'_n at the fixed offshell value")
        residual = series.fc_functional_residual(s - 1, order)
        for m, c in enumerate(residual.coeffs):
            chk.expect_zero(c, order=m, compared="Fuss-Catalan functional equation")
    return chk.report()


def check_generalized(max_n: int = 6) -> Report:
    """Arbitrary-propagator identities: the one-offshell shape with constant
    coefficient b_{n-1}, the vertex-pair edge cancellation, and the recursion
    agreeing with enumeration; an edge variable stands for the whole
    propagator polynomial, so they hold for every one."""
    theory = TheorySpec.generalized_free()
    with _Checker("generalized", {"max_n": max_n}) as chk:
        amputated = _one_offshell_sums(max_n, theory)
        closed_forms = series.tree_sum_closed_forms(max_n - 1, _SYMBOLIC.a)
        for n in range(3, max_n + 1):
            _expect_one_offshell_shape(chk, n, amputated, closed_forms, theory, ("A0 generalized", "A1 generalized"))
        for j in range(3, 6):
            for k in range(3, 6):
                resid = trees.vertex_pair_edge_coefficient(j, k, _SYMBOLIC)
                chk.expect_zero(resid, valences=[j, k], compared="internal-edge coefficient")
        sums = _rooted_sums(lambda n: trees.rooted_tree_sum(n, _SYMBOLIC, theory=theory), max_n)
        recursion = trees._recursive_tree_sums(max_n, _SYMBOLIC, theory.generalized)
        for n in range(1, max_n + 1):
            chk.expect_equal(recursion[n], sums[n], n=n, compared="recursion vs enumeration")
    return chk.report()


def check_nonlocal(max_n: int = 5, spec: NonlocalSpec | None = None) -> Report:
    """Propagator coefficients beta_n, n <= max_n, of the derivative
    transformation: the identity transform's, the generating function
    ``(t - msq) alpha(t)^2`` and the symbolic first-order table.  The induced
    theory's identities are ``generalized``'s, which hold for every beta."""
    with _Checker("nonlocal", {"max_n": max_n}) as chk:
        if max_n < 0:  # no coefficient to compare
            return chk.report()
        msq = rf(mass_sq())
        line = series.PowerSeries([msq.scaled(Scalar(-1)), rf(1)] + [RF_ZERO] * max_n)  # t - msq
        identity = NonlocalSpec(alpha={})
        for n in range(max_n + 1):
            chk.expect_equal(rules.nonlocal_beta(n, identity), line[n], n=n, compared="identity transform beta")
        c = rf(generic_symbol("c"))
        spec = spec or NonlocalSpec(alpha={1: c})
        alpha = series.PowerSeries([spec.alpha_at(k) for k in range(max_n + 1)])
        generating = line * alpha * alpha
        for n in range(max_n + 1):
            beta = rules.nonlocal_beta(n, spec)
            chk.expect_equal(beta, generating[n], n=n, compared="beta against (t - msq) alpha(t)^2")
        if spec.alpha_at(1) == c and spec.max_alpha() == 1:
            table = {
                0: msq.scaled(Scalar(-1)),
                1: rf(1) - (c * msq).scaled(Scalar(2)),
                2: c.scaled(Scalar(2)) - c * c * msq,
                3: c * c,
                4: RF_ZERO,
            }
            for n, expect in table.items():
                chk.expect_equal(rules.nonlocal_beta(n, spec), expect, n=n, compared="symbolic first-order beta")
    return chk.report()


def check_kinematics(
    n_values: Sequence[int] = (3, 4, 5),
    trials: int = 50,
    seed: int = 1,
    dimension: int = 4,
) -> Report:
    """Exact kinematic agreement of the two vertex forms, the four-point
    conservation identity, and determinism of the evaluator; at each n's
    first trial the evaluator is also compared with exact substitution."""
    params = {"n_values": list(n_values), "trials": trials, "seed": seed, "dimension": dimension}
    with _Checker("kinematics", params) as chk:
        rng = random.Random(seed)
        universe4 = frozenset(range(1, 5))
        identity4 = (
            rules.edge_var({1, 2}, universe4)
            + rules.edge_var({1, 3}, universe4)
            + rules.edge_var({2, 3}, universe4)
            - rf(mass_sq())
        )
        for j in range(1, 5):
            identity4 = identity4 - rules.edge_var({j}, universe4)
        for trial in range(trials):
            momenta = trees.random_conserving_momenta(4, dimension, rng)
            mass_value = Fraction(rng.randint(0, 5), rng.randint(1, 3))
            value = trees.evaluate_at_kinematics(identity4, momenta, mass_value)
            chk.expect(value.is_zero(), trial=trial, compared="four-point conservation identity", value=str(value))
        for n in n_values:
            display = rules.free_vertex(n, [rf(edge_symbol(frozenset((j,)))) for j in range(1, n + 1)], _SYMBOLIC)
            legs = frozenset(range(1, n + 1))
            subset = rules.generalized_vertex([frozenset((j,)) for j in legs], legs, diffeo=_SYMBOLIC)
            # Every symbol of the two forms but the a_j, for kinematic_values.
            kinematic = sum((rf(s) for s in display.symbols() | subset.symbols() if s.kind != Kind.DIFFEO), RF_ZERO)
            for trial in range(trials):
                point = {diffeo_coeff(j): Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for j in range(1, n - 1)}
                momenta = trees.random_conserving_momenta(n, dimension, rng)
                mass_value = Fraction(rng.randint(0, 5), rng.randint(1, 3))
                point.update(trees.kinematic_values(kinematic, momenta, mass_value))
                left = display.evaluate(point)
                right = subset.evaluate(point)
                if trial == 0:
                    oracle = display.substitute({s: rf(v) for s, v in point.items()}).constant_value()
                    chk.expect(
                        left == oracle,
                        n=n,
                        trial=trial,
                        compared="evaluator vs substitution",
                        left=str(left),
                        right=str(oracle),
                    )
                chk.expect(
                    left == right,
                    n=n,
                    trial=trial,
                    compared="display vs subset vertex",
                    left=str(left),
                    right=str(right),
                )
                chk.expect(left == display.evaluate(point), n=n, trial=trial, compared="determinism")
    return chk.report()


_CHECKS: dict[str, Callable[..., Report]] = {
    "bn": check_bn,
    "smatrix_free": check_smatrix_free,
    "interaction_cancellation": check_interaction_cancellation,
    "bprime": check_bprime,
    "adiabatic": check_adiabatic,
    "generalized": check_generalized,
    "nonlocal": check_nonlocal,
    "kinematics": check_kinematics,
}


def check_names() -> list[str]:
    return list(_CHECKS)


def default_suite(
    max_n: int = 7,
    s_values: Sequence[int] = (3, 4),
    order: int = 10,
    trials: int = 50,
    seed: int = 1,
    dimension: int = 4,
) -> list[CheckSpec]:
    specs = [
        CheckSpec("bn", {"max_n": max_n}),
        CheckSpec("smatrix_free", {"max_n": max_n}),
    ]
    for s in s_values:
        specs.append(CheckSpec("interaction_cancellation", {"s": s, "max_n": max_n + 1}))
    specs.append(CheckSpec("bprime", {"s": s_values[0], "max_n": min(max_n, 6)}))
    for s in s_values:
        specs.append(CheckSpec("adiabatic", {"s": s, "max_n": max_n, "order": order}))
    specs.append(CheckSpec("generalized", {"max_n": min(max_n, 6)}))
    specs.append(CheckSpec("nonlocal", {"max_n": min(max_n, 5)}))
    specs.append(
        CheckSpec(
            "kinematics",
            {"n_values": [3, 4, 5], "trials": trials, "seed": seed, "dimension": dimension},
        )
    )
    return specs


def run_suite(specs: Sequence[CheckSpec]) -> list[Report]:
    """Run the checks in the given order; reports follow that order and are
    identical for identical parameters and seeds."""
    reports = []
    for spec in specs:
        fn = _CHECKS.get(spec.name)
        if fn is None:
            raise ValueError(f"unknown check {spec.name!r}")
        reports.append(fn(**spec.params))
    return reports


def suite_passed(reports: Iterable[Report]) -> bool:
    return all(r.passed for r in reports)
