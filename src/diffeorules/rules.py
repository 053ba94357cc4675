"""Vertex and propagator generators over canonicalized edge variables.

Edge variables are offshell values of leg subsets.  Momentum conservation
identifies a subset with its complement, so every variable is stored under a
canonical representative:

* rooted context (universe contains the root sentinel ``ROOT``): the block
  that does not contain the root; the root-adjacent edge therefore carries
  the full onshell-leg set,
* unrooted context: the smaller block, ties broken towards the block that
  contains the smallest leg label (this reproduces the familiar
  ``x{1+2}``-style notation at four points).

Two vertex forms coexist.  ``free_vertex`` is the display form
``i f_n (x_1+...+x_n) + i g_n msq`` of an n-valent diffeomorphism vertex;
tree amplitudes instead compose ``generalized_vertex``, the subset-sum form,
which is the one whose edge-cancellation mechanism is exact at the level of
independent subset symbols.  The two agree on every conserving kinematic
point, which is checked by the verifier.  ``generalized_vertex`` computes
its weights where it is called and is the reference for the per-tree
amplitudes; the tree-sum engine never builds a vertex of this form: it splits
each weight into a factor per side of a complementary pair and applies the
rule as a subset convolution (see ``trees.TreeSumEngine``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Iterable, Mapping, Sequence

from .algebra import (
    AlgebraError,
    Kind,
    Monomial,
    Polynomial,
    RationalFunction,
    RF_I,
    RF_MINUS_I,
    RF_ONE,
    RF_ZERO,
    Scalar,
    Symbol,
    coupling,
    edge_symbol,
    mass_sq,
    rf,
    sum_of_products,
)
from . import series

ROOT = 0  # sentinel leg label for the offshell root leaf of rooted tree sums


def canonical_subset(block: Iterable[int], universe: frozenset[int]) -> frozenset[int]:
    """Canonical representative of a leg subset under total momentum
    conservation over ``universe`` (complement identification)."""
    block = frozenset(block)
    if not block or block == universe:
        raise AlgebraError("edge subsets must be proper nonempty subsets of the universe")
    if not block <= universe:
        raise AlgebraError("edge subset is not contained in the universe")
    comp = universe - block
    if ROOT in universe:
        return comp if ROOT in block else block
    if len(block) != len(comp):
        return block if len(block) < len(comp) else comp
    return block if min(universe) in block else comp


def edge_var(
    block: Iterable[int], universe: frozenset[int], *, generalized: bool = False
) -> RationalFunction:
    """Offshell variable of a leg block, canonicalized."""
    return rf(edge_symbol(canonical_subset(block, universe), generalized))


@dataclass(frozen=True)
class DiffeoSpec:
    """Field substitution ``phi = rho + a_1 rho^2 + ...`` (a_0 = 1 implicit).

    ``bindings`` maps j >= 1 to exact values; when empty the coefficients stay
    symbolic and auto-extend to any order.
    """

    bindings: Mapping[int, RationalFunction] | None = None

    @staticmethod
    def symbolic() -> "DiffeoSpec":
        return DiffeoSpec()

    @staticmethod
    def from_bindings(bindings: Mapping[int, RationalFunction]) -> "DiffeoSpec":
        return DiffeoSpec(bindings=dict(bindings))

    @staticmethod
    def tuned(s: int, max_j: int) -> "DiffeoSpec":
        return DiffeoSpec.from_bindings(series.tuned_diffeo_coeffs(s, max_j))

    def a(self, j: int) -> RationalFunction:
        if j < 0:
            raise AlgebraError("coefficient index must be nonnegative")
        if j == 0:
            return RF_ONE
        if self.bindings is None:
            return series.symbolic_coeffs(j)
        if j not in self.bindings:
            raise AlgebraError(f"diffeomorphism coefficient a{j} is not bound")
        return rf(self.bindings[j])


@dataclass(frozen=True)
class Interaction:
    power: int
    coupling_value: RationalFunction

    def __post_init__(self):
        if self.power < 3:
            raise AlgebraError("interaction powers start at 3")


def interaction(s: int, value=None) -> Interaction:
    return Interaction(s, rf(coupling(s)) if value is None else rf(value))


@dataclass(frozen=True)
class TheorySpec:
    """Propagator kind plus the interaction monomials of the underlying field."""

    kind: str = "standard"  # "standard" (quadratic) or "generalized"
    mass_sq_value: RationalFunction = field(default_factory=lambda: rf(mass_sq()))
    interactions: tuple[Interaction, ...] = ()

    def __post_init__(self):
        if self.kind not in ("standard", "generalized"):
            raise AlgebraError(f"unknown propagator kind {self.kind!r}")
        powers = [it.power for it in self.interactions]
        if len(set(powers)) != len(powers):
            raise AlgebraError("interaction powers must be distinct")

    @property
    def generalized(self) -> bool:
        return self.kind == "generalized"

    def coupling_of(self, s: int) -> RationalFunction | None:
        """Coupling of the power-``s`` interaction, or ``None`` when the
        theory has no such interaction."""
        for it in self.interactions:
            if it.power == s:
                return it.coupling_value
        return None

    @staticmethod
    def free() -> "TheorySpec":
        return TheorySpec()

    @staticmethod
    def standard(*powers: int) -> "TheorySpec":
        return TheorySpec(interactions=tuple(interaction(s) for s in powers))

    @staticmethod
    def generalized_free() -> "TheorySpec":
        return TheorySpec(kind="generalized")


@dataclass(frozen=True)
class NonlocalSpec:
    """Constant-coefficient derivative series composed with a local
    diffeomorphism; alpha_0 = 1 by convention."""

    alpha: Mapping[int, RationalFunction]
    mass_sq_value: RationalFunction = field(default_factory=lambda: rf(mass_sq()))

    def __post_init__(self):
        table = {int(k): rf(v) for k, v in self.alpha.items()}
        if table.get(0, RF_ONE) != RF_ONE:
            raise AlgebraError("the derivative series must be tangent to identity (alpha0 = 1)")
        table[0] = RF_ONE
        object.__setattr__(self, "alpha", table)

    def alpha_at(self, k: int) -> RationalFunction:
        if k < 0:
            raise AlgebraError("alpha index must be nonnegative")
        return self.alpha.get(k, RF_ZERO)

    def max_alpha(self) -> int:
        return max((k for k, v in self.alpha.items() if not v.is_zero()), default=0)

    def induced_theory(self) -> TheorySpec:
        return TheorySpec(kind="generalized", mass_sq_value=self.mass_sq_value)


def nonlocal_beta(n: int, spec: NonlocalSpec) -> RationalFunction:
    """Propagator-polynomial coefficient induced by the derivative series:
    beta_n = sum_{k<n} alpha_{n-1-k} alpha_k - msq * sum_{k<=n} alpha_{n-k} alpha_k."""
    if n < 0:
        raise AlgebraError("beta index must be nonnegative")
    alpha = spec.alpha_at
    kinetic = sum_of_products((alpha(n - 1 - k), alpha(k)) for k in range(n))
    massive = sum_of_products((alpha(n - k), alpha(k)) for k in range(n + 1))
    return kinetic - massive * spec.mass_sq_value


def free_vertex(
    n: int,
    adjacent: Sequence[RationalFunction],
    diffeo: DiffeoSpec = DiffeoSpec.symbolic(),
    mass_sq_value: RationalFunction | None = None,
) -> RationalFunction:
    """Display form of the n-valent diffeomorphism vertex:
    ``i f_n (x_1 + ... + x_n) + i g_n msq`` with n >= 3."""
    if n < 3:
        raise AlgebraError("vertices start at valence 3; the 2-point part is the propagator")
    if len(adjacent) != n:
        raise AlgebraError(f"expected {n} adjacent edge variables, got {len(adjacent)}")
    f_n, _, g_n = series.vertex_coefficients(n, diffeo.a)
    total = RF_ZERO
    for x in adjacent:
        total = total + x
    msq = mass_sq_value if mass_sq_value is not None else rf(mass_sq())
    return (f_n * total + g_n * msq) * RF_I


def interaction_vertex(
    n: int, s: int, diffeo: DiffeoSpec = DiffeoSpec.symbolic(),
    coupling_value: RationalFunction | None = None,
) -> RationalFunction:
    """Momentum-independent n-valent vertex induced by the power-s monomial:
    ``-i lambda_s B_{n,s}(1! a_0, 2! a_1, ...)``; zero for n < s."""
    if s < 3:
        raise AlgebraError("interaction powers start at 3")
    if n < s:
        return RF_ZERO
    lam = coupling_value if coupling_value is not None else rf(coupling(s))
    return series.bell_partial(n, s, series.tangent_args(diffeo.a, n - s + 1)) * lam * RF_MINUS_I


def total_vertex(
    n: int,
    adjacent: Sequence[RationalFunction],
    theory: TheorySpec,
    diffeo: DiffeoSpec = DiffeoSpec.symbolic(),
) -> RationalFunction:
    """Superposition of the diffeomorphism vertex and every interaction vertex."""
    if theory.generalized:
        raise AlgebraError("the display vertex form applies to the standard propagator")
    out = free_vertex(n, adjacent, diffeo, theory.mass_sq_value)
    for it in theory.interactions:
        out = out + interaction_vertex(n, it.power, diffeo, it.coupling_value)
    return out


def generalized_vertex(
    blocks: Sequence[frozenset[int]],
    universe: frozenset[int],
    *,
    diffeo: DiffeoSpec = DiffeoSpec.symbolic(),
    generalized: bool = False,
) -> RationalFunction:
    """Subset-sum form of the n-valent diffeomorphism vertex, the reference
    rule of the per-tree amplitudes and the kinematic checks.

    ``blocks`` are the far-side leg blocks of the n adjacent edges (they
    partition ``universe``).  The rule is
    ``(i/2) sum_k a_{n-k-1} a_{k-1} (n-k)! k! sum_{|Q|=k} X_Q`` with each
    subset variable canonicalized under conservation at the vertex; the
    pairwise coincidence of complementary subsets cancels the 1/2, which
    the tree-sum engine uses to sum one subset per pair.
    """
    n = len(blocks)
    if n < 3:
        raise AlgebraError("vertices start at valence 3")
    if frozenset().union(*blocks) != universe or sum(len(b) for b in blocks) != len(universe):
        raise AlgebraError("adjacent blocks must partition the universe")
    weights = {  # k -> (i/2) a_{n-k-1} a_{k-1} (n-k)! k!
        k: w.scaled(Scalar(0, Fraction(factorial(n - k) * factorial(k), 2)))
        for k in range(1, n)
        if not (w := diffeo.a(n - k - 1) * diffeo.a(k - 1)).is_zero()
    }
    return sum_of_products(
        (weight, edge_var(frozenset().union(*choice), universe, generalized=generalized))
        for k, weight in weights.items()
        for choice in combinations(blocks, k)
    )


def propagator(
    block: Iterable[int], universe: frozenset[int], *, generalized: bool = False
) -> RationalFunction:
    """Edge propagator ``i / x`` (or ``i / X``) of a leg block, canonicalized."""
    sym = edge_symbol(canonical_subset(block, universe), generalized)
    return RationalFunction(Polynomial.constant(Scalar(0, 1)), Monomial.of(sym))


def vertex_terms(value: RationalFunction) -> list[dict]:
    """Split a polynomial vertex into serializable (coefficient, edge-subsets)
    records; the JSON rule-dump format of the CLI."""
    poly = value.as_polynomial()
    records = []
    for mono, coeff in poly.sorted_terms():
        edges: list[list[int]] = []
        rest: list[tuple[Symbol, int]] = []
        for sym, e in mono.pairs:
            if sym.kind is Kind.EDGE:
                edges.extend([list(sym.meta)] * e)
            else:
                rest.append((sym, e))
        coeff_str = str(Polynomial({Monomial(rest): coeff}))
        records.append({"coefficient": coeff_str, "edges": edges})
    return records
