"""Independent oracles that only the tests call.

``compose`` checks the round trip of ``series.invert`` through the
Bell-polynomial composition rule, and ``compose_naive`` is its oracle:
truncated substitution, term by term.  ``gn_explicit`` is the mass-term
coupling as an explicit double-product sum, against which
``series.vertex_coefficients`` is checked, ``internal_edge_count`` counts
the edges between internal vertices of a tree topology,
``power_by_loop`` is the repeated-product oracle of ``algebra.power``,
``substitute_termwise`` is the per-term oracle of
``RationalFunction.substitute``, and ``momenta_by_fraction_sums`` is
``trees.random_conserving_momenta`` with its last momentum summed one
``Fraction`` at a time.
"""

from fractions import Fraction
from math import factorial

from diffeorules.algebra import (
    AlgebraError,
    DenominatorAnnihilationError,
    Monomial,
    Polynomial,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    Scalar,
)
from diffeorules.series import PowerSeries, bell_partial, symbolic_coeffs
from diffeorules.trees import TreeTopology


def compose(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Coefficients of ``f(g(t))`` through the Bell-polynomial composition rule."""
    if not g[0].is_zero():
        raise AlgebraError("composition requires the inner series to vanish at 0")
    n = min(f.order, g.order)
    g_args = [g[m].scaled(Scalar(factorial(m))) for m in range(1, n + 1)]
    out = [f[0]] + [RF_ZERO] * n
    for m in range(1, n + 1):
        acc = RF_ZERO
        for k in range(1, m + 1):
            fk = f[k]
            if fk.is_zero():
                continue
            bell = bell_partial(m, k, g_args[: m - k + 1])
            if bell.is_zero():
                continue
            acc = acc + (fk * bell).scaled(Scalar(factorial(k)))
        out[m] = acc.scaled(Scalar(Fraction(1, factorial(m))))
    return PowerSeries(out)


def compose_naive(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Oracle composition: substitute and truncate term by term."""
    if not g[0].is_zero():
        raise AlgebraError("composition requires the inner series to vanish at 0")
    n = min(f.order, g.order)
    out = PowerSeries([f[0]] + [RF_ZERO] * n)
    g_pow = PowerSeries([RF_ONE] + [RF_ZERO] * n)
    for k in range(1, n + 1):
        g_pow = g_pow * g
        fk = f[k]
        if not fk.is_zero():
            out = out + PowerSeries([c * fk for c in g_pow.coeffs])
    return out


def gn_explicit(n: int) -> RationalFunction:
    """Mass-term coupling of symbolic coefficients as the explicit
    double-product sum (n >= 3)."""
    if n < 3:
        raise AlgebraError("explicit mass coupling form needs n >= 3")
    total = RF_ZERO
    for k in range(0, n - 1):
        weight = (n - k - 2) * k
        if weight:
            total = total + (symbolic_coeffs(n - k - 2) * symbolic_coeffs(k)).scaled(Scalar(weight))
    return total.scaled(Scalar(Fraction(n * factorial(n - 2), 2)))


def internal_edge_count(topo: TreeTopology) -> int:
    """Edges whose both ends are internal vertices of ``topo``."""
    return sum(1 for node in topo.internal_vertices() for child in node if isinstance(child, tuple))


def power_by_loop(x, n: int, one):
    """Oracle power: ``n`` products by ``x``, one after another."""
    out = one
    for _ in range(n):
        out = out * x
    return out


def substitute_termwise(value: RationalFunction, bindings) -> RationalFunction:
    """Oracle substitution: each term on its own, its unbound part times one
    ``Polynomial`` power per bound symbol, in the symbol order, the products
    summed.  Bindings are checked as ``RationalFunction.substitute`` checks
    them: a zero binding of a denominator symbol raises
    ``DenominatorAnnihilationError``, a binding that cannot be inverted there
    raises ``AlgebraError``."""
    if not bindings:
        return value
    inverses = {}
    for sym, _ in value.den.pairs:
        bound = bindings.get(sym)
        if bound is None:
            continue
        if bound.is_zero():
            raise DenominatorAnnihilationError(sym)
        try:
            inverses[sym] = bound.inverse()
        except AlgebraError as exc:
            raise AlgebraError(f"binding for denominator factor {sym.name} is not invertible: {exc}") from exc
    powers = {}
    out = Polynomial()
    for mono, coeff in value.poly.terms.items():
        pairs = mono.pairs
        term = Polynomial({Monomial(p for p in pairs if p[0] not in bindings): coeff})
        for sym, e in pairs:
            if sym in bindings:
                power = powers.get((sym, e))
                if power is None:
                    base = bindings[sym] if e > 0 else inverses[sym]
                    power = powers[sym, e] = base.poly ** abs(e)
                term = term * power
        out = out + term
    return RationalFunction(out)


def momenta_by_fraction_sums(n: int, dimension: int, rng) -> list[tuple[Fraction, ...]]:
    """Oracle draw: n - 1 momenta of components ``Fraction(randint(-6, 6),
    randint(1, 4))``, drawn in that order, and the last one minus their sum,
    added as ``Fraction``s."""
    momenta = [
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dimension))
        for _ in range(n - 1)
    ]
    last = tuple(-sum(p[d] for p in momenta) for d in range(dimension))
    momenta.append(last)
    return momenta
