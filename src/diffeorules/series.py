"""Truncated power series, partial Bell polynomials, Lagrange inversion and
the closed-form coefficient formulas built on them.

Series coefficients are :class:`~diffeorules.algebra.RationalFunction`, so
one code path serves numeric and symbolic diffeomorphism coefficients alike.
Each formula reads its partial Bell polynomials off one memoized table per
argument list (:func:`_bell_table`).
Composition, which checks the round trip of :func:`invert`, and its naive
oracle live with the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Sequence

from .algebra import (
    AlgebraError,
    Monomial,
    Polynomial,
    RationalFunction,
    RF_MINUS_I,
    RF_ONE,
    RF_ZERO,
    Scalar,
    coupling,
    diffeo_coeff,
    fixed_offshell,
    power,
    rf,
    sum_of_products,
)

CoeffFn = Callable[[int], RationalFunction]


def _bell_table(args: Sequence[RationalFunction]) -> Callable[[int, int], RationalFunction]:
    """Reader of the partial Bell polynomials ``B_{m,j}`` over one argument
    list, for any ``(m, j)`` with ``m - j < len(args)``: every read shares
    one memo of the recurrence ``B_{m,j} = sum_i C(m-1, i-1) x_i
    B_{m-i,j-1}`` (Comtet, *Advanced Combinatorics*, 1974, section 3.3)."""
    table: dict[tuple[int, int], RationalFunction] = {(0, 0): RF_ONE}

    def get(m: int, j: int) -> RationalFunction:
        if j > m:
            return RF_ZERO
        if (m, j) in table:
            return table[(m, j)]
        if j == 0:
            value = RF_ONE if m == 0 else RF_ZERO
        else:
            value = sum_of_products(
                (args[step - 1].scaled(Scalar(comb(m - 1, step - 1))), sub)
                for step in range(1, m - j + 2)
                if not args[step - 1].is_zero() and not (sub := get(m - step, j - 1)).is_zero()
            )
        table[(m, j)] = value
        return value

    return get


def bell_partial(n: int, k: int, args: Sequence[RationalFunction]) -> RationalFunction:
    """Partial Bell polynomial ``B_{n,k}(x_1, ..., x_{n-k+1})``, one read of
    a fresh :func:`_bell_table`; a caller that reads several ``B_{m,j}`` of
    one argument list builds the table once.  The set-partition enumeration
    serves as the independent oracle in the tests.
    """
    if n < 0 or k < 0:
        raise AlgebraError("Bell polynomial indices must be nonnegative")
    if n > 0 and k > 0 and len(args) < n - k + 1:
        raise AlgebraError(f"B_{{{n},{k}}} needs {n - k + 1} arguments, got {len(args)}")
    return _bell_table(args)(n, k)


class PowerSeries:
    """Truncated series ``c_0 + c_1 t + ... + c_N t^N`` with RF coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[RationalFunction]):
        if not coeffs:
            raise AlgebraError("a power series needs at least the constant coefficient")
        self.coeffs = list(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def identity(order: int) -> "PowerSeries":
        if order < 1:
            raise AlgebraError("the identity series needs order >= 1")
        coeffs = [RF_ZERO] * (order + 1)
        coeffs[1] = RF_ONE
        return PowerSeries(coeffs)

    def __getitem__(self, n: int) -> RationalFunction:
        return self.coeffs[n] if 0 <= n <= self.order else RF_ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries([self[i] + other[i] for i in range(n + 1)])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries([self[i] - other[i] for i in range(n + 1)])

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        # Coefficient k is the sum of products x_i y_{k-i}.
        n = min(self.order, other.order)
        xs, ys = self.coeffs, other.coeffs
        return PowerSeries([sum_of_products(zip(xs[: k + 1], ys[k::-1])) for k in range(n + 1)])

    def __pow__(self, k: int) -> "PowerSeries":
        return power(self, k, PowerSeries([RF_ONE] + [RF_ZERO] * self.order))

    def scaled(self, c: Scalar) -> "PowerSeries":
        return PowerSeries([x.scaled(c) for x in self.coeffs])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __str__(self) -> str:
        return " + ".join(f"({c})*t^{n}" for n, c in enumerate(self.coeffs) if not c.is_zero()) or "0"

    def __repr__(self) -> str:
        return f"PowerSeries({self})"


def invert(f: PowerSeries) -> PowerSeries:
    """Compositional inverse of a series with ``c_0 = 0`` and scalar ``c_1``.

    Uses the Lagrange-inversion expression of the coefficients through Bell
    polynomials; the round trip ``f(invert(f)(t)) == t`` is the acceptance
    property.
    """
    if not f[0].is_zero():
        raise AlgebraError("inversion requires a vanishing constant term")
    f1 = f[1]
    if f1.is_zero():
        raise AlgebraError("inversion requires an invertible linear coefficient")
    if not f1.is_constant():
        raise AlgebraError("inversion implemented for scalar linear coefficient only")
    c1 = f1.constant_value()
    n_max = f.order
    args = [RF_ZERO] + [
        f[m].scaled(Scalar(-factorial(m))) for m in range(2, n_max + 1)
    ]
    out = [RF_ZERO] * (n_max + 1)
    if n_max >= 1:
        out[1] = rf(Scalar(1) / c1)
    inv_c1 = Scalar(1) / c1
    bell_of = _bell_table(args)
    for n in range(2, n_max + 1):
        acc = RF_ZERO
        for k in range(1, n):
            bell = bell_of(n - 1 + k, k)
            if bell.is_zero():
                continue
            acc = acc + bell.scaled(power(inv_c1, n + k, Scalar(1)))
        out[n] = acc.scaled(Scalar(Fraction(1, factorial(n))))
    return PowerSeries(out)


def fuss_catalan(m: int, a: int, b: int) -> Scalar:
    """Fuss-Catalan number ``F_m(a, b) = b/(ma+b) C(ma+b, m)`` exactly; the
    binomial form also covers m > ma+b, where the value is zero."""
    if m < 0 or a < 0 or b < 1:
        raise AlgebraError("fuss_catalan expects m >= 0, a >= 0, b >= 1")
    value = Fraction(b * comb(m * a + b, m), m * a + b)
    if value.denominator != 1:
        raise AlgebraError("Fuss-Catalan evaluation is not integral")
    return Scalar(value)


def fc_series(a: int, b: int, order: int) -> PowerSeries:
    """Generating series ``sum_m F_m(a,b) t^m`` truncated at ``order``."""
    return PowerSeries([rf(fuss_catalan(m, a, b)) for m in range(order + 1)])


def fc_functional_residual(a: int, order: int) -> PowerSeries:
    """Residual of the defining identity ``C = t*C^a + 1`` for ``b = 1``."""
    c = fc_series(a, 1, order)
    t = PowerSeries.identity(order)
    one = PowerSeries([RF_ONE] + [RF_ZERO] * order)
    return c - (t * c**a + one)


def symbolic_coeffs(j: int) -> RationalFunction:
    """Default accessor: a_0 = 1 and a_j the interned symbol for j >= 1."""
    if j == 0:
        return RF_ONE
    return rf(diffeo_coeff(j))


def _kinetic_args(a: CoeffFn, count: int) -> list[RationalFunction]:
    # x_m = (m+1)! a_m, the argument list of the kinetic-term Bell polynomials
    return [a(m).scaled(Scalar(factorial(m + 1))) for m in range(1, count + 1)]


def tangent_args(a: CoeffFn, count: int) -> list[RationalFunction]:
    """``[x_1, ..., x_count]`` with ``x_m = m! a_{m-1}``: the Bell-polynomial
    arguments of the field map ``phi = sum_m a_{m-1} rho^m``, whose head
    ``x_1 = a_0 = 1`` makes it tangent to identity."""
    return [a(m - 1).scaled(Scalar(factorial(m))) for m in range(1, count + 1)]


def vertex_coefficients(n: int, a: CoeffFn = symbolic_coeffs):
    """Induced couplings (f_n, c_{n-2}, g_n) of the n-valent vertex.

    f_n multiplies the sum of adjacent offshell variables, g_n = n f_n - c_{n-2}
    multiplies the mass-squared constant.  Valid for n >= 2.
    """
    if n < 2:
        raise AlgebraError("vertex coefficients need n >= 2")
    kin = _bell_table(_kinetic_args(a, max(n - 2, 0)))
    f_n = kin(n - 2, 1) + kin(n - 2, 2)
    c_nm2 = bell_partial(n, 2, tangent_args(a, n - 1))
    g_n = f_n.scaled(Scalar(n)) - c_nm2
    return f_n, c_nm2, g_n


def tree_sum_closed_forms(max_n: int, a: CoeffFn = symbolic_coeffs) -> list[RationalFunction | None]:
    """``[None, b_1, ..., b_max_n]``, indexed by the leg count as every
    tree-sum list is, and ``[None]`` when ``max_n < 1``: the closed forms of
    the one-offshell-leg tree sums, b_1 = 1 and b_{m+1} = sum_k (m+k)!/m!
    B_{m,k}(-1! a_1, ..., -m! a_m).  Each b_{m+1} reads a prefix of one
    argument list, so one Bell table serves them all."""
    if max_n < 1:
        return [None]
    bell_of = _bell_table([a(j).scaled(Scalar(-factorial(j))) for j in range(1, max_n)])
    out = [None, RF_ONE]
    for m in range(1, max_n):
        total = RF_ZERO
        for k in range(1, m + 1):
            bell = bell_of(m, k)
            if not bell.is_zero():
                total = total + bell.scaled(Scalar(Fraction(factorial(m + k), factorial(m))))
        out.append(total)
    return out


def tree_sum_closed_form(n: int, a: CoeffFn = symbolic_coeffs) -> RationalFunction:
    """Closed form of the one-offshell-leg tree sum b_n, ``n >= 1``: the
    entry ``n`` of :func:`tree_sum_closed_forms`."""
    if n < 1:
        raise AlgebraError("tree sums are indexed from 1")
    return tree_sum_closed_forms(n, a)[n]


def inverse_series_tree_sums(order: int) -> list[RationalFunction]:
    """``[b_0, ..., b_order]`` of symbolic coefficients, ``b_n`` being n!
    times the n-th coefficient of the inverse of the field map: one
    inversion gives every ``b_n`` up to ``order``.  The map keeps its
    linear coefficient ``a_0 = 1`` at every order, so ``[b_0]`` is ``[0]``."""
    coeffs = [RF_ZERO, RF_ONE] + [symbolic_coeffs(j - 1) for j in range(2, order + 1)]
    inverse = invert(PowerSeries(coeffs))
    return [c.scaled(Scalar(factorial(n))) for n, c in enumerate(inverse.coeffs[: order + 1])]


def tuned_diffeo_coeffs(s: int, max_j: int) -> dict[int, RationalFunction]:
    """Coefficients of the diffeomorphism that cancels a power-s interaction
    at the fixed offshell value xp.

    a_{s-2} = lambda_s / ((s-1)! xp), a_{j(s-2)} = a_{s-2}^j F_j(s-1, 1), and
    every other coefficient vanishes.
    """
    if s < 3:
        raise AlgebraError("interaction powers start at 3")
    out = dict.fromkeys(range(1, max_j + 1), RF_ZERO)
    if s - 2 <= max_j:  # else every coefficient vanishes, and (s-1)! is not needed
        lam = Polynomial.symbol(coupling(s)).scaled(Scalar(Fraction(1, factorial(s - 1))))
        base = RationalFunction(lam, Monomial.of(fixed_offshell()))
        for j in range(1, max_j // (s - 2) + 1):
            out[j * (s - 2)] = (base**j).scaled(fuss_catalan(j, s - 1, 1))
    return out


def coupling_linear_terms(s: int, max_n: int) -> dict[int, dict[int, RationalFunction]]:
    """``{n: terms}`` for every ``n`` from ``s`` to ``max_n``: the nonzero
    per-valence terms of the Bell-sum form of the coupling-linear onshell
    tree sum S^(s)_n of symbolic coefficients,
    ``-i lambda_s B_{k,s}(1! a_0, 2! a_1, ...) B_{n,k}(b_1, b_2, ...)`` by
    the valence k of the interaction vertex.  With b_k the one-offshell tree
    sums of the same coefficients, the terms sum to -i lambda_s delta_{n,s}.
    Each of the two argument lists builds one Bell table for every ``n``,
    and the ``b_k`` come from one more (:func:`tree_sum_closed_forms`)."""
    if max_n < s:
        raise AlgebraError("the coupling-linear sum needs n >= s")
    tangent = _bell_table(tangent_args(symbolic_coeffs, max_n))
    b_sums = _bell_table(tree_sum_closed_forms(max_n)[1:])
    scale = RF_MINUS_I * rf(coupling(s))
    lefts = {k: left for k in range(s, max_n + 1) if not (left := tangent(k, s)).is_zero()}
    out = {}
    for n in range(s, max_n + 1):
        terms = out[n] = {}
        for k, left in lefts.items():
            if k <= n and not (right := b_sums(n, k)).is_zero():
                terms[k] = left * right * scale
    return out
