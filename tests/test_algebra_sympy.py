"""Ring operations and substitution against sympy, an oracle that shares no
code with ``diffeorules.algebra``.

Each case draws exact Gaussian-rational polynomials and rational functions
over monomial offshell denominators, computes with the package, and checks
the result (and, for rational functions, its reduced denominator) against
sympy's own arithmetic on the same expressions.  Offshell symbols draw
negative exponents too, and the ranges reach close to the packed field's
limit (``EXPONENT_MIN``/``EXPONENT_MAX``): products and denominators of
the drawn values stay inside it, monomial products also cross it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from diffeorules.algebra import (  # noqa: E402
    EXPONENT_MAX,
    EXPONENT_MIN,
    AlgebraError,
    DenominatorAnnihilationError,
    Monomial,
    Polynomial,
    RationalFunction,
    RF_ZERO,
    Scalar,
    coupling,
    diffeo_coeff,
    edge_symbol,
    fixed_offshell,
    mass_sq,
)

OFFSHELL = [edge_symbol({1}), edge_symbol({2}), edge_symbol({1, 2}), fixed_offshell()]
PLAIN = [diffeo_coeff(1), diffeo_coeff(2), coupling(3), mass_sq()]
SYMPY_OF = {sym: sympy.Symbol(sym.name) for sym in OFFSHELL + PLAIN}

CASES = settings(max_examples=100, deadline=None)


def to_sympy(value):
    if isinstance(value, Scalar):
        return sympy.Rational(value.re.numerator, value.re.denominator) + sympy.I * sympy.Rational(
            value.im.numerator, value.im.denominator
        )
    if isinstance(value, Monomial):
        return sympy.Mul(*(SYMPY_OF[s] ** e for s, e in value.pairs))
    if isinstance(value, Polynomial):
        return sympy.Add(*(to_sympy(c) * to_sympy(m) for m, c in value.terms.items()))
    return to_sympy(value.num) / to_sympy(value.den)


def same(expr, expected) -> bool:
    return sympy.cancel(sympy.expand(expr - expected)) == 0


def reduced_denominator_agrees(value: RationalFunction, expected) -> bool:
    """The package's denominator is sympy's reduced one, up to a constant."""
    _, den = sympy.fraction(sympy.cancel(sympy.together(expected)))
    return not sympy.cancel(den / to_sympy(value.den)).free_symbols


components = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(2, 5)),
)
scalars = st.builds(Scalar, components, components)
nonzero_scalars = scalars.filter(lambda c: not c.is_zero())


def monomials(symbols, low, high):
    """Exponents in ``[low, high]``, mostly small, with the ends drawn often."""
    exponents = st.one_of(
        st.integers(max(low, -2), min(high, 2)), st.integers(low, high), st.sampled_from([low, high])
    )
    return st.lists(exponents, min_size=len(symbols), max_size=len(symbols)).map(
        lambda exps: Monomial(zip(symbols, exps))
    )


def laurent_polynomials(reach):
    """Polynomials in PLAIN with offshell exponents in ``[-reach, reach]``."""
    terms = st.builds(lambda p, o: p * o, monomials(PLAIN, 0, 2), monomials(OFFSHELL, -reach, reach))
    return st.dictionaries(terms, scalars, max_size=4).map(Polynomial)


# Values with offshell exponents in [-15, 13]: a product spans at most 56
# in each symbol, so its numerator over its least denominator stays in range.
polynomials = laurent_polynomials(13)
rational_functions = st.builds(RationalFunction, polynomials, monomials(OFFSHELL, 0, 2))
# Substitution raises bound values to the drawn powers, so it draws smaller.
small_rational_functions = st.builds(RationalFunction, laurent_polynomials(2), monomials(OFFSHELL, 0, 2))
# Single-term values in offshell symbols only: exactly the invertible ones.
invertibles = st.builds(
    lambda m, c, d: RationalFunction(Polynomial({m: c}), d),
    monomials(OFFSHELL, -15, 15),
    nonzero_scalars,
    monomials(OFFSHELL, 0, 15),
)
small_invertibles = st.builds(
    lambda m, c, d: RationalFunction(Polynomial({m: c}), d),
    monomials(OFFSHELL, -1, 1),
    nonzero_scalars,
    monomials(OFFSHELL, 0, 1),
)


@CASES
@given(
    monomials(PLAIN + OFFSHELL, EXPONENT_MIN, EXPONENT_MAX),
    monomials(PLAIN + OFFSHELL, EXPONENT_MIN, EXPONENT_MAX),
)
def test_monomial_product_to_the_field_limit(m, n):
    exps = {s: m.exponent(s) + n.exponent(s) for s in PLAIN + OFFSHELL}
    if all(EXPONENT_MIN <= e <= EXPONENT_MAX for e in exps.values()):
        product = m * n
        assert sympy.expand(to_sympy(product) - to_sympy(m) * to_sympy(n)) == 0
        assert all(product.exponent(s) == e for s, e in exps.items())
    else:
        with pytest.raises(AlgebraError):
            m * n


@CASES
@given(polynomials, polynomials)
def test_polynomial_ring_operations(p, q):
    P, Q = to_sympy(p), to_sympy(q)
    assert same(to_sympy(p + q), P + Q)
    assert same(to_sympy(p - q), P - Q)
    assert same(to_sympy(p * q), P * Q)


@CASES
@given(rational_functions, rational_functions)
def test_rational_function_ring_operations(f, g):
    F, G = to_sympy(f), to_sympy(g)
    for ours, expected in ((f + g, F + G), (f - g, F - G), (f * g, F * G)):
        assert same(to_sympy(ours), expected)
        assert reduced_denominator_agrees(ours, expected)


@CASES
@given(rational_functions)
def test_num_den_round_trip(f):
    back = RationalFunction(f.num, f.den)
    assert back.num == f.num and back.den == f.den


@CASES
@given(invertibles)
def test_inverse(f):
    inv = f.inverse()
    assert same(to_sympy(inv), 1 / to_sympy(f))
    assert reduced_denominator_agrees(inv, 1 / to_sympy(f))


@CASES
@given(
    small_rational_functions,
    st.dictionaries(st.sampled_from(PLAIN), small_rational_functions, max_size=2),
    st.dictionaries(st.sampled_from(OFFSHELL), st.one_of(st.just(RF_ZERO), small_invertibles), max_size=2),
)
def test_substitute(f, plain, offshell):
    bindings = {**plain, **offshell}
    expected = to_sympy(f).xreplace({SYMPY_OF[s]: to_sympy(v) for s, v in bindings.items()})
    _, den = sympy.fraction(sympy.cancel(sympy.together(to_sympy(f))))
    killed = [s for s, v in offshell.items() if v.is_zero() and SYMPY_OF[s] in den.free_symbols]
    if killed:
        with pytest.raises(DenominatorAnnihilationError) as err:
            f.substitute(bindings)
        assert err.value.symbol in killed
        return
    out = f.substitute(bindings)
    assert same(to_sympy(out), expected)
    assert reduced_denominator_agrees(out, expected)
