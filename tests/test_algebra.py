"""Exact scalar, polynomial and rational-function arithmetic."""

import random
import threading
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from oracles import power_by_loop, substitute_termwise

from diffeorules.algebra import (
    EXPONENT_MAX,
    EXPONENT_MIN,
    AlgebraError,
    DenominatorAnnihilationError,
    DivisionByZeroError,
    Kind,
    MONO_ONE,
    Monomial,
    Polynomial,
    RationalFunction,
    RF_ONE,
    RF_ZERO,
    Scalar,
    coupling,
    diffeo_coeff,
    edge_symbol,
    fixed_offshell,
    generic_symbol,
    join_phases,
    mass_sq,
    mul_into,
    parse_rational,
    plain_mul_into,
    power,
    rf,
    split_phases,
)
from diffeorules import trees
from diffeorules.rules import DiffeoSpec, generalized_vertex
from diffeorules.series import PowerSeries
from diffeorules.trees import coupling_linear_tree_sum, interacting_rooted_tree_sum, rooted_tree_sum

A1, A2, A3 = diffeo_coeff(1), diffeo_coeff(2), diffeo_coeff(3)
X1 = edge_symbol({1})
X2 = edge_symbol({2})
X3 = edge_symbol({3})
X12 = edge_symbol({1, 2})
LAM3 = coupling(3)
XP = fixed_offshell()


class TestScalar:
    def test_imaginary_unit_squares_to_minus_one(self):
        assert Scalar(0, 1) * Scalar(0, 1) == Scalar(-1)

    def test_rational_addition(self):
        assert Scalar(Fraction(1, 2)) + Scalar(Fraction(1, 3)) == Scalar(Fraction(5, 6))

    def test_mixed_product(self):
        assert Scalar(0, 2) * Scalar(Fraction(3, 2)) == Scalar(0, 3)

    def test_division_by_zero_raises(self):
        with pytest.raises(DivisionByZeroError):
            Scalar(1) / Scalar(0)

    def test_agrees_with_complex_fraction_oracle(self):
        # Oracle: plain pair-of-Fractions arithmetic done inline.  Components
        # are drawn zero, integral or proper fractions, and integral inputs
        # are passed as int or as Fraction, so every mix of the two
        # representations meets in every operation.
        rng = random.Random(20240817)

        def component():
            kind = rng.randrange(3)
            if kind == 0:
                q = Fraction(0)
            elif kind == 1:
                q = Fraction(rng.randint(-20, 20))
            else:
                q = Fraction(rng.randint(-20, 20), rng.randint(2, 9))
            return q.numerator if q.denominator == 1 and rng.random() < 0.5 else q

        for _ in range(3000):
            raw = [component() for _ in range(4)]
            ar, ai, br, bi = map(Fraction, raw)
            a, b = Scalar(*raw[:2]), Scalar(*raw[2:])
            results = [a, b, a + b, a - b, -a, a * b]
            assert a + b == Scalar(ar + br, ai + bi)
            assert a - b == Scalar(ar - br, ai - bi)
            assert a * b == Scalar(ar * br - ai * bi, ar * bi + ai * br)
            norm = br * br + bi * bi
            if norm:
                assert a / b == Scalar((ar * br + ai * bi) / norm, (ai * br - ar * bi) / norm)
                results += [a / b, b.inverse()]
            for s in results:
                for part in (s.re, s.im):
                    assert type(part) is int or (type(part) is Fraction and part.denominator != 1)

    def test_integral_components_are_ints(self):
        assert Scalar(1) / Scalar(3) == Scalar(Fraction(1, 3))
        two = Scalar(Fraction(4, 2)).re
        assert type(two) is int and two == 2
        half = Scalar(0, 2) / Scalar(0, 4)
        assert type(half.re) is Fraction and type(half.im) is int
        assert hash(Scalar(Fraction(6, 3), 1)) == hash(Scalar(2, Fraction(1)))

    def test_lowest_terms_componentwise(self):
        s = Scalar(Fraction(2, 4), Fraction(-6, 9))
        assert s.re.denominator == 2 and s.re.numerator == 1
        assert s.im.numerator == -2 and s.im.denominator == 3

    @pytest.mark.parametrize(
        "build, shown",
        [
            (lambda: rf(0.1), "0.1"),
            (lambda: Scalar(0.5), "0.5"),
            (lambda: Scalar(1, 0.5), "0.5"),
            (lambda: Polynomial.constant(0.25), "0.25"),
            (lambda: DiffeoSpec.from_bindings({1: rf(1), 2: 0.2}).a(2), "0.2"),
        ],
        ids=["rf", "Scalar", "Scalar imaginary", "Polynomial.constant", "DiffeoSpec.a"],
    )
    def test_inexact_component_is_refused(self, build, shown):
        # A float would enter as its binary fraction: rf(0.1) was
        # 3602879701896397/36028797018963968.
        with pytest.raises(AlgebraError, match=shown):
            build()


def _rand_poly(rng, symbols, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = Monomial(
            (s, rng.randint(1, 2)) for s in rng.sample(symbols, rng.randint(0, len(symbols)))
        )
        terms[mono] = Scalar(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-2, 2)))
    return Polynomial(terms)


class TestPolynomial:
    def test_cancellation(self):
        p = rf(A1) + rf(A2) + rf(A1).scaled(Scalar(-1))
        assert p == rf(A2)

    def test_square(self):
        assert str(Polynomial.symbol(A1) * Polynomial.symbol(A1)) == "a1^2"

    def test_zero_annihilates(self):
        p = Polynomial.symbol(X1) + Polynomial.symbol(X2)
        assert (p * Polynomial.zero()).is_zero()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_ring_laws(self, seed):
        rng = random.Random(seed)
        syms = [A1, A2, A3, X1, X2]
        p, q, r = (_rand_poly(rng, syms) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)

    def test_no_zero_coefficients_stored(self):
        p = Polynomial.symbol(A1) - Polynomial.symbol(A1)
        assert p.terms == {}

    def test_truth_value_is_nonzero(self):
        assert not Polynomial()
        assert not Polynomial.symbol(A1) - Polynomial.symbol(A1)
        assert Polynomial.constant(1)

    def test_laurent_factor_cancels_its_symbol(self):
        product = Monomial(((X12, -1),)) * Monomial.of(X12)
        assert type(product) is Monomial
        assert product == MONO_ONE
        assert hash(product) == hash(MONO_ONE)
        assert product.is_one() and product.pairs == () and str(product) == "1"
        assert Monomial(((X12, -1),)) * Monomial.of(X12, 2) == Monomial.of(X12)

    def test_coefficient_of_examples(self):
        v = Polynomial.symbol(LAM3) * Polynomial.symbol(A1)
        p = v.scaled(Scalar(0, -12))
        assert p.coefficient_of(LAM3, 1) == Polynomial.symbol(A1).scaled(Scalar(0, -12))
        q = Polynomial.symbol(X1) + Polynomial.symbol(X2)
        assert q.coefficient_of(LAM3, 1).is_zero()
        sq = (Polynomial.symbol(A1) ** 2) * (Polynomial.symbol(LAM3) ** 2)
        assert sq.coefficient_of(LAM3, 2) == Polynomial.symbol(A1) ** 2

    def test_term_order_is_graded_lexicographic(self):
        a1sq = Monomial([(A1, 2)])
        a1a2 = Monomial([(A1, 1), (A2, 1)])
        a2sq = Monomial([(A2, 2)])
        assert a1a2 < a1sq
        assert a2sq < a1a2
        assert a2sq < a1sq
        assert Monomial([(A1, 1)]) < a2sq  # lower degree first


class TestMonomial:
    """The packed form: range guards, carries between fields, identity and
    the term order."""

    def test_every_constructor_raises_one_step_past_each_field_edge(self):
        top, bottom = EXPONENT_MAX, EXPONENT_MIN
        assert Monomial.of(X1, top).exponent(X1) == top
        assert Monomial([(X1, bottom)]).exponent(X1) == bottom
        for pairs in ([(X1, top + 1)], [(X1, bottom - 1)], [(X1, top), (X1, 1)], [(X1, bottom), (X1, -1)]):
            with pytest.raises(AlgebraError):
                Monomial(pairs)
        with pytest.raises(AlgebraError):
            Monomial.of(X1, top + 1)
        with pytest.raises(AlgebraError):
            Monomial.of(X1, top) * Monomial.of(X1)
        with pytest.raises(AlgebraError):
            Monomial([(X1, bottom)]) * Monomial([(X1, -1)])
        assert (Monomial.of(X1, top) * Monomial([(X1, bottom)])).pairs == ((X1, -1),)
        pole = RationalFunction(Polynomial.constant(1), Monomial.of(X1))
        assert (rf(X1) ** top).poly.terms == {Monomial.of(X1, top): Scalar(1)}
        assert (pole ** -bottom).poly.terms == {Monomial([(X1, bottom)]): Scalar(1)}
        with pytest.raises(AlgebraError):
            rf(X1) ** (top + 1)
        with pytest.raises(AlgebraError):
            pole ** (1 - bottom)

    def test_a_value_at_the_lowest_exponent_reads_back(self):
        pole = RationalFunction(Polynomial.constant(1), Monomial.of(X1)) ** -EXPONENT_MIN
        assert pole.den.pairs == ((X1, -EXPONENT_MIN),)
        assert pole.num == Polynomial.constant(1)
        assert str(pole) == f"1/{X1.name}^{-EXPONENT_MIN}"
        shifted = pole + rf(1)
        assert str(shifted) == f"({X1.name}^{-EXPONENT_MIN}+1)/{X1.name}^{-EXPONENT_MIN}"
        assert RationalFunction(shifted.num, shifted.den) == shifted
        assert pole.den * Monomial([(X1, -1)]) == Monomial.of(X1, EXPONENT_MAX)
        for other in (pole.den, Monomial.of(X1), Monomial.of(A1)):
            with pytest.raises(AlgebraError):
                pole.den * other

    def test_carries_and_borrows_between_adjacent_fields(self):
        low, high = generic_symbol("carry_a"), generic_symbol("carry_b")
        low_unit, high_unit = Monomial.of(low), Monomial.of(high)
        assert high_unit.bit_length() - low_unit.bit_length() == 8  # adjacent fields
        borrow = Monomial([(low, -1)]) * high_unit  # the low field borrows from the high one
        assert borrow.pairs == ((low, -1), (high, 1))
        assert (borrow.exponent(low), borrow.exponent(high)) == (-1, 1)
        inverse = Monomial([(low, 1), (high, -1)])
        assert inverse.pairs == ((low, 1), (high, -1))
        assert borrow * inverse == MONO_ONE
        for e_low in (EXPONENT_MIN, -1, 1, EXPONENT_MAX):
            for e_high in (EXPONENT_MIN, -1, 1, EXPONENT_MAX):
                m = Monomial([(low, e_low), (high, e_high)])
                assert m.pairs == ((low, e_low), (high, e_high))
                if e_low < EXPONENT_MAX:
                    assert (m * low_unit).pairs == tuple(
                        p for p in ((low, e_low + 1), (high, e_high)) if p[1]
                    )
                else:
                    with pytest.raises(AlgebraError):
                        m * low_unit

    def test_exponent_of_a_symbol_without_a_field_is_zero(self):
        fresh = generic_symbol("never_in_a_monomial")
        assert Monomial.of(X1, 3).exponent(fresh) == 0
        assert MONO_ONE.exponent(fresh) == 0
        assert fresh.unit is None  # reading an exponent assigns no field

    def test_comparisons_agree_with_sorted_graded_lex_order(self):
        a1, x1 = Monomial.of(A1), Monomial.of(X1)
        expected = [  # ascending
            Monomial([(A1, -1), (X1, -1)]),
            Monomial([(X1, -1)]),
            MONO_ONE,
            Monomial([(A1, 1), (X1, -1)]),  # equal degree: the longer pairs win
            x1,
            Monomial([(A2, 1)]),
            a1,
            Monomial([(A2, 2)]),
            a1 * Monomial.of(A2),
            Monomial([(A1, 2)]),
            Monomial([(A1, 2), (X1, -1), (X2, 1)]),
            Monomial([(A1, 3), (X1, -1)]),
        ]
        assert sorted(reversed(expected)) == expected
        assert sorted(expected, reverse=True) == expected[::-1]
        for i, j in combinations(range(len(expected)), 2):
            lo, hi = expected[i], expected[j]
            assert lo < hi and lo <= hi and hi > lo and hi >= lo
            assert not (hi < lo or hi <= lo or lo > hi or lo >= hi)
        assert a1 <= a1 and a1 >= a1 and not a1 < a1 and not a1 > a1


class TestRationalFunction:
    def test_pole_cancellation_to_zero(self):
        pole = RationalFunction(Polynomial.symbol(LAM3), Monomial.of(X12))
        assert (pole + pole.scaled(Scalar(-1))).is_zero()

    def test_cancellation_to_polynomial(self):
        x1x2 = Polynomial.symbol(X1) * Polynomial.symbol(X2)
        left = RationalFunction(x1x2, Monomial.of(X12))
        right = RationalFunction(Polynomial.symbol(X12), Monomial.of(X1))
        assert left * right == rf(X2)

    def test_scalar_times_pole(self):
        r = rf(A1).scaled(Scalar(2)) * RationalFunction(
            Polynomial.constant(Scalar(0, 1)), Monomial.of(X12)
        )
        assert str(r) == "2*i*a1/x{1+2}"

    def test_denominator_restricted_to_offshell_kinds(self):
        with pytest.raises(AlgebraError):
            RationalFunction(Polynomial.constant(1), Monomial.of(A1))

    def test_fixed_offshell_allowed_in_denominator(self):
        r = RationalFunction(Polynomial.symbol(LAM3), Monomial.of(XP))
        assert str(r) == "lambda3/xp"

    def test_reduction_divides_out_common_edge_factor(self):
        num = Polynomial.symbol(X12) * (Polynomial.symbol(A1) + Polynomial.symbol(A2))
        r = RationalFunction(num, Monomial.of(X12, 2))
        assert r.den == Monomial.of(X12)
        assert r.num == Polynomial.symbol(A1) + Polynomial.symbol(A2)

    def test_symbol_at_both_signs(self):
        r = rf(X12) + rf(X12).inverse()
        assert str(r) == "(x{1+2}^2+1)/x{1+2}"
        assert r.den == Monomial.of(X12)
        with pytest.raises(DenominatorAnnihilationError):
            r.substitute({X12: RF_ZERO})
        assert str(r.substitute({X12: rf(XP)})) == "(xp^2+1)/xp"

    def test_prints_a_numerator_beyond_the_field_range(self):
        # Both terms are in range, but the numerator over x{1+2} needs x^64.
        r = rf(X12) ** EXPONENT_MAX + rf(X12).inverse()
        assert str(r) == f"(x{{1+2}}^{EXPONENT_MAX + 1}+1)/x{{1+2}}"
        assert repr(r) == f"RationalFunction({r})"
        mixed = (rf(X12) ** EXPONENT_MAX) * rf(A1) + rf(X12).inverse().scaled(Scalar(-2)) + rf(X1)
        assert str(mixed) == f"(a1*x{{1+2}}^{EXPONENT_MAX + 1}+x1*x{{1+2}}-2)/x{{1+2}}"

    def test_equality_cross_multiplies(self):
        a = RationalFunction(Polynomial.symbol(X1) * Polynomial.symbol(X2), Monomial.of(X1))
        b = rf(X2)
        assert a == b


class TestSubstitute:
    def test_onshell_substitution(self):
        total = (rf(X1) + rf(X2) + rf(X3)) * rf(A1).scaled(Scalar(0, 2))
        out = total.substitute({X1: RF_ZERO, X2: RF_ZERO})
        assert out == rf(X3) * rf(A1).scaled(Scalar(0, 2))

    def test_tuned_pole_substitution_vanishes(self):
        # -2 a1 + lambda3/x becomes zero under x -> xp, a1 -> lambda3/(2 xp)
        pole = RationalFunction(Polynomial.symbol(LAM3), Monomial.of(X12))
        bprime2 = rf(A1).scaled(Scalar(-2)) + pole
        a1_value = RationalFunction(
            Polynomial.symbol(LAM3).scaled(Scalar(Fraction(1, 2))), Monomial.of(XP)
        )
        out = bprime2.substitute({X12: rf(XP), A1: a1_value})
        assert out.is_zero()

    def test_denominator_annihilation_raises(self):
        r = RationalFunction(Polynomial.symbol(X1), Monomial.of(X12))
        with pytest.raises(DenominatorAnnihilationError) as err:
            r.substitute({X12: RF_ZERO})
        assert err.value.symbol is X12

    def test_sequential_equals_simultaneous_on_disjoint_domains(self):
        r = RationalFunction(
            Polynomial.symbol(A1) * Polynomial.symbol(X1) + Polynomial.symbol(A2),
            Monomial.of(X12),
        )
        first = {X1: rf(3)}
        second = {A2: rf(A1) * rf(A1)}
        merged = {**first, **second}
        assert r.substitute(first).substitute(second) == r.substitute(merged)

    def test_multi_term_denominator_binding_rejected(self):
        r = RationalFunction(Polynomial.constant(1), Monomial.of(X12))
        with pytest.raises(AlgebraError):
            r.substitute({X12: rf(X1) + rf(X2)})


def test_every_module_value_keeps_offshell_denominators():
    # Spot it on a composite expression produced through public ops.
    r = (
        RationalFunction(Polynomial.constant(Scalar(0, 1)), Monomial.of(X12))
        * (rf(X1) + rf(X12).scaled(Scalar(2)))
        + rf(A1)
    )
    for sym, _ in r.den.pairs:
        assert sym.kind in (Kind.EDGE, Kind.FIXED_OFFSHELL)
        assert any(m.exponent(sym) == 0 for m in r.num.terms)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    with pytest.raises(ValueError):
        parse_rational("0.5")
    # The signs int() takes are kept; its underscores and other scripts'
    # digits are not.
    assert parse_rational(" +3/-6 ") == Fraction(-1, 2)
    for text in ("1_0", "\u0663", "a\u0663"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_symbol_interning_is_injective():
    assert diffeo_coeff(4) is diffeo_coeff(4)
    assert edge_symbol({2, 1}) is edge_symbol({1, 2})
    assert edge_symbol({1}, True) is not edge_symbol({1}, False)
    assert generic_symbol("u") is generic_symbol("u")
    order = sorted([X12, A1, mass_sq(), LAM3, XP])
    assert order == [A1, LAM3, mass_sq(), XP, X12]


def test_fields_assigned_from_concurrent_threads():
    families = [[generic_symbol(f"thread{t}_{i}") for i in range(24)] for t in range(4)]
    start = threading.Barrier(len(families))
    products: list[list[tuple[Monomial, dict]]] = [[] for _ in families]
    errors: list[BaseException] = []

    def work(t: int) -> None:
        syms = families[t]
        try:
            start.wait()
            for i, sym in enumerate(syms):
                exps = {sym: 1 + i % 5, syms[i - 1]: -(1 + i % 3)}
                products[t].append((Monomial.of(sym, 1 + i % 5) * Monomial([(syms[i - 1], -(1 + i % 3))]), exps))
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(len(families))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    units = [sym.unit for syms in families for sym in syms]
    assert all(u is not None and u & (u - 1) == 0 for u in units)  # one field each
    assert len(set(units)) == len(units)
    for family in products:
        for product, exps in family:
            assert dict(product.pairs) == exps
            (a, ea), (b, eb) = exps.items()
            assert product == Monomial.of(a, ea) * Monomial([(b, eb)])


def test_term_keys_are_monomials():
    """Integer arithmetic on monomials gives plain ints; none may reach a
    term map, where ``pairs`` would be missing."""
    values = [
        rooted_tree_sum(5).value,
        coupling_linear_tree_sum(5, 3).value,
        interacting_rooted_tree_sum(5, 3).value,
        interacting_rooted_tree_sum(5, 3, DiffeoSpec.tuned(3, 5)).value,
        generalized_vertex([frozenset((j,)) for j in range(1, 7)], frozenset(range(1, 7))),
    ]
    for value in values:
        for poly in (value.poly, value.num):
            assert all(type(m) is Monomial for m in poly.terms)
        assert type(value.den) is Monomial
    assert sum(len(value.poly.terms) for value in values) > 500
    assert any(value.den.pairs for value in values)


# Terms for the kernel's property: Gaussian coefficients whose components mix
# ints and proper Fractions, over a plain symbol and offshell symbols that
# may carry negative exponents.
_component = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(2, 5)),
)
_scalar = st.builds(Scalar, _component, _component).filter(lambda c: not c.is_zero())
_monomial = st.builds(
    lambda a, x1, x2, xp: Monomial([(A1, a), (X1, x1), (X12, x2), (XP, xp)]),
    st.integers(0, 3),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-2, 2),
)
_term_map = st.dictionaries(_monomial, _scalar, max_size=6)
# Terms for the substitution property: ``x1`` exponents at the edges of the
# range too, so that a product of a bound power can leave it; and bindings
# that are zero, one term (an inverse when it has negative exponents) or a
# few.  One symbol near the edge and three terms keep a bound power at a few
# thousand terms.
_edge = st.one_of(
    st.integers(-3, 3),
    st.integers(EXPONENT_MAX - 3, EXPONENT_MAX),
    st.integers(EXPONENT_MIN, EXPONENT_MIN + 3),
)
_edge_term_map = st.dictionaries(
    st.builds(
        lambda a, x1, x2, xp: Monomial([(A1, a), (X1, x1), (X12, x2), (XP, xp)]),
        st.integers(0, 3),
        _edge,
        st.integers(-3, 3),
        st.integers(-2, 2),
    ),
    _scalar,
    max_size=4,
)
_BINDABLE = (A1, X1, X12, XP)
_binding = st.one_of(
    st.just(RF_ZERO),
    st.builds(lambda m, c: RationalFunction(Polynomial({m: c})), _monomial, _scalar),
    st.builds(lambda t: RationalFunction(Polynomial(t)), st.dictionaries(_monomial, _scalar, max_size=3)),
)


def _termwise_product(out: dict, x: dict, y: dict) -> dict:
    """Oracle: each term pair through ``Monomial.__mul__`` and
    ``Scalar.__mul__``, summed with ``Scalar.__add__``, zeros dropped."""
    acc = dict(out)
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            m = m1 * m2
            acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
    return {m: c for m, c in acc.items() if not c.is_zero()}


def _assert_term_map(terms: dict) -> None:
    for m, c in terms.items():
        assert type(m) is Monomial
        for part in (c.re, c.im):
            assert type(part) is int or (type(part) is Fraction and part.denominator != 1), (m, c)
        assert not c.is_zero()


class TestMulInto:
    @settings(max_examples=300, deadline=None)
    @given(_term_map, _term_map, _term_map, st.data())
    def test_agrees_with_termwise_products(self, x, y, extra, data):
        # ``out`` starts empty, or holds the negation of part of the product
        # (so those terms cancel) plus unrelated terms.
        product = _termwise_product({}, x, y)
        cancel = data.draw(st.sets(st.sampled_from(sorted(product)))) if product else set()
        out = {m: c for m, c in extra.items() if m not in product}
        out.update({m: -product[m] for m in cancel})
        for start in ({}, out):
            expect = _termwise_product(start, x, y)
            got = mul_into(dict(start), x, y)
            assert got == expect
            _assert_term_map(got)
        poly = Polynomial(x) * Polynomial(y)
        assert poly.terms == product
        _assert_term_map(poly.terms)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(EXPONENT_MIN, EXPONENT_MAX), st.integers(-3, 3), _scalar, _scalar)
    def test_exponent_out_of_range_raises(self, e, f, c1, c2):
        x, y = {Monomial([(X1, e)]): c1}, {Monomial([(X1, f)]): c2}
        if EXPONENT_MIN <= e + f <= EXPONENT_MAX:
            assert mul_into({}, x, y) == _termwise_product({}, x, y)
        else:
            with pytest.raises(AlgebraError, match="out of range"):
                mul_into({}, x, y)
            with pytest.raises(AlgebraError, match="out of range"):
                Polynomial(x) * Polynomial(y)


class TestEngineKernel:
    """The tree-sum engine's products on split term maps: one plain map of
    ``int`` keys and ``int``/``Fraction`` values per power of ``i``, keyed
    by ``(valence, phase)`` (:func:`trees._mul_into` over
    :func:`plain_mul_into`), joined back, against :func:`mul_into` on the
    Gaussian term maps."""

    @staticmethod
    def _keyed(terms: dict) -> dict:
        return {(0, phase): x for phase, x in enumerate(split_phases(terms)) if x}

    @settings(max_examples=300, deadline=None)
    @given(_term_map, _term_map, _term_map, st.sampled_from((1, -1)))
    def test_split_product_joined_back_equals_mul_into(self, x, y, start, sign):
        for terms in (x, y, start):
            re, im = split_phases(terms)
            assert all(type(m) is int for m in [*re, *im])
            assert join_phases(re, im).terms == terms
        acc = self._keyed(start)
        trees._mul_into(acc, self._keyed(x), self._keyed(y), sign)
        got = trees._values(acc)[0].poly.terms
        expect = mul_into(dict(start), x, {m: c * Scalar(sign) for m, c in y.items()})
        assert got == expect
        _assert_term_map(got)
        drained = {key: dict(terms) for key, terms in acc.items()}
        assert trees._values(drained, drain=True)[0].poly.terms == expect
        assert not any(drained.values())

    @pytest.mark.parametrize("c", (3, Fraction(-2, 5)))
    def test_exponent_out_of_range_raises_and_never_wraps(self, c):
        # X12 rides along: the product moves only X1's field, or raises.
        edges = (*range(EXPONENT_MIN, EXPONENT_MIN + 4), *range(-3, 4), *range(EXPONENT_MAX - 3, EXPONENT_MAX + 1))
        for e in edges:
            for f in range(-3, 4):
                x = {int(Monomial([(X1, e), (X12, 1)])): c}
                y = {int(Monomial([(X1, f)])): 2}
                if EXPONENT_MIN <= e + f <= EXPONENT_MAX:
                    assert plain_mul_into({}, x, y) == {int(Monomial([(X1, e + f), (X12, 1)])): 2 * c}, (e, f)
                else:
                    out = {0: 1}
                    with pytest.raises(AlgebraError, match="out of range"):
                        plain_mul_into(out, x, y)
                    assert out == {0: 1}, (e, f)


def _substituted(value: RationalFunction, bindings: dict, substitute) -> object:
    """The value, or what the refusal names: the annihilated symbol, or the
    message of any other ``AlgebraError``."""
    try:
        return substitute(value, bindings)
    except DenominatorAnnihilationError as exc:
        return ("annihilates", exc.symbol)
    except AlgebraError as exc:
        return ("refused", str(exc))


class TestGroupedSubstitute:
    """``substitute`` multiplies each group of terms that share their bound
    exponents as one term map; it must give the per-term oracle's value and
    refuse what the oracle refuses, with the same symbol or message."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(_term_map, _edge_term_map),
        st.dictionaries(st.sampled_from(_BINDABLE), _binding, min_size=1, max_size=3),
    )
    def test_agrees_with_the_termwise_oracle(self, terms, bindings):
        value = RationalFunction(Polynomial(terms))
        want = _substituted(value, bindings, substitute_termwise)
        got = _substituted(value, bindings, RationalFunction.substitute)
        assert got == want
        if isinstance(got, RationalFunction):
            _assert_term_map(got.poly.terms)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AlgebraError:
        return AlgebraError


class TestPower:
    """``power`` is square-and-multiply; it must give the loop's value, and
    raise where the loop raises, for every value type that uses it."""

    @settings(max_examples=100, deadline=None)
    @given(_scalar, st.integers(0, 40))
    def test_scalar_agrees_with_the_loop(self, c, n):
        assert power(c, n, Scalar(1)) == power_by_loop(c, n, Scalar(1))

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(_monomial, _scalar, max_size=3), st.integers(0, 40))
    def test_polynomial_and_laurent_value_agree_with_the_loop(self, terms, n):
        poly = Polynomial(terms)
        for x, one in ((poly, Polynomial.constant(1)), (RationalFunction(poly), RF_ONE)):
            expect = _outcome(power_by_loop, x, n, one)
            assert _outcome(power, x, n, one) == expect
            assert _outcome(x.__pow__, n) == expect

    @pytest.mark.parametrize("top, bottom", [(1, 0), (0, -1), (2, -1), (3, -2)])
    def test_raises_only_where_the_result_leaves_the_range(self, top, bottom):
        terms = {Monomial([(X1, top)]): Scalar(1), Monomial([(X1, bottom)]): Scalar(0, 2)}
        x = RationalFunction(Polynomial(terms))
        for n in range(70):
            if top * n <= EXPONENT_MAX and bottom * n >= EXPONENT_MIN:
                assert x**n == power_by_loop(x, n, RF_ONE), n
            else:
                for fn in (x.__pow__, x.poly.__pow__):
                    with pytest.raises(AlgebraError, match="out of range"):
                        fn(n)

    def test_negative_exponent_raises(self):
        with pytest.raises(AlgebraError, match="nonnegative"):
            power(Scalar(2), -1, Scalar(1))
        for x in (Polynomial.symbol(A1), rf(X1), PowerSeries.identity(3)):
            with pytest.raises(AlgebraError, match="nonnegative"):
                x ** -1
