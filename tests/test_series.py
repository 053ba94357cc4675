"""Power series, Bell polynomials, inversion and closed-form coefficients."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from oracles import compose, compose_naive, gn_explicit, power_by_loop

from diffeorules.algebra import (
    AlgebraError,
    Kind,
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
    mass_sq,
    rf,
)
from diffeorules import series
from diffeorules.rules import DiffeoSpec
from diffeorules.series import (
    PowerSeries,
    _bell_table,
    bell_partial,
    coupling_linear_terms,
    fc_functional_residual,
    fc_series,
    fuss_catalan,
    inverse_series_tree_sums,
    invert,
    tree_sum_closed_form,
    tree_sum_closed_forms,
    tuned_diffeo_coeffs,
    vertex_coefficients,
)

XS = [rf(generic_symbol(f"u{i}")) for i in range(1, 12)]


def bell_by_partitions(n, k, args):
    """Independent oracle: enumerate set partitions of {1..n} into k blocks."""
    if n == 0 and k == 0:
        return RF_ONE
    if k == 0 or k > n:
        return RF_ZERO

    def partitions(items, blocks):
        if not items:
            if blocks == 0:
                yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest, blocks):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        for part in partitions(rest, blocks - 1):
            yield part + [[first]]

    total = RF_ZERO
    for part in partitions(list(range(n)), k):
        prod = RF_ONE
        for block in part:
            prod = prod * args[len(block) - 1]
        total = total + prod
    return total


class TestBellPartial:
    def test_single_block(self):
        for n in range(1, 6):
            assert bell_partial(n, 1, XS[:n]) == XS[n - 1]

    def test_small_goldens(self):
        assert bell_partial(3, 2, XS[:2]) == (XS[0] * XS[1]).scaled(Scalar(3))
        expect = (XS[0] * XS[2]).scaled(Scalar(4)) + (XS[1] * XS[1]).scaled(Scalar(3))
        assert bell_partial(4, 2, XS[:3]) == expect

    def test_partition_oracle(self):
        for n in range(0, 8):
            for k in range(0, n + 1):
                args = XS[: max(n - k + 1, 1)]
                assert bell_partial(n, k, args) == bell_by_partitions(n, k, args), (n, k)

    def test_insufficient_args(self):
        with pytest.raises(AlgebraError):
            bell_partial(5, 2, XS[:2])

    def test_generating_identity(self):
        # exp(u sum_j x_j t^j/j!) coefficient of t^n must be
        # sum_k B_{n,k} u^k / n! up to order 8.
        order = 8
        u = rf(generic_symbol("u"))
        inner = PowerSeries(
            [RF_ZERO]
            + [u * XS[j - 1].scaled(Scalar(Fraction(1, factorial(j)))) for j in range(1, order + 1)]
        )
        exp_series = PowerSeries(
            [rf(Scalar(Fraction(1, factorial(k)))) for k in range(order + 1)]
        )
        lhs = compose(exp_series, inner)
        for n in range(order + 1):
            expect = RF_ZERO
            for k in range(n + 1):
                bell = bell_partial(n, k, XS[: max(n - k + 1, 1)])
                expect = expect + bell * u**k
            expect = expect.scaled(Scalar(Fraction(1, factorial(n))))
            assert lhs[n] == expect, n

    def test_one_table_read_in_any_order_matches_fresh_calls(self):
        entries = [(m, j) for m in range(9) for j in range(m + 1)]
        random.Random(7).shuffle(entries)
        read = _bell_table(XS[:8])
        for m, j in entries:
            assert read(m, j) == bell_partial(m, j, XS[: max(m - j + 1, 1)]), (m, j)

    @pytest.mark.parametrize(
        "call, tables",
        [
            (lambda: tree_sum_closed_form(7), 1),
            (lambda: tree_sum_closed_forms(7), 1),
            (lambda: invert(PowerSeries([RF_ZERO, RF_ONE, *XS[:6]])), 1),
            # f_n reads the kinetic arguments, c_{n-2} the tangent ones.
            (lambda: vertex_coefficients(7), 2),
            # The tangent arguments, the closed forms b_k, and the b_k as arguments.
            (lambda: coupling_linear_terms(3, 7), 3),
        ],
        ids=["tree_sum_closed_form", "tree_sum_closed_forms", "invert", "vertex_coefficients", "coupling_linear_terms"],
    )
    def test_one_table_per_argument_list(self, monkeypatch, call, tables):
        built = []
        table = series._bell_table

        def counted(args):
            built.append(len(args))
            return table(args)

        monkeypatch.setattr(series, "_bell_table", counted)
        call()
        assert len(built) == tables

    def test_shift_identity_used_by_inversion(self):
        # B_{n+k,k}(0, -2! a1, -3! a2, ...) = (n+k)!/n! B_{n,k}(-1! a1, ...)
        a = [rf(diffeo_coeff(j)) for j in range(1, 11)]
        shifted = [RF_ZERO] + [a[m - 2].scaled(Scalar(-factorial(m))) for m in range(2, 11)]
        plain = [a[m - 1].scaled(Scalar(-factorial(m))) for m in range(1, 11)]
        for total in range(2, 11):
            for k in range(1, total):
                n = total - k
                left = bell_partial(total, k, shifted[:total])
                right = bell_partial(n, k, plain[: max(n - k + 1, 1)]).scaled(
                    Scalar(Fraction(factorial(total), factorial(n)))
                )
                assert left == right, (n, k)


EXACT = st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=12))
# Gaussian coefficients; negative exponents on the offshell symbols only.
LAURENT_TERM = st.tuples(
    st.builds(Scalar, EXACT, EXACT),
    st.lists(
        st.one_of(
            st.tuples(st.sampled_from([diffeo_coeff(1), mass_sq()]), st.integers(0, 3)),
            st.tuples(st.sampled_from([fixed_offshell(), edge_symbol({1, 2})]), st.integers(-3, 3)),
        ),
        max_size=3,
    ),
)
COEFF = st.one_of(
    st.just(RF_ZERO),
    st.lists(LAURENT_TERM, max_size=4).map(
        lambda terms: RationalFunction(Polynomial({Monomial(pairs): c for c, pairs in terms}))
    ),
)
SERIES = st.lists(COEFF, min_size=1, max_size=6).map(PowerSeries)


def product_by_pairs(f, g):
    """Oracle product: the plain double loop over the coefficients."""
    n = min(f.order, g.order)
    out = [RF_ZERO] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] = out[i + j] + f[i] * g[j]
    return PowerSeries(out)


class TestPowerSeriesProduct:
    @settings(max_examples=150, deadline=None)
    @given(SERIES, SERIES)
    def test_matches_pairwise_loop(self, f, g):
        assert f * g == product_by_pairs(f, g)

    @settings(max_examples=100, deadline=None)
    @given(SERIES)
    def test_cancelling_pairs_leave_zero(self, f):
        # f(t) f(-t): the pairs (i, m - i) of an odd m cancel.
        mirrored = PowerSeries([c.scaled(Scalar(-1)) if k % 2 else c for k, c in enumerate(f.coeffs)])
        product = f * mirrored
        assert product == product_by_pairs(f, mirrored)
        assert all(product[m].is_zero() for m in range(1, product.order + 1, 2))


# Smaller series for powers up to 40: two terms per coefficient at most.
SMALL_SERIES = st.lists(
    st.lists(LAURENT_TERM, max_size=2).map(
        lambda terms: RationalFunction(Polynomial({Monomial(pairs): c for c, pairs in terms}))
    ),
    min_size=1,
    max_size=4,
).map(PowerSeries)


class TestPowerSeriesPower:
    @settings(max_examples=60, deadline=None)
    @given(SMALL_SERIES, st.integers(0, 40))
    def test_matches_repeated_products(self, f, n):
        try:
            expect = power_by_loop(f, n, PowerSeries([RF_ONE] + [RF_ZERO] * f.order))
        except AlgebraError:
            with pytest.raises(AlgebraError):
                f**n
        else:
            assert f**n == expect

    def test_residual_makes_logarithmically_many_products(self, monkeypatch):
        # Square-and-multiply: about 2 log2(s - 1) series products, where
        # repeated products would make s - 1 of them.
        calls = []
        product = PowerSeries.__mul__
        monkeypatch.setattr(PowerSeries, "__mul__", lambda f, g: calls.append(1) or product(f, g))
        assert fc_functional_residual(30000, 10).is_zero()
        assert len(calls) <= 2 * (30000).bit_length()


class TestComposeInvert:
    def test_compose_with_identity(self):
        f = PowerSeries([RF_ZERO, rf(2), rf(diffeo_coeff(1)), rf(3)])
        assert compose(f, PowerSeries.identity(3)) == f

    def test_compose_requires_vanishing_inner_constant(self):
        with pytest.raises(AlgebraError):
            compose(PowerSeries.identity(3), PowerSeries([rf(1), rf(1), RF_ZERO, RF_ZERO]))

    def test_naive_oracle_agrees_symbolically(self):
        a1 = rf(diffeo_coeff(1))
        f = PowerSeries([RF_ZERO, RF_ZERO, rf(1), RF_ZERO, RF_ZERO])  # t^2
        g = PowerSeries([RF_ZERO, rf(1), a1, RF_ZERO, RF_ZERO])  # t + a1 t^2
        h = compose(f, g)
        assert h == compose_naive(f, g)
        assert h[2] == rf(1) and h[3] == a1.scaled(Scalar(2)) and h[4] == a1 * a1

    def test_invert_identity(self):
        assert invert(PowerSeries.identity(5)) == PowerSeries.identity(5)

    def test_invert_golden_coefficients(self):
        a1 = rf(diffeo_coeff(1))
        f = PowerSeries([RF_ZERO, rf(1), a1, RF_ZERO, RF_ZERO])
        g = invert(f)
        assert g[2] == a1.scaled(Scalar(-1))
        assert g[3] == (a1 * a1).scaled(Scalar(2))
        assert g[4] == (a1 * a1 * a1).scaled(Scalar(-5))

    def test_round_trip_symbolic(self):
        order = 7
        coeffs = [RF_ZERO, RF_ONE] + [rf(diffeo_coeff(j)) for j in range(1, order)]
        f = PowerSeries(coeffs)
        assert compose(invert(f), f) == PowerSeries.identity(order)
        assert compose(f, invert(f)) == PowerSeries.identity(order)

    def test_round_trip_random_rationals_fixed_seed(self):
        rng = random.Random(20250810)
        order = 10
        for _ in range(5):
            coeffs = [RF_ZERO, RF_ONE] + [
                rf(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(order - 1)
            ]
            f = PowerSeries(coeffs)
            g = invert(f)
            assert compose(g, f) == PowerSeries.identity(order)
            assert compose_naive(g, f) == PowerSeries.identity(order)

    def test_invert_requires_invertible_linear_term(self):
        with pytest.raises(AlgebraError):
            invert(PowerSeries([RF_ZERO, RF_ZERO, rf(1)]))

    def test_invert_with_non_unit_linear_coefficient(self):
        # f = 2t + t^2 inverts to t/2 - t^2/8 + t^3/16 - ...
        f = PowerSeries([RF_ZERO, rf(2), rf(1), RF_ZERO, RF_ZERO, RF_ZERO])
        g = invert(f)
        assert g[1] == rf(Fraction(1, 2))
        assert g[2] == rf(Fraction(-1, 8))
        assert g[3] == rf(Fraction(1, 16))
        assert compose(g, f) == PowerSeries.identity(5)


class TestFussCatalan:
    def test_m_zero_is_one(self):
        for a in range(4):
            for b in range(1, 4):
                assert fuss_catalan(0, a, b) == Scalar(1)

    def test_catalan_values(self):
        assert fuss_catalan(2, 2, 1) == Scalar(2)
        assert fuss_catalan(3, 2, 1) == Scalar(5)
        assert [fuss_catalan(m, 2, 1) for m in range(6)] == [
            Scalar(v) for v in (1, 1, 2, 5, 14, 42)
        ]

    def test_series_goldens(self):
        s = fc_series(2, 1, 4)
        assert [s[i] for i in range(5)] == [rf(v) for v in (1, 1, 2, 5, 14)]
        s0 = fc_series(0, 1, 6)
        assert [s0[i] for i in range(7)] == [rf(1), rf(1)] + [RF_ZERO] * 5

    def test_functional_equation(self):
        for a in (2, 3):
            assert fc_functional_residual(a, 10).is_zero()


class TestVertexCoefficients:
    def test_figure_goldens(self):
        a1, a2, a3 = (rf(diffeo_coeff(j)) for j in (1, 2, 3))
        f3, _, g3 = vertex_coefficients(3)
        assert f3 == a1.scaled(Scalar(2)) and g3.is_zero()
        f4, _, g4 = vertex_coefficients(4)
        assert f4 == a2.scaled(Scalar(6)) + (a1 * a1).scaled(Scalar(4))
        assert g4 == (a1 * a1).scaled(Scalar(4))
        f5, _, g5 = vertex_coefficients(5)
        assert f5 == a3.scaled(Scalar(24)) + (a1 * a2).scaled(Scalar(36))
        assert g5 == (a1 * a2).scaled(Scalar(60))

    def test_explicit_sum_form_agrees(self):
        for n in range(3, 9):
            _, _, g = vertex_coefficients(n)
            assert g == gn_explicit(n), n


class TestTreeSumClosedForm:
    def test_goldens(self):
        a1, a2 = rf(diffeo_coeff(1)), rf(diffeo_coeff(2))
        assert tree_sum_closed_form(1) == RF_ONE
        assert tree_sum_closed_form(2) == a1.scaled(Scalar(-2))
        assert tree_sum_closed_form(3) == (a1 * a1).scaled(Scalar(12)) + a2.scaled(Scalar(-6))

    def test_matches_inverse_series(self):
        for n in range(1, 9):
            assert tree_sum_closed_form(n) == inverse_series_tree_sums(8)[n], n
        assert tree_sum_closed_forms(8)[1:] == inverse_series_tree_sums(8)[1:]
        with pytest.raises(AlgebraError, match="indexed from 1"):
            tree_sum_closed_form(0)

    def test_every_list_is_indexed_by_the_leg_count(self):
        # Entry n is b_n, entry 0 none; an empty range leaves only entry 0.
        tuned = DiffeoSpec.tuned(3, 7).a
        for n in range(-1, 8):
            forms, tuned_forms = tree_sum_closed_forms(n), tree_sum_closed_forms(n, tuned)
            assert len(forms) == len(tuned_forms) == max(n, 0) + 1, n
            assert forms[0] is None and tuned_forms[0] is None, n
            for m in range(1, n + 1):
                assert forms[m] == tree_sum_closed_form(m), (n, m)
                assert tuned_forms[m] == tree_sum_closed_form(m, tuned), (n, m)
        assert inverse_series_tree_sums(0) == [RF_ZERO]
        assert inverse_series_tree_sums(-1) == []

    def test_contains_only_diffeo_symbols(self):
        for n in range(2, 8):
            kinds = {s.kind for s in tree_sum_closed_form(n).symbols()}
            assert kinds <= {Kind.DIFFEO}


class TestTunedCoefficients:
    def test_cubic_values(self):
        tuned = tuned_diffeo_coeffs(3, 4)
        lam, xp = rf(coupling(3)), rf(fixed_offshell())
        base = lam.scaled(Scalar(Fraction(1, 2))) * xp.inverse()
        assert tuned[1] == base
        assert tuned[2] == (base * base).scaled(Scalar(2))

    def test_quartic_zero_pattern(self):
        tuned = tuned_diffeo_coeffs(4, 6)
        lam, xp = rf(coupling(4)), rf(fixed_offshell())
        assert tuned[1].is_zero() and tuned[3].is_zero() and tuned[5].is_zero()
        assert tuned[2] == lam.scaled(Scalar(Fraction(1, 6))) * xp.inverse()
        base = tuned[2]
        assert tuned[4] == (base * base).scaled(Scalar(3))
        assert tuned[6] == (base * base * base).scaled(Scalar(12))

    def test_powers_past_max_j_leave_every_coefficient_zero(self):
        # Only multiples of s - 2 are nonzero; a power with s - 2 > max_j
        # needs no (s - 1)!, which keeps huge powers cheap.
        expect = dict.fromkeys(range(1, 8), RF_ZERO)
        assert tuned_diffeo_coeffs(2**200, 7) == expect
        expect[7] = rf(coupling(9)).scaled(Scalar(Fraction(1, factorial(8)))) * rf(fixed_offshell()).inverse()
        assert tuned_diffeo_coeffs(9, 7) == expect


class TestCouplingLinearClosedForm:
    def test_delta_structure(self):
        def closed_form(s, n):
            return sum(coupling_linear_terms(s, n)[n].values(), RF_ZERO)

        assert closed_form(3, 3) == rf(coupling(3)).scaled(Scalar(0, -1))
        assert closed_form(3, 4).is_zero()
        assert closed_form(4, 7).is_zero()

    @pytest.mark.parametrize("s", (3, 4))
    def test_one_call_reads_every_n(self, s):
        table = coupling_linear_terms(s, 8)
        assert sorted(table) == list(range(s, 9))
        for n, terms in table.items():
            assert terms == coupling_linear_terms(s, n)[n], n

    def test_needs_max_n_at_least_s(self):
        with pytest.raises(AlgebraError, match="n >= s"):
            coupling_linear_terms(4, 3)
