"""Exact point evaluation: ``RationalFunction.evaluate``, the decoded
``RationalFunction.evaluator`` and ``evaluate_at_kinematics`` against exact
substitution, their errors, and the printing of values whose numerator
leaves the packed exponent range."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffeorules.algebra import (
    EXPONENT_MAX,
    EXPONENT_MIN,
    AlgebraError,
    DenominatorAnnihilationError,
    Monomial,
    Polynomial,
    RationalFunction,
    Scalar,
    coupling,
    diffeo_coeff,
    edge_symbol,
    fixed_offshell,
    mass_sq,
    rf,
)
from diffeorules.trees import evaluate_at_kinematics, kinematic_point, random_conserving_momenta

A1, A2, LAM3, MSQ, XP = diffeo_coeff(1), diffeo_coeff(2), coupling(3), mass_sq(), fixed_offshell()
X1, X2, X12 = edge_symbol({1}), edge_symbol({2}), edge_symbol({1, 2})
PLAIN = (A1, A2, LAM3, MSQ)
OFFSHELL = (XP, X1, X2, X12, edge_symbol({1}, True), edge_symbol({2, 3}, True))

EXACT = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)
GAUSSIAN = st.builds(Scalar, EXACT, EXACT)


def laurent(offshell, plain=()):
    """Values with negative exponents on the ``offshell`` symbols only."""
    exponents = [st.tuples(st.just(s), st.integers(0, 3)) for s in plain]
    exponents += [st.tuples(st.just(s), st.integers(-3, 3)) for s in offshell]
    term = st.tuples(GAUSSIAN, st.lists(st.one_of(*exponents), max_size=4))
    return st.lists(term, max_size=6).map(
        lambda terms: RationalFunction(Polynomial({Monomial(pairs): c for c, pairs in terms}))
    )


def oracle(r, values):
    return r.substitute({s: rf(v) for s, v in values.items()}).constant_value()


def outcome(fn, *args, **kwargs):
    """The value, or the class and message of the error."""
    try:
        return fn(*args, **kwargs)
    except AlgebraError as exc:
        return type(exc), str(exc)


class TestEvaluate:
    @settings(max_examples=150, deadline=None)
    @given(
        laurent(OFFSHELL, PLAIN),
        st.fixed_dictionaries({s: EXACT for s in PLAIN + OFFSHELL}),
    )
    def test_agrees_with_substitution(self, r, values):
        assert outcome(r.evaluate, values) == outcome(oracle, r, values)

    @settings(max_examples=100, deadline=None)
    @given(laurent(OFFSHELL, PLAIN), st.sampled_from(PLAIN + OFFSHELL))
    def test_an_unbound_symbol_raises(self, r, missing):
        values = {s: 1 for s in PLAIN + OFFSHELL if s is not missing}
        if missing in r.symbols():
            with pytest.raises(AlgebraError, match=re.escape(f"no value bound for symbol {missing.name}")):
                r.evaluate(values)
        else:
            assert r.evaluate(values) == oracle(r, values)

    def test_zero_denominator_names_the_first_symbol(self):
        r = rf(X12).inverse() + rf(X1).inverse() + rf(XP)
        for values, first in (({X1: 0, X12: 0, XP: 2}, X1), ({X1: 3, X12: 0, XP: 0}, X12)):
            with pytest.raises(DenominatorAnnihilationError) as err:
                r.evaluate(values)
            assert err.value.symbol is first
            assert outcome(r.evaluate, values) == outcome(oracle, r, values)

    def test_values_must_be_exact(self):
        for value in (0.5, True, "1"):
            with pytest.raises(AlgebraError, match="value of x1 must be an int or Fraction"):
                rf(X1).evaluate({X1: value})

    def test_zero_and_constant_values(self):
        assert RationalFunction(Polynomial()).evaluate({}) == Scalar(0)
        assert rf(Scalar(Fraction(1, 3), -2)).evaluate({}) == Scalar(Fraction(1, 3), -2)

    def test_exponents_at_both_ends_of_the_field_range(self):
        pole = RationalFunction(Polynomial.constant(1), Monomial.of(X1)) ** -EXPONENT_MIN
        r = pole.scaled(Scalar(0, 3)) + rf(X12) ** EXPONENT_MAX
        values = {X1: Fraction(-2, 3), X12: Fraction(5, 7)}
        assert r.evaluate(values) == oracle(r, values)
        assert r.evaluate(values) == Scalar(Fraction(5, 7) ** EXPONENT_MAX, 3 * Fraction(-3, 2) ** 64)


class TestEvaluator:
    """One decoded value, ``r.evaluator()``, used at many points."""

    VALUE = (
        (rf(A1) * rf(X12) ** 2 * rf(X1).inverse()).scaled(Scalar(Fraction(2, 3), -5))
        + (rf(MSQ) * rf(A2) * rf(XP).inverse() ** 3).scaled(Scalar(0, Fraction(-7, 4)))
        + (rf(LAM3) ** 2 * rf(X2) * rf(X12).inverse()).scaled(Scalar(3, 1))
        + rf(Scalar(Fraction(1, 6), 2))
    )

    def test_agrees_with_substitution_at_many_points(self):
        rng = random.Random(3)
        at = self.VALUE.evaluator()
        outcomes = []
        for _ in range(60):
            values = {s: Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for s in OFFSHELL + PLAIN}
            values[A1] = rng.randint(-3, 3)  # an int value too
            outcomes.append(outcome(at, values))
            assert outcomes[-1] == outcome(oracle, self.VALUE, values)
        # Both kinds of outcome occur: values, and a zero denominator named
        # by the first zero symbol in the symbol order.
        annihilated = [o for o in outcomes if isinstance(o, tuple)]
        assert 0 < len(annihilated) < 30
        assert {o[0] for o in annihilated} == {DenominatorAnnihilationError}

    def test_an_unbound_symbol_is_the_first_the_terms_use(self):
        # As the terms are stored, each one's symbols by field offset.
        at = self.VALUE.evaluator()
        order = []
        for mono in self.VALUE.poly.terms:
            for sym in sorted((s for s, _ in mono.pairs), key=lambda s: int(s.unit)):
                if sym not in order:
                    order.append(sym)
        rng = random.Random(4)
        for _ in range(20):
            missing = rng.sample(order, rng.randint(1, 3))
            values = {s: Fraction(rng.randint(1, 4), rng.randint(1, 3)) for s in order if s not in missing}
            first = next(s for s in order if s in missing)
            with pytest.raises(AlgebraError, match=re.escape(f"no value bound for symbol {first.name}")) as err:
                at(values)
            assert type(err.value) is AlgebraError

    def test_evaluate_is_one_decode_and_one_sum(self):
        values = {s: Fraction(j + 1, 3) for j, s in enumerate(OFFSHELL + PLAIN)}
        at = self.VALUE.evaluator()
        assert at(values) == at(values) == self.VALUE.evaluate(values) == oracle(self.VALUE, values)


def old_table(r, momenta, m2):
    """The point as sums of Fractions, one dimension at a time; a
    generalized edge variable has no value and is left out."""
    table = {}
    for sym in r.symbols():
        if sym.kind.name == "MASS_SQ":
            table[sym] = m2
        elif sym.key[1] == 0:
            q = [sum(Fraction(momenta[i - 1][d]) for i in sym.meta) for d in range(len(momenta[0]))]
            table[sym] = q[0] * q[0] - sum(c * c for c in q[1:]) - m2
    return table


KINEMATIC = (
    X1,
    X2,
    X12,
    edge_symbol({3}),
    edge_symbol({1, 3}),
    edge_symbol({2, 3, 4}),
    edge_symbol({1}, True),
    edge_symbol({1, 2}, True),
    edge_symbol({1, 2, 3, 4}, True),
)


@st.composite
def conserving_momenta(draw):
    dimension = draw(st.integers(2, 5))
    momenta = [tuple(draw(EXACT) for _ in range(dimension)) for _ in range(3)]
    momenta.append(tuple(-sum(p[d] for p in momenta) for d in range(dimension)))
    return momenta


class TestKinematicPoint:
    @settings(max_examples=150, deadline=None)
    @given(laurent(KINEMATIC, (MSQ,)), conserving_momenta(), EXACT)
    def test_agrees_with_substitution_at_fraction_sums(self, r, momenta, m2):
        # The symbols are read in sorted order, and the first that has no
        # value, or annihilates a denominator, is the one refused.
        got = outcome(evaluate_at_kinematics, r, momenta, m2)
        table = old_table(r, momenta, m2)
        refused = [s for s in sorted(r.symbols()) if s not in table or (not table[s] and r.den.exponent(s))]
        if refused and refused[0] not in table:
            assert got == (AlgebraError, f"generalized edge variable {refused[0].name} has no kinematic value")
        elif refused:
            assert got == (AlgebraError, f"kinematic point annihilates the edge denominator {refused[0].name}")
        else:
            assert got == oracle(r, table)
            assert kinematic_point(r)(momenta, m2) == table

    def test_int_momenta(self):
        momenta = [(3, 1, 0), (-1, 2, 2), (-2, -3, -2)]
        r = rf(X12) * rf(X1) + rf(MSQ).scaled(Scalar(0, 2)) + rf(edge_symbol({2, 3})).inverse()
        assert evaluate_at_kinematics(r, momenta, 2) == oracle(r, old_table(r, momenta, 2))
        assert kinematic_point(r)(momenta, 2)[X1] == 9 - 1 - 2

    @pytest.mark.parametrize("legs", [{0}, {4}, {0, 1}, {2, 4}])
    def test_leg_labels_outside_the_momenta(self, legs):
        momenta = random_conserving_momenta(3, 4, random.Random(1))
        sym = edge_symbol(legs)
        with pytest.raises(AlgebraError, match=re.escape(f"no momentum supplied for edge variable {sym.name}")):
            evaluate_at_kinematics(rf(sym), momenta, 1)

    @pytest.mark.parametrize(
        "momenta, m2",
        [
            ([(0.5, 0), (-0.5, 0)], 0),
            ([(Fraction(1, 2), 0), (Fraction(-1, 2), 0.0)], 0),
            ([(Fraction(1, 2), 0), (Fraction(-1, 2), 0)], 0.25),
            ([("1", 0), ("-1", 0)], 0),
        ],
    )
    def test_inexact_components_rejected(self, momenta, m2):
        with pytest.raises(AlgebraError, match="must be an int or Fraction|must be int or Fraction"):
            evaluate_at_kinematics(rf(X1), momenta, m2)

    @pytest.mark.parametrize(
        "r, momenta, message",
        [
            (rf(A1) + rf(X1), None, "unbound non-kinematic symbol a1"),
            (rf(edge_symbol({5})), None, "no momentum supplied for edge variable x5"),
            (rf(edge_symbol({1}, True)), None, "generalized edge variable X1 has no kinematic value"),
            (rf(X1), [(1, 0, 0, 0)] * 2, "momenta do not conserve: component sums must vanish"),
            (rf(X1), [], "need at least one momentum"),
            (rf(X1), [(1,), (-1,)], "momenta must share a dimension >= 2"),
            (
                rf(X12).inverse(),
                [(1, 1, 0, 0), (-1, -1, 0, 0), (1, 0, 1, 0), (-1, 0, -1, 0)],
                "kinematic point annihilates the edge denominator x{1+2}",
            ),
        ],
        ids=["unbound a1", "missing momentum", "no beta", "conservation", "no momenta", "dimension", "annihilated"],
    )
    def test_errors(self, r, momenta, message):
        momenta = random_conserving_momenta(4, 4, random.Random(2)) if momenta is None else momenta
        assert outcome(evaluate_at_kinematics, r, momenta, 0) == (AlgebraError, message)


class TestPrinting:
    """``str`` of a value with a denominator lifts each term by the
    denominator; the numerator's exponents may pass ``EXPONENT_MAX``."""

    def test_mixed_signs_and_the_x64_readback(self):
        pole = RationalFunction(Polynomial.constant(1), Monomial.of(X1)) ** -EXPONENT_MIN
        r = (
            rf(A1) * rf(X12) ** EXPONENT_MAX
            + pole.scaled(Scalar(Fraction(-3, 2)))
            + (rf(X2) * rf(X12).inverse()).scaled(Scalar(0, 1))
            + rf(MSQ)
        )
        assert str(r) == (
            "(a1*x1^64*x{1+2}^64+msq*x1^64*x{1+2}+i*x1^64*x2-3/2*x{1+2})/(x1^64*x{1+2})"
        )

    @settings(max_examples=100, deadline=None)
    @given(laurent(OFFSHELL, PLAIN))
    def test_matches_numerator_over_denominator(self, r):
        num, den = r.num, r.den  # in range: exponents here are at most 6
        expect = str(num) if den.is_one() else (
            (f"({num})" if len(num.terms) > 1 else str(num))
            + "/"
            + (f"({den})" if len(den.pairs) > 1 else str(den))
        )
        assert str(r) == expect
