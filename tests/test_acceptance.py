"""Acceptance gate: every criterion checked exactly (rational arithmetic,
zero tolerance), printing one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from oracles import compose, compose_naive

from diffeorules.algebra import (
    Kind,
    RF_MINUS_I,
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
from diffeorules.rules import (
    DiffeoSpec,
    NonlocalSpec,
    TheorySpec,
    edge_var,
    free_vertex,
    generalized_vertex,
    interaction_vertex,
    nonlocal_beta,
)
from diffeorules.series import (
    PowerSeries,
    coupling_linear_terms,
    fc_functional_residual,
    inverse_series_tree_sums,
    invert,
    tree_sum_closed_form,
)
from diffeorules.trees import (
    amputated_tree_sum,
    coupling_linear_tree_sum,
    evaluate_at_kinematics,
    interacting_rooted_tree_sum,
    random_conserving_momenta,
    recursive_tree_sum,
    rooted_tree_sum,
    symmetrized_one_offshell_sum,
    vertex_pair_edge_coefficient,
)
from diffeorules.verify import check_bn, check_interaction_cancellation

A1, A2, A3 = (rf(diffeo_coeff(j)) for j in (1, 2, 3))
LAM3, LAM4 = rf(coupling(3)), rf(coupling(4))
I = Scalar(0, 1)


def announce(number, text):
    print(f"PASS criterion {number}: {text}")


def xe(*legs, generalized=False):
    return rf(edge_symbol(frozenset(legs), generalized))


def sum_singles(n, generalized=False):
    total = RF_ZERO
    for j in range(1, n + 1):
        total = total + xe(j, generalized=generalized)
    return total


def timed(fn):
    start = time.monotonic()
    value = fn()
    return value, time.monotonic() - start


def test_criterion_1_worked_example_goldens():
    goldens = []

    def check(label, fn, expect):
        value, seconds = timed(fn)
        assert value == expect, f"golden {label} mismatch: {value}"
        assert seconds < 1.0, f"golden {label} took {seconds:.2f}s"
        goldens.append(label)

    check("b2", lambda: rooted_tree_sum(2).value, A1.scaled(Scalar(-2)))
    check(
        "b3",
        lambda: rooted_tree_sum(3).value,
        (A1 * A1).scaled(Scalar(12)) + A2.scaled(Scalar(-6)),
    )
    singles = lambda n: [xe(j) for j in range(1, n + 1)]
    check(
        "iv3",
        lambda: free_vertex(3, singles(3)),
        (A1.scaled(Scalar(2)) * sum_singles(3)).scaled(I),
    )
    check(
        "iv4",
        lambda: free_vertex(4, singles(4)),
        (
            (A2.scaled(Scalar(6)) + (A1 * A1).scaled(Scalar(4))) * sum_singles(4)
            + (A1 * A1).scaled(Scalar(4)) * rf(mass_sq())
        ).scaled(I),
    )
    check(
        "iv5",
        lambda: free_vertex(5, singles(5)),
        (
            (A3.scaled(Scalar(24)) + (A1 * A2).scaled(Scalar(36))) * sum_singles(5)
            + (A1 * A2).scaled(Scalar(60)) * rf(mass_sq())
        ).scaled(I),
    )
    fig3 = {
        (3, 3): LAM3.scaled(Scalar(0, -1)),
        (4, 3): (LAM3 * A1).scaled(Scalar(0, -12)),
        (5, 3): (LAM3 * (A2 + A1 * A1)).scaled(Scalar(0, -60)),
        (4, 4): LAM4.scaled(Scalar(0, -1)),
        (5, 4): (LAM4 * A1).scaled(Scalar(0, -20)),
        (6, 4): (LAM4 * (A2.scaled(Scalar(2)) + (A1 * A1).scaled(Scalar(3)))).scaled(Scalar(0, -60)),
    }
    for (n, s), expect in fig3.items():
        check(f"w{n}^({s})", lambda n=n, s=s: interaction_vertex(n, s), expect)
    check("w3^(4)", lambda: interaction_vertex(3, 4), RF_ZERO)

    b2, b3 = tree_sum_closed_form(2), tree_sum_closed_form(3)
    check(
        "b'2",
        lambda: interacting_rooted_tree_sum(2, 3).value,
        b2 + LAM3 * xe(1, 2).inverse(),
    )
    pair_poles3 = xe(1, 2).inverse() + xe(1, 3).inverse() + xe(2, 3).inverse()
    check(
        "b'3",
        lambda: interacting_rooted_tree_sum(3, 3).value,
        b3 + (b2 + LAM3 * xe(1, 2, 3).inverse()) * LAM3 * pair_poles3,
    )
    b4 = tree_sum_closed_form(4)
    pairs4 = RF_ZERO
    for pair in combinations(range(1, 5), 2):
        pairs4 = pairs4 + xe(*pair).inverse()
    parallel = RF_ZERO
    for left, right in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))):
        parallel = parallel + (xe(*left) * xe(*right)).inverse()
    cascades = RF_ZERO
    for trip in combinations(range(1, 5), 3):
        for pair in combinations(trip, 2):
            cascades = cascades + (xe(*trip) * xe(*pair)).inverse()
    bprime4 = (
        b4
        + b3 * LAM3 * pairs4
        + (b2 + LAM3 * xe(1, 2, 3, 4).inverse()) * (LAM3 * LAM3) * (parallel + cascades)
    )
    check("b'4", lambda: interacting_rooted_tree_sum(4, 3).value, bprime4)

    check(
        "A1_4",
        lambda: symmetrized_one_offshell_sum(4),
        RF_MINUS_I * b3 * sum_singles(4),
    )
    poles = RF_ZERO
    for pair in ((1, 2), (1, 3), (1, 4)):
        comp = tuple(sorted(set(range(1, 5)) - set(pair)))
        poles = poles + (xe(pair[0]) + xe(pair[1])) * (xe(comp[0]) + xe(comp[1])) * xe(*pair).inverse()
    check(
        "A4_4",
        lambda: amputated_tree_sum(4, range(1, 5)).value,
        RF_MINUS_I * b3 * sum_singles(4) + RF_MINUS_I * (b2 * b2) * poles,
    )
    legs4 = frozenset(range(1, 5))
    gen_pairs = (
        edge_var({1, 2}, legs4, generalized=True)
        + edge_var({1, 3}, legs4, generalized=True)
        + edge_var({2, 3}, legs4, generalized=True)
    )
    check(
        "generalized iv4",
        lambda: generalized_vertex([frozenset((j,)) for j in legs4], legs4, generalized=True),
        (
            A2.scaled(Scalar(6)) * sum_singles(4, generalized=True)
            + (A1 * A1).scaled(Scalar(4)) * gen_pairs
        ).scaled(I),
    )
    announce(1, f"{len(goldens)} worked-example goldens match exactly (<1 s each)")


def test_criterion_2_tree_sum_constancy_and_closed_form():
    for n in range(2, 8):
        enumerated = rooted_tree_sum(n).value
        closed = tree_sum_closed_form(n)
        from_series = inverse_series_tree_sums(7)[n]
        assert enumerated == closed == from_series, n
        kinds = {s.kind for s in enumerated.symbols()}
        assert Kind.EDGE not in kinds and Kind.MASS_SQ not in kinds, n
    announce(2, "enumerated b_n = closed form = series inverse for n <= 7, constants only")


def test_criterion_3_onshell_and_one_offshell_sums():
    for n in range(3, 8):
        assert amputated_tree_sum(n, ()).value.is_zero(), n
        b = tree_sum_closed_form(n - 1)
        total = RF_ZERO
        for j in range(1, n + 1):
            single = amputated_tree_sum(n, {j}).value
            assert single == RF_MINUS_I * b * xe(j), (n, j)
            total = total + single
        assert total == RF_MINUS_I * b * sum_singles(n), n
    announce(3, "A0_n = 0 and A1_n = -i b_{n-1} sum(x) for 3 <= n <= 7")


def test_criterion_4_interaction_cancellation_to_n8():
    for s in (3, 4):
        lam = rf(coupling(s))
        for n in range(s, 9):
            result = coupling_linear_tree_sum(n, s)
            formula = sum(coupling_linear_terms(s, n)[n].values(), RF_ZERO)
            expect = RF_MINUS_I * lam if n == s else RF_ZERO
            assert result.value == expect, (s, n)
            assert formula == expect, (s, n)
            # term-by-term before the delta collapses
            from diffeorules.series import bell_partial
            from math import factorial

            diffeo = DiffeoSpec.symbolic()
            for k in range(s, n + 1):
                left = bell_partial(
                    k, s, [diffeo.a(m - 1).scaled(Scalar(factorial(m))) for m in range(1, k - s + 2)]
                )
                right = bell_partial(
                    n, k, [tree_sum_closed_form(j) for j in range(1, n - k + 2)]
                )
                term = left * right * lam * RF_MINUS_I
                assert result.metadata["by_valence"].get(k, RF_ZERO) == term, (s, n, k)
    announce(4, "S^(s)_n = -i lambda_s delta_{ns} for s in {3,4}, n <= 8, term-by-term")


def test_criterion_5_bprime_mode_agreement():
    for n in range(1, 7):
        enum = interacting_rooted_tree_sum(n, 3, mode="all_vertices").value
        glued = interacting_rooted_tree_sum(n, 3, mode="s_only").value
        assert enum == glued, n
    announce(5, "all-vertex and reduced b'_n modes agree for s = 3, n <= 6")


def test_criterion_6_tuned_diffeomorphism():
    xp = rf(fixed_offshell())
    for s in (3, 4):
        tuned = DiffeoSpec.tuned(s, 7)
        lam = rf(coupling(s))
        for k in range(2, 8):
            expect = lam.scaled(Scalar(-1)) * xp.inverse() if k == s - 1 else RF_ZERO
            assert tree_sum_closed_form(k, tuned.a) == expect, (s, k)
            assert rooted_tree_sum(k, tuned).value == expect, (s, k)
        for n in range(2, 8):
            value = interacting_rooted_tree_sum(n, s, tuned).value
            root = edge_symbol(frozenset(range(1, n + 1)))
            assert value.substitute({root: xp}).is_zero(), (s, n)
        assert fc_functional_residual(s - 1, 10).is_zero(), s
    announce(6, "tuned coefficients: b_k pattern, b'_n(xp) = 0 for n <= 7, FC residual zero")


def test_criterion_7_generalized_propagator():
    theory = TheorySpec.generalized_free()
    for n in range(3, 7):
        b = tree_sum_closed_form(n - 1)
        for j in (1, n):
            value = amputated_tree_sum(n, {j}, theory).value
            assert value == RF_MINUS_I * b * xe(j, generalized=True), (n, j)
        kinds = {s.kind for s in b.symbols()}
        assert kinds <= {Kind.DIFFEO}
    for j in range(3, 6):
        for k in range(3, 6):
            assert vertex_pair_edge_coefficient(j, k).is_zero(), (j, k)
    for n in range(1, 7):
        assert recursive_tree_sum(n, generalized=True) == rooted_tree_sum(
            n, theory=theory
        ).value, n
    announce(7, "generalized propagator: A1 shape (n <= 6), edge cancellation, recursion")


def test_criterion_8_nonlocal_transformation():
    identity = NonlocalSpec(alpha={})
    assert nonlocal_beta(0, identity) == rf(mass_sq()).scaled(Scalar(-1))
    assert nonlocal_beta(1, identity) == RF_ONE
    symbolic = NonlocalSpec(alpha={1: rf(generic_symbol("c"))})
    theory = symbolic.induced_theory()
    assert theory.generalized
    for n in range(3, 7):
        b = tree_sum_closed_form(n - 1)
        value = amputated_tree_sum(n, {1}, theory).value
        assert value == RF_MINUS_I * b * xe(1, generalized=True), n
    for j in range(3, 6):
        for k in range(3, 6):
            assert vertex_pair_edge_coefficient(j, k).is_zero(), (j, k)
    for n in range(1, 7):
        assert recursive_tree_sum(n, generalized=True) == rooted_tree_sum(n, theory=theory).value
    announce(8, "beta recovers (-msq, 1) and the induced theory passes the generalized suite")


def test_criterion_9_kinematic_oracle():
    rng = random.Random(20250810)
    legs4 = frozenset(range(1, 5))
    identity = (
        edge_var({1, 2}, legs4) + edge_var({1, 3}, legs4) + edge_var({2, 3}, legs4)
        - rf(mass_sq())
    )
    for j in range(1, 5):
        identity = identity - edge_var({j}, legs4)
    for n in (3, 4, 5):
        legs = frozenset(range(1, n + 1))
        for _ in range(50):
            bindings = {
                j: rf(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for j in range(1, n - 1)
            }
            diffeo = DiffeoSpec.from_bindings(bindings) if bindings else DiffeoSpec.symbolic()
            momenta = random_conserving_momenta(n, 4, rng)
            m2 = Fraction(rng.randint(0, 5), rng.randint(1, 3))
            display = free_vertex(n, [xe(j) for j in range(1, n + 1)], diffeo)
            subset = generalized_vertex(
                [frozenset((j,)) for j in range(1, n + 1)], legs, diffeo=diffeo
            )
            assert evaluate_at_kinematics(display, momenta, m2) == evaluate_at_kinematics(
                subset, momenta, m2
            ), n
            if n == 4:
                assert evaluate_at_kinematics(identity, momenta, m2).is_zero()
    announce(9, "vertex forms agree at 50 exact conserving points for n in {3,4,5} in D = 4")


def test_criterion_10_property_suite_and_fault_injection():
    rng = random.Random(31415)
    order = 10
    for _ in range(5):
        coeffs = [RF_ZERO, RF_ONE] + [
            rf(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(order - 1)
        ]
        f = PowerSeries(coeffs)
        g = invert(f)
        assert compose(g, f) == PowerSeries.identity(order)
        assert compose_naive(g, f) == PowerSeries.identity(order)

    def tamper(n, value):
        return value + rf(generic_symbol("injected_fault")) if n == 3 else value

    report = check_bn(max_n=4, tamper=tamper)
    assert report.status == "fail"
    assert report.witness and report.witness["n"] == 3 and report.witness["residual"]
    report2 = check_interaction_cancellation(s=3, max_n=4, tamper=tamper)
    assert report2.status == "fail" and report2.witness
    announce(10, "series round-trip to order 10 (fixed seed); fault injection fails with witness")
