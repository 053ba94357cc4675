"""Vertex generators, propagators and the derivative-transformation
coefficients."""

import itertools
from fractions import Fraction
from math import factorial

import pytest

from diffeorules.algebra import (
    AlgebraError,
    Kind,
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
    ROOT,
    DiffeoSpec,
    NonlocalSpec,
    TheorySpec,
    canonical_subset,
    edge_var,
    free_vertex,
    generalized_vertex,
    interaction_vertex,
    nonlocal_beta,
    propagator,
    total_vertex,
    vertex_terms,
)

A1, A2, A3 = (rf(diffeo_coeff(j)) for j in (1, 2, 3))
I = Scalar(0, 1)


def singles(n, generalized=False):
    return [rf(edge_symbol(frozenset((j,)), generalized)) for j in range(1, n + 1)]


def sum_singles(n, generalized=False):
    total = RF_ZERO
    for x in singles(n, generalized):
        total = total + x
    return total


class TestCanonicalSubset:
    def test_rooted_drops_root_side(self):
        u = frozenset({ROOT, 1, 2, 3})
        assert canonical_subset({1, 2}, u) == frozenset({1, 2})
        assert canonical_subset({ROOT, 3}, u) == frozenset({1, 2})
        assert canonical_subset({1, 2, 3}, u) == frozenset({1, 2, 3})

    def test_unrooted_prefers_smaller_block(self):
        u = frozenset({1, 2, 3})
        assert canonical_subset({2, 3}, u) == frozenset({1})
        assert canonical_subset({2}, u) == frozenset({2})

    def test_unrooted_tie_breaks_toward_first_leg(self):
        u = frozenset({1, 2, 3, 4})
        assert canonical_subset({3, 4}, u) == frozenset({1, 2})
        assert canonical_subset({2, 3}, u) == frozenset({1, 4})
        assert canonical_subset({1, 3}, u) == frozenset({1, 3})

    def test_rejects_trivial_blocks(self):
        u = frozenset({1, 2})
        with pytest.raises(AlgebraError):
            canonical_subset(set(), u)
        with pytest.raises(AlgebraError):
            canonical_subset({1, 2}, u)


class TestFreeVertex:
    def test_three_valent(self):
        v = free_vertex(3, singles(3))
        assert v == (A1.scaled(Scalar(2)) * sum_singles(3)).scaled(I)

    def test_four_valent_with_mass_term(self):
        v = free_vertex(4, singles(4))
        coeff = A2.scaled(Scalar(6)) + (A1 * A1).scaled(Scalar(4))
        mass = (A1 * A1).scaled(Scalar(4)) * rf(mass_sq())
        assert v == (coeff * sum_singles(4) + mass).scaled(I)

    def test_five_valent(self):
        v = free_vertex(5, singles(5))
        coeff = A3.scaled(Scalar(24)) + (A1 * A2).scaled(Scalar(36))
        mass = (A1 * A2).scaled(Scalar(60)) * rf(mass_sq())
        assert v == (coeff * sum_singles(5) + mass).scaled(I)

    def test_two_point_is_not_a_vertex(self):
        with pytest.raises(AlgebraError):
            free_vertex(2, singles(2))

    def test_symmetric_under_leg_permutation(self):
        base = singles(4)
        v = free_vertex(4, base)
        for perm in itertools.permutations(base):
            assert free_vertex(4, list(perm)) == v


class TestInteractionVertex:
    FIG_VALUES = {
        (3, 3): lambda: rf(coupling(3)).scaled(Scalar(0, -1)),
        (4, 3): lambda: (rf(coupling(3)) * A1).scaled(Scalar(0, -12)),
        (5, 3): lambda: (rf(coupling(3)) * (A2 + A1 * A1)).scaled(Scalar(0, -60)),
        (3, 4): lambda: RF_ZERO,
        (4, 4): lambda: rf(coupling(4)).scaled(Scalar(0, -1)),
        (5, 4): lambda: (rf(coupling(4)) * A1).scaled(Scalar(0, -20)),
        (6, 4): lambda: (
            rf(coupling(4)) * (A2.scaled(Scalar(2)) + (A1 * A1).scaled(Scalar(3)))
        ).scaled(Scalar(0, -60)),
    }

    @pytest.mark.parametrize("n,s", sorted(FIG_VALUES))
    def test_figure_goldens(self, n, s):
        assert interaction_vertex(n, s) == self.FIG_VALUES[(n, s)]()

    def test_momentum_independent(self):
        for n in range(3, 8):
            for s in (3, 4):
                kinds = {sym.kind for sym in interaction_vertex(n, s).symbols()}
                assert Kind.EDGE not in kinds and Kind.MASS_SQ not in kinds


class TestTotalVertex:
    def test_free_theory_reduces_to_free_vertex(self):
        assert total_vertex(4, singles(4), TheorySpec.free()) == free_vertex(4, singles(4))

    def test_cubic_theory_three_point(self):
        v = total_vertex(3, singles(3), TheorySpec.standard(3))
        expect = free_vertex(3, singles(3)) + interaction_vertex(3, 3)
        assert v == expect
        assert v == (A1.scaled(Scalar(2)) * sum_singles(3)).scaled(I) - rf(coupling(3)).scaled(
            Scalar(0, 1)
        )

    def test_two_interactions_superpose(self):
        v = total_vertex(4, singles(4), TheorySpec.standard(3, 4))
        expect = free_vertex(4, singles(4)) + interaction_vertex(4, 3) + interaction_vertex(4, 4)
        assert v == expect

    def test_rejects_generalized(self):
        with pytest.raises(AlgebraError):
            total_vertex(3, singles(3), TheorySpec.generalized_free())


class TestGeneralizedVertex:
    def test_three_valent_matches_display_form(self):
        legs = frozenset({1, 2, 3})
        v = generalized_vertex([frozenset((j,)) for j in legs], legs, generalized=True)
        assert v == (A1.scaled(Scalar(2)) * sum_singles(3, True)).scaled(I)

    def test_four_valent_pair_terms(self):
        legs = frozenset({1, 2, 3, 4})
        v = generalized_vertex([frozenset((j,)) for j in legs], legs, generalized=True)
        pair_sum = (
            edge_var({1, 2}, legs, generalized=True)
            + edge_var({1, 3}, legs, generalized=True)
            + edge_var({2, 3}, legs, generalized=True)
        )
        expect = (
            A2.scaled(Scalar(6)) * sum_singles(4, True)
            + (A1 * A1).scaled(Scalar(4)) * pair_sum
        ).scaled(I)
        assert v == expect

    def test_five_valent_has_ten_pair_summands(self):
        legs = frozenset(range(1, 6))
        v = generalized_vertex([frozenset((j,)) for j in legs], legs, generalized=True)
        pair_terms = [
            rec for rec in vertex_terms(v) if rec["edges"] and len(rec["edges"][0]) == 2
        ]
        assert len(pair_terms) == 10

    def test_symmetry_under_leg_permutation(self):
        legs = frozenset(range(1, 5))
        v = generalized_vertex([frozenset((j,)) for j in (3, 1, 4, 2)], legs, generalized=True)
        assert v == generalized_vertex([frozenset((j,)) for j in (1, 2, 3, 4)], legs, generalized=True)

    def test_blocks_must_partition_universe(self):
        legs = frozenset({1, 2, 3})
        with pytest.raises(AlgebraError):
            generalized_vertex([frozenset({1}), frozenset({1, 2})], legs)


def oracle_vertex(blocks, universe, diffeo, generalized):
    """The subset-sum rule built one rational-function addition per subset."""
    n = len(blocks)
    total = RF_ZERO
    for size in range(1, n):
        coeff = diffeo.a(n - size - 1) * diffeo.a(size - 1)
        subset_sum = RF_ZERO
        for choice in itertools.combinations(blocks, size):
            union = frozenset().union(*choice)
            subset_sum = subset_sum + edge_var(union, universe, generalized=generalized)
        weight = Scalar(Fraction(factorial(n - size) * factorial(size), 2))
        total = total + (coeff * subset_sum).scaled(weight)
    return total.scaled(I)


def vertex_cases(n):
    """(blocks, universe, onshell) triples at valence ``n``: all single legs
    and two two-leg blocks, rooted and unrooted, with no, some and every leg
    onshell."""
    for multi in (False, True):
        legs = list(range(1, n + 3 if multi else n + 1))
        blocks = [frozenset(legs[:2]), frozenset(legs[2:4])] if multi else []
        blocks += [frozenset((j,)) for j in legs[4 if multi else 0:]]
        for rooted in (False, True):
            universe = frozenset(legs) | ({ROOT} if rooted else set())
            parts = blocks[:-1] + [blocks[-1] | {ROOT}] if rooted else blocks
            for onshell in (frozenset(), frozenset(legs[::2]), frozenset(legs)):
                yield parts, universe, onshell


class TestVertexWeightTable:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_the_rational_function_oracle(self, n):
        # a1 = 0 zeroes the weights of the sizes 2 and n - 2 (and so every
        # size at n = 3).
        skipping = DiffeoSpec.from_bindings(
            {1: rf(0), 2: A2, **{j: rf(Fraction(j + 1, 3)) for j in range(3, n)}}
        )
        for diffeo in (DiffeoSpec.symbolic(), DiffeoSpec.tuned(3, n), skipping):
            for blocks, universe, onshell in vertex_cases(n):
                for gen in (False, True):
                    zeros = {edge_symbol(frozenset((j,)), gen): RF_ZERO for j in onshell}
                    got = generalized_vertex(blocks, universe, diffeo=diffeo, generalized=gen)
                    want = oracle_vertex(blocks, universe, diffeo, gen)
                    assert got == want and str(got) == str(want)
                    got, want = got.substitute(zeros), want.substitute(zeros)
                    assert got == want and str(got) == str(want)

    def test_integer_spec_is_polynomial_and_tuned_spec_has_an_xp_denominator(self):
        legs = frozenset(range(1, 6))
        blocks = [frozenset((j,)) for j in legs]
        integral = DiffeoSpec.from_bindings({j: rf(j) for j in range(1, 4)})
        assert generalized_vertex(blocks, legs, diffeo=integral).den.is_one()
        tuned = generalized_vertex(blocks, legs, diffeo=DiffeoSpec.tuned(3, 5))
        assert fixed_offshell() in tuned.den.symbols()


class TestPropagator:
    def test_rooted_pair(self):
        u = frozenset({ROOT, 1, 2})
        assert str(propagator({1, 2}, u)) == "i/x{1+2}"

    def test_generalized_full_set(self):
        u = frozenset({ROOT, 1, 2, 3})
        assert str(propagator({1, 2, 3}, u, generalized=True)) == "i/X{1+2+3}"

    def test_inverse_identity(self):
        u = frozenset({ROOT, 1, 2})
        p = propagator({1, 2}, u)
        var = rf(edge_symbol({1, 2}))
        assert p * var.scaled(Scalar(0, -1)) == rf(1)


class TestNonlocalBeta:
    def test_identity_transform_recovers_standard_theory(self):
        spec = NonlocalSpec(alpha={})
        msq = rf(mass_sq())
        assert nonlocal_beta(0, spec) == msq.scaled(Scalar(-1))
        assert nonlocal_beta(1, spec) == rf(1)
        assert nonlocal_beta(2, spec).is_zero()
        assert nonlocal_beta(5, spec).is_zero()

    def test_first_order_symbolic(self):
        c = rf(generic_symbol("c"))
        msq = rf(mass_sq())
        spec = NonlocalSpec(alpha={1: c})
        assert nonlocal_beta(0, spec) == msq.scaled(Scalar(-1))
        assert nonlocal_beta(1, spec) == rf(1) - (c * msq).scaled(Scalar(2))
        assert nonlocal_beta(2, spec) == c.scaled(Scalar(2)) - c * c * msq
        assert nonlocal_beta(3, spec) == c * c
        assert nonlocal_beta(4, spec).is_zero()

    def test_rejects_non_unit_alpha0(self):
        with pytest.raises(AlgebraError):
            NonlocalSpec(alpha={0: rf(2)})

    def test_induced_theory_is_generalized(self):
        spec = NonlocalSpec(alpha={1: rf(generic_symbol("c"))})
        theory = spec.induced_theory()
        assert theory.generalized


class TestDiffeoSpec:
    def test_symbolic_accessor(self):
        d = DiffeoSpec.symbolic()
        assert d.a(0) == rf(1)
        assert d.a(5) == rf(diffeo_coeff(5))

    def test_bound_accessor_errors_beyond_range(self):
        d = DiffeoSpec.from_bindings({1: rf(2)})
        assert d.a(1) == rf(2)
        with pytest.raises(AlgebraError):
            d.a(2)
