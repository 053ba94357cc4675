"""Tree enumeration, decorated amplitudes, exact tree sums and kinematics."""

import random
from fractions import Fraction
from itertools import combinations
from math import factorial

import partition_walk
import pytest
from oracles import compose, internal_edge_count

from diffeorules import algebra, trees
from diffeorules.algebra import (
    MONO_ONE,
    AlgebraError,
    Kind,
    Monomial,
    Polynomial,
    RF_MINUS_I,
    RF_ONE,
    RF_ZERO,
    SC_I,
    Scalar,
    coupling,
    diffeo_coeff,
    edge_symbol,
    fixed_offshell,
    mass_sq,
    rf,
)
from diffeorules.rules import ROOT, DiffeoSpec, TheorySpec, edge_var, interaction
from diffeorules.series import PowerSeries, tree_sum_closed_form
from diffeorules.trees import (
    _ONE,
    TreeSumEngine,
    _decorated_counts,
    amplitude,
    amputated_tree_sum,
    coupling_linear_tree_sum,
    enumerate_decorations,
    enumerate_trees,
    evaluate_at_kinematics,
    glue_four_point,
    interacting_rooted_tree_sum,
    random_conserving_momenta,
    recursive_tree_sum,
    rooted_tree_sum,
    symmetrized_one_offshell_sum,
    topology_count,
    vertex_pair_edge_coefficient,
)

LAM3 = rf(coupling(3))
SYMBOLIC = DiffeoSpec.symbolic()


def xe(*legs):
    return rf(edge_symbol(frozenset(legs)))


def mask_of(block):
    """The engine's key of a leg block: bit ``i`` is leg ``i``."""
    return sum(1 << leg for leg in block)


def block_of(mask):
    return frozenset(leg for leg in range(mask.bit_length()) if mask >> leg & 1)


def values_of(entry):
    """A kept engine entry (plain term maps keyed by valence and phase) as
    ``{valence: RationalFunction}``: a copy, which leaves the entry as it
    is."""
    return trees._values(entry)


def polys_of(entry):
    return {v: x.poly for v, x in values_of(entry).items()}


def total_singles(n, generalized=False):
    out = RF_ZERO
    for j in range(1, n + 1):
        out = out + rf(edge_symbol(frozenset((j,)), generalized))
    return out


class TestEnumeration:
    def test_small_rooted_counts_match_figure(self):
        assert topology_count(2) == 1
        assert topology_count(3) == 4

    def test_counts_match_series_oracle(self):
        # Independent oracle: solve y = z + exp(y) - 1 - y for the exponential
        # generating function of the counts with the series module.
        order = 8
        exp_series = PowerSeries(
            [rf(Scalar(Fraction(1, factorial(k)))) for k in range(order + 1)]
        )
        y = PowerSeries.identity(order)
        for _ in range(order + 2):
            rhs = compose(exp_series, y)
            z = PowerSeries.identity(order)
            new = PowerSeries(
                [z[k] + rhs[k] - (rf(1) if k == 0 else RF_ZERO) - y[k] for k in range(order + 1)]
            )
            y = new
        for n in range(1, order + 1):
            count = y[n].scaled(Scalar(factorial(n))).constant_value()
            assert Scalar(topology_count(n)) == count, n

    def test_every_internal_vertex_has_degree_three_or_more(self):
        for topo in enumerate_trees(range(1, 6)):
            for node in topo.internal_vertices():
                assert len(node) + 1 >= 3

    def test_euler_relation(self):
        for topo in enumerate_trees(range(1, 6)):
            vertices = len(topo.internal_vertices())
            assert vertices - internal_edge_count(topo) == 1

    def test_encodings_are_unique(self):
        topos = enumerate_trees(range(1, 6))
        encodings = {t.encoding() for t in topos}
        assert len(encodings) == len(topos) == 236

    def test_unrooted_designates_largest_leg(self):
        topos = enumerate_trees(range(1, 5), rooted=False)
        assert all(t.virtual_root == 4 for t in topos)
        assert len(topos) == topology_count(4, rooted=False) == 4
        for n in range(1, 7):
            assert topology_count(n) == len(enumerate_trees(range(1, n + 1))), n
            if n >= 3:
                count = topology_count(n, rooted=False)
                assert count == len(enumerate_trees(range(1, n + 1), rooted=False)), n

    def test_count_beyond_enumeration(self):
        assert topology_count(9) == 12818912

    def test_unrooted_needs_three_legs(self):
        with pytest.raises(AlgebraError):
            enumerate_trees({1, 2}, rooted=False)


def enumerated_decorated_count(n, interactions, *, rooted, exactly_one=False):
    return sum(
        len(enumerate_decorations(topo, interactions, exactly_one=exactly_one))
        for topo in enumerate_trees(range(1, n + 1), rooted)
    )


# The tuned s = 4 substitution has a1 = 0, so every free three-point vertex
# vanishes; the counts must still include the trees that carry one.
DIFFEOS = [SYMBOLIC, DiffeoSpec.tuned(3, 5), DiffeoSpec.tuned(4, 5)]


class TestDecoratedCounts:
    """The size recursion's counts against tree enumeration."""

    @pytest.mark.parametrize("diffeo", DIFFEOS)
    @pytest.mark.parametrize("s", (3, 4))
    def test_bprime(self, s, diffeo):
        interactions = TheorySpec.standard(s).interactions
        for n in range(1, 6):
            result = interacting_rooted_tree_sum(n, s, diffeo)
            assert result.tree_count == len(enumerate_trees(range(1, n + 1))), n
            expect = enumerated_decorated_count(n, interactions, rooted=True)
            assert result.decorated_count == expect, n

    @pytest.mark.parametrize("diffeo", [SYMBOLIC, DiffeoSpec.tuned(4, 5)])
    @pytest.mark.parametrize("offshell", ["none", "one", "all"])
    def test_amputated(self, offshell, diffeo):
        theory = TheorySpec.standard(3, 4)
        for n in range(3, 6):
            legs = {"none": (), "one": {1}, "all": range(1, n + 1)}[offshell]
            result = amputated_tree_sum(n, legs, theory, diffeo)
            assert result.tree_count == len(enumerate_trees(range(1, n + 1), rooted=False)), n
            expect = enumerated_decorated_count(n, theory.interactions, rooted=False)
            assert result.decorated_count == expect, n

    @pytest.mark.parametrize("diffeo", [SYMBOLIC, DiffeoSpec.tuned(4, 5)])
    @pytest.mark.parametrize("s", (3, 4))
    def test_coupling_linear(self, s, diffeo):
        interactions = TheorySpec.standard(s).interactions
        for n in range(3, 6):
            result = coupling_linear_tree_sum(n, s, diffeo)
            expect = enumerated_decorated_count(n, interactions, rooted=False, exactly_one=True)
            assert result.decorated_count == expect, (s, n)

    @pytest.mark.parametrize("powers", [(3,), (4,), (3, 4), (3, 5)])
    def test_exactly_one_in_the_order_of_the_filtered_product(self, powers):
        # The tuples with exactly one interaction are generated directly; the
        # order is the product's, which --trace prints.
        interactions = TheorySpec.standard(*powers).interactions
        for n, rooted in ((4, True), (5, True), (6, False)):
            for topo in enumerate_trees(range(1, n + 1), rooted):
                every = enumerate_decorations(topo, interactions)
                want = [deco for deco in every if sum(tag[0] == "I" for tag in deco) == 1]
                assert enumerate_decorations(topo, interactions, exactly_one=True) == want, topo.encoding()

    def test_counts_beyond_enumeration(self):
        # Too many trees to enumerate; a count over the engine's set
        # partitions with every factor 1 gives the same numbers.
        assert _decorated_counts(8, (3,), False) == (41660226, 0)  # b'_8, s = 3
        assert _decorated_counts(7, (3, 4), False) == (1835046, 0)  # A_8, powers (3, 4)
        assert _decorated_counts(7, (3,), True)[1] == 192788  # S^(3)_8
        assert _decorated_counts(7, (4,), True)[1] == 37024  # S^(4)_8


class TestAmplitude:
    def test_single_offshell_cherry(self):
        # i/x{1+2} * 2i a1 (x1 + x2 + x{1+2}) at x1 = x2 = 0 -> -2 a1
        [topo] = enumerate_trees({1, 2})
        value = amplitude(
            topo, None, TheorySpec.free(), onshell={1, 2}, include_root_propagator=True
        )
        assert value == rf(diffeo_coeff(1)).scaled(Scalar(-2))

    @pytest.mark.parametrize("theory", (TheorySpec.free(), TheorySpec.generalized_free()), ids=("standard", "generalized"))
    def test_bare_edge_is_one(self, theory):
        # b_1 = 1: the one-leg tree has no vertex, and its root edge carries
        # no propagator, whose onshell x1 = 0 would annihilate it.
        [topo] = enumerate_trees({1})
        for onshell in ((), (1,)):
            assert amplitude(topo, None, theory, onshell=onshell, include_root_propagator=True) == RF_ONE
        assert rooted_tree_sum(1, theory=theory).value == RF_ONE

    def test_onshell_substitution_happens_after_assembly(self):
        [topo] = enumerate_trees({1, 2})
        raw = amplitude(topo, None, TheorySpec.free(), onshell=())
        assert raw == rf(Scalar(0, 2)) * rf(diffeo_coeff(1)) * (xe(1) + xe(2) + xe(1, 2))
        with_prop = amplitude(topo, None, TheorySpec.free(), onshell=(), include_root_propagator=True)
        assert with_prop == raw * rf(Scalar(0, 1)) * rf(edge_symbol({1, 2})).inverse()

    def test_single_interaction_vertex(self):
        [topo] = enumerate_trees(range(1, 4), rooted=False)
        theory = TheorySpec.standard(3)
        value = amplitude(topo, (("I", 3),), theory, onshell={1, 2, 3})
        assert value == LAM3.scaled(Scalar(0, -1))

    def test_single_free_vertex_all_onshell_keeps_pair_variables(self):
        # The subset-form vertex leaves 4 i a1^2 (x{1+2}+x{1+3}+x{1+4}); the
        # display form's 4 i msq a1^2 agrees with it on every conserving
        # kinematic point (see TestKinematics) but not symbolically.
        [topo] = [t for t in enumerate_trees(range(1, 5), rooted=False) if not internal_edge_count(t)]
        value = amplitude(topo, None, TheorySpec.free(), onshell={1, 2, 3, 4})
        a1 = rf(diffeo_coeff(1))
        expect = (a1 * a1).scaled(Scalar(0, 4)) * (xe(1, 2) + xe(1, 3) + xe(1, 4))
        assert value == expect

    def test_matches_engine_across_policies(self):
        theory = TheorySpec.standard(3)
        for n in (2, 3, 4):
            total = RF_ZERO
            for topo in enumerate_trees(range(1, n + 1)):
                for deco in enumerate_decorations(topo, theory.interactions):
                    total = total + amplitude(
                        topo, deco, theory, onshell=range(1, n + 1), include_root_propagator=True
                    )
            engine = interacting_rooted_tree_sum(n, 3).value
            assert total == engine, n

    def test_matches_engine_amputated(self):
        for n in (3, 4, 5):
            total = RF_ZERO
            for topo in enumerate_trees(range(1, n + 1), rooted=False):
                total = total + amplitude(topo, None, TheorySpec.free(), onshell=range(2, n + 1))
            assert total == amputated_tree_sum(n, {1}).value, n


class TestRootedTreeSums:
    def test_worked_values(self):
        a1, a2 = rf(diffeo_coeff(1)), rf(diffeo_coeff(2))
        assert rooted_tree_sum(1).value == RF_ONE
        assert rooted_tree_sum(2).value == a1.scaled(Scalar(-2))
        assert rooted_tree_sum(3).value == (a1 * a1).scaled(Scalar(12)) + a2.scaled(Scalar(-6))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_closed_form_and_is_constant(self, n):
        result = rooted_tree_sum(n)
        assert result.value == tree_sum_closed_form(n)
        kinds = {s.kind for s in result.value.symbols()}
        assert kinds <= {Kind.DIFFEO}
        assert result.tree_count == topology_count(n)

    def test_recursion_agrees(self):
        for n in range(1, 7):
            assert recursive_tree_sum(n) == tree_sum_closed_form(n)
            assert recursive_tree_sum(n, generalized=False) == tree_sum_closed_form(n)

    def test_b_ignores_configured_interactions(self):
        a1, a2, a3 = (rf(diffeo_coeff(j)) for j in (1, 2, 3))
        free = rooted_tree_sum(4)
        got = rooted_tree_sum(4, theory=TheorySpec.standard(3))
        assert got.value == (a1 * a1 * a1).scaled(Scalar(-120)) + (a1 * a2).scaled(Scalar(120)) - a3.scaled(Scalar(24))
        assert got.value == free.value
        assert (got.tree_count, got.decorated_count) == (free.tree_count, free.decorated_count) == (26, 26)

    @pytest.mark.parametrize("kind", ["b", "bprime"])
    def test_one_leg_is_the_bare_edge(self, kind):
        # G({1}) of the engine is the bare leg's 1; no branch skips the walk.
        result = rooted_tree_sum(1) if kind == "b" else interacting_rooted_tree_sum(1, 3)
        assert result.value == RF_ONE
        assert (result.tree_count, result.decorated_count) == (1, 1)
        assert result.metadata == {"below": []}

    @pytest.mark.parametrize(
        "build, keys",
        [
            (lambda n: rooted_tree_sum(n), {"below"}),
            (lambda n: interacting_rooted_tree_sum(n, 3), {"below"}),
            (lambda n: interacting_rooted_tree_sum(n, 3, mode="s_only"), set()),
            (lambda n: amputated_tree_sum(n, {1}), set()),
            (lambda n: coupling_linear_tree_sum(n, 3), {"by_valence"}),
        ],
        ids=["b", "bprime", "bprime s_only", "A", "S"],
    )
    def test_metadata_holds_only_what_callers_read(self, build, keys):
        for n in (3, 4):
            assert set(build(n).metadata) == keys, n


class TestAmputatedSums:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_onshell_sum_vanishes(self, n):
        assert amputated_tree_sum(n, ()).value.is_zero()

    @pytest.mark.parametrize("n", range(3, 8))
    def test_one_offshell_shape(self, n):
        b = tree_sum_closed_form(n - 1)
        for j in (1, n):
            value = amputated_tree_sum(n, {j}).value
            assert value == RF_MINUS_I * b * rf(edge_symbol(frozenset((j,))))
        assert symmetrized_one_offshell_sum(n) == RF_MINUS_I * b * total_singles(n)

    @pytest.mark.parametrize(
        "build",
        [lambda: amputated_tree_sum(5, {1}), lambda: coupling_linear_tree_sum(5, 3)],
        ids=["A", "S"],
    )
    def test_the_largest_leg_is_the_virtual_root(self, monkeypatch, build):
        # The value does not depend on the choice, but the walk does: the
        # engine hangs the trees from the same leg as enumerate_trees and
        # the per-tree trace printed beside the sum.
        asked = []
        below = TreeSumEngine._below

        def spy(self, t):
            asked.append(block_of(t))
            return below(self, t)

        monkeypatch.setattr(TreeSumEngine, "_below", spy)
        build()
        (topology, *_) = enumerate_trees(range(1, 6), rooted=False)
        assert asked == [frozenset(range(1, 6)) - {topology.virtual_root}] == [frozenset(range(1, 5))]

    def test_four_point_full_offshell(self):
        value = amputated_tree_sum(4, range(1, 5)).value
        b2, b3 = tree_sum_closed_form(2), tree_sum_closed_form(3)
        poles = RF_ZERO
        for pair in ((1, 2), (1, 3), (1, 4)):
            comp = tuple(sorted(frozenset(range(1, 5)) - frozenset(pair)))
            num = (xe(pair[0]) + xe(pair[1])) * (xe(comp[0]) + xe(comp[1]))
            poles = poles + num * rf(edge_symbol(frozenset(pair))).inverse()
        expect = RF_MINUS_I * b3 * total_singles(4) + RF_MINUS_I * (b2 * b2) * poles
        assert value == expect

    def test_four_point_degree_at_most_two_in_singletons(self):
        value = amputated_tree_sum(4, range(1, 5)).value
        singles = {edge_symbol(frozenset((j,))) for j in range(1, 5)}
        for mono in value.num.terms:
            degree = sum(e for s, e in mono.pairs if s in singles)
            assert degree <= 2

    def test_setting_legs_onshell_collapses_to_lower_j(self):
        full = amputated_tree_sum(4, range(1, 5)).value
        collapsed = full.substitute(
            {edge_symbol(frozenset((j,))): RF_ZERO for j in (2, 3, 4)}
        )
        assert collapsed == amputated_tree_sum(4, {1}).value

    def test_glued_four_point_free(self):
        assert glue_four_point() == amputated_tree_sum(4, range(1, 5)).value

    def test_glued_four_point_interacting(self):
        theory = TheorySpec.standard(3)
        glued = glue_four_point(theory=theory)
        enumerated = amputated_tree_sum(4, range(1, 5), theory).value
        assert glued == enumerated

    def test_meta_vertex_identity(self):
        # Restricting the single offshell variable to the fixed value xp gives
        # -i xp b_{l+1} for the (l+2)-point amputated sum.
        xp = rf(fixed_offshell())
        for l in range(1, 6):
            n = l + 2
            value = amputated_tree_sum(n, {1}).value
            restricted = value.substitute({edge_symbol(frozenset((1,))): xp})
            assert restricted == RF_MINUS_I * xp * tree_sum_closed_form(l + 1), l


class TestInteractingSums:
    def test_bprime_worked_values(self):
        b2 = tree_sum_closed_form(2)
        root2 = rf(edge_symbol(frozenset((1, 2))))
        assert interacting_rooted_tree_sum(2, 3).value == b2 + LAM3 * root2.inverse()
        b3 = tree_sum_closed_form(3)
        root3 = rf(edge_symbol(frozenset((1, 2, 3))))
        pair_poles = RF_ZERO
        for pair in ((1, 2), (1, 3), (2, 3)):
            pair_poles = pair_poles + rf(edge_symbol(frozenset(pair))).inverse()
        expect3 = b3 + (b2 + LAM3 * root3.inverse()) * LAM3 * pair_poles
        assert interacting_rooted_tree_sum(3, 3).value == expect3

    def test_bprime_four_point_four_block_structure(self):
        legs = frozenset(range(1, 5))
        b2, b3, b4 = (tree_sum_closed_form(k) for k in (2, 3, 4))
        root = rf(edge_symbol(legs))
        pair_sum = RF_ZERO
        for pair in combinations(sorted(legs), 2):
            pair_sum = pair_sum + rf(edge_symbol(frozenset(pair))).inverse()
        parallel = RF_ZERO
        for left, right in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))):
            parallel = parallel + (
                rf(edge_symbol(frozenset(left))) * rf(edge_symbol(frozenset(right)))
            ).inverse()
        cascades = RF_ZERO
        cascade_count = 0
        for trip in combinations(sorted(legs), 3):
            for pair in combinations(trip, 2):
                cascades = cascades + (
                    rf(edge_symbol(frozenset(trip))) * rf(edge_symbol(frozenset(pair)))
                ).inverse()
                cascade_count += 1
        assert cascade_count == 12
        expect = (
            b4
            + b3 * LAM3 * pair_sum
            + (b2 + LAM3 * root.inverse()) * (LAM3 * LAM3) * (parallel + cascades)
        )
        assert interacting_rooted_tree_sum(4, 3).value == expect

    @pytest.mark.parametrize("n", range(1, 6))
    def test_modes_agree_cubic(self, n):
        enum = interacting_rooted_tree_sum(n, 3, mode="all_vertices").value
        glued = interacting_rooted_tree_sum(n, 3, mode="s_only").value
        assert enum == glued

    def test_below_threshold_reduces_to_free_sums(self):
        for s, n in ((4, 1), (4, 2), (5, 3)):
            assert interacting_rooted_tree_sum(n, s).value == tree_sum_closed_form(n), (s, n)

    def test_quartic_threshold_pole(self):
        root = rf(edge_symbol(frozenset((1, 2, 3))))
        expect = tree_sum_closed_form(3) + rf(coupling(4)) * root.inverse()
        assert interacting_rooted_tree_sum(3, 4).value == expect


class TestEngineMemo:
    @pytest.mark.parametrize("order", ("ascending", "descending", "shuffled"))
    @pytest.mark.parametrize("single", (False, True))
    @pytest.mark.parametrize("diffeo", (SYMBOLIC, DiffeoSpec.tuned(3, 5)), ids=("symbolic", "tuned"))
    def test_any_walk_order_keeps_tables(self, diffeo, single, order):
        # Sums accumulate in place; a kept G/P/Q entry, interaction vertex or
        # coefficient must never be an accumulator of a later walk, and the
        # order in which blocks are asked for must not change any value.
        legs = frozenset(range(1, 6))

        def engine():
            return TreeSumEngine(5, rooted=True, diffeo=diffeo, theory=TheorySpec.standard(3), single=single)

        subs = [frozenset(c) for size in range(2, 5) for c in combinations(sorted(legs), size)]
        if order == "descending":
            subs.reverse()
        elif order == "shuffled":
            random.Random(7).shuffle(subs)
        walked = engine()
        seen: dict = {}

        def unchanged():
            kept = {("block", block_of(b)): tables for b, tables in walked._blocks.items()}
            kept.update({("vertex", v): (x,) for v, x in walked._vertices.items()})
            kept.update({("c", j): (x,) for j, x in enumerate(walked._coefficients)})
            for name, tables in kept.items():
                now = tuple(values_of(t) for t in tables)
                assert seen.setdefault(name, now) == now, name
            assert _ONE == {(0, 0): {MONO_ONE: 1}}

        for sub in subs:
            walked._below(mask_of(sub))
            unchanged()
            walked._tables(mask_of(sub))
            unchanged()
        assert len(walked._blocks) == 2 ** len(legs) - 2 and walked._vertices
        assert walked.rooted(5) == engine().rooted(5)
        unchanged()
        assert mask_of(legs) not in walked._blocks

    @pytest.mark.parametrize("kind", ("b6", "S3_6"))
    def test_products_never_land_in_a_kept_table(self, kind):
        # Every product adds straight into its accumulator; repeating a walk
        # over the kept tables must leave each G, P and Q table as it was.
        # ``read(engine, k)`` reads the sum whose block is {1..k}.
        if kind == "b6":
            def engine():
                return TreeSumEngine(6, rooted=True, diffeo=SYMBOLIC, theory=TheorySpec.free())

            def read(e, k):
                return e.rooted(k)
            top = 6
        else:
            def engine():
                return TreeSumEngine(6, diffeo=SYMBOLIC, theory=TheorySpec.standard(3), single=True)

            def read(e, k):
                return e.amputated(k + 1)
            top = 5
        walked = engine()

        def snapshot():
            return {block_of(mask): tuple(values_of(table) for table in tables) for mask, tables in walked._blocks.items()}

        first = read(walked, top)
        kept = snapshot()
        sub = frozenset({1, 2, 3, 4})
        assert sub in kept and len(kept) == 2**top - 2
        assert read(walked, top) == first
        assert read(walked, len(sub)) == read(engine(), len(sub))
        assert snapshot() == kept

    def test_reads_and_legs_outside_the_engine_are_refused(self):
        # A read names a leg count of the engine's own kind; an offshell
        # leg must be one of its legs, also where no engine is built.
        n, free = 4, TheorySpec.free()
        rooted = TreeSumEngine(n, rooted=True, diffeo=SYMBOLIC, theory=free)
        amputated = TreeSumEngine(n, diffeo=SYMBOLIC, theory=free)
        reads = [(rooted.rooted, 0), (rooted.rooted, n + 1), (amputated.rooted, 3)]
        reads += [(amputated.amputated, 2), (rooted.amputated, 3)]
        for read, m in reads:
            with pytest.raises(AlgebraError, match=f"an? {read.__name__} read needs"):
                read(m)
        for leg in (0, n + 1):
            with pytest.raises(AlgebraError, match="offshell legs must be external legs"):
                TreeSumEngine(n, offshell={leg}, diffeo=SYMBOLIC, theory=free)
            with pytest.raises(AlgebraError, match="offshell legs must be external legs"):
                trees.amputated_family(n, {leg}, free, SYMBOLIC)

    def test_each_interaction_vertex_is_built_once(self, monkeypatch):
        built = []
        build = trees.interaction_vertex

        def counted(n, s, *rest):
            built.append((n, s))
            return build(n, s, *rest)

        monkeypatch.setattr(trees, "interaction_vertex", counted)
        amputated_tree_sum(6, (), TheorySpec.standard(3, 4))
        # valences 3..6 for s = 3 and 4..6 for s = 4
        assert sorted(built) == [(3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (6, 3), (6, 4)]

    def test_the_engine_never_calls_the_reference_vertex(self, monkeypatch):
        calls = []
        monkeypatch.setattr(trees, "generalized_vertex", lambda *a, **k: calls.append(a))
        tuned = DiffeoSpec.tuned(3, 6)
        rooted_tree_sum(6)
        rooted_tree_sum(5, theory=TheorySpec.generalized_free())
        interacting_rooted_tree_sum(5, 3, tuned)
        amputated_tree_sum(5, {1}, TheorySpec.standard(3, 4), tuned)
        coupling_linear_tree_sum(6, 3)
        assert calls == []

    def test_coefficients_skip_zero_a_j_and_stop_at_a_n_minus_1(self, monkeypatch):
        # An n-leg sum reads c_j = (j+1)! a_j for j <= n - 1 (a_n is unbound
        # here, so reading it raises), never builds Q for its top block, and
        # multiplies by no zero coefficient (a1 = 0).
        empty_operands = []
        mul = trees.plain_mul_into

        def counted(out, x, y, sign):
            if not x or not y:
                empty_operands.append((x, y))
            return mul(out, x, y, sign)

        for n in range(2, 8):
            diffeo = DiffeoSpec.from_bindings({1: rf(0), **{j: rf(j) for j in range(2, n)}})
            legs = frozenset(range(1, n + 1))
            engine = TreeSumEngine(n, rooted=True, diffeo=diffeo, theory=TheorySpec.free())
            with monkeypatch.context() as m:
                m.setattr(trees, "plain_mul_into", counted)
                engine.rooted(n)
            want = [{0: diffeo.a(j).scaled(Scalar(factorial(j + 1)))} for j in range(n)]
            assert [values_of(c) for c in engine._coefficients] == want and not engine._coefficients[1], n
            assert empty_operands == [], n
            assert mask_of(legs) not in engine._blocks and len(engine._blocks) == 2**n - 2, n


def _keyed_product(x: dict, y: dict) -> dict:
    """Keyed ``x * y`` by plain polynomial arithmetic: a key is the valence
    of the one interaction vertex (0: none), so two nonzero keys drop."""
    out: dict = {}
    for k1, x1 in x.items():
        for k2, x2 in y.items():
            if not (k1 and k2):
                out[k1 or k2] = out.get(k1 or k2, Polynomial()) + x1 * x2
    return out


def _keyed_sum(*terms: dict) -> dict:
    out: dict = {}
    for x in terms:
        for k, v in x.items():
            out[k] = out.get(k, Polynomial()) + v
    return out


def _keyed_terms(x: dict, sign: int = 1) -> dict:
    return {k: dict((v if sign > 0 else -v).terms) for k, v in x.items() if v.terms}


# Engines at 6 legs: rooted, amputated with the offshell legs none, one (leg
# 1), the top block's complement (leg 6) or all, single, generalized, tuned.
_IDENTITY_ENGINES = {
    "rooted": dict(rooted=True, onshell="all", theory=TheorySpec.free()),
    "rooted tuned b'": dict(rooted=True, onshell="all", theory=TheorySpec.standard(3), diffeo=DiffeoSpec.tuned(3, 6)),
    "rooted generalized": dict(rooted=True, onshell="all", theory=TheorySpec.generalized_free()),
    "amputated none": dict(rooted=False, onshell="all", theory=TheorySpec.standard(3, 4)),
    "amputated one": dict(rooted=False, onshell="all but 1", theory=TheorySpec.standard(3)),
    "amputated top": dict(rooted=False, onshell="all but 6", theory=TheorySpec.free()),
    "amputated all": dict(rooted=False, onshell="none", theory=TheorySpec.standard(4)),
    "amputated generalized": dict(rooted=False, onshell="all but 1", theory=TheorySpec.generalized_free()),
    "single": dict(rooted=False, onshell="all", theory=TheorySpec.standard(3), single=True),
    "single tuned": dict(rooted=False, onshell="all", theory=TheorySpec.standard(3), single=True, diffeo=DiffeoSpec.tuned(3, 6)),
}


class TestEngineIdentity:
    """Each kept ``P`` table rebuilt from its definition ``P(U) = i X_U (G(U)
    + sum_{k>=2} c_{k-1} F_k(U))``, and each kept ``Q`` from ``Q(W) =
    sum_{l>=1} c_l F_l(W)``, with ``F_1 = G`` and ``F_k`` the products of
    the kept ``G`` tables over the partitions into ``k`` blocks.  The engine
    keeps ``-P`` and ``-Q``; for a block of two or more legs ``-P`` is ``B``,
    the sum it walks, and no edge product builds it."""

    @pytest.mark.parametrize("name", sorted(_IDENTITY_ENGINES))
    def test_kept_p_and_q_match_their_definitions(self, name):
        spec = dict(_IDENTITY_ENGINES[name])
        rooted, onshell, theory = spec.pop("rooted"), spec.pop("onshell"), spec.pop("theory")
        diffeo = spec.pop("diffeo", SYMBOLIC)
        legs = frozenset(range(1, 7))
        onshell = {"all": legs, "none": frozenset(), "all but 1": legs - {1}, "all but 6": legs - {6}}[onshell]
        universe = legs | {ROOT} if rooted else legs
        engine = TreeSumEngine(6, offshell=legs - onshell, rooted=rooted, diffeo=diffeo, theory=theory, **spec)
        top = legs if rooted else legs - {6}
        if rooted:
            g = values_of(engine._tables(mask_of(top))[0])
            assert engine._blocks.pop(mask_of(top))[1:] == ({}, {})  # no P or Q for the top block
            # A rooted read drains the top block's table and does not keep
            # it; a smaller block's table it reads and keeps.
            assert engine.rooted(6) == g and mask_of(top) not in engine._blocks
            below = frozenset(range(1, 5))
            assert engine.rooted(4) == values_of(engine._blocks[mask_of(below)][0])
        else:
            engine.amputated(6)
        assert len(engine._blocks) == 2 ** len(top) - 2

        def c(j):
            return diffeo.a(j).scaled(Scalar(factorial(j + 1))).poly

        def forests(block):
            out: dict = {}
            for partition in trees.set_partitions(sorted(block)):
                product = {0: Polynomial.constant(1)}
                for b in partition:
                    product = _keyed_product(product, polys_of(engine._blocks[mask_of(b)][0]))
                out[len(partition)] = _keyed_sum(out.get(len(partition), {}), product)
            return out

        for mask, tables in engine._blocks.items():
            g, minus_p, minus_q = map(polys_of, tables)
            block = block_of(mask)
            f = forests(block)
            canon = trees.canonical_subset(block, universe)
            if len(canon) == 1 and canon <= onshell:
                p = {}
            else:
                edge = Polynomial({Monomial.of(edge_symbol(canon, theory.generalized)): SC_I})
                inner = _keyed_sum(g, *(_keyed_product(x, {0: c(k - 1)}) for k, x in f.items() if k >= 2))
                p = _keyed_product(inner, {0: edge})
            assert _keyed_terms(minus_p) == _keyed_terms(p, -1), (name, sorted(block))
            q = _keyed_sum(*(_keyed_product(x, {0: c(k)}) for k, x in f.items())) if engine._q_is_read(mask) else {}
            assert _keyed_terms(minus_q) == _keyed_terms(q, -1), (name, sorted(block))


def _valence_of_interaction(topo, deco):
    """Valence of the one interaction vertex of a decorated tree."""
    [valence] = [len(node) + 1 for node, tag in zip(topo.internal_vertices(), deco) if tag[0] == "I"]
    return valence


# Symbolic, tuned, a rational binding whose a1 = 0 zeroes some weights, and
# a Gaussian-rational binding, whose engine entries carry both powers of i.
ENGINE_DIFFEOS = {
    "symbolic": lambda n: SYMBOLIC,
    "tuned": lambda n: DiffeoSpec.tuned(3, n),
    "a1=0": lambda n: DiffeoSpec.from_bindings(
        {1: rf(0), 2: rf(Fraction(3, 2)), 3: rf(-2), 4: rf(Fraction(5, 7)), 5: rf(1), 6: rf(Fraction(-4, 3))}
    ),
    "complex": lambda n: DiffeoSpec.from_bindings(
        {
            1: rf(Scalar(1, 2)),
            2: rf(Scalar(0, Fraction(1, 3))),
            3: rf(-2),
            4: rf(Scalar(Fraction(1, 2), -1)),
            5: rf(Scalar(0, -3)),
            6: rf(Scalar(2, Fraction(1, 5))),
        }
    ),
}

# phi^3 + phi^4 with Gaussian-rational couplings: each interaction vertex
# -i lambda_s B carries both powers of i.
COMPLEX_COUPLINGS = (interaction(3, Scalar(1, -1)), interaction(4, Scalar(Fraction(2, 3), Fraction(1, 2))))


class TestEngineEntries:
    @pytest.mark.parametrize(
        "name, theory",
        [("symbolic", TheorySpec.standard(3, 4)), ("complex", TheorySpec(interactions=COMPLEX_COUPLINGS))],
        ids=("symbolic", "complex"),
    )
    def test_kept_entries_hold_plain_numbers_and_the_walk_calls_no_mul_into(self, monkeypatch, name, theory):
        # Every kept table, coefficient and vertex is plain term maps keyed
        # by (valence, phase), with int keys and int or Fraction values; a
        # Gaussian input fills both phases of one entry.  The interaction
        # vertices are inputs, built through RationalFunction products;
        # after them no product goes through mul_into.
        diffeo = ENGINE_DIFFEOS[name](6)
        engine = TreeSumEngine(6, offshell={1}, diffeo=diffeo, theory=theory)
        for v in range(3, 7):
            engine._vertex(v)
        calls = []
        mul_into = algebra.mul_into
        with monkeypatch.context() as m:
            m.setattr(algebra, "mul_into", lambda *args: calls.append(args) or mul_into(*args))
            got = engine.amputated(6)
        assert calls == []
        assert got == {0: amputated_tree_sum(6, {1}, theory, diffeo).value}
        entries = [entry for tables in engine._blocks.values() for entry in tables]
        entries += [*engine._coefficients, *engine._vertices.values()]
        for entry in entries:
            for (valence, phase), terms in entry.items():
                assert valence == 0 and phase in (0, 1) and terms
                assert all(type(m) is int and type(c) in (int, Fraction) and c for m, c in terms.items())
        assert {phase for entry in entries for _, phase in entry} == {0, 1}
        assert any(len(entry) == 2 for entry in entries) == (name == "complex")


class TestEngineAgainstAmplitudes:
    """Every kind of engine sum against ``amplitude`` summed over
    ``enumerate_trees`` x ``enumerate_decorations``."""

    @pytest.mark.parametrize("kind", ("standard", "generalized"))
    @pytest.mark.parametrize("name", ENGINE_DIFFEOS)
    def test_rooted(self, name, kind):
        free = TheorySpec(kind=kind)
        for n in range(2, 6):
            diffeo = ENGINE_DIFFEOS[name](n)
            want = RF_ZERO
            for topo in enumerate_trees(range(1, n + 1)):
                want = want + amplitude(
                    topo, None, free, diffeo, onshell=range(1, n + 1), include_root_propagator=True
                )
            assert rooted_tree_sum(n, diffeo, theory=free).value == want, n

    @pytest.mark.parametrize("name", ENGINE_DIFFEOS)
    def test_rooted_interacting(self, name):
        theory = TheorySpec.standard(3)
        for n in range(2, 6):
            diffeo = ENGINE_DIFFEOS[name](n)
            want = RF_ZERO
            for topo in enumerate_trees(range(1, n + 1)):
                for deco in enumerate_decorations(topo, theory.interactions):
                    want = want + amplitude(
                        topo, deco, theory, diffeo, onshell=range(1, n + 1), include_root_propagator=True
                    )
            assert interacting_rooted_tree_sum(n, 3, diffeo).value == want, n

    @pytest.mark.parametrize("offshell", ("none", "one", "two", "all"))
    @pytest.mark.parametrize("kind", ("standard", "generalized"))
    @pytest.mark.parametrize("name", ENGINE_DIFFEOS)
    def test_amputated(self, name, kind, offshell):
        self._amputated(name, TheorySpec(kind=kind, interactions=TheorySpec.standard(3, 4).interactions), offshell)

    @pytest.mark.parametrize("offshell", ("none", "one", "two", "all"))
    @pytest.mark.parametrize("name", ENGINE_DIFFEOS)
    def test_amputated_with_complex_couplings(self, name, offshell):
        self._amputated(name, TheorySpec(interactions=COMPLEX_COUPLINGS), offshell)

    @staticmethod
    def _amputated(name, theory, offshell):
        for n in range(3, 6):
            diffeo = ENGINE_DIFFEOS[name](n)
            legs = frozenset(range(1, n + 1))
            off = {"none": (), "one": {1}, "two": {1, 2}, "all": legs}[offshell]
            want = RF_ZERO
            for topo in enumerate_trees(legs, rooted=False):
                for deco in enumerate_decorations(topo, theory.interactions):
                    want = want + amplitude(topo, deco, theory, diffeo, onshell=legs - frozenset(off))
            assert amputated_tree_sum(n, off, theory, diffeo).value == want, n

    @pytest.mark.parametrize("s", (3, 4))
    @pytest.mark.parametrize("name", ENGINE_DIFFEOS)
    def test_coupling_linear_by_valence(self, name, s):
        theory = TheorySpec.standard(s)
        for n in range(3, 6):
            diffeo = ENGINE_DIFFEOS[name](n)
            want: dict = {}
            for topo in enumerate_trees(range(1, n + 1), rooted=False):
                for deco in enumerate_decorations(topo, theory.interactions, exactly_one=True):
                    v = _valence_of_interaction(topo, deco)
                    value = amplitude(topo, deco, theory, diffeo, onshell=range(1, n + 1))
                    want[v] = want.get(v, RF_ZERO) + value
            want = {v: x for v, x in want.items() if not x.is_zero()}
            result = coupling_linear_tree_sum(n, s, diffeo)
            assert result.metadata["by_valence"] == want, n
            assert result.value == sum(want.values(), RF_ZERO), n


class TestEngineAgainstPartitionWalk:
    """Every kind of engine sum against the per-partition walk of
    ``partition_walk`` up to n = 7, where ``amplitude`` enumeration is too
    slow.  Values and ``by_valence`` must be equal term for term, so they
    print alike (printing b'_7 alone would take about 10 s)."""

    @staticmethod
    def _both(monkeypatch, build):
        got = build()
        with monkeypatch.context() as m:
            partition_walk.install(m)
            want = build()
        return got, want

    @pytest.mark.parametrize(
        "kind, name",
        [
            pytest.param("b", "symbolic", id="b"),
            pytest.param("generalized b", "symbolic", id="generalized b"),
            pytest.param("b", "tuned", id="tuned b"),
            pytest.param("b", "a1=0", id="a1=0 b"),
            pytest.param("bprime", "symbolic", id="bprime"),
            pytest.param("bprime", "tuned", id="tuned bprime"),
            pytest.param("bprime", "a1=0", id="a1=0 bprime"),
            pytest.param("b", "complex", id="complex b"),
            pytest.param("bprime", "complex", id="complex bprime"),
        ],
    )
    def test_rooted(self, monkeypatch, kind, name):
        # One walk on 7 legs gives every sum on fewer legs too: ``below``
        # must match the oracle's term for term, and each entry the sum of a
        # fresh walk.  The symbolic b_m are constants, which a block other
        # than {1..m} would give alike; the b'_m carry their root's pole.
        diffeo = ENGINE_DIFFEOS[name](7)
        build = {
            "b": lambda n: rooted_tree_sum(n, diffeo),
            "generalized b": lambda n: rooted_tree_sum(n, diffeo, theory=TheorySpec.generalized_free()),
            "bprime": lambda n: interacting_rooted_tree_sum(n, 3, diffeo),
        }[kind]
        got, want = self._both(monkeypatch, lambda: build(7))
        assert got.value == want.value
        assert len(got.metadata["below"]) == 6
        assert got.metadata["below"] == want.metadata["below"]
        for m, value in enumerate(got.metadata["below"], 1):
            assert value == build(m).value, m

    @pytest.mark.parametrize("offshell", ("none", "one", "top", "all"))
    @pytest.mark.parametrize(
        "theory",
        (TheorySpec.free(), TheorySpec.generalized_free(), TheorySpec.standard(3, 4), TheorySpec(interactions=COMPLEX_COUPLINGS)),
        ids=("free", "generalized", "phi3+phi4", "complex phi3+phi4"),
    )
    def test_amputated(self, monkeypatch, theory, offshell):
        # "top" sets offshell the virtual root, the complement of the top
        # block, so the top block's own edge enters the vertex.
        for n in range(3, 7):
            off = {"none": (), "one": {1}, "top": {n}, "all": range(1, n + 1)}[offshell]
            got, want = self._both(monkeypatch, lambda: amputated_tree_sum(n, off, theory))
            assert got.value == want.value, n

    @pytest.mark.parametrize("s", (3, 4))
    @pytest.mark.parametrize("name", ENGINE_DIFFEOS)
    def test_coupling_linear_by_valence(self, monkeypatch, name, s):
        for n in range(3, 8):
            diffeo = ENGINE_DIFFEOS[name](n)
            got, want = self._both(monkeypatch, lambda: coupling_linear_tree_sum(n, s, diffeo))
            assert got.value == want.value, n
            assert got.metadata["by_valence"] == want.metadata["by_valence"], n


_ENGINES = {"engine": lambda m: None, "partition walk": partition_walk.install}


class TestAmputatedFamily:
    """The amputated sums on ``m`` legs read off one walk on 7 legs
    (``amputated_family``) against fresh ``m``-leg sums, through the engine
    and through the partition walk: value, counts and ``by_valence``."""

    @staticmethod
    def _assert_family(monkeypatch, engine, family, fresh, sizes):
        with monkeypatch.context() as m:
            _ENGINES[engine](m)
            got = family()
            want = {n: fresh(n) for n in sizes}
        assert sorted(got) == list(sizes)
        for n, result in got.items():
            assert result.value == want[n].value, n
            assert result.metadata == want[n].metadata, n
            assert (result.tree_count, result.decorated_count) == (want[n].tree_count, want[n].decorated_count), n

    @pytest.mark.parametrize("engine", _ENGINES)
    @pytest.mark.parametrize(
        "theory, name",
        [
            (TheorySpec.free(), "symbolic"),
            (TheorySpec.generalized_free(), "symbolic"),
            (TheorySpec.standard(3, 4), "symbolic"),
            (TheorySpec.free(), "tuned"),
            (TheorySpec.standard(3, 4), "a1=0"),
        ],
        ids=["free", "generalized", "phi3+phi4", "tuned free", "a1=0 phi3+phi4"],
    )
    def test_every_leg_onshell_or_one_offshell(self, monkeypatch, engine, theory, name):
        # A^0_m, and A^j_m for every leg j up to m: at m = j the virtual
        # root is offshell, against a fresh amputated_tree_sum(j, {j}).
        diffeo = ENGINE_DIFFEOS[name](7)
        for j in range(8):
            offshell = (j,) if j else ()
            self._assert_family(
                monkeypatch,
                engine,
                lambda: trees.amputated_family(7, offshell, theory, diffeo),
                lambda n: amputated_tree_sum(n, offshell, theory, diffeo),
                range(max(3, j), 8),
            )

    @pytest.mark.parametrize("engine", _ENGINES)
    @pytest.mark.parametrize("s", (3, 4))
    @pytest.mark.parametrize("name", ENGINE_DIFFEOS)
    def test_coupling_linear_by_valence(self, monkeypatch, engine, name, s):
        diffeo = ENGINE_DIFFEOS[name](7)
        self._assert_family(
            monkeypatch,
            engine,
            lambda: trees.amputated_family(7, (), TheorySpec.standard(s), diffeo, single=True),
            lambda n: coupling_linear_tree_sum(n, s, diffeo),
            range(3, 8),
        )

    def test_a_read_below_the_top_takes_leg_m_onshell_or_offshell(self):
        # B of {1..m-1} lacks the block's own edge, which is leg m's: an
        # offshell leg m reads the block's J, whose edge X_{1..m-1} is
        # renamed to x_m.
        engine = TreeSumEngine(6, offshell={4}, diffeo=SYMBOLIC, theory=TheorySpec.free())
        assert engine.amputated(4) == {0: amputated_tree_sum(4, {4}).value}
        assert engine.amputated(5) == {0: amputated_tree_sum(5, {4}).value}
        rooted = TreeSumEngine(6, rooted=True, diffeo=SYMBOLIC, theory=TheorySpec.free())
        for engine, m in ((engine, 2), (engine, 7), (rooted, 4)):
            with pytest.raises(AlgebraError, match="amputated read"):
                engine.amputated(m)
        family = trees.amputated_family(6, {6}, TheorySpec.free(), SYMBOLIC)
        assert list(family) == [6] and family[6].value == amputated_tree_sum(6, {6}).value

    @pytest.mark.parametrize("engine", _ENGINES)
    def test_internal_edges_are_renamed(self, monkeypatch, engine):
        # With legs 2 and 3 offshell the sums carry internal edges.  The
        # subtree sums of the prefix block {1..m-1} in the 7-leg universe
        # equal the fresh m-leg sum once each edge symbol is renamed from
        # the 7-leg universe to {1..m}: the symbol of a leg subset U of the
        # block names U's canonical subset there, and the block's own edge
        # is the onshell leg m, whose symbol is zero.
        legs, off = frozenset(range(1, 8)), {2, 3}
        self._assert_family(
            monkeypatch,
            engine,
            lambda: trees.amputated_family(7, off, TheorySpec.free(), SYMBOLIC),
            lambda n: amputated_tree_sum(n, off),
            range(3, 8),
        )
        renamed = 0
        with monkeypatch.context() as m:
            _ENGINES[engine](m)
            walked = trees.TreeSumEngine(7, offshell=off, diffeo=SYMBOLIC, theory=TheorySpec.free())
            for n in range(4, 7):
                prefix, small = frozenset(range(1, n)), frozenset(range(1, n + 1))
                [raw] = walked._below(mask_of(prefix)).values()
                names = {}
                for size in range(2, n):
                    for u in map(frozenset, combinations(sorted(prefix), size)):
                        canon = trees.canonical_subset(u, small)
                        to = RF_ZERO if canon == {n} else rf(edge_symbol(canon))
                        names[edge_symbol(trees.canonical_subset(u, legs))] = to
                want = amputated_tree_sum(n, off).value
                assert any(s.kind == Kind.EDGE and len(s.meta) > 1 for s in want.symbols()), n
                assert raw.substitute(names) == want, n
                renamed += raw != want
        assert renamed == 3


class TestCouplingLinearSums:
    def test_four_point_decomposition(self):
        result = coupling_linear_tree_sum(4, 3)
        a1 = rf(diffeo_coeff(1))
        by_valence = result.metadata["by_valence"]
        assert by_valence[4] == (LAM3 * a1).scaled(Scalar(0, -12))
        assert by_valence[3] == (LAM3 * a1).scaled(Scalar(0, 12))
        assert result.value.is_zero()

    @pytest.mark.parametrize("s", (3, 4))
    def test_delta_structure(self, s):
        lam = rf(coupling(s))
        for n in range(s, 8):
            value = coupling_linear_tree_sum(n, s).value
            expect = lam.scaled(Scalar(0, -1)) if n == s else RF_ZERO
            assert value == expect, (s, n)


class TestTunedDiffeomorphism:
    def test_free_sums_collapse(self):
        tuned = DiffeoSpec.tuned(3, 6)
        lam, xp = LAM3, rf(fixed_offshell())
        assert rooted_tree_sum(2, tuned).value == lam.scaled(Scalar(-1)) * xp.inverse()
        for k in (3, 4, 5, 6):
            assert rooted_tree_sum(k, tuned).value.is_zero(), k

    def test_interacting_sum_vanishes_at_fixed_offshell(self):
        tuned = DiffeoSpec.tuned(3, 6)
        xp = rf(fixed_offshell())
        for n in (2, 3, 4, 5):
            value = interacting_rooted_tree_sum(n, 3, tuned).value
            root = edge_symbol(frozenset(range(1, n + 1)))
            assert value.substitute({root: xp}).is_zero(), n


class TestGeneralizedPropagator:
    def test_one_offshell_shape(self):
        theory = TheorySpec.generalized_free()
        for n in (3, 4, 5):
            b = tree_sum_closed_form(n - 1)
            value = amputated_tree_sum(n, {1}, theory).value
            assert value == RF_MINUS_I * b * rf(edge_symbol(frozenset((1,)), True))

    def test_vertex_pair_edge_coefficient_vanishes(self):
        for j in (3, 4, 5):
            for k in (3, 4, 5):
                assert vertex_pair_edge_coefficient(j, k).is_zero(), (j, k)

    def test_recursion_generalized(self):
        for n in range(1, 6):
            assert recursive_tree_sum(n, generalized=True) == tree_sum_closed_form(n)


class TestKinematics:
    def test_four_point_conservation_identity(self):
        rng = random.Random(11)
        universe = frozenset(range(1, 5))
        expr = (
            edge_var({1, 2}, universe)
            + edge_var({1, 3}, universe)
            + edge_var({2, 3}, universe)
            - rf(mass_sq())
        )
        for j in range(1, 5):
            expr = expr - edge_var({j}, universe)
        for _ in range(20):
            momenta = random_conserving_momenta(4, 4, rng)
            assert evaluate_at_kinematics(expr, momenta, Fraction(5, 3)).is_zero()

    def test_display_and_subset_vertices_agree_on_shell_of_conservation(self):
        from diffeorules.rules import free_vertex, generalized_vertex

        rng = random.Random(23)
        for n in (3, 4, 5):
            legs = frozenset(range(1, n + 1))
            for _ in range(15):
                bindings = {
                    j: rf(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                    for j in range(1, n - 1)
                }
                diffeo = DiffeoSpec.from_bindings(bindings) if bindings else SYMBOLIC
                momenta = random_conserving_momenta(n, 4, rng)
                m2 = Fraction(rng.randint(0, 4), rng.randint(1, 3))
                display = free_vertex(
                    n, [rf(edge_symbol(frozenset((j,)))) for j in range(1, n + 1)], diffeo
                )
                subset = generalized_vertex(
                    [frozenset((j,)) for j in range(1, n + 1)], legs, diffeo=diffeo
                )
                assert evaluate_at_kinematics(display, momenta, m2) == evaluate_at_kinematics(
                    subset, momenta, m2
                )

    def test_generalized_edges_need_beta(self):
        # A generalized edge variable stands for a whole propagator
        # polynomial, which a kinematic point does not fix.
        rng = random.Random(4)
        momenta = random_conserving_momenta(3, 4, rng)
        x = rf(edge_symbol(frozenset((1,)), True))
        with pytest.raises(AlgebraError, match="generalized edge variable X1 has no kinematic value"):
            evaluate_at_kinematics(x, momenta, Fraction(1))

    def test_conservation_violation_rejected(self):
        bad = [(Fraction(1), Fraction(0), Fraction(0), Fraction(0))] * 2
        with pytest.raises(AlgebraError):
            evaluate_at_kinematics(rf(edge_symbol({1})), bad, Fraction(0))

    def test_denominator_zero_names_the_edge(self):
        r = rf(1).scaled(Scalar(1)) * rf(edge_symbol({1, 2})).inverse()
        momenta = [
            (Fraction(1), Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(-1), Fraction(-1), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(-1), Fraction(0), Fraction(-1), Fraction(0)),
        ]
        with pytest.raises(AlgebraError, match="x{1"):
            evaluate_at_kinematics(r, momenta, Fraction(0))

    def test_determinism(self):
        rng = random.Random(9)
        momenta = random_conserving_momenta(4, 4, rng)
        r = glue_four_point(DiffeoSpec.from_bindings({1: rf(Fraction(1, 2)), 2: rf(3)}))
        first = evaluate_at_kinematics(r, momenta, Fraction(2, 5))
        second = evaluate_at_kinematics(r, momenta, Fraction(2, 5))
        assert first == second
