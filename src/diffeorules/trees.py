"""Tree topology enumeration, decorated amplitudes and exact tree sums.

Topologies are nested tuples: a leaf is its integer label, an internal
vertex is the tuple of its children sorted by minimum leaf, and every
internal vertex has degree >= 3 (at least two children plus the parent
edge).  Rooted sums hang the tree below the offshell root leaf (sentinel
``ROOT``); unrooted sums designate the largest leg as a virtual root and
amputate it.

Two evaluation paths compute every sum:

* :func:`amplitude` is the per-tree reference.  It assembles the fully
  symbolic product of vertex rules and internal propagators and performs the
  onshell substitution at the end.
* :class:`TreeSumEngine` distributes the sum over shared subtrees.  Because
  the vertex rule at the top of a subtree depends only on the leg partition,
  the sum over shapes factorizes exactly; this is plain distributivity in an
  exact commutative ring.  The engine applies the diffeomorphism vertex as
  a subset convolution, and the test suite pins it against the per-tree
  path and against a walk that builds the vertex at every partition.

The engine has two front ends.  A rooted sum (``b_n``, ``b'_n``) walks its
``n`` legs below the root once and reads the sum on ``m`` legs, for every
``m <= n``, as the kept table of the prefix block ``{1..m}``.  An amputated
sum (``A^j_n``, ``S^(s)_n``) takes leg ``n`` as its virtual root and reads
the subtree sums of the other legs.  One walk on ``n`` legs also gives the
amputated sum on ``m < n`` legs whose leg ``m`` is onshell
(:func:`amputated_family`): it is the kept vertex-and-split sum of the
prefix block ``{1..m-1}``, once each edge symbol is renamed from the
``n``-leg universe to ``{1..m}``.

The engine multiplies plain numbers.  Inside it a sum is plain term maps
``{packed monomial int: int | Fraction}``, one per valence and power of
``i``, multiplied by :func:`~diffeorules.algebra.plain_mul_into`;
:class:`~diffeorules.algebra.Monomial` and
:class:`~diffeorules.algebra.Scalar` are built only where its inputs are
read in and its values read out.  The reference paths, :func:`amplitude`,
:func:`recursive_tree_sum` and the reduced gluing of
:func:`interacting_rooted_tree_sum`, stay on polynomial arithmetic.

The engine sums values only.  Counts depend on block sizes alone, so the
tree, decorated-tree and topology counts come from a recursion over sizes
(:func:`_decorated_counts`).  The tests pin the counts against
:func:`enumerate_trees` and :func:`enumerate_decorations`, and the topology
counts also against the series functional equation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Iterable, Iterator, Sequence

from .algebra import (
    AlgebraError,
    Kind,
    Monomial,
    Polynomial,
    RationalFunction,
    RF_MINUS_I,
    RF_ONE,
    RF_ZERO,
    Scalar,
    Symbol,
    edge_symbol,
    join_phases,
    merge_terms,
    plain_mul_into,
    rf,
    split_phases,
)
from .rules import (
    ROOT,
    DiffeoSpec,
    Interaction,
    TheorySpec,
    canonical_subset,
    edge_var,
    generalized_vertex,
    interaction,
    interaction_vertex,
    propagator,
)
from .series import tree_sum_closed_form, tree_sum_closed_forms

FREE = ("F",)


def set_partitions(items: Sequence) -> Iterator[list[list]]:
    """All unordered partitions of ``items`` into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield part + [[first]]


def _min_leaf(structure) -> int:
    while isinstance(structure, tuple):
        structure = structure[0]
    return structure


@lru_cache(maxsize=None)
def _rooted_structures(labels: frozenset) -> tuple:
    """All rooted trees over a leaf set; internal vertices have >= 2 children."""
    if len(labels) == 1:
        return (next(iter(labels)),)
    out = []
    for partition in set_partitions(sorted(labels)):
        if len(partition) < 2:
            continue
        options = [_rooted_structures(frozenset(block)) for block in partition]
        for combo in itertools.product(*options):
            out.append(tuple(sorted(combo, key=_min_leaf)))
    return tuple(out)


def topology_count(n_leaves: int, rooted: bool = True) -> int:
    """Number of topologies, from the size recursion of
    :func:`_decorated_counts` with no interactions; enumeration and the
    series functional equation are the test oracles."""
    if rooted and n_leaves < 1:
        raise AlgebraError("need at least one leaf")
    if not rooted and n_leaves < 3:
        raise AlgebraError("unrooted sums need at least three legs")
    return _decorated_counts(n_leaves if rooted else n_leaves - 1, (), False)[0]


@lru_cache(maxsize=None)
def _decorated_counts(m: int, powers: tuple[int, ...], single: bool) -> tuple[int, int]:
    """Rooted decorated trees on ``m`` labelled leaves that the engine's walk
    admits, a vertex of valence ``v`` taking ``1 + #{s in powers : s <= v}``
    tags (as in :func:`enumerate_decorations`): (no interaction vertex,
    exactly one) under ``single``, else (all, 0).  The top vertex splits the
    leaves into ``k >= 2`` subtrees by the partial-Bell recurrence (Comtet,
    *Advanced Combinatorics*, 1974, section 3.3): the subtree of the
    smallest of ``r`` leaves takes ``j`` of them in ``C(r-1, j-1)`` ways,
    and the pairs multiply as ``(a0 b0, a0 b1 + a1 b0)``: at most one
    interaction vertex."""
    if m == 1:
        return 1, 0
    subtrees = [(0, 0)] + [_decorated_counts(j, powers, single) for j in range(1, m)]
    forests = [(1, 0)] + [(0, 0)] * m  # forests[r]: r leaves in k subtrees, here k = 0
    d0 = d1 = 0
    for k in range(1, m + 1):
        row = [(0, 0)]
        for r in range(1, m + 1):
            c0 = c1 = 0
            for j in range(1, min(r, m - 1) + 1):  # never one subtree on all m leaves
                (t0, t1), (f0, f1), w = subtrees[j], forests[r - j], comb(r - 1, j - 1)
                c0 += w * t0 * f0
                c1 += w * (t0 * f1 + t1 * f0)
            row.append((c0, c1))
        forests = row
        if k < 2:
            continue
        f0, f1 = forests[m]
        tags = sum(1 for s in powers if s <= k + 1)
        if single:
            d0 += f0
            d1 += f1 + tags * f0
        else:
            d0 += (1 + tags) * f0
    return d0, d1


@dataclass(frozen=True)
class TreeTopology:
    """A tree with labeled external legs.

    ``structure`` spans the onshell legs (rooted) or all legs except the
    virtual root (unrooted); the root/virtual-root leaf is implicit.
    """

    structure: object
    labels: frozenset[int]
    rooted: bool
    virtual_root: int | None = None

    def encoding(self) -> str:
        def render(node) -> str:
            if isinstance(node, tuple):
                return "(" + ",".join(render(c) for c in node) + ")"
            return str(node)

        head = "root" if self.rooted else f"leg{self.virtual_root}"
        return f"{head}:{render(self.structure)}"

    def universe(self) -> frozenset[int]:
        return self.labels | {ROOT} if self.rooted else self.labels

    def internal_vertices(self) -> list[tuple]:
        """Internal vertex nodes in preorder."""
        out: list[tuple] = []

        def walk(node):
            if isinstance(node, tuple):
                out.append(node)
                for child in node:
                    walk(child)

        walk(self.structure)
        return out


def enumerate_trees(leaf_labels: Iterable[int], rooted: bool = True) -> list[TreeTopology]:
    """Complete duplicate-free list of tree topologies over the labels."""
    labels = frozenset(leaf_labels)
    if rooted:
        if len(labels) < 1:
            raise AlgebraError("rooted enumeration needs at least one onshell leg")
        return [TreeTopology(s, labels, True) for s in _rooted_structures(labels)]
    if len(labels) < 3:
        raise AlgebraError("unrooted enumeration needs at least three legs")
    v = max(labels)
    return [
        TreeTopology(s, labels, False, v) for s in _rooted_structures(labels - {v})
    ]


def enumerate_decorations(
    topology: TreeTopology,
    interactions: Sequence[Interaction],
    *,
    exactly_one: bool = False,
) -> list[tuple]:
    """Decoration tuples (one tag per internal vertex, preorder): a vertex
    of valence ``v`` is ``FREE`` or any interaction of power ``s <= v``."""
    valences = [len(node) + 1 for node in topology.internal_vertices()]
    pools = [[FREE] + [("I", it.power) for it in interactions if v >= it.power] for v in valences]
    if not exactly_one:
        return list(itertools.product(*pools))
    # The order of the product: the tag's position from last to first, and
    # the pool's order within a position.
    free = (FREE,) * len(pools)
    return [free[:i] + (tag,) + free[i + 1 :] for i in reversed(range(len(pools))) for tag in pools[i][1:]]


def _leaves(node) -> frozenset[int]:
    if isinstance(node, tuple):
        return frozenset().union(*(_leaves(c) for c in node))
    return frozenset((node,))


def amplitude(
    topology: TreeTopology,
    decoration: tuple | None,
    theory: TheorySpec,
    diffeo: DiffeoSpec = DiffeoSpec.symbolic(),
    onshell: Iterable[int] = (),
    include_root_propagator: bool = False,
) -> RationalFunction:
    """Reference amplitude of one decorated tree.

    Vertex rules and internal propagators are multiplied fully symbolically;
    the singleton variables of onshell legs are substituted to zero at the
    end.  External propagators are excluded except the root one when flagged;
    the bare edge of a one-leg rooted tree is 1, as ``b_1`` is.
    """
    onshell = frozenset(onshell)
    if not onshell <= topology.labels:
        raise AlgebraError("onshell legs must be external legs")
    if include_root_propagator and not topology.rooted:
        raise AlgebraError("only rooted sums include the root propagator")
    universe = topology.universe()
    gen = theory.generalized
    vertices = topology.internal_vertices()
    if decoration is None:
        decoration = tuple(FREE for _ in vertices)
    if len(decoration) != len(vertices):
        raise AlgebraError("decoration length does not match the vertex count")
    counter = itertools.count()

    def walk(node) -> RationalFunction:
        tag = decoration[next(counter)]
        blocks = [_leaves(child) for child in node]
        parent = universe - _leaves(node)
        valence = len(node) + 1
        if tag == FREE:
            value = generalized_vertex(blocks + [parent], universe, diffeo=diffeo, generalized=gen)
        elif tag[0] == "I":
            s = tag[1]
            if valence < s:
                raise AlgebraError(f"interaction of power {s} needs valence >= {s}")
            value = interaction_vertex(valence, s, diffeo, theory.coupling_of(s))
        else:
            raise AlgebraError(f"unknown decoration tag {tag!r}")
        for child in node:
            if isinstance(child, tuple):
                value = value * propagator(_leaves(child), universe, generalized=gen)
                value = value * walk(child)
        return value

    if not isinstance(topology.structure, tuple):
        value = RF_ONE  # the bare edge: no vertex and no propagator, as b_1 = 1
    else:
        value = walk(topology.structure)
        if include_root_propagator:
            value = value * propagator(topology.labels, universe, generalized=gen)
    bindings = {
        edge_symbol(frozenset((leg,)), gen): RF_ZERO
        for leg in onshell
    }
    return value.substitute(bindings)


@dataclass
class TreeSumResult:
    """A tree sum and its counts.  ``metadata`` holds ``below`` for
    :func:`rooted_tree_sum` and the ``all_vertices`` b'_n, ``by_valence``
    for S^(s)_n, and nothing for the other sums."""

    value: RationalFunction
    tree_count: int
    decorated_count: int
    metadata: dict = field(default_factory=dict)


_NO_INT = 0  # valence key for "no interaction vertex yet" in the valence-tracked sums
_ONE = {(_NO_INT, 0): {0: 1}}  # the keyed unit; never an accumulator


def _split(poly: Polynomial, valence: int = _NO_INT) -> dict:
    """``poly`` as a keyed entry under ``valence``: one plain term map per
    nonzero phase."""
    return {(valence, phase): x for phase, x in enumerate(split_phases(poly.terms)) if x}


def _mul_into(acc: dict, x: dict, y: dict, sign: int = 1) -> dict:
    """Add the keyed product ``sign * x * y`` into ``acc`` and return
    ``acc``.  A key is ``(valence, phase)``: the valence of the one
    interaction vertex (``_NO_INT``: none), so a pair whose factors both
    carry one is dropped, and the power of ``i``, so the phases add mod 2
    and ``i * i = -1`` flips the sign.  Each product lands in its
    accumulator through :func:`plain_mul_into`; an absent entry starts
    empty, so no kept sum is ever written into."""
    for (v1, p1), x1 in x.items():
        for (v2, p2), x2 in y.items():
            if not (v1 and v2):
                key = (v1 or v2, p1 ^ p2)
                target = acc.get(key)
                if target is None:
                    target = acc[key] = {}
                plain_mul_into(target, x1, x2, -sign if p1 & p2 else sign)
    return acc


def _nonzero(keyed: dict) -> dict:
    return {key: x for key, x in keyed.items() if x}


def _values(keyed: dict, *, drain: bool = False) -> dict:
    """Rational-function values of the keyed sums by valence, owned by the
    caller; ``{_NO_INT: 0}`` when there is none.  With ``drain`` the plain
    term maps are emptied as they are read (:func:`join_phases`), for a
    table that no later read needs."""
    out = {}
    for v in dict.fromkeys(v for v, _ in keyed):
        poly = join_phases(keyed.get((v, 0), {}), keyed.get((v, 1), {}), drain=drain)
        if poly:
            out[v] = RationalFunction(poly)
    return out or {_NO_INT: RF_ZERO}


def _legs(mask: int) -> frozenset[int]:
    return frozenset(leg for leg in range(mask.bit_length()) if mask >> leg & 1)


def _offshell_mask(n: int, offshell: Iterable[int]) -> int:
    """The bitmask of the offshell legs, bit ``i`` for leg ``i``; a leg
    outside ``1..n`` is refused."""
    legs = frozenset(offshell)
    if not legs <= frozenset(range(1, n + 1)):
        raise AlgebraError("offshell legs must be external legs")
    return sum(1 << leg for leg in legs)


def _renamed(value: RationalFunction, universe: frozenset[int], m: int, generalized: bool) -> RationalFunction:
    """``value``, a sum over trees on the legs below ``m`` in ``universe``,
    with each edge symbol renamed from ``universe`` to ``{1..m}``: the
    symbol of a leg subset ``U`` of ``{1..m-1}`` names ``U`` or its
    complement, and maps to ``U``'s canonical subset in ``{1..m}``, one to
    one.  A single leg keeps its name."""
    small = frozenset(range(1, m + 1))
    names = {}
    for sym in value.symbols():
        if sym.kind == Kind.EDGE and len(sym.meta) > 1:
            subset = frozenset(sym.meta) if sym.meta[-1] < m else universe - frozenset(sym.meta)
            names[sym] = rf(edge_symbol(canonical_subset(subset, small), generalized))
    return value.substitute(names)


class TreeSumEngine:
    """Distributive evaluation of decorated tree sums over shared subtrees.

    An engine on ``n`` legs, the legs in ``offshell`` offshell and the
    others onshell, sums the trees below the root (``rooted``: the top
    block is ``1..n``) or below the virtual root ``n`` (the top block is
    ``1..n-1``).  It reads the sum on ``m`` legs off the prefix block
    ``{1..m}`` (:meth:`rooted`) or ``{1..m-1}`` (:meth:`amputated`), the
    Berends & Giele subcurrents.

    The sum over all decorated trees on a leg block factorizes through the
    partition at the block's top vertex.  Every vertex is a diffeomorphism
    vertex or any admissible interaction of ``theory``; with ``single`` the
    trees carry exactly one interaction vertex and every sum is keyed by its
    valence (for the term-by-term cancellation check).

    The diffeomorphism vertex is a subset convolution (Berends & Giele,
    Nucl. Phys. B306 (1988) 759; Bjorklund, Husfeldt, Kaski & Koivisto,
    STOC 2007).  Summed once per complementary pair, its rule gives a subset
    of ``k`` child blocks, with ``l`` on the parent's side, the weight
    ``i c_{k-1} c_l`` with ``c_j = (j+1)! a_j``: one factor per side.  So,
    for a block ``T``:

    * ``F_k(T)`` sums ``prod G(B)`` over the partitions of ``T`` into ``k``
      blocks, in one pass of :func:`set_partitions`, with ``F_1 = G``;
    * ``P(U) = i X_U sum_k c_{k-1} F_k(U)`` and ``Q(W) = sum_l c_l F_l(W)``
      (``G = 1`` for a leg);
    * ``B(T) = sum_U P(U) Q(T-U) + sum_{m>=2} v(m+1) F_m(T)`` over the
      proper nonempty ``U``, with ``v`` the interaction vertex of each
      valence, and ``J(T) = B(T) + i X_T sum_{k>=2} c_{k-1} F_k(T)`` is the
      sum below ``T``'s parent edge.

    The vertex's ``i X_T`` cancels the propagator ``i/X_T`` of the edge
    above it: from ``G = J i/X_T`` and ``c_0 = 1``, ``P(T) = i X_T (G(T) +
    sum_{k>=2} c_{k-1} F_k(T)) = i X_T (i/X_T) B(T) = -B(T)`` and ``G(T) =
    (i/X_T) B(T) - sum_{k>=2} c_{k-1} F_k(T)``.  So a block's walk returns
    ``B`` and its ``F_k``, no product forms ``P``, and ``J`` is built only
    for an amputated read (:meth:`_below`).  The engine keeps ``-P`` (that
    is ``B``) and ``-Q``, whose signs cancel in ``P(U) Q(W)``.

    Every table entry is keyed: ``{(valence, phase): plain term map}``,
    the valence of the one interaction vertex (``_NO_INT``: none) and the
    power of ``i``, each map ``{packed monomial int: int | Fraction}``.  A
    product XORs the phases and flips the sign when both are 1
    (:func:`_mul_into`), so a Gaussian ``a_j`` or coupling fills both phase
    maps.  The ``c_j``, edges, propagators and interaction vertices are
    split into phases once per engine (:func:`_split`), and each value read
    out is joined back once (:func:`_values`).

    A block is a bitmask: bit ``i`` is leg ``i``, and the root ``ROOT = 0``
    is never in a block.  ``X_U`` is ``U``'s canonical edge symbol, absent
    for an onshell singleton: a leg, or the complement of an amputated
    sum's top block.  ``G``, ``-P`` and ``-Q`` are kept per proper block
    (``_blocks``) and ``F_k`` only until its block's ``G`` and ``Q`` have
    read it, so the vertex costs one product per split of a block, about
    ``3^n`` for ``n`` legs; a walk enumerates the splits as submasks and
    skips those whose ``P(U)`` is empty, as for an onshell leg.  ``P`` and
    ``Q`` are kept only where a split can read them.  Neither is kept for
    the top block, whose ``B`` is released once its ``G`` is built and
    each ``F_k`` after its product, so an ``n``-leg sum reads no ``a_j``
    beyond ``a_{n-1}``; and ``Q`` is not built for the top block's largest
    sub-blocks when every leg is onshell.
    """

    def __init__(
        self,
        n: int,
        *,
        offshell: Iterable[int] = frozenset(),
        rooted: bool = False,
        diffeo: DiffeoSpec,
        theory: TheorySpec,
        single: bool = False,
    ):
        self.n = n
        self._offshell = _offshell_mask(n, offshell)
        self.diffeo = diffeo
        self.theory = theory
        self.single = single
        self._top = (2 << n if rooted else 1 << n) - 2  # legs 1..n, or 1..n-1 below the virtual root n
        self._universe = frozenset(range(1, n + 1)) | ({ROOT} if rooted else frozenset())  # for the edge symbols
        self._blocks: dict = {}  # proper block's bitmask -> (G, -P, -Q), each keyed
        self._coefficients: list = []  # j -> c_j = (j+1)! a_j
        self._vertices: dict = {}  # valence -> sum of its interaction vertices

    def _coefficient(self, j: int) -> dict:
        """``c_j = (j+1)! a_j``, keyed, read on first use; empty when ``a_j = 0``."""
        while len(self._coefficients) <= j:
            i = len(self._coefficients)
            self._coefficients.append(_split(self.diffeo.a(i).scaled(Scalar(factorial(i + 1))).poly))
        return self._coefficients[j]

    def _vertex(self, v: int) -> dict:
        """Sum of the interaction vertices of valence ``v``, keyed by ``v``
        for a ``single`` engine."""
        vertex = self._vertices.get(v)
        if vertex is None:
            its = [it for it in self.theory.interactions if it.power <= v]
            vertices = (interaction_vertex(v, it.power, self.diffeo, it.coupling_value) for it in its)
            vertex = self._vertices[v] = _split(sum(vertices, RF_ZERO).poly, v if self.single else _NO_INT)
        return vertex

    def _edge(self, t: int, sign: int = 1) -> dict:
        """``sign i X_U`` of the block of bitmask ``t``, keyed; empty when
        ``U``'s canonical subset is an onshell leg."""
        canon = canonical_subset(_legs(t), self._universe)
        if len(canon) == 1 and not self._offshell >> min(canon) & 1:
            return {}
        return {(_NO_INT, 1): {int(Monomial.of(edge_symbol(canon, self.theory.generalized))): sign}}

    def _q_is_read(self, t: int) -> bool:
        """Whether a larger block ``T = W + U`` can read ``Q(W)`` of the
        block of bitmask ``t``, which it does when ``P(U)`` has an edge.
        ``U`` lies among the top block's legs outside ``t``; a ``U`` of two
        or more legs always has an edge, a single leg only when it is
        offshell."""
        spare = self._top ^ t
        return spare.bit_count() >= 2 or bool(spare & self._offshell)

    def _tables(self, t: int) -> tuple[dict, dict, dict]:
        """``(G, -P, -Q)`` of the proper block of bitmask ``t``, built on
        first use and kept.  ``-P`` is ``B`` for a block of two or more
        legs; the two signs cancel in every product ``P(U) Q(W)``."""
        tables = self._blocks.get(t)
        if tables is None:
            top = t == self._top  # no larger block reads its P or Q
            if t.bit_count() == 1:
                # A fresh unit, not _ONE: a rooted sum on one leg drains it.
                g, b, forests = {(_NO_INT, 0): {0: 1}}, {} if top else self._edge(t, -1), {}
            else:
                b, forests = self._walk(t)
                edge = propagator(_legs(t), self._universe, generalized=self.theory.generalized)
                g = _mul_into({}, b, _split(edge.poly))
                b = {} if top else b  # released before the forests, as no larger block reads it
            read_q = self._q_is_read(t)
            q: dict = {}
            while forests:  # each F_k is released after its last product
                k, forest = forests.popitem()
                if c := self._coefficient(k - 1):
                    _mul_into(g, forest, c, -1)
                if read_q and (c := self._coefficient(k)):
                    _mul_into(q, forest, c, -1)
            if read_q and (c := self._coefficient(1)):
                _mul_into(q, g, c, -1)
            tables = self._blocks[t] = (_nonzero(g), b, _nonzero(q))
        return tables

    def _walk(self, t: int) -> tuple[dict, dict]:
        """``B(T)`` and ``{k: F_k(T)}`` for ``k >= 2`` of the block of
        bitmask ``t``; each keyed, without zero entries, and owned by the
        caller."""
        forests: dict = {}
        for partition in set_partitions([1 << leg for leg in range(t.bit_length()) if t >> leg & 1]):
            if len(partition) < 2:
                continue
            # A bare leg contributes the factor one.
            factors = [self._tables(sum(b))[0] for b in partition if len(b) > 1]
            forest = forests.setdefault(len(partition), {})
            if len(factors) < 2:
                _mul_into(forest, factors[0] if factors else _ONE, _ONE)
                continue
            merged = factors[0]
            for g in factors[1:-1]:
                merged = _mul_into({}, merged, g)
            _mul_into(forest, merged, factors[-1])  # the last factor lands in F_k
        forests = {k: nonzero for k, f in forests.items() if (nonzero := _nonzero(f))}
        sums: dict = {}
        for k, forest in forests.items():
            if vertex := self._vertex(k + 1):
                _mul_into(sums, forest, vertex)
        u = (t - 1) & t  # every proper nonempty submask, largest first
        while u:
            if p := self._tables(u)[1]:
                _mul_into(sums, p, self._tables(t ^ u)[2])
            u = (u - 1) & t
        return _nonzero(sums), forests

    def _below(self, t: int) -> dict:
        """Keyed rational-function sums ``J = B + i X_T sum_{k>=2} c_{k-1}
        F_k`` over the decorated subtrees on the block of bitmask ``t``:
        the top vertex and the child edges, not the parent edge.  The
        values are owned by the caller."""
        sums, forests = self._walk(t)
        edge = self._edge(t)
        for k, forest in forests.items():
            if edge and (c := self._coefficient(k - 1)):
                _mul_into(sums, forest, _mul_into({}, c, edge))
        return _values(sums, drain=True)

    def rooted(self, m: int) -> dict:
        """Keyed rational-function sums of the rooted sum on the legs
        ``{1..m}``, ``1 <= m <= n``, of a rooted engine: ``G`` of the prefix
        block, read from the kept table (built on first use).  Each edge
        below the block names the leg subset on the root's far side,
        whatever ``n``.  The values are owned by the caller.  No walk reads
        the top block ``{1..n}``, so its table is drained into the values
        and not kept; a second read walks it again."""
        if ROOT not in self._universe or not 1 <= m <= self.n:
            raise AlgebraError(f"a rooted read needs 1 <= m <= {self.n} legs of a rooted engine")
        t = (2 << m) - 2
        g = self._tables(t)[0]
        if t != self._top:
            return _values(g)
        del self._blocks[t]
        return _values(g, drain=True)

    def amputated(self, m: int) -> dict:
        """Keyed rational-function sums of the amputated sum on the legs
        ``{1..m}`` with virtual root ``m``, ``3 <= m <= n``, of an unrooted
        engine: ``J`` of the prefix block ``{1..m-1}`` (:meth:`_below`),
        renamed to ``{1..m}`` when ``m < n``.  In ``{1..m}`` the block's own
        edge is leg ``m``; every other edge names a leg subset ``U`` of the
        block, which ``{1..n}`` and ``{1..m}`` name by ``U`` or its
        complement, one to one (:func:`_renamed`), and the block's edge
        ``X_{1..m-1}`` of ``{1..n}`` becomes ``x_m``.  When leg ``m < n``
        is onshell, ``J = B`` in ``{1..m}``, so the kept ``B`` table is read
        and no walk runs.  The values are owned by the caller."""
        if ROOT in self._universe or not 3 <= m <= self.n:
            raise AlgebraError(f"an amputated read needs 3 <= m <= {self.n} legs of an unrooted engine")
        t = (1 << m) - 2
        if m == self.n:
            return self._below(t)
        keyed = self._below(t) if self._offshell >> m & 1 else _values(self._tables(t)[1])
        return {k: _renamed(x, self._universe, m, self.theory.generalized) for k, x in keyed.items()}


def _rooted(n: int, diffeo: DiffeoSpec, theory: TheorySpec) -> TreeSumResult:
    """The rooted sums of ``theory`` on ``1..n`` legs from one walk
    (:meth:`TreeSumEngine.rooted`): the sum on ``m`` legs, ``m = n``
    included, and on one leg the bare leg's ``1``."""
    engine = TreeSumEngine(n, rooted=True, diffeo=diffeo, theory=theory)
    value = engine.rooted(n)[_NO_INT]  # first, as its table is drained
    below = [engine.rooted(m)[_NO_INT] for m in range(1, n)]
    powers = tuple(it.power for it in theory.interactions)
    return TreeSumResult(value, topology_count(n), _decorated_counts(n, powers, False)[0], {"below": below})


def rooted_tree_sum(
    n: int,
    diffeo: DiffeoSpec = DiffeoSpec.symbolic(),
    *,
    theory: TheorySpec | None = None,
) -> TreeSumResult:
    """Tree sum b_n: n onshell legs, one offshell root edge with propagator,
    and diffeomorphism vertices only (``theory``'s interactions are not
    read, its propagator kind is).

    ``metadata["below"]`` is ``[b_1, ..., b_{n-1}]``, read off the same
    walk as b_n (:meth:`TreeSumEngine.rooted` at each ``m``), so a check
    over every ``n`` up to some bound sums once, at the bound."""
    if n < 1:
        raise AlgebraError("tree sums are indexed from 1")
    theory = theory if theory is not None else TheorySpec.free()
    return _rooted(n, diffeo, replace(theory, interactions=()))


def interacting_rooted_tree_sum(
    n: int,
    s: int,
    diffeo: DiffeoSpec = DiffeoSpec.symbolic(),
    mode: str = "all_vertices",
    *,
    coupling_value: RationalFunction | None = None,
) -> TreeSumResult:
    """Tree sum b'_n of the single-interaction theory (coupling ``lambda_s``
    unless ``coupling_value`` is given), by decoration enumeration
    (``all_vertices``) or by the reduced gluing in which only s-valent
    interaction vertices hang below diffeomorphism tree sums (``s_only``).
    Both modes evaluate to the same rational function.

    In ``all_vertices`` mode ``metadata["below"]`` is ``[b'_1, ...,
    b'_{n-1}]``, read off the same walk as in :func:`rooted_tree_sum`; in
    ``s_only`` mode the decorated count is the number of glued terms."""
    if mode not in ("all_vertices", "s_only"):
        raise AlgebraError(f"unknown b' mode {mode!r}")
    if n < 1:
        raise AlgebraError("tree sums are indexed from 1")
    it = interaction(s, coupling_value)
    if mode == "all_vertices":
        return _rooted(n, diffeo, TheorySpec(interactions=(it,)))
    legs = frozenset(range(1, n + 1))
    value, glued_terms = _reduced_bprime(legs, legs | {ROOT}, s, it.coupling_value, diffeo) if n > 1 else (RF_ONE, 1)
    return TreeSumResult(value, topology_count(n), glued_terms)


def _reduced_bprime(
    legs: frozenset[int],
    universe: frozenset[int],
    s: int,
    lam: RationalFunction,
    diffeo: DiffeoSpec,
) -> tuple[RationalFunction, int]:
    """Reduced b'_n: a diffeomorphism tree sum under the root edge with pure
    power-s interaction trees attached below through uncancelled edges."""
    b_table = tree_sum_closed_forms(len(legs), diffeo.a)
    root_prop = propagator(legs, universe)
    lambda_cache: dict[frozenset, RationalFunction] = {}

    def lambda_tree(group: frozenset[int]) -> RationalFunction:
        # Sum over pure interaction trees with leg set `group` below an
        # uncancelled edge; includes the propagator of that edge.
        cached = lambda_cache.get(group)
        if cached is not None:
            return cached
        acc = RF_ZERO
        for partition in set_partitions(sorted(group)):
            if len(partition) != s - 1:
                continue
            prod = RF_ONE
            for sub in partition:
                if len(sub) >= 2:
                    prod = prod * lambda_tree(frozenset(sub))
                    if prod.is_zero():
                        break
            else:
                acc = acc + prod
        value = propagator(group, universe) * (lam * RF_MINUS_I) * acc
        lambda_cache[group] = value
        return value

    total = Polynomial()
    glued_terms = 0
    for partition in set_partitions(sorted(legs)):
        m = len(partition)
        if m < 2:
            continue
        top = b_table[m]
        if m == s - 1:
            top = top + root_prop * (lam * RF_MINUS_I)
        factor = top
        for group in partition:
            if len(group) >= 2:
                factor = factor * lambda_tree(frozenset(group))
            if factor.is_zero():
                break
        if not factor.is_zero():
            glued_terms += 1
            merge_terms(total.terms, factor.poly.terms.items())
    return RationalFunction(total), glued_terms


def _amputated(engine: TreeSumEngine, m: int) -> TreeSumResult:
    """The amputated sum on the legs ``{1..m}`` of ``engine`` with the
    largest, ``m``, as virtual root (:meth:`TreeSumEngine.amputated`): over
    every admissible decoration, or for a ``single`` engine over the trees
    with exactly one interaction vertex, keyed by its valence in
    ``metadata["by_valence"]``."""
    keyed = engine.amputated(m)
    if engine.single:
        keyed.pop(_NO_INT, None)  # the trees without an interaction vertex
    powers = tuple(it.power for it in engine.theory.interactions)
    decorated = _decorated_counts(m - 1, powers, engine.single)[engine.single]
    value = sum(keyed.values(), RF_ZERO)
    return TreeSumResult(value, topology_count(m, False), decorated, {"by_valence": keyed} if engine.single else {})


def amputated_family(
    n: int,
    offshell: Iterable[int],
    theory: TheorySpec,
    diffeo: DiffeoSpec,
    *,
    single: bool = False,
) -> dict[int, TreeSumResult]:
    """The amputated sums on ``{1..m}`` with virtual root ``m`` and the legs
    in ``offshell`` offshell, for every ``m <= n`` from ``max(3, max
    offshell)`` up, from one engine on ``n`` legs: ``A^j_m`` for
    ``offshell = {j}`` as :func:`amputated_tree_sum` gives it, ``m = j``
    included, or with ``single`` the ``S^(s)_m`` of
    :func:`coupling_linear_tree_sum`.  Each sum is one read of the walk
    (:meth:`TreeSumEngine.amputated`): the kept ``B`` of the prefix
    block ``{1..m-1}`` when leg ``m < n`` is onshell, else that block's
    ``J``, with each edge renamed to ``{1..m}``.  An offshell leg outside
    ``1..n`` is refused, and no engine is built when there is no such
    ``m``."""
    offshell = frozenset(offshell)
    sizes = range(max(3, _offshell_mask(n, offshell).bit_length() - 1), n + 1)
    if not sizes:
        return {}
    engine = TreeSumEngine(n, offshell=offshell, diffeo=diffeo, theory=theory, single=single)
    return {m: _amputated(engine, m) for m in sizes}


def amputated_tree_sum(
    n: int,
    offshell: Iterable[int],
    theory: TheorySpec | None = None,
    diffeo: DiffeoSpec = DiffeoSpec.symbolic(),
) -> TreeSumResult:
    """Amputated sum A^j_n over all trees and admissible decorations with the
    legs outside ``offshell`` set onshell."""
    if n < 3:
        raise AlgebraError("amputated sums need at least three legs")
    theory = theory if theory is not None else TheorySpec.free()
    return _amputated(TreeSumEngine(n, offshell=offshell, diffeo=diffeo, theory=theory), n)


def symmetrized_one_offshell_sum(n: int) -> RationalFunction:
    """Symmetric display of A^1_n: the sum over the choice of offshell leg."""
    return sum((amputated_tree_sum(n, {j}).value for j in range(1, n + 1)), RF_ZERO)


def coupling_linear_tree_sum(
    n: int,
    s: int,
    diffeo: DiffeoSpec = DiffeoSpec.symbolic(),
    *,
    coupling_value: RationalFunction | None = None,
) -> TreeSumResult:
    """All-onshell amputated sum S^(s)_n over trees with exactly one
    interaction vertex (coupling ``lambda_s`` unless ``coupling_value`` is
    given); metadata carries the per-valence decomposition."""
    if n < 3:
        raise AlgebraError("amputated sums need at least three legs")
    theory = TheorySpec(interactions=(interaction(s, coupling_value),))
    return _amputated(TreeSumEngine(n, diffeo=diffeo, theory=theory, single=True), n)


def recursive_tree_sum(
    n: int,
    diffeo: DiffeoSpec = DiffeoSpec.symbolic(),
    *,
    generalized: bool = True,
) -> RationalFunction:
    """b_n through the root-vertex recursion over leg partitions and subset
    sums at the top vertex (no tree enumeration)."""
    if n < 1:
        raise AlgebraError("tree sums are indexed from 1")
    return _recursive_tree_sums(n, diffeo, generalized)[n]


def _recursive_tree_sums(n: int, diffeo: DiffeoSpec, generalized: bool) -> list[RationalFunction | None]:
    """``[None, b_1, ..., b_n]`` from one memo of the recursion of
    :func:`recursive_tree_sum`, which reaches every smaller ``b_m``."""
    memo: dict[int, RationalFunction] = {1: RF_ONE}

    def b(m: int) -> RationalFunction:
        if m in memo:
            return memo[m]
        legs = frozenset(range(1, m + 1))
        universe = legs | {ROOT}
        total = RF_ZERO
        for partition in set_partitions(sorted(legs)):
            k = len(partition)
            if k < 2:
                continue
            coeff = RF_ONE
            for block in partition:
                coeff = coeff * b(len(block))
                if coeff.is_zero():
                    break
            if coeff.is_zero():
                continue
            far_blocks = [frozenset(b_) for b_ in partition] + [frozenset((ROOT,))]
            vsum = RF_ZERO
            for j in range(1, k + 1):
                weight = diffeo.a(k - j) * diffeo.a(j - 1)
                if weight.is_zero():
                    continue
                subset_sum = RF_ZERO
                for choice in itertools.combinations(far_blocks, j):
                    union = frozenset().union(*choice)
                    if ROOT in union:
                        union = universe - union
                    if len(union) == 1:
                        continue  # onshell lower leg
                    subset_sum = subset_sum + edge_var(union, universe, generalized=generalized)
                if subset_sum.is_zero():
                    continue
                vsum = vsum + (weight * subset_sum).scaled(
                    Scalar(factorial(k + 1 - j) * factorial(j))
                )
            total = total + coeff * vsum
        root = edge_symbol(frozenset(range(1, m + 1)), generalized)
        value = total.scaled(Scalar(Fraction(-1, 2))).over(Monomial.of(root))
        memo[m] = value
        return value

    return [None, *(b(m) for m in range(1, n + 1))]


def glue_four_point(
    diffeo: DiffeoSpec = DiffeoSpec.symbolic(),
    theory: TheorySpec | None = None,
) -> RationalFunction:
    """A^4_4 (or A'^4_4 for a single power-3 interaction) assembled from tree
    sums and the three pairings of the external legs, without enumeration."""
    theory = theory if theory is not None else TheorySpec.free()
    if theory.interactions and (
        len(theory.interactions) > 1 or theory.interactions[0].power != 3
    ):
        raise AlgebraError("the four-point gluing supports a free or power-3 theory")
    lam = theory.interactions[0].coupling_value if theory.interactions else RF_ZERO
    gen = theory.generalized
    universe = frozenset(range(1, 5))
    b2 = tree_sum_closed_form(2, diffeo.a)
    b3 = tree_sum_closed_form(3, diffeo.a)
    sum_x = RF_ZERO
    for j in range(1, 5):
        sum_x = sum_x + edge_var({j}, universe, generalized=gen)
    total = RF_MINUS_I * b3 * sum_x
    for pair in ((1, 2), (1, 3), (1, 4)):
        left_pair = frozenset(pair)
        right_pair = universe - left_pair
        u = v = RF_ZERO
        for i in left_pair:
            u = u + edge_var({i}, universe, generalized=gen)
        for i in right_pair:
            v = v + edge_var({i}, universe, generalized=gen)
        left = RF_MINUS_I * (b2 * u + lam)
        right = RF_MINUS_I * (b2 * v + lam)
        total = total + left * propagator(left_pair, universe, generalized=gen) * right
    return total


def vertex_pair_edge_coefficient(
    j: int, k: int, diffeo: DiffeoSpec = DiffeoSpec.symbolic()
) -> RationalFunction:
    """Coefficient of X_e in ``v_j (i/X_e) v_k + v_{j+k-2}``.

    The two complementary subset terms of the merged vertex cancel the
    edge-cancelling summand of the vertex pair, so this vanishes for every
    pair of valences; the verifier checks 3 <= j,k <= 5.
    """
    left_legs = frozenset(range(1, j))
    right_legs = frozenset(range(j, j + k - 1))
    universe = left_legs | right_legs

    def vertex(singles: frozenset[int], *far: frozenset[int]) -> RationalFunction:
        blocks = [frozenset((x,)) for x in sorted(singles)] + list(far)
        return generalized_vertex(blocks, universe, diffeo=diffeo, generalized=True)

    v_left, v_right = vertex(left_legs, right_legs), vertex(right_legs, left_legs)
    merged = vertex(universe)
    edge = edge_symbol(canonical_subset(left_legs, universe), True)
    combined = v_left * propagator(left_legs, universe, generalized=True) * v_right + merged
    cleared = (combined * rf(edge)).as_polynomial()
    return rf(cleared.coefficient_of(edge, 2))


def random_conserving_momenta(n: int, dimension: int, rng) -> list[tuple[Fraction, ...]]:
    """n exact rational D-vectors summing to zero componentwise."""
    momenta = [
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dimension))
        for _ in range(n - 1)
    ]
    last = tuple(-sum(p[d] for p in momenta) for d in range(dimension))
    momenta.append(last)
    return momenta


def kinematic_values(
    r: RationalFunction,
    momenta: Sequence[Sequence[int | Fraction]],
    mass_sq_value: int | Fraction,
) -> dict[Symbol, int | Fraction]:
    """The value of every symbol of ``r`` at exact momenta: the edge variable
    of a leg subset S is (sum_{i in S} p_i)^2 - msq, with the mostly-minus
    metric, and ``msq`` is ``mass_sq_value``.  A generalized edge variable
    stands for a whole propagator polynomial and is refused.

    The momenta are scaled once to integers over the least common
    denominator ``L`` of their components, so a subset's momentum is a sum
    of integers and its square is ``Fraction(Q_0^2 - sum_d Q_d^2, L^2)``."""
    if not momenta:
        raise AlgebraError("need at least one momentum")
    dimension = len(momenta[0])
    if dimension < 2 or any(len(p) != dimension for p in momenta):
        raise AlgebraError("momenta must share a dimension >= 2")
    exact = (int, Fraction)
    if not all(isinstance(c, exact) for p in momenta for c in p):
        raise AlgebraError("momentum components must be int or Fraction")
    if not isinstance(mass_sq_value, exact):
        raise AlgebraError("the squared mass must be an int or Fraction")
    lcd = lcm(*(c.denominator for p in momenta for c in p))
    scaled = [[c.numerator * (lcd // c.denominator) for c in p] for p in momenta]
    if any(map(sum, zip(*scaled))):
        raise AlgebraError("momenta do not conserve: component sums must vanish")

    table: dict[Symbol, int | Fraction] = {}
    den = r.den
    m = mass_sq_value
    for sym in sorted(r.symbols()):
        if sym.kind == Kind.EDGE:
            subset = sym.meta
            if subset[0] < 1 or subset[-1] > len(momenta):
                raise AlgebraError(f"no momentum supplied for edge variable {sym.name}")
            if sym.key[1] == 1:
                raise AlgebraError(f"generalized edge variable {sym.name} has no kinematic value")
            q = [sum(c) for c in zip(*(scaled[i - 1] for i in subset))]
            q_sq = q[0] * q[0] - sum(c * c for c in q[1:])  # times lcd^2
            value = Fraction(q_sq * m.denominator - m.numerator * lcd * lcd, lcd * lcd * m.denominator)
            if not value and den.exponent(sym):
                raise AlgebraError(f"kinematic point annihilates the edge denominator {sym.name}")
            table[sym] = value
        elif sym.kind == Kind.MASS_SQ:
            table[sym] = mass_sq_value
        else:
            raise AlgebraError(f"unbound non-kinematic symbol {sym.name}")
    return table


def evaluate_at_kinematics(
    r: RationalFunction,
    momenta: Sequence[Sequence[int | Fraction]],
    mass_sq_value: int | Fraction,
) -> Scalar:
    """Exact value of ``r`` at the point that :func:`kinematic_values`
    gives for these momenta."""
    return r.evaluate(kinematic_values(r, momenta, mass_sq_value))
