"""The per-partition walk: an independent oracle for ``trees.TreeSumEngine``.

It visits every set partition of every block and builds the diffeomorphism
vertex of the partition's valence anew, as the subset-sum rule summed once
per complementary pair, then multiplies the partition's product of child
sums by it.  Its cost grows with the Bell numbers, but it reaches n = 7,
where summing ``amplitude`` over every tree is too slow.  ``install``
swaps it in for the engine that the public tree-sum functions build.
"""

import itertools
from math import factorial

from diffeorules import trees
from diffeorules.algebra import (
    Monomial,
    Polynomial,
    RationalFunction,
    RF_ZERO,
    Scalar,
    edge_symbol,
    merge_terms,
)
from diffeorules.rules import ROOT, canonical_subset, interaction_vertex, propagator
from diffeorules.trees import _NO_INT, _legs, _renamed, set_partitions

_ONE = Polynomial.constant(1)  # never an accumulator: products of it are fresh


def _accumulate(acc: Polynomial, x: Polynomial) -> Polynomial:
    """``acc + x`` merged into ``acc``, a fresh product."""
    merge_terms(acc.terms, x.terms.items())
    return acc


class PartitionWalkEngine:
    """Same constructor and reads, ``rooted`` and ``amputated``, as
    ``trees.TreeSumEngine``, and its ``_below`` of a block's bitmask."""

    def __init__(self, n, *, offshell=frozenset(), rooted=False, diffeo, theory, single=False):
        legs = frozenset(range(1, n + 1))
        self.universe = legs | {ROOT} if rooted else legs
        self.onshell = legs - frozenset(offshell)
        self.diffeo = diffeo
        self.theory = theory
        self.single = single
        self._memo: dict = {}  # block -> keyed sum
        self._valences: dict = {}  # valence -> (size weights, interaction vertices)
        self._edges: dict = {}  # union of child blocks -> edge monomial or None

    def _valence(self, v: int) -> tuple[list, list]:
        """``[(k, weight terms)]`` for the subset sizes ``k`` whose weight
        ``i a_{v-k-1} a_{k-1} (v-k)! k!`` is nonzero, and the nonzero
        interaction vertices of valence ``v``."""
        table = self._valences.get(v)
        if table is None:
            a = self.diffeo.a
            weights = [
                (k, c.scaled(Scalar(0, factorial(v - k) * factorial(k))).poly.terms)
                for k in range(1, v)
                if not (c := a(v - k - 1) * a(k - 1)).is_zero()
            ]
            vertices = (
                interaction_vertex(v, it.power, self.diffeo, it.coupling_value)
                for it in self.theory.interactions
                if it.power <= v
            )
            table = self._valences[v] = (weights, [x.poly for x in vertices if not x.is_zero()])
        return table

    def _edge(self, union: frozenset[int]) -> Monomial | None:
        if union not in self._edges:
            canon = canonical_subset(union, self.universe)
            onshell = len(canon) == 1 and canon <= self.onshell
            edge = None if onshell else Monomial.of(edge_symbol(canon, self.theory.generalized))
            self._edges[union] = edge
        return self._edges[union]

    def _walk(self, block: frozenset[int]) -> dict:
        """Sum over rooted decorated subtrees on ``block``, keyed by the
        valence of the interaction vertex under ``single`` and by ``_NO_INT``
        otherwise (or when there is none yet); includes the top vertex and the
        child edges, not the parent edge.  Zero sums are dropped."""
        cached = self._memo.get(block)
        if cached is not None:
            return cached
        result: dict = {}
        for partition in set_partitions(sorted(block)):
            if len(partition) < 2:
                continue
            blocks = [frozenset(b) for b in partition]
            merged: dict = {_NO_INT: _ONE}
            for b in blocks:
                if len(b) == 1:
                    continue  # a bare leg contributes the factor one
                edge = propagator(b, self.universe, generalized=self.theory.generalized).poly
                factor = {key: x * edge for key, x in self._walk(b).items()}
                nxt: dict = {}
                for k1, x1 in merged.items():
                    for k2, x2 in factor.items():
                        if self.single and k1 != _NO_INT and k2 != _NO_INT:
                            continue
                        key = k1 if k2 == _NO_INT else k2
                        prod = x1 * x2
                        if prod:
                            nxt[key] = _accumulate(nxt[key], prod) if key in nxt else prod
                merged = nxt
                if not merged:
                    break
            if not merged:
                continue
            valence = len(blocks) + 1
            weights, interactions = self._valence(valence)
            free: dict = {}
            for k, terms in weights:
                for choice in itertools.combinations(blocks, k):
                    edge = self._edge(frozenset().union(*choice))
                    if edge is not None:
                        merge_terms(free, ((mono * edge, c) for mono, c in terms.items()))
            vertices = [(Polynomial(free), False)] if free else []
            vertices += [(x, self.single) for x in interactions]
            for vertex, keyed in vertices:
                for key, x in merged.items():
                    if keyed and key != _NO_INT:
                        continue
                    key = valence if keyed else key
                    prod = x * vertex
                    result[key] = _accumulate(result[key], prod) if key in result else prod
        result = {key: x for key, x in result.items() if x}
        self._memo[block] = result
        return result

    def _below(self, t: int) -> dict:
        """The subtree sums of the block of bitmask ``t``: the top vertex
        and the child edges, not the parent edge."""
        keyed = {k: RationalFunction(x) for k, x in self._walk(_legs(t)).items()}
        return keyed or {_NO_INT: RF_ZERO}

    def amputated(self, m: int) -> dict:
        """The amputated sum on ``{1..m}`` with virtual root ``m``: the
        subtree sums of ``{1..m-1}`` with every edge renamed from the
        universe to ``{1..m}``, where the block's own edge is leg ``m``,
        and then leg ``m``'s symbol set to zero when it is onshell."""
        keyed = self._below((1 << m) - 2)
        if m == len(self.universe):
            return keyed
        gen = self.theory.generalized
        onshell = {edge_symbol(frozenset((m,)), gen): RF_ZERO} if m in self.onshell else {}
        renamed = {k: _renamed(x, self.universe, m, gen).substitute(onshell) for k, x in keyed.items()}
        return {k: x for k, x in renamed.items() if not x.is_zero()} or {_NO_INT: RF_ZERO}

    def rooted(self, m: int) -> dict:
        """The subtree sums of ``{1..m}`` times the block's propagator; a
        bare leg is one."""
        block = frozenset(range(1, m + 1))
        if m == 1:
            return {_NO_INT: RationalFunction(Polynomial.constant(1))}
        edge = propagator(block, self.universe, generalized=self.theory.generalized)
        keyed = {k: RationalFunction(x) * edge for k, x in self._walk(block).items()}
        return keyed or {_NO_INT: RF_ZERO}


def install(monkeypatch) -> None:
    """Make the public tree-sum functions build the partition walk."""
    monkeypatch.setattr(trees, "TreeSumEngine", PartitionWalkEngine)
