"""Tests for SCCs, tie analysis (Lemma 1), and odd-cycle extraction."""

import random

import pytest

from repro.errors import NotATieError
from repro.graphs.condensation import bottom_components, component_ids
from repro.graphs.odd_cycles import find_odd_cycle, has_odd_cycle, is_cycle_balanced
from repro.graphs.scc import (
    scc_of_signed_digraph,
    signed_strongly_connected_components,
    strongly_connected_components,
)
from repro.graphs.signed_digraph import SignedDigraph
from repro.graphs.ties import analyze_component, extract_simple_odd_cycle


def graph_of(*edges):
    """Helper: edges are (u, v, sign) with sign '+'/'-'."""
    return SignedDigraph.from_edges((u, v, s == "+") for u, v, s in edges)


class TestSCC:
    def test_two_cycles_and_bridge(self):
        g = graph_of(("a", "b", "+"), ("b", "a", "+"), ("b", "c", "+"),
                     ("c", "d", "+"), ("d", "c", "+"))
        comps = [sorted(c) for c in scc_of_signed_digraph(g)]
        assert sorted(map(tuple, comps)) == [("a", "b"), ("c", "d")]

    def test_reverse_topological_order(self):
        g = graph_of(("a", "b", "+"), ("b", "c", "+"))
        comps = scc_of_signed_digraph(g)
        # edge a->b means component of b precedes component of a
        order = {c[0]: i for i, c in enumerate(comps)}
        assert order["c"] < order["b"] < order["a"]

    def test_long_chain_no_recursion_error(self):
        n = 50_000
        succ = [[i + 1] if i + 1 < n else [] for i in range(n)]
        comps = strongly_connected_components(n, lambda u: succ[u])
        assert len(comps) == n

    def test_big_cycle_single_component(self):
        n = 10_000
        succ = [[(i + 1) % n] for i in range(n)]
        comps = strongly_connected_components(n, lambda u: succ[u])
        assert len(comps) == 1 and len(comps[0]) == n

    def test_self_loop(self):
        g = graph_of(("a", "a", "+"))
        assert scc_of_signed_digraph(g) == [["a"]]


class TestSignedSCC:
    """The signed Tarjan: the components of the unsigned one, in the same
    order, and side bits whose classes are Lemma 1's partition."""

    @staticmethod
    def _random_graph(seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        adj = [[] for _ in range(n)]
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u].append(v if rng.random() < 0.5 else ~v)
        roots = list(range(n))
        rng.shuffle(roots)
        return n, adj, roots

    @pytest.mark.parametrize("seed", range(200))
    def test_components_and_bits_match_the_oracles(self, seed):
        n, adj, roots = self._random_graph(seed)
        unsigned = strongly_connected_components(
            n, lambda u: [t if t >= 0 else ~t for t in adj[u]], nodes=roots
        )
        bits = bytearray(n)
        assert signed_strongly_connected_components(n, adj, roots, bits) == unsigned
        comp = {node: k for k, nodes in enumerate(unsigned) for node in nodes}
        for k, nodes in enumerate(unsigned):
            inside = [(u, t) for u in nodes for t in adj[u] if comp[t if t >= 0 else ~t] == k]
            fresh = analyze_component(
                nodes, lambda u: [(t if t >= 0 else ~t, t >= 0) for x, t in inside if x == u]
            )
            consistent = all(bits[u] ^ bits[t if t >= 0 else ~t] == (t < 0) for u, t in inside)
            assert consistent == fresh.is_tie
            if fresh.is_tie:
                root = nodes[0]
                assert all(
                    bits[x] ^ bits[root] == fresh.sides[x] ^ fresh.sides[root] for x in nodes
                )

    def test_long_negative_chain_labels_alternately(self):
        n = 50_000
        adj = [[~(i + 1)] if i + 1 < n else [] for i in range(n)]
        bits = bytearray(n)
        comps = signed_strongly_connected_components(n, adj, range(n), bits)
        assert len(comps) == n
        assert bits == bytearray(i & 1 for i in range(n))


class TestTieAnalysis:
    def run(self, *edges):
        g = graph_of(*edges)
        succ = g.successor_lists()
        comp = list(range(g.node_count))
        return g, analyze_component(comp, lambda u: succ[u])

    def test_two_node_negative_cycle_is_tie(self):
        """p <-> q with both edges negative: the archetypal tie."""
        g, analysis = self.run(("p", "q", "-"), ("q", "p", "-"))
        assert analysis.is_tie
        sides = analysis.sides
        assert sides[g.index_of("p")] != sides[g.index_of("q")]

    def test_positive_cycle_is_tie_same_side(self):
        g, analysis = self.run(("p", "q", "+"), ("q", "p", "+"))
        assert analysis.is_tie
        assert analysis.sides[g.index_of("p")] == analysis.sides[g.index_of("q")]

    def test_negative_self_loop_not_tie(self):
        g, analysis = self.run(("p", "p", "-"))
        assert not analysis.is_tie
        assert analysis.odd_cycle == ((g.index_of("p"), g.index_of("p"), False),)

    def test_one_negative_one_positive_cycle_not_tie(self):
        _, analysis = self.run(("p", "q", "-"), ("q", "p", "+"))
        assert not analysis.is_tie
        negatives = sum(1 for _, _, s in analysis.odd_cycle if not s)
        assert negatives % 2 == 1

    def test_triangle_three_negatives_not_tie(self):
        """The paper's 3-rule example component contains a 3-negative cycle."""
        _, analysis = self.run(("a", "b", "-"), ("b", "c", "-"), ("c", "a", "-"))
        assert not analysis.is_tie
        assert len(analysis.odd_cycle) == 3

    def test_parallel_edges_of_both_signs_not_tie(self):
        _, analysis = self.run(("p", "q", "+"), ("p", "q", "-"), ("q", "p", "+"))
        assert not analysis.is_tie

    def test_four_cycle_two_negatives_is_tie(self):
        g, analysis = self.run(("a", "b", "-"), ("b", "c", "+"), ("c", "d", "-"), ("d", "a", "+"))
        assert analysis.is_tie
        sides = analysis.sides
        k = {n for n, s in sides.items() if s == sides[g.index_of("a")]}
        assert {g.label_of(i) for i in k} == {"a", "d"}

    def test_side_nodes_raises_without_partition(self):
        _, analysis = self.run(("p", "p", "-"))
        with pytest.raises(NotATieError):
            analysis.side_nodes(0)

    def test_side_nodes_sorted_regardless_of_discovery_order(self):
        """``side_nodes`` returns ascending node ids, not insertion order.

        Regression: the sides dict is keyed in spanning-walk discovery
        order, which on this 4-cycle visits d (id 3) before c (id 2);
        the per-side views must still come back sorted.
        """
        g, analysis = self.run(
            ("a", "b", "-"), ("b", "c", "+"), ("c", "d", "-"), ("d", "a", "+")
        )
        for side in (0, 1):
            nodes = analysis.side_nodes(side)
            assert nodes == sorted(nodes)
        assert sorted(analysis.side_nodes(0) + analysis.side_nodes(1)) == list(
            range(g.node_count)
        )

    def test_singleton_component_trivial_tie(self):
        g = SignedDigraph()
        g.add_node("solo")
        analysis = analyze_component([0], lambda u: [])
        assert analysis.is_tie and analysis.sides == {0: 0}

    def test_odd_cycle_is_simple_and_closed(self):
        g, analysis = self.run(
            ("a", "b", "+"), ("b", "c", "-"), ("c", "a", "+"),
            ("c", "d", "+"), ("d", "b", "+"),
        )
        assert not analysis.is_tie
        cycle = analysis.odd_cycle
        # closed
        assert cycle[-1][1] == cycle[0][0]
        for (u, v, _), (u2, _, _2) in zip(cycle, cycle[1:]):
            assert v == u2
        # simple: sources all distinct
        sources = [u for u, _, _ in cycle]
        assert len(set(sources)) == len(sources)


class TestExtractSimpleOddCycle:
    def test_already_simple(self):
        walk = [(0, 1, False), (1, 0, True)]
        assert extract_simple_odd_cycle(walk) == walk

    def test_splices_even_subcycle(self):
        # walk: 0 -> 1 -> 2 -> 1 -> 0 where 1->2->1 is even, outer is odd
        walk = [(0, 1, False), (1, 2, True), (2, 1, True), (1, 0, True)]
        cycle = extract_simple_odd_cycle(walk)
        assert sum(1 for _, _, s in cycle if not s) % 2 == 1
        sources = [u for u, _, _ in cycle]
        assert len(set(sources)) == len(sources)

    def test_inner_odd_subcycle_returned(self):
        # 1 -> 2 -> 1 has one negative: odd inner cycle
        walk = [(0, 1, True), (1, 2, False), (2, 1, True), (1, 0, False)]
        cycle = extract_simple_odd_cycle(walk)
        assert sum(1 for _, _, s in cycle if not s) % 2 == 1

    def test_empty_walk_rejected(self):
        with pytest.raises(ValueError):
            extract_simple_odd_cycle([])


class TestWholeGraphOddCycles:
    def test_balanced_graph(self):
        g = graph_of(("p", "q", "-"), ("q", "p", "-"), ("q", "r", "-"))
        assert is_cycle_balanced(g)
        assert find_odd_cycle(g) is None

    def test_odd_cycle_found_in_deep_component(self):
        g = graph_of(
            ("a", "b", "+"), ("b", "a", "+"),   # tie component
            ("b", "x", "+"),
            ("x", "y", "-"), ("y", "x", "+"),   # odd component
        )
        assert has_odd_cycle(g)
        cycle = find_odd_cycle(g)
        labels = {e.source for e in cycle}
        assert labels == {"x", "y"}

    def test_acyclic_graph_balanced(self):
        g = graph_of(("a", "b", "-"), ("b", "c", "-"), ("a", "c", "-"))
        assert is_cycle_balanced(g)


class TestCondensation:
    def test_bottom_components(self):
        # a <-> b feeding c <-> d : bottom is {c, d}? edges point a->...->c,
        # so component of (c,d) has incoming: NOT bottom; (a,b) is bottom.
        g = graph_of(("a", "b", "+"), ("b", "a", "+"), ("b", "c", "+"),
                     ("c", "d", "+"), ("d", "c", "+"))
        succ = g.successor_lists()
        comps = strongly_connected_components(g.node_count, lambda u: (v for v, _ in succ[u]))
        bottoms = bottom_components(comps, lambda u: (v for v, _ in succ[u]), g.node_count)
        bottom_labels = {g.label_of(i) for b in bottoms for i in comps[b]}
        assert bottom_labels == {"a", "b"}

    def test_component_ids_default(self):
        ids = component_ids(4, [[0, 1]])
        assert ids == [0, 0, -1, -1]
