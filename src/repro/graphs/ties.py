"""Ties and the (K, L) partition — Lemma 1 of the paper.

A strongly connected signed digraph ``T = (V, E+, E−)`` is a **tie** iff it
contains no cycle with an odd number of negative edges.  Lemma 1: ``T`` is a
tie iff its nodes split into two sets ``K`` and ``L`` such that every
positive edge stays within a side and every negative edge crosses sides —
and this is testable in linear time.

The algorithm follows the paper's proof: grow a spanning tree from an
arbitrary root, assign each node the side given by the parity of negative
edges on its tree path, then verify every non-tree edge.  A violating edge
yields a closed walk with an odd number of negative edges, from which a
*simple* odd cycle is spliced out (the decomposition argument of §3).

:func:`analyze_component` is the one-shot form: the kernel's odd-cycle
witness for non-ties and the ``full_recompute`` oracle for the side bits
it reads off its own condensation (:mod:`repro.ground.state`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import NotATieError

__all__ = ["TieAnalysis", "analyze_component", "extract_simple_odd_cycle"]

SignedArc = tuple[int, int, bool]  # (source, target, positive)


@dataclass(frozen=True)
class TieAnalysis:
    """Result of analysing one strongly connected component.

    Exactly one of ``sides`` / ``odd_cycle`` is set:

    * ``is_tie`` — the component has no odd cycle; ``sides`` maps each node
      to ``0`` (the root's side, the paper's K) or ``1`` (the paper's L);
    * otherwise ``odd_cycle`` is a simple cycle, as a list of
      ``(source, target, positive)`` arcs, containing an odd number of
      negative arcs.
    """

    is_tie: bool
    sides: dict[int, int] | None = None
    odd_cycle: tuple[SignedArc, ...] | None = None

    def side_nodes(self, side: int) -> list[int]:
        """Nodes assigned to ``side`` (0 or 1); requires ``is_tie``."""
        if self.sides is None:
            raise NotATieError("component has an odd cycle; no (K, L) partition exists")
        return sorted(node for node, s in self.sides.items() if s == side)


def analyze_component(
    component: Sequence[int],
    successors: Callable[[int], Iterable[tuple[int, bool]]],
) -> TieAnalysis:
    """Apply Lemma 1 to one strongly connected component.

    ``component`` lists the node indices of the component; ``successors(u)``
    yields signed out-edges of ``u`` (edges leaving the component are
    ignored).  The component is assumed strongly connected — as produced by
    :func:`repro.graphs.scc.strongly_connected_components`.

    Runs in time linear in the component's size, per Lemma 1.
    """
    members = set(component)
    root = component[0]

    # Spanning tree by BFS; side = parity of negative edges on the tree path.
    side: dict[int, int] = {root: 0}
    parent: dict[int, SignedArc] = {}
    queue: deque[int] = deque([root])
    while queue:
        u = queue.popleft()
        for v, positive in successors(u):
            if v not in members or v in side:
                continue
            side[v] = side[u] ^ (0 if positive else 1)
            parent[v] = (u, v, positive)
            queue.append(v)

    # Verify every in-component edge against the partition.
    for u in component:
        for v, positive in successors(u):
            if v not in members:
                continue
            consistent = (side[u] == side[v]) if positive else (side[u] != side[v])
            if not consistent:
                cycle = _odd_cycle_via_violation(
                    root, (u, v, positive), side, parent, members, successors
                )
                return TieAnalysis(is_tie=False, odd_cycle=tuple(cycle))
    return TieAnalysis(is_tie=True, sides=side)


def _tree_path(root: int, node: int, parent: dict[int, SignedArc]) -> list[SignedArc]:
    """Arcs of the spanning-tree path root → node."""
    path: list[SignedArc] = []
    while node != root:
        arc = parent[node]
        path.append(arc)
        node = arc[0]
    path.reverse()
    return path


def _bfs_path(
    start: int,
    goal: int,
    members: set[int],
    successors: Callable[[int], Iterable[tuple[int, bool]]],
) -> list[SignedArc]:
    """Arcs of some in-component path start → goal (exists: strongly connected)."""
    if start == goal:
        return []
    parent: dict[int, SignedArc] = {}
    queue: deque[int] = deque([start])
    seen = {start}
    while queue:
        u = queue.popleft()
        for v, positive in successors(u):
            if v not in members or v in seen:
                continue
            parent[v] = (u, v, positive)
            if v == goal:
                return _reconstruct(start, goal, parent)
            seen.add(v)
            queue.append(v)
    raise AssertionError(f"no path {start} → {goal}; component not strongly connected")


def _reconstruct(start: int, goal: int, parent: dict[int, SignedArc]) -> list[SignedArc]:
    path: list[SignedArc] = []
    node = goal
    while node != start:
        arc = parent[node]
        path.append(arc)
        node = arc[0]
    path.reverse()
    return path


def _parity(arcs: Iterable[SignedArc]) -> int:
    return sum(1 for _, _, positive in arcs if not positive) % 2


def _odd_cycle_via_violation(
    root: int,
    violation: SignedArc,
    side: dict[int, int],
    parent: dict[int, SignedArc],
    members: set[int],
    successors: Callable[[int], Iterable[tuple[int, bool]]],
) -> list[SignedArc]:
    """Build a closed odd walk from a partition-violating arc, then simplify.

    Per the Lemma 1 proof: the walks ``root →tree z → w → root`` and
    ``root →tree w → root`` have negative-edge parities differing by one, so
    one of them is odd; a simple odd cycle is then extracted by splicing.
    """
    z, w, positive = violation
    back = _bfs_path(w, root, members, successors)
    walk_a = _tree_path(root, z, parent) + [violation] + back
    walk_b = _tree_path(root, w, parent) + back
    walk = walk_a if _parity(walk_a) == 1 else walk_b
    assert _parity(walk) == 1, "violating edge must yield an odd closed walk"
    return extract_simple_odd_cycle(walk)


def extract_simple_odd_cycle(walk: Sequence[SignedArc]) -> list[SignedArc]:
    """Extract a simple cycle with odd negative parity from a closed odd walk.

    Repeatedly finds the first simple sub-cycle of the walk; if it is odd it
    is returned, otherwise it is spliced out (the remainder stays a closed
    walk of odd parity).  This realises the decomposition argument in §3:
    a non-simple odd cycle decomposes into simple cycles, at least one odd.
    """
    arcs = list(walk)
    if not arcs:
        raise ValueError("empty walk has no cycles")
    while True:
        # Node sequence v0, v1, ..., vn (= v0).
        seen: dict[int, int] = {arcs[0][0]: 0}
        cut: tuple[int, int] | None = None
        for position, (_, target, _) in enumerate(arcs):
            if target in seen:
                cut = (seen[target], position + 1)
                break
            seen[target] = position + 1
        assert cut is not None, "closed walk must contain a cycle"
        start, end = cut
        cycle = arcs[start:end]
        if _parity(cycle) == 1:
            return cycle
        del arcs[start:end]
        assert arcs, "odd walk cannot consist solely of even simple cycles"
