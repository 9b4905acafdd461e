"""Stratification semantics [CH, ABW] — the baseline semantics of §1.

A program is *stratified* iff its program graph has no cycle containing a
negative edge.  IDB predicates then split into levels (strata) such that
each level depends positively on its own or lower levels and negatively
only on lower levels; evaluating least fixpoints level-by-level yields the
standard model.

Theorem 5 of the paper characterizes stratified programs as exactly those
that are *structurally well-founded total*: on them the well-founded model
is total and equals the standard model (Van Gelder, Ross and Schlipf).  So
the ``stratified`` registry entry checks :func:`stratification` and then
runs the well-founded kernel on the engine's ground program; this module
holds the stratification analysis it checks with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.datalog.program import Program
from repro.analysis.program_graph import program_graph
from repro.graphs.scc import strongly_connected_components

__all__ = ["Stratification", "stratification", "is_stratified"]


@dataclass(frozen=True)
class Stratification:
    """Levels for a stratified program.

    ``level`` maps every predicate to its stratum (EDB predicates are
    level 0 — the paper's "zeroth level"); ``strata[i]`` lists the
    predicates of level ``i``.
    """

    level: dict[str, int]
    strata: tuple[frozenset[str], ...]


def stratification(program: Program) -> Optional[Stratification]:
    """Compute strata, or None if the program is not stratified.

    A single SCC of G(Π) containing a negative edge (including a negative
    self-loop) defeats stratification; otherwise levels are the longest
    count of negative edges on any path into the predicate.
    """
    graph = program_graph(program)
    succ = graph.successor_lists()
    components = strongly_connected_components(
        graph.node_count, lambda u: (v for v, _ in succ[u])
    )
    comp_id = {}
    for cid, comp in enumerate(components):
        for node in comp:
            comp_id[node] = cid

    # Negative edge inside a component => unstratifiable.
    for u in range(graph.node_count):
        for v, positive in succ[u]:
            if not positive and comp_id[u] == comp_id[v]:
                return None

    # Components in dependency-first order: reversed Tarjan output.
    comp_level = [0] * len(components)
    for cid in reversed(range(len(components))):
        for u in components[cid]:
            for v, positive in succ[u]:
                target = comp_id[v]
                if target != cid:
                    bump = 0 if positive else 1
                    comp_level[target] = max(comp_level[target], comp_level[cid] + bump)

    level = {
        graph.label_of(node): comp_level[comp_id[node]] for node in range(graph.node_count)
    }
    for predicate in program.edb_predicates:
        level[predicate] = 0
    height = max(level.values(), default=0)
    strata = tuple(
        frozenset(p for p, l in level.items() if l == i) for i in range(height + 1)
    )
    return Stratification(level, strata)


def is_stratified(program: Program) -> bool:
    """True iff G(Π) has no cycle containing a negative edge."""
    return stratification(program) is not None
