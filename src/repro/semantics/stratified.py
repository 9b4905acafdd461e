"""Stratification semantics [CH, ABW] — the baseline semantics of §1.

A program is *stratified* iff its program graph has no cycle containing a
negative edge.  IDB predicates then split into levels (strata) such that
each level depends positively on its own or lower levels and negatively
only on lower levels; evaluating least fixpoints level-by-level yields the
standard model.

Theorem 5 of the paper characterizes stratified programs as exactly those
that are *structurally well-founded total*, which makes this module both a
baseline semantics and a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.grounding import universe_of
from repro.datalog.program import Program
from repro.engine.facts import FactStore
from repro.engine.matching import enumerate_bindings, order_body_for_join
from repro.errors import SemanticsError
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


def _stratified_model(
    program: Program,
    database: Database,
    *,
    max_branch: int = 200_000,
) -> frozenset[Atom]:
    """Implementation behind the ``stratified`` registry entry.

    Evaluates strata bottom-up: within a stratum, a least fixpoint where
    negative literals are checked against the (already final) lower strata.
    Initial IDB facts of Δ participate as seeds — the uniform setting.
    """
    strat = stratification(program)
    if strat is None:
        raise SemanticsError("program is not stratified")
    universe = universe_of(program, database)
    store = FactStore.from_database(database)

    height = len(strat.strata)
    for current in range(height):
        rules = [r for r in program.rules if strat.level[r.head.predicate] == current]
        changed = True
        while changed:
            changed = False
            for rule in rules:
                ordered = order_body_for_join(list(rule.positive_body()))
                derived = []  # buffered: the store must not grow mid-join
                for binding in enumerate_bindings(ordered, store):
                    unbound = [v for v in rule.variables() if v not in binding]
                    if unbound and not universe:
                        continue
                    combos = len(universe) ** len(unbound) if unbound else 1
                    if combos > max_branch:
                        raise SemanticsError(
                            f"rule {rule}: {combos} unbound instantiations exceed max_branch"
                        )
                    for values in product(universe, repeat=len(unbound)):
                        extended = dict(binding)
                        extended.update(zip(unbound, values))
                        if any(
                            store.contains_atom(lit.atom.substitute(extended))
                            for lit in rule.negative_body()
                        ):
                            continue
                        derived.append(rule.head.substitute(extended))
                for head in derived:
                    if store.add_atom(head):
                        changed = True
    return frozenset(store.atoms())
