"""Modular well-founded evaluation over the predicate condensation.

The well-founded semantics splits along the program graph's SCC
condensation: evaluate one strongly connected predicate component at a
time, dependency-first, treating lower components' atoms as settled.
Lower atoms that the well-founded semantics left *undefined* are carried
into the sub-evaluation by a two-rule **tie gadget** —

    α :- ¬auxα.     auxα :- ¬α.

— which the well-founded semantics leaves undefined, propagating
three-valuedness exactly (a ground even cycle is the canonical undefined
pair, §3).  The result equals the monolithic well-founded model on every
input (differentially tested), while grounding each component against only
its own slice of the program — the classic win when a program has many
independent layers.

>>> from repro.api import Engine
>>> solution = Engine("a :- not b. b :- not a. safe :- e, not a.", "e.").solve("modular")
>>> sorted(str(x) for x in solution.undefined_atoms)
['a', 'b', 'safe']
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.program_graph import program_graph
from repro.datalog.atoms import Atom, Literal
from repro.datalog.database import Database
from repro.datalog.grounding import GroundingMode, ground, universe_of
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.graphs.scc import strongly_connected_components
from repro.semantics.well_founded import _well_founded_model

__all__ = ["ModularResult"]

_AUX_PREFIX = "undef_aux__"


@dataclass(frozen=True)
class ModularResult:
    """Three-valued outcome of a modular evaluation.

    ``true_atoms`` holds Δ's facts plus the derived IDB atoms, and
    ``undefined_atoms`` the IDB atoms left open; everything else is false.
    """

    true_atoms: frozenset[Atom]
    undefined_atoms: frozenset[Atom]
    component_count: int


def _modular_well_founded_model(
    program: Program,
    database: Database,
    *,
    grounding: GroundingMode = "relevant",
) -> ModularResult:
    """Implementation behind the ``modular`` registry entry."""
    graph = program_graph(program)
    succ = graph.successor_lists()
    components = strongly_connected_components(
        graph.node_count, lambda u: (v for v, _ in succ[u])
    )
    idb = program.idb_predicates
    rules_by_head: dict[str, list[Rule]] = {}
    for rule in program.rules:
        rules_by_head.setdefault(rule.head.predicate, []).append(rule)

    decided = database.copy()  # accumulates true atoms (lower components + Δ)
    undefined: set[Atom] = set()
    true_idb: set[Atom] = set()
    evaluated = 0
    # The universe is global: a component's rules must be instantiated over
    # every constant of the whole program and database, not just its slice.
    global_universe = universe_of(program, database)

    # Reversed Tarjan output = dependency-first (bodies before heads).
    for cid in reversed(range(len(components))):
        predicates = [graph.label_of(node) for node in components[cid]]
        component_rules = [
            rule for predicate in predicates for rule in rules_by_head.get(predicate, [])
        ]
        if not component_rules:
            continue  # pure-EDB component
        evaluated += 1

        # Tie gadgets for lower-component atoms left undefined, restricted
        # to the predicates this component actually references.
        referenced = {
            lit.predicate for rule in component_rules for lit in rule.body
        }
        gadget_rules: list[Rule] = []
        for atom in undefined:
            if atom.predicate not in referenced:
                continue
            aux = Atom(_AUX_PREFIX + atom.predicate, atom.args)
            gadget_rules.append(Rule(atom, (Literal(aux, False),)))
            gadget_rules.append(Rule(aux, (Literal(atom, False),)))

        subprogram = Program(tuple(component_rules) + tuple(gadget_rules))
        gp = ground(
            subprogram, decided, mode=grounding, extra_constants=global_universe
        )
        run = _well_founded_model(subprogram, decided, ground_program=gp)

        component_set = set(predicates)
        for atom in run.model.true_atoms():
            if atom.predicate in component_set and atom.predicate in idb:
                true_idb.add(atom)
                decided.add_atom(atom)
        for atom in run.model.undefined_atoms():
            if atom.predicate in component_set:
                undefined.add(atom)

    return ModularResult(
        true_atoms=frozenset(true_idb).union(database.atoms()),
        undefined_atoms=frozenset(undefined),
        component_count=evaluated,
    )
