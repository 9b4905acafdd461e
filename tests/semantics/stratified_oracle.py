"""The grounding-free stratified evaluator, kept as a differential oracle.

The ``stratified`` semantics runs the well-founded kernel on the engine's
ground program: on a stratified program the well-founded model is total
and equals the stratified model (Van Gelder, Ross and Schlipf).  This is
the independent evaluator it replaced — a level-by-level least fixpoint
over the program and database, with no grounding — so the tests can check
that claim instead of assuming it.
"""

from itertools import product

from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.grounding import universe_of
from repro.datalog.program import Program
from repro.engine.facts import FactStore
from repro.engine.matching import enumerate_bindings, order_body_for_join
from repro.errors import SemanticsError
from repro.semantics.stratified import stratification


def stratified_model(
    program: Program,
    database: Database,
    *,
    max_branch: int = 200_000,
) -> frozenset[Atom]:
    """The stratified model's true atoms, computed without grounding.

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
