"""repro — Tie-Breaking Semantics and Structural Totality.

A complete, from-scratch implementation of Papadimitriou & Yannakakis,
*"Tie-Breaking Semantics and Structural Totality"* (PODS 1992 / JCSS 54,
1997): Datalog with negation, the ground graph and ``close`` machinery, the
well-founded and (pure / well-founded) tie-breaking interpreters, structural
totality analysis, and every reduction in the paper.

Quick start::

    from repro import Engine

    engine = Engine(
        "win(X) :- move(X, Y), not win(Y).",
        "move(1, 2). move(2, 1).",
    )
    assert not engine.solve("well_founded").total   # the draw cycle stays open
    assert engine.solve("tie_breaking").total       # ... until a tie-break
    assert engine.ground_calls == 1                 # one compile served both

See README.md for a tour and DESIGN.md for the module map.  Every
semantics is evaluated through :class:`Engine` (or the one-shot
:func:`solve` / :func:`enumerate_solutions`); :mod:`repro.semantics`
exports the model checkers.
"""

from repro.analysis import (
    classify_program,
    is_call_consistent,
    is_structurally_nonuniformly_total,
    is_structurally_total,
    odd_cycle_in_program_graph,
    program_graph,
    reduced_program,
    structural_report,
    useless_predicates,
)
from repro.datalog import (
    Atom,
    Constant,
    Database,
    Literal,
    Program,
    Rule,
    Variable,
    atom,
    is_alphabetic_variant,
    neg,
    parse_database,
    parse_program,
    pos,
    rule,
    skeleton_of,
)
from repro.api import Engine, Solution, available_semantics, enumerate_solutions, solve
from repro.datalog.grounding import ground
from repro.semantics import is_fixpoint, is_stable_model, is_stratified

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "Constant",
    "Database",
    "Engine",
    "Literal",
    "Program",
    "Rule",
    "Solution",
    "Variable",
    "atom",
    "available_semantics",
    "enumerate_solutions",
    "solve",
    "classify_program",
    "ground",
    "is_alphabetic_variant",
    "is_call_consistent",
    "is_fixpoint",
    "is_stable_model",
    "is_stratified",
    "is_structurally_nonuniformly_total",
    "is_structurally_total",
    "neg",
    "odd_cycle_in_program_graph",
    "parse_database",
    "parse_program",
    "pos",
    "program_graph",
    "reduced_program",
    "rule",
    "skeleton_of",
    "structural_report",
    "useless_predicates",
    "__version__",
]
