"""Differential suite for the atom table's literal table.

Every ``repro-solution/1`` encode reads its sorted atom lists from one
:class:`~repro.datalog.grounding.LiteralTable` per atom table: the text
of each atom, the ids in string order, and their ranks.  The programs
here are built from constants whose text order differs from their value
order (``9`` / ``10``, ``1`` / ``-1``, ``"A B"`` / ``"A"``), rows that
differ only after a shared prefix (``b(1, 9)`` / ``b(10, 0)``) and
zero-arity atoms, and run in every grounding mode on a grounding engine
and on ``Engine.from_artifact``.  Insert/retract traces grow the table
(delta-overlay appends, regrounds over new constants), and one ``id_of``
on a never-seen atom takes the eager fallback.  After every step:

* the literal table equals a from-scratch build over ``atom(i)``;
* every encode is byte-equal to the frozenset reference of
  ``test_solution_views``.

A closed-world solution (``stable`` here) lists no false atoms and sorts
only its true and undefined ids; it rides the same traces, and a
full-grounding encode of one must leave the literal table unbuilt.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import Engine
from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant
from repro.io.artifact import dump_ground_program
from repro.io.json_io import solution_to_json
from repro.semantics.choices import FirstSideTrue, SecondSideTrue
from tests.properties.test_solution_views import _reference_obj, _without_timings

MODES = ("relevant", "full", "edb")

# Text order and value order disagree on every pair here.
CONSTANTS = ("9", "10", "1", "-1", "0", '"A B"', '"A"', "a", "ab")

RULES = (
    "p(X, Y) :- b(X, Y), not p(Y, X).",
    "q(X) :- e(X), not r(X).",
    "r(X) :- e(X), not q(X).",
    "q(X) :- p(X, Y), not q(Y).",
    "s(X, 9) :- e(X), not z.",
    "z :- not w.",
    "w :- not z.",
    "z :- e(-1).",
    "t :- b(1, 9), not t2.",
    "t2 :- not t.",
    'q("A B") :- w.',
)


@st.composite
def cases(draw):
    """(program text, facts text, fact pool) over the clashing constants."""
    rules = draw(st.lists(st.sampled_from(RULES), min_size=2, max_size=6, unique=True))
    unary = [f"e({c})" for c in CONSTANTS]
    binary = [f"b({x}, {y})" for x in CONSTANTS for y in CONSTANTS]
    pool = unary + binary
    facts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
    return "\n".join(rules), facts, pool


def _check_table(table) -> None:
    """The literal table equals a from-scratch build over ``atom(i)``."""
    literals = table.literal_table()
    n = len(table)
    expect = [str(table.atom(i)) for i in range(n)]
    assert literals.literals == expect
    assert list(literals.order) == sorted(range(n), key=expect.__getitem__)
    assert all(literals.rank[i] == k for k, i in enumerate(literals.order))


def _check_encodes(engine: Engine, mode: str, label: str) -> None:
    """Every encode of every solved semantics matches the reference bytes."""
    solutions = [
        engine.solve("well_founded", grounding=mode),
        engine.solve("tie_breaking", grounding=mode, policy=FirstSideTrue()),
        engine.solve("tie_breaking", grounding=mode, policy=SecondSideTrue()),
        engine.solve("stable", grounding=mode),  # closed world: sorts only its listed ids
    ]
    for solution in solutions:
        _check_table(solution.model.ground_program.atoms)
        for indent in (None, 2):
            expect = _without_timings(json.dumps(_reference_obj(solution), indent=indent))
            got = _without_timings(solution_to_json(solution, indent=indent))
            assert got == expect, (label, solution.semantics, indent)


def _trace(engine: Engine, mode: str, pool: list[str], rng: random.Random) -> None:
    """Insert/retract steps (new atoms, new constants), then one eager id_of."""
    present = {str(a) for a in engine.database.atoms()}
    for step in range(4):
        picks = rng.sample(pool, k=rng.randint(1, 3))
        retract = [f for f in picks if f in present]
        insert = [f for f in picks if f not in present]
        engine.retract_facts(*retract)
        engine.insert_facts(*insert)
        present.difference_update(retract)
        present.update(insert)
        _check_encodes(engine, mode, f"{mode} step {step}")
    # The eager fallback: a never-seen atom over a never-seen constant
    # grows the table past every model solved so far.
    before = engine.solve("tie_breaking", grounding=mode)
    table = before.model.ground_program.atoms
    fresh = Atom("p", (Constant("never seen"), Constant(10)))
    assert fresh not in table
    index = table.id_of(fresh)
    assert index >= len(before.model.status)
    _check_table(table)
    expect = _without_timings(json.dumps(_reference_obj(before)))
    assert _without_timings(solution_to_json(before, indent=None)) == expect


@settings(max_examples=25, deadline=None)
@given(case=cases(), mode=st.sampled_from(MODES), seed=st.integers(0, 2**16))
def test_literal_table_encodes_match_reference(case, mode, seed):
    program, facts, pool = case
    engine = Engine(program, "\n".join(f + "." for f in facts), grounding=mode)
    _check_encodes(engine, mode, f"{mode} fresh")
    warm = Engine.from_artifact(dump_ground_program(engine.ground_for(mode)))
    _check_encodes(warm, mode, f"{mode} artifact")
    _trace(engine, mode, pool, random.Random(seed))
    _trace(warm, mode, pool, random.Random(seed))


def test_in_place_growth_extends_the_table():
    # A relevant-mode insert inside the universe appends atoms to the live
    # table in place; the next encode extends the published literal table.
    engine = Engine("p(X, Y) :- b(X, Y), not p(Y, X).", "b(1, 9). b(10, 0). b(9, 10).")
    gp = engine.ground_for("relevant")
    table = gp.atoms
    old = engine.solve("tie_breaking")
    first = table.literal_table()
    engine.insert_facts("b(0, 1)")
    assert engine.ground_for("relevant") is gp and engine.delta_applied == 1
    new = engine.solve("tie_breaking")
    assert len(table) > len(first.literals)
    for solution in (old, new):
        expect = _without_timings(json.dumps(_reference_obj(solution)))
        assert _without_timings(solution_to_json(solution, indent=None)) == expect
    grown = table.literal_table()
    assert grown is not first and grown.literals[: len(first.literals)] == first.literals
    _check_table(table)
    # An unchanged table serves the published literal table as is.
    assert table.literal_table() is grown


def test_closed_world_encode_builds_no_literal_table():
    # A full grounding's table is the whole Herbrand base; a closed-world
    # encode formats only the atoms it lists, so no literal table is built.
    engine = Engine("p(X, Y) :- b(X, Y), not p(Y, X).", "b(1, 9). b(10, 0). b(9, 10).")
    solution = engine.solve("stable", grounding="full")
    table = solution.model.ground_program.atoms
    expect = _without_timings(json.dumps(_reference_obj(solution)))
    assert _without_timings(solution_to_json(solution, indent=None)) == expect
    assert table._literal_table is None
