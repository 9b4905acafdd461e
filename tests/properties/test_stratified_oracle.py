"""``stratified`` on the well-founded kernel vs the grounding-free oracle.

The ``stratified`` semantics checks that the program is stratified and
then runs the well-founded kernel on the engine's ground program.  On a
stratified program the well-founded model is total and equals the
stratified model (Van Gelder, Ross and Schlipf; Theorem 5 of the paper
names these programs the structurally well-founded-total ones).  The
oracle is the level-by-level evaluator that needs no grounding
(``tests/semantics/stratified_oracle.py``).  For every case, in relevant
and full mode, on an engine that grounds and on one pinned to a ground
program:

* the solution is total and closed-world;
* its true atoms equal the oracle's, Δ included.

Live updates reuse the well-founded base, and still agree with the
oracle over the mutated database.
"""

from __future__ import annotations

import random

import pytest

from repro.api.engine import Engine
from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.grounding import ground
from repro.datalog.parser import parse_database, parse_program
from repro.errors import SemanticsError
from repro.workloads import families
from repro.workloads.random_programs import random_stratified_program

from tests.semantics.stratified_oracle import stratified_model

MODES = ["relevant", "full"]

HAND_PROGRAMS = {
    # An EDB predicate that no rule mentions.
    "unused_edb": ("t(X) :- e(X), not f(X).", "e(1). e(2). f(2). lonely(3)."),
    # IDB facts in Δ (the uniform setting) above and below a negation.
    "idb_facts": (
        "t(X) :- e(X), not u(X). u(X) :- e(X), not v(X). v(X) :- w(X).",
        "e(1). e(2). w(2). t(7). u(9).",
    ),
    # A negated variable the positive body does not bind.
    "unsafe_negation": ("p(X) :- not q(X). q(X) :- r(X).", "r(1). s(2)."),
    # Recursion through a positive cycle under a negation.
    "reach": (
        "reach(X, Y) :- edge(X, Y). reach(X, Z) :- reach(X, Y), edge(Y, Z). "
        "cut(X, Y) :- node(X), node(Y), not reach(X, Y).",
        "edge(1, 2). edge(2, 3). edge(3, 1). edge(4, 4). node(1). node(2). node(3). node(4).",
    ),
}


def _random_case(seed: int) -> tuple:
    program = random_stratified_program(8, 14, seed=seed)
    rng = random.Random(seed)
    database = Database()
    for predicate in sorted(program.edb_predicates) + sorted(program.idb_predicates)[:1]:
        if rng.random() < 0.6:
            database.add_atom(Atom(predicate))
    return program, database


def _cases():
    for n in (1, 2, 5, 8):
        yield f"negation_tower({n})", lambda n=n: families.negation_tower(n)
    for n in (1, 3, 6):
        yield f"unfounded_tower({n})", lambda n=n: families.unfounded_tower(n)
    for seed in range(30):
        yield f"random_stratified({seed})", lambda seed=seed: _random_case(seed)
    for name, (program, database) in HAND_PROGRAMS.items():
        yield name, lambda p=program, d=database: (parse_program(p), parse_database(d))


CASES = dict(_cases())


def _assert_matches_oracle(solution, program, database, label):
    assert solution.semantics == "stratified", label
    assert solution.total and solution.found, label
    assert solution.closed_world and solution.false_atoms is None, label
    assert solution.true_atoms == stratified_model(program, database), label


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", list(CASES))
def test_stratified_equals_the_oracle(name, mode):
    program, database = CASES[name]()
    label = (name, mode)
    solution = Engine(program, database).solve("stratified", grounding=mode)
    assert solution.grounding == mode, label
    _assert_matches_oracle(solution, program, database, label)

    pinned = Engine(program, database, ground_program=ground(program, database, mode=mode))
    solution = pinned.solve("stratified")
    assert pinned.ground_calls == 0, label
    assert solution.model.ground_program.mode == mode, label
    _assert_matches_oracle(solution, program, database, label)


def test_live_updates_reuse_the_well_founded_base():
    program, database = CASES["reach"]()
    engine = Engine(program, database)
    _assert_matches_oracle(engine.solve("stratified"), program, engine.database, "before")
    updates = ((["edge(4, 1)"], []), ([], ["edge(3, 1)"]), (["edge(3, 1)"], ["edge(4, 4)"]))
    for inserted, retracted in updates:
        patches = engine.wf_patches
        engine.retract_facts(*retracted)
        engine.insert_facts(*inserted)
        solution = engine.solve("stratified")
        label = (inserted, retracted)
        _assert_matches_oracle(solution, program, engine.database, label)
        assert engine.wf_patches == patches + 1, label
        # well_founded reads the same base: one model, two wire forms.
        assert engine.solve("well_founded").model.status == solution.model.status, label


def test_a_program_that_is_not_stratified_is_refused():
    with pytest.raises(SemanticsError, match="program is not stratified"):
        Engine(*families.win_move_line(3)).solve("stratified")


def test_stratified_solutions_explain():
    engine = Engine(*families.negation_tower(4))
    tree = engine.explain("l2", semantics="stratified")
    assert tree.value is True
    assert engine.explain("l3", semantics="stratified").value is False


def test_stratified_reports_the_grounding_it_ran_on():
    solution = Engine(*families.negation_tower(4)).solve("stratified", grounding="full")
    assert solution.grounding == "full"
    assert solution.model.ground_program.mode == "full"
