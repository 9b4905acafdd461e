"""Tests for modular (split) well-founded evaluation."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.datalog.atoms import Atom, atom
from repro.datalog.database import Database
from repro.datalog.parser import parse_database, parse_program
from repro.api import Engine

from tests.properties.strategies import propositional_cases, small_predicate_cases


def assert_matches_monolithic(program, db):
    modular = Engine(program, db).solve("modular", grounding="full")
    monolithic = Engine(program, db).solve("well_founded", grounding="full").model
    for a in monolithic.true_atoms():
        assert modular.value(a) is True, str(a)
    for a in monolithic.false_atoms():
        assert modular.value(a) is False, str(a)
    for a in monolithic.undefined_atoms():
        assert modular.value(a) is None, str(a)


class TestModularEquivalence:
    CASES = [
        ("a :- not b. b :- not a. safe :- e, not a.", "e."),
        ("p :- p. q :- not p.", ""),
        ("l0 :- e. l1 :- not l0. l2 :- not l1.", "e."),
        ("win(X) :- move(X, Y), not win(Y).", "move(1,2). move(2,1). move(1,3)."),
        ("a :- b. b :- a. c :- not a.", ""),
        ("x :- not y. y :- not x. z :- x, y.", ""),
    ]

    @pytest.mark.parametrize("source,db_source", CASES)
    def test_corpus(self, source, db_source):
        program = parse_program(source)
        db = parse_database(db_source) if db_source else Database()
        assert_matches_monolithic(program, db)

    def test_undefinedness_propagates_through_gadgets(self):
        program = parse_program("a :- not b. b :- not a. down :- a, e.")
        db = parse_database("e.")
        result = Engine(program, db).solve("modular")
        assert result.value(Atom("down")) is None

    def test_definite_layers_stay_definite(self):
        program = parse_program("base :- e. mid :- base, not off. top :- mid.")
        db = parse_database("e.")
        result = Engine(program, db).solve("modular")
        assert result.is_total
        assert result.value(Atom("top")) is True

    def test_component_count(self):
        program = parse_program("a :- b. b :- a. c :- not a. d :- c.")
        result = Engine(program, Database()).solve("modular")
        # components: {a, b}, {c}, {d} (EDB-only components skipped)
        assert result.iterations == 3

    def test_value_resolves_edb(self):
        program = parse_program("p(X) :- e(X).")
        db = parse_database("e(1).")
        result = Engine(program, db).solve("modular")
        assert result.value(atom("e", 1)) is True
        assert result.value(atom("e", 2)) is False


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=propositional_cases())
def test_modular_equals_monolithic_random(case):
    program, db = case
    assert_matches_monolithic(program, db)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=small_predicate_cases())
def test_modular_equals_monolithic_predicates(case):
    program, db = case
    assert_matches_monolithic(program, db)
