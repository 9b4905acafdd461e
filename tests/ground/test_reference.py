"""Differential tests: naive reference machinery vs the production worklist."""

from hypothesis import HealthCheck, given, settings

from repro.datalog.database import Database
from repro.datalog.grounding import ground
from repro.datalog.parser import parse_database, parse_program
from repro.ground.reference import (
    NaiveGraph,
    naive_close,
    naive_greatest_unfounded_set,
    naive_well_founded,
)
from repro.ground.state import GroundGraphState
from repro.api import Engine

from tests.properties.strategies import propositional_cases, small_predicate_cases

CASES = [
    ("p :- q. q.", ""),
    ("p :- not q.", ""),
    ("p :- p.", ""),
    ("p :- p, not q. q :- q, not p.", ""),
    ("p :- not q. q :- not p. r :- p.", ""),
    ("a :- a. b :- not a. c :- b, not c.", ""),
    ("win(X) :- move(X, Y), not win(Y).", "move(1,2). move(2,3). move(3,1)."),
    ("p(a) :- not p(X), e(b).", "e(b)."),
]


def both_states(source, db_source):
    program = parse_program(source)
    db = parse_database(db_source) if db_source else Database()
    gp = ground(program, db, mode="full")
    fast = GroundGraphState(gp)
    fast.close()
    slow = NaiveGraph.initial(gp)
    naive_close(slow)
    return gp, fast, slow


class TestNaiveClose:
    def test_agrees_on_corpus(self):
        for source, db_source in CASES:
            gp, fast, slow = both_states(source, db_source)
            assert list(fast.status) == list(slow.status), source
            assert set(i for i in range(gp.atom_count) if fast.atom_alive[i]) == slow.alive_atoms
            assert set(i for i in range(gp.rule_count) if fast.rule_alive[i]) == slow.alive_rules

    def test_unfounded_agrees_on_corpus(self):
        for source, db_source in CASES:
            gp, fast, slow = both_states(source, db_source)
            assert set(fast.unfounded_atoms()) == naive_greatest_unfounded_set(slow), source

    def test_well_founded_agrees_on_corpus(self):
        for source, db_source in CASES:
            program = parse_program(source)
            db = parse_database(db_source) if db_source else Database()
            gp = ground(program, db, mode="full")
            fast = Engine(program, db, ground_program=gp).solve("well_founded")
            slow = naive_well_founded(gp)
            assert fast.model.status == slow.status, source


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=propositional_cases())
def test_naive_wf_equals_production_wf_random(case):
    program, db = case
    gp = ground(program, db, mode="full")
    fast = Engine(program, db, ground_program=gp).solve("well_founded")
    slow = naive_well_founded(ground(program, db, mode="full"))
    assert fast.model.status == slow.status


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=small_predicate_cases())
def test_naive_wf_equals_production_wf_predicates(case):
    program, db = case
    fast = Engine(program, db).solve("well_founded", grounding="full")
    slow = naive_well_founded(ground(program, db, mode="full"))
    assert fast.model.status == slow.status
