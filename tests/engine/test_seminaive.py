"""Tests for semi-naive least-model evaluation and the upper-bound model."""

import pytest

from repro.datalog.database import Database
from repro.datalog.grounding import universe_of
from repro.datalog.parser import parse_database, parse_program
from repro.datalog.rules import Rule
from repro.engine.plan import ConstantPool
from repro.engine.seminaive import SemiNaiveSession, least_model, upper_bound_model
from repro.errors import GroundingError
from repro.workloads import families


def rows(store, pred):
    return {tuple(c.value for c in row) for row in store.rows(pred)}


class TestLeastModel:
    def test_transitive_closure(self):
        prog = parse_program(
            """
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- tc(X, Y), edge(Y, Z).
            """
        )
        db = parse_database("edge(1, 2). edge(2, 3). edge(3, 4).")
        store = least_model(prog, db)
        assert rows(store, "tc") == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}

    def test_long_chain(self):
        prog = parse_program("r(X, Y) :- e(X, Y). r(X, Z) :- r(X, Y), e(Y, Z).")
        db = Database.from_dict({"e": [(i, i + 1) for i in range(60)]})
        store = least_model(prog, db)
        assert store.count("r") == 61 * 60 // 2

    def test_propositional(self):
        prog = parse_program("p :- q. q :- r. r.")
        store = least_model(prog, Database())
        assert store.contains("p", ()) and store.contains("q", ())

    def test_requires_positive(self):
        prog = parse_program("p :- not q.")
        with pytest.raises(GroundingError):
            least_model(prog, Database())

    def test_positivize_drops_negation(self):
        prog = parse_program("p(X) :- e(X), not q(X). q(X) :- e(X), not p(X).")
        db = parse_database("e(1).")
        store = least_model(prog, db, positivize=True)
        assert rows(store, "p") == {(1,)} and rows(store, "q") == {(1,)}

    def test_unbound_head_variable_enumerates_universe(self):
        # Program (2) of the paper, positivized: head variable Y is unbound.
        prog = parse_program("p(X, Y) :- e(X), not p(Y, Y).")
        db = parse_database("e(1). e(2).")
        universe = universe_of(prog, db)
        store = least_model(prog, db, positivize=True, universe=universe)
        assert rows(store, "p") == {(x, y) for x in (1, 2) for y in (1, 2)}

    def test_unbound_head_variable_empty_universe_yields_nothing(self):
        """Over an empty universe there are no ground atoms of arity >= 1,
        so the rule simply has no instances (matching full grounding)."""
        prog = parse_program("p(Y) :- q.")
        db = Database.from_dict({"q": [()]})
        store = least_model(prog, db)
        assert store.count("p") == 0 and store.contains("q", ())

    def test_facts_in_program(self):
        prog = parse_program("p(a). q(X) :- p(X).")
        store = least_model(prog, Database())
        assert rows(store, "q") == {("a",)}


class TestUpperBoundModel:
    def test_upper_bound_contains_wf_true_atoms(self):
        prog = parse_program("win(X) :- move(X, Y), not win(Y).")
        db = parse_database("move(1, 2). move(2, 3).")
        store = upper_bound_model(prog, db, universe=universe_of(prog, db))
        # Positivized: win(X) :- move(X, Y); so 1 and 2 can win.
        assert rows(store, "win") == {(1,), (2,)}

    def test_self_supporting_cycle_excluded(self):
        # p :- p has empty least model: p is NOT in the upper bound.
        prog = parse_program("p :- p.")
        store = upper_bound_model(prog, Database())
        assert store.count("p") == 0


class TestSemiNaiveSession:
    def test_rederive_plan_probes_head_bound_literal_first(self):
        # defeated(X) :- attacks(Y, X), accepted(Y): with X bound by the
        # head probe, attacks(Y, X) is a keyed lookup and binds Y for
        # accepted(Y) — the other order scans every accepted row.
        program, database = families.grounded_argumentation(9)
        rules = [Rule(r.head, r.positive_body()) for r in program.rules]
        session = SemiNaiveSession(rules, database, pool=ConstantPool())
        [(plan, _n_slots)] = session._rederive_plans_for("defeated")
        assert [step.predicate for step in plan.steps] == ["defeated", "attacks", "accepted"]
        assert plan.steps[1].key_positions == (1,)

    def test_retract_rederives_through_head_bound_plan(self):
        prog = parse_program(
            "accepted(X) :- arg(X), not defeated(X). defeated(X) :- attacks(Y, X), accepted(Y)."
        )
        db = parse_database("arg(1). arg(2). arg(3). attacks(1, 3). attacks(2, 3).")
        rules = [Rule(r.head, r.positive_body()) for r in prog.rules]
        pool = ConstantPool()
        session = SemiNaiveSession(rules, db, pool=pool)
        one, two, three = (pool.intern(c) for c in sorted(db.constants(), key=str))
        removed = session.retract([("attacks", (one, three))])
        # defeated(3) keeps its derivation through attacks(2, 3).
        assert session.store.contains("defeated", (three,))
        assert not removed.contains("defeated", (three,))
        removed = session.retract([("attacks", (two, three))])
        assert removed.contains("defeated", (three,))
