"""Tests for dependency analysis and the query API."""

import pytest

from repro.analysis.dependencies import (
    depends_on,
    negation_depth,
    negative_dependencies,
    relevant_subprogram,
)
from repro.datalog.parser import parse_database, parse_program
from repro.errors import SemanticsError
from repro.api import Engine


class TestDependsOn:
    def test_transitive_cone(self):
        prog = parse_program("a :- b. b :- not c. c :- d. x :- y.")
        assert depends_on(prog, "a") == {"a", "b", "c", "d"}

    def test_unknown_predicate(self):
        prog = parse_program("a :- b.")
        assert depends_on(prog, "zz") == {"zz"}

    def test_cycle(self):
        prog = parse_program("a :- b. b :- a.")
        assert depends_on(prog, "a") == {"a", "b"}

    def test_self_only(self):
        prog = parse_program("a :- e. b :- f.")
        assert depends_on(prog, "a") == {"a", "e"}


class TestNegativeDependencies:
    def test_direct_negation(self):
        prog = parse_program("a :- not b. b :- c.")
        assert negative_dependencies(prog, "a") == {"b", "c"}

    def test_positive_only(self):
        prog = parse_program("a :- b. b :- c.")
        assert negative_dependencies(prog, "a") == set()

    def test_negation_below_positive(self):
        prog = parse_program("a :- b. b :- not c.")
        assert negative_dependencies(prog, "a") == {"c"}


class TestNegationDepth:
    def test_tower(self):
        prog = parse_program("a :- not b. b :- not c. c :- e.")
        assert negation_depth(prog) == {"a": 2, "b": 1, "c": 0, "e": 0}

    def test_cycle_through_negation_is_none(self):
        prog = parse_program("p :- not q. q :- p.")
        depths = negation_depth(prog)
        assert depths["p"] is None and depths["q"] is None

    def test_positive_cycle_finite(self):
        prog = parse_program("p :- q. q :- p. r :- not p.")
        depths = negation_depth(prog)
        assert depths["p"] == 0 and depths["r"] == 1

    def test_downstream_of_poisoned_is_none(self):
        prog = parse_program("p :- not p. r :- p.")
        assert negation_depth(prog)["r"] is None

    def test_matches_stratification_when_finite(self):
        from repro.semantics.stratified import stratification

        prog = parse_program(
            "reach(Y) :- reach(X), edge(X, Y). reach(X) :- start(X). "
            "unreached(X) :- node(X), not reach(X). audit(X) :- unreached(X), not flag(X)."
        )
        depths = negation_depth(prog)
        strat = stratification(prog)
        for predicate, depth in depths.items():
            assert depth == strat.level[predicate], predicate


class TestRelevantSubprogram:
    def test_cuts_unrelated_rules(self):
        prog = parse_program("a :- b. b :- not c. c :- f. d :- e.")
        sub = relevant_subprogram(prog, ["a"])
        assert {r.head.predicate for r in sub.rules} == {"a", "b", "c"}

    def test_multiple_roots(self):
        prog = parse_program("a :- b. d :- e. x :- y.")
        sub = relevant_subprogram(prog, ["a", "d"])
        assert {r.head.predicate for r in sub.rules} == {"a", "d"}

    def test_semantics_preserved_on_cone(self):
        prog = parse_program("a :- not b. b :- c. junk :- not junk.")
        full = Engine(relevant_subprogram(prog, ["a"])).solve("well_founded")
        assert full.is_total  # the odd loop on junk is gone
        assert full.model.value(parse_program("a.").rules[0].head) is True


class TestQuery:
    def test_query_ignores_unrelated_odd_loops(self):
        prog = parse_program("win(X) :- move(X, Y), not win(Y). junk :- not junk.")
        db = parse_database("move(1, 2).")
        result = Engine(relevant_subprogram(prog, ["win"]), db).query("win")
        assert result.total and result.holds(1) and not result.holds(2)

    def test_query_reports_undefined_rows(self):
        prog = parse_program("win(X) :- move(X, Y), not win(Y).")
        db = parse_database("move(1, 2). move(2, 1).")
        result = Engine(relevant_subprogram(prog, ["win"]), db).query("win")
        assert not result.total
        assert result.undefined_rows == {(1,), (2,)}

    def test_tie_breaking_query_totalizes(self):
        prog = parse_program("win(X) :- move(X, Y), not win(Y).")
        db = parse_database("move(1, 2). move(2, 1).")
        engine = Engine(relevant_subprogram(prog, ["win"]), db)
        result = engine.query("win", semantics="tie-breaking")
        assert result.total
        assert len(result.true_rows) == 1  # one side of the draw wins

    def test_edb_query(self):
        prog = parse_program("p(X) :- e(X).")
        db = parse_database("e(1). e(2).")
        result = Engine(relevant_subprogram(prog, ["e"]), db).query("e")
        assert result.true_rows == {(1,), (2,)}

    def test_unknown_predicate_rejected(self):
        engine = Engine(relevant_subprogram(parse_program("p :- q."), ["nope"]), parse_database(""))
        with pytest.raises(SemanticsError):
            engine.query("nope")

    def test_unknown_semantics_rejected(self):
        engine = Engine(relevant_subprogram(parse_program("p :- q."), ["p"]), parse_database(""))
        with pytest.raises(SemanticsError):
            engine.query("p", semantics="magic")
