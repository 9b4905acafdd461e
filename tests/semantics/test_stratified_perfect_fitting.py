"""Tests for stratified evaluation, the perfect model, and Fitting semantics."""

import pytest

from repro.datalog.atoms import Atom, atom
from repro.datalog.database import Database
from repro.datalog.parser import parse_database, parse_program
from repro.errors import SemanticsError
from repro.api import Engine
from repro.semantics.perfect import is_locally_stratified
from repro.semantics.stratified import is_stratified, stratification


class TestStratification:
    def test_positive_program_is_stratified(self):
        assert is_stratified(parse_program("tc(X,Y) :- e(X,Y). tc(X,Z) :- tc(X,Y), e(Y,Z)."))

    def test_negation_across_levels_is_stratified(self):
        prog = parse_program(
            "reach(Y) :- reach(X), edge(X, Y). reach(X) :- start(X). "
            "unreached(X) :- node(X), not reach(X)."
        )
        strat = stratification(prog)
        assert strat is not None
        assert strat.level["reach"] == 0
        assert strat.level["unreached"] == 1

    def test_negative_cycle_not_stratified(self):
        assert not is_stratified(parse_program("p :- not q. q :- not p."))

    def test_negative_self_loop_not_stratified(self):
        assert not is_stratified(parse_program("p :- not p."))

    def test_negation_in_positive_cycle_not_stratified(self):
        assert not is_stratified(parse_program("p :- q. q :- not p."))

    def test_paper_program_1_not_stratified(self):
        """'Program (1) ... is total though unstratifiable' (well, its graph
        has a negative self-loop)."""
        assert not is_stratified(parse_program("p(a) :- not p(X), e(b)."))

    def test_deep_tower_levels(self):
        prog = parse_program(
            "l1 :- not l0. l2 :- not l1. l3 :- not l2. l0 :- e."
        )
        strat = stratification(prog)
        assert [strat.level[f"l{i}"] for i in range(4)] == [0, 1, 2, 3]


class TestStratifiedModel:
    def test_matches_well_founded(self):
        prog = parse_program(
            "reach(Y) :- reach(X), edge(X, Y). reach(X) :- start(X). "
            "unreached(X) :- node(X), not reach(X)."
        )
        db = parse_database(
            "start(1). edge(1, 2). edge(3, 4). node(1). node(2). node(3). node(4)."
        )
        sm = Engine(prog, db).solve("stratified").true_atoms
        wf = Engine(prog, db).solve("well_founded")
        assert wf.is_total
        assert sm == wf.model.true_set()

    def test_rejects_unstratified(self):
        with pytest.raises(SemanticsError):
            Engine(parse_program("p :- not p."), Database()).solve("stratified")

    def test_two_strata_negation(self):
        prog = parse_program("good(X) :- item(X), not bad(X). bad(X) :- flag(X).")
        db = parse_database("item(1). item(2). flag(2).")
        sm = Engine(prog, db).solve("stratified").true_atoms
        names = {str(a) for a in sm if a.predicate in ("good", "bad")}
        assert names == {"good(1)", "bad(2)"}

    def test_uniform_initial_idb_seeds(self):
        prog = parse_program("p(X) :- q(X).")
        db = parse_database("q(1). p(7).")
        sm = Engine(prog, db).solve("stratified").true_atoms
        assert atom("p", 7) in sm and atom("p", 1) in sm


class TestPerfectModel:
    def test_locally_stratified_ground_chain(self):
        """A ground program with negation across levels: perfect model exists."""
        prog = parse_program("a :- not b. b :- c. c.")
        assert is_locally_stratified(prog)
        pm = Engine(prog).solve("perfect").model
        assert pm.value(Atom("c")) is True
        assert pm.value(Atom("b")) is True
        assert pm.value(Atom("a")) is False

    def test_negative_ground_cycle_not_locally_stratified(self):
        prog = parse_program("p :- not q. q :- not p.")
        assert not is_locally_stratified(prog)
        with pytest.raises(SemanticsError):
            Engine(prog).solve("perfect")

    def test_relevant_grounding_recovers_even_odd(self):
        """even/odd over a succ chain is locally stratified once irrelevant
        instances are pruned (full instantiation has spurious cycles)."""
        prog = parse_program("e(X) :- num(X), not o(X). o(X) :- s(Y, X), e(Y).")
        db = parse_database("num(0). num(1). num(2). s(0, 1). s(1, 2).")
        assert not is_locally_stratified(prog, db, grounding="full")
        assert is_locally_stratified(prog, db, grounding="relevant")
        pm = Engine(prog, db).solve("perfect", grounding="relevant").model
        trues = {str(a) for a in pm.true_set() if a.predicate in ("e", "o")}
        assert trues == {"e(0)", "o(1)", "e(2)"}

    def test_tie_breaking_computes_perfect_model(self):
        """§3: 'The tie-breaking algorithm ... will compute the perfect model.'"""
        prog = parse_program("a :- not b. b :- c. c. d :- d. z :- not d.")
        pm = Engine(prog).solve("perfect").model
        for run in (
            Engine(prog).solve("pure_tie_breaking"),
            Engine(prog).solve("tie_breaking", grounding="full"),
        ):
            assert run.is_total
            assert run.model.true_set() == pm.true_set()

    def test_positive_loop_minimized(self):
        pm = Engine(parse_program("p :- p.")).solve("perfect").model
        assert pm.value(Atom("p")) is False


class TestFitting:
    def test_loop_undefined_under_fitting_false_under_wf(self):
        prog = parse_program("p :- p.")
        fm = Engine(prog).solve("fitting").model
        wf = Engine(prog).solve("well_founded", grounding="full")
        assert fm.value(Atom("p")) is None
        assert wf.model.value(Atom("p")) is False

    def test_wf_extends_fitting(self):
        progs = [
            "p :- p. q :- not p. r :- not q.",
            "a :- not b. b :- not a. c :- a, b.",
            "x :- y, not z. y :- x. z :- e.",
        ]
        for source in progs:
            prog = parse_program(source)
            fm = Engine(prog).solve("fitting").model
            wf = Engine(prog).solve("well_founded", grounding="full").model
            for a in fm.true_atoms():
                assert wf.value(a) is True, (source, str(a))
            for a in fm.false_atoms():
                assert wf.value(a) is False, (source, str(a))

    def test_definite_values_propagate(self):
        prog = parse_program("p :- not q. q :- r. r :- e.")
        db = parse_database("e.")
        fm = Engine(prog, db).solve("fitting").model
        assert fm.value(Atom("r")) is True
        assert fm.value(Atom("q")) is True
        assert fm.value(Atom("p")) is False

    def test_requires_full_grounding(self):
        from repro.datalog.grounding import ground

        prog = parse_program("p :- p.")
        gp = ground(prog, Database(), mode="relevant")
        with pytest.raises(SemanticsError, match="fitting semantics requires full grounding"):
            Engine(prog, ground_program=gp).solve("fitting")
