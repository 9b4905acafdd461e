"""Tests for the well-founded interpreter (Algorithm Well-Founded, §2)."""

import pytest

from repro.datalog.atoms import Atom, atom
from repro.datalog.database import Database
from repro.datalog.parser import parse_database, parse_program
from repro.api import Engine


class TestWellFoundedBasics:
    def test_positive_program_least_model(self):
        prog = parse_program("tc(X,Y) :- e(X,Y). tc(X,Z) :- tc(X,Y), e(Y,Z).")
        db = parse_database("e(1,2). e(2,3).")
        run = Engine(prog, db).solve("well_founded")
        assert run.is_total
        values = {tuple(c.value for c in row) for row in run.model.true_rows("tc")}
        assert values == {(1, 2), (2, 3), (1, 3)}

    def test_unfounded_loop_false(self):
        run = Engine(parse_program("p :- p.")).solve("well_founded")
        assert run.model.value(Atom("p")) is False
        assert run.is_total

    def test_negative_cycle_undefined(self):
        run = Engine(parse_program("p :- not q. q :- not p.")).solve("well_founded")
        assert not run.is_total
        assert run.model.value(Atom("p")) is None
        assert run.model.value(Atom("q")) is None

    def test_odd_loop_undefined(self):
        run = Engine(parse_program("p :- not p.")).solve("well_founded")
        assert run.model.value(Atom("p")) is None

    def test_win_move_game(self):
        """Standard win-move: 1->2->3 chain; 1 wins, 2 wins?, 3 loses.

        win(X) :- move(X,Y), ¬win(Y): 3 has no move (loses), 2 moves to 3
        (wins), 1 moves to 2 (2 wins, so this move fails) — 1 loses.
        """
        prog = parse_program("win(X) :- move(X, Y), not win(Y).")
        db = parse_database("move(1, 2). move(2, 3).")
        run = Engine(prog, db).solve("well_founded")
        assert run.is_total
        assert run.model.value(atom("win", 2)) is True
        assert run.model.value(atom("win", 1)) is False
        assert run.model.value(atom("win", 3)) is False

    def test_win_move_draw_cycle_undefined(self):
        prog = parse_program("win(X) :- move(X, Y), not win(Y).")
        db = parse_database("move(1, 2). move(2, 1).")
        run = Engine(prog, db).solve("well_founded")
        assert not run.is_total
        assert run.model.value(atom("win", 1)) is None
        assert run.model.value(atom("win", 2)) is None

    def test_paper_program_1_total(self):
        """Program (1): P(a) :- ¬P(x), E(b) is total though unstratifiable."""
        prog = parse_program("p(a) :- not p(X), e(b).")
        db = parse_database("e(b).")
        run = Engine(prog, db).solve("well_founded")
        assert run.is_total
        assert run.model.value(atom("p", "a")) is True

    def test_paper_program_2_variant_partial(self):
        """Program (2): P(x,y) :- ¬P(y,y), E(x) has no fixpoint when E nonempty;
        the well-founded model must be partial."""
        prog = parse_program("p(X, Y) :- not p(Y, Y), e(X).")
        db = parse_database("e(a).")
        run = Engine(prog, db).solve("well_founded", grounding="full")
        assert not run.is_total

    def test_uniform_initial_idb_facts(self):
        """Uniform case: IDB atoms in Δ are true even without derivation."""
        prog = parse_program("p :- q. q :- p.")
        db = parse_database("p.")
        run = Engine(prog, db).solve("well_founded")
        assert run.model.value(Atom("p")) is True
        assert run.model.value(Atom("q")) is True

    def test_empty_program(self):
        run = Engine(parse_program("r."), Database()).solve("well_founded")
        assert run.is_total and run.model.value(Atom("r")) is True

    def test_iterations_counted(self):
        # Tower: each unfounded-set round removes one layer? At least >= 1.
        prog = parse_program("a :- a. b :- b, not a. c :- c, not b.")
        run = Engine(prog).solve("well_founded", grounding="full")
        assert run.iterations >= 1
        assert run.is_total


class TestGroundingEquivalence:
    """WF(relevant) must equal WF(full) — the soundness claim of DESIGN.md."""

    CASES = [
        ("win(X) :- move(X, Y), not win(Y).", "move(1,2). move(2,3). move(3,1)."),
        ("p(X, Y) :- not p(Y, Y), e(X).", "e(a). e(b)."),
        ("p(a) :- not p(X), e(b).", "e(b)."),
        ("a(X) :- e(X), not b(X). b(X) :- e(X), not a(X).", "e(1). e(2)."),
        ("r(X) :- s(X). s(X) :- r(X).", "t(1)."),
    ]

    @pytest.mark.parametrize("source,db_source", CASES)
    def test_full_vs_relevant(self, source, db_source):
        prog = parse_program(source)
        db = parse_database(db_source)
        full = Engine(prog, db).solve("well_founded", grounding="full")
        relevant = Engine(prog, db).solve("well_founded", grounding="relevant")
        assert full.model.agrees_with(relevant.model)
