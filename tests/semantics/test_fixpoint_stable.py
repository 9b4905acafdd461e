"""Tests for fixpoint checking/enumeration and both stable-model checkers."""

import pytest

from repro.datalog.atoms import Atom, atom
from repro.datalog.database import Database
from repro.datalog.parser import parse_database, parse_program
from repro.errors import SemanticsError
from repro.api import Engine
from repro.semantics.fixpoint import check_fixpoint, is_fixpoint
from repro.semantics.stable import is_stable_model, reduct_least_model


class TestCheckFixpoint:
    def test_positive_least_model_is_fixpoint(self):
        prog = parse_program("p(X) :- e(X).")
        db = parse_database("e(1).")
        assert is_fixpoint(prog, db, {atom("e", 1), atom("p", 1)})

    def test_nonminimal_supported_loop_is_fixpoint(self):
        """p :- p: both {} and {p} are fixpoints (supportedness, not minimality)."""
        prog = parse_program("p :- p.")
        assert is_fixpoint(prog, Database(), set())
        assert is_fixpoint(prog, Database(), {Atom("p")})

    def test_unsupported_atom_rejected(self):
        prog = parse_program("p :- q.")
        violation = check_fixpoint(prog, Database(), {Atom("p")})
        assert violation.kind == "unsupported" and violation.atom == Atom("p")

    def test_unsatisfied_rule_rejected(self):
        prog = parse_program("p :- not q.")
        violation = check_fixpoint(prog, Database(), set())
        assert violation.kind == "unsatisfied-rule"
        assert violation.atom == Atom("p")

    def test_edb_mismatch_extra_true(self):
        prog = parse_program("p(X) :- e(X).")
        violation = check_fixpoint(prog, Database(), {atom("e", 1), atom("p", 1)})
        assert violation.kind == "edb-mismatch"

    def test_edb_mismatch_missing_delta(self):
        prog = parse_program("p(X) :- e(X).")
        db = parse_database("e(1).")
        violation = check_fixpoint(prog, db, set())
        assert violation.kind == "edb-mismatch"

    def test_delta_idb_atoms_self_supported(self):
        """Uniform case: Δ's IDB atoms are true without rule support."""
        prog = parse_program("p :- q.")
        db = parse_database("p.")
        assert is_fixpoint(prog, db, {Atom("p"), Atom("q")}) is False  # q unsupported
        assert is_fixpoint(prog, db, {Atom("p")})

    def test_negative_literal_with_unbound_variable(self):
        """p(a) :- ¬p(X), e(b): support needs SOME X with p(X) false."""
        prog = parse_program("p(a) :- not p(X), e(b).")
        db = parse_database("e(b).")
        # p(a) true, p(b) false: supported via X=b.  Fixpoint.
        assert is_fixpoint(prog, db, {atom("e", "b"), atom("p", "a")})

    def test_non_total_interpretation_rejected(self):
        from repro.datalog.grounding import ground
        from repro.ground.model import Interpretation, UNDEF

        prog = parse_program("p :- not p.")
        gp = ground(prog, Database(), mode="full")
        partial = Interpretation(gp, (UNDEF,))
        with pytest.raises(SemanticsError):
            is_fixpoint(prog, Database(), partial)


class TestEnumerateFixpoints:
    def test_no_fixpoint_odd_loop(self):
        solution = Engine(parse_program("p :- not p.")).solve("completion")
        assert not solution.found
        assert not solution.true_atoms

    def test_count_on_independent_choices(self):
        prog = parse_program("a :- not b. b :- not a. c :- not d. d :- not c.")
        assert len(list(Engine(prog).enumerate("completion"))) == 4

    def test_positive_loop_two_fixpoints(self):
        assert len(list(Engine(parse_program("p :- p.")).enumerate("completion"))) == 2

    def test_every_enumerated_model_verifies(self):
        prog = parse_program(
            "p :- not q. q :- not p. r :- p, q. s :- s. t :- not r, p."
        )
        models = [s.true_atoms for s in Engine(prog).enumerate("completion")]
        assert models
        for m in models:
            assert is_fixpoint(prog, Database(), m), sorted(str(a) for a in m)

    def test_predicate_case_with_database(self):
        prog = parse_program("win(X) :- move(X, Y), not win(Y).")
        db = parse_database("move(1, 2). move(2, 1).")
        models = [s.true_atoms for s in Engine(prog, db).enumerate("completion")]
        # Draw cycle: win(1) xor win(2), two fixpoints.
        assert len(models) == 2
        for m in models:
            assert is_fixpoint(prog, db, m)

    def test_conflicting_requirements_unsat(self):
        prog = parse_program("p :- not p, e.")
        db = parse_database("e.")
        assert not Engine(prog, db).solve("completion").found

    def test_delta_makes_it_sat(self):
        """Same program, but Δ contains p: p is supported by Δ, rule is vacuous."""
        prog = parse_program("p :- not p, e.")
        db = parse_database("e. p.")
        assert Engine(prog, db).solve("completion").found


class TestStableCheckers:
    def test_methods_agree_on_examples(self):
        cases = [
            ("p :- not q. q :- not p.", "", [{"p"}, {"q"}, set(), {"p", "q"}]),
            ("p :- p.", "", [set(), {"p"}]),
            ("p :- p, not q. q :- q, not p.", "", [set(), {"p"}]),
            ("a :- not b. b :- not a. c :- a.", "", [{"a", "c"}, {"b"}, {"a"}]),
        ]
        for source, db_source, candidates in cases:
            prog = parse_program(source)
            db = parse_database(db_source) if db_source else Database()
            for names in candidates:
                cand = {Atom(n) for n in names}
                via_reduct = is_stable_model(prog, db, cand, method="reduct")
                via_close = is_stable_model(prog, db, cand, method="close", grounding="full")
                assert via_reduct == via_close, (source, names)

    def test_stable_implies_fixpoint(self):
        prog = parse_program("p :- p.")
        # {p} is a fixpoint but not stable (not founded).
        assert is_fixpoint(prog, Database(), {Atom("p")})
        assert not is_stable_model(prog, Database(), {Atom("p")})

    def test_reduct_least_model(self):
        prog = parse_program("p :- not q. q :- not p.")
        lm = reduct_least_model(prog, Database(), frozenset({Atom("p")}))
        assert lm == frozenset({Atom("p")})

    def test_enumerate_stable_subset_of_fixpoints(self):
        prog = parse_program("p :- not q. q :- not p. r :- r.")
        engine = Engine(prog)
        fixpoints = {s.true_atoms for s in engine.enumerate("completion")}
        stables = {s.true_atoms for s in engine.enumerate("stable")}
        assert stables <= fixpoints
        assert len(fixpoints) == 4  # (p xor q) x (r or not)
        assert len(stables) == 2  # r must be false

    def test_has_stable_model(self):
        assert Engine(parse_program("p :- not q. q :- not p.")).solve("stable").found
        assert not Engine(parse_program("p :- not p.")).solve("stable").found

    def test_stable_with_database(self):
        prog = parse_program("win(X) :- move(X, Y), not win(Y).")
        db = parse_database("move(1, 2). move(2, 1).")
        models = list(Engine(prog, db).enumerate("stable"))
        assert len(models) == 2

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            is_stable_model(parse_program("p."), Database(), {Atom("p")}, method="nope")

    def test_uniform_delta_idb_supported(self):
        """IDB atoms of Δ count as supported in stable models too."""
        prog = parse_program("p :- q.")
        db = parse_database("p.")
        assert is_stable_model(prog, db, {Atom("p")})
