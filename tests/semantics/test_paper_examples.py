"""Experiment E5: every worked example in the paper, verified literally.

Each test cites the paper location it reproduces.
"""

from repro.datalog.atoms import Atom, atom
from repro.datalog.database import Database
from repro.datalog.parser import parse_database, parse_program
from repro.datalog.skeleton import is_alphabetic_variant
from repro.semantics import is_fixpoint, is_stable_model
from repro.api import Engine


class TestProgram1And2:
    """§1: program (1) is total but its alphabetic variant (2) is not."""

    def test_program_1_has_fixpoint_with_nonempty_e(self):
        prog = parse_program("p(a) :- not p(X), e(b).")
        db = parse_database("e(b).")
        assert Engine(prog, db).solve("completion").found
        run = Engine(prog, db).solve("well_founded")
        assert run.is_total and run.model.value(atom("p", "a")) is True

    def test_program_1_has_fixpoint_with_empty_e(self):
        prog = parse_program("p(a) :- not p(X), e(b).")
        db = Database()
        assert Engine(prog, db).solve("completion").found

    def test_program_2_is_alphabetic_variant_of_1(self):
        one = parse_program("p(a) :- not p(X), e(b).")
        two = parse_program("p(X, Y) :- not p(Y, Y), e(X).")
        assert is_alphabetic_variant(one, two)

    def test_program_2_has_no_fixpoint_when_e_nonempty(self):
        """(2) 'has no fixpoint whenever E is nonempty'."""
        prog = parse_program("p(X, Y) :- not p(Y, Y), e(X).")
        db = parse_database("e(a).")
        assert not Engine(prog, db).solve("completion").found

    def test_program_2_has_fixpoint_when_e_empty(self):
        prog = parse_program("p(X, Y) :- not p(Y, Y), e(X).")
        # Universe must be nonempty for the claim to be interesting: add an
        # unused constant via another EDB fact.
        db = parse_database("f(a).")
        assert Engine(prog, db).solve("completion").found


class TestUnfoundedPairExample:
    """§3: p :- p, ¬q and q :- q, ¬p."""

    PROG = "p :- p, not q. q :- q, not p."

    def test_ground_graph_is_a_tie_broken_by_pure(self):
        run = Engine(parse_program(self.PROG)).solve("pure_tie_breaking")
        assert run.is_total
        assert len(run.model.true_set()) == 1

    def test_wf_sets_both_false(self):
        run = Engine(parse_program(self.PROG)).solve("well_founded", grounding="full")
        assert run.model.value(Atom("p")) is False
        assert run.model.value(Atom("q")) is False

    def test_pure_result_is_fixpoint_but_not_stable(self):
        """'this version may produce a fixpoint that is not a stable model'."""
        prog = parse_program(self.PROG)
        run = Engine(prog).solve("pure_tie_breaking")
        trues = run.model.true_set()
        assert is_fixpoint(prog, Database(), trues)
        assert not is_stable_model(prog, Database(), trues)

    def test_only_stable_model_has_both_false(self):
        """'The only stable model has both propositions false.'"""
        models = [s.true_atoms for s in Engine(parse_program(self.PROG)).enumerate("stable")]
        assert models == [frozenset()]

    def test_wftb_agrees_with_wf_here(self):
        run = Engine(parse_program(self.PROG)).solve("tie_breaking", grounding="full")
        assert run.model.true_set() == frozenset()


class TestThreeRuleExample:
    """§3: r1: p1 :- ¬p2,¬p3; r2: p2 :- ¬p1,¬p3; r3: p3 :- ¬p1,¬p2."""

    PROG = "p1 :- not p2, not p3. p2 :- not p1, not p3. p3 :- not p1, not p2."

    def test_component_is_not_a_tie(self):
        """'The component is not a tie ... cycle with three negative arcs.'"""
        from repro.datalog.grounding import ground
        from repro.ground.state import GroundGraphState

        gp = ground(parse_program(self.PROG), Database(), mode="full")
        st = GroundGraphState(gp)
        st.close()
        bottoms = st.bottom_components_live()
        assert len(bottoms) == 1 and not bottoms[0].is_tie

    def test_no_unfounded_set(self):
        """'G+ consists of three disjoint arcs ... no nonempty unfounded set.'"""
        from repro.datalog.grounding import ground
        from repro.ground.state import GroundGraphState

        gp = ground(parse_program(self.PROG), Database(), mode="full")
        st = GroundGraphState(gp)
        st.close()
        assert st.unfounded_atoms() == []

    def test_tie_breaking_assigns_nothing(self):
        """'the well-founded tie-breaking algorithm will not assign a truth
        value to any proposition.'"""
        run = Engine(parse_program(self.PROG)).solve("tie_breaking")
        assert run.model.undefined_count == 3

    def test_three_stable_models_exist(self):
        """'there are three stable models ... one true and two false.'"""
        models = [s.true_atoms for s in Engine(parse_program(self.PROG)).enumerate("stable")]
        assert len(models) == 3
        for m in models:
            assert len(m) == 1

    def test_specific_stable_model(self):
        """'the model with p1=true and p2=p3=false is stable.'"""
        prog = parse_program(self.PROG)
        assert is_stable_model(prog, Database(), {Atom("p1")})


class TestArchetypicalProgram:
    """§6: P(x) :- ¬Q(x); Q(x) :- ¬P(x) has two fixpoints per element."""

    def test_two_fixpoints_per_element(self):
        prog = parse_program("p(X) :- not q(X), d(X). q(X) :- not p(X), d(X).")
        db = parse_database("d(1).")
        models = [s.true_atoms for s in Engine(prog, db).enumerate("completion")]
        truth_patterns = {
            frozenset(a.predicate for a in m if a.predicate in "pq") for m in models
        }
        assert truth_patterns == {frozenset({"p"}), frozenset({"q"})}

    def test_tie_breaking_finds_each_under_some_choice(self):
        prog = parse_program("p(X) :- not q(X), d(X). q(X) :- not p(X), d(X).")
        db = parse_database("d(1).")
        found = set()
        for run in Engine(prog, db).enumerate("tie_breaking"):
            assert run.is_total
            found.add(frozenset(a.predicate for a in run.model.true_set() if a.predicate in "pq"))
        assert found == {frozenset({"p"}), frozenset({"q"})}
