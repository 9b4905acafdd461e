"""Tests for the pure and well-founded tie-breaking interpreters (§3)."""

import pytest

from repro.datalog.atoms import Atom, atom
from repro.datalog.database import Database
from repro.datalog.parser import parse_database, parse_program
from repro.semantics.choices import FewestTrue, FirstSideTrue, MostTrue, RandomChoice, SecondSideTrue
from repro.semantics.fixpoint import is_fixpoint
from repro.semantics.stable import is_stable_model
from repro.api import Engine
from repro.errors import SemanticsError


class TestPureTieBreaking:
    def test_archetype_two_models(self):
        """P(x) :- ¬Q(x); Q(x) :- ¬P(x) — the paper's archetypical program."""
        prog = parse_program("p(X) :- not q(X), d(X). q(X) :- not p(X), d(X).")
        db = parse_database("d(1).")
        run = Engine(prog, db).solve("pure_tie_breaking")
        assert run.is_total
        p, q = run.model.value(atom("p", 1)), run.model.value(atom("q", 1))
        assert p != q  # exactly one side true

    def test_result_is_fixpoint_when_total(self):
        """Lemma 2: a total tie-breaking model is a fixpoint."""
        prog = parse_program("p :- not q. q :- not p. r :- p, not s. s :- not r.")
        for policy in [FirstSideTrue(), SecondSideTrue(), FewestTrue(), MostTrue()]:
            run = Engine(prog).solve("pure_tie_breaking", policy=policy)
            assert run.is_total
            assert is_fixpoint(prog, Database(), run.model.true_set())

    def test_unfounded_pair_may_become_true(self):
        """§3: pure TB on p :- p,¬q / q :- q,¬p sets one true — differs from WF."""
        prog = parse_program("p :- p, not q. q :- q, not p.")
        run = Engine(prog).solve("pure_tie_breaking")
        assert run.is_total
        trues = run.model.true_set()
        assert len(trues) == 1  # exactly one of p, q
        # It is a fixpoint but NOT stable (paper's observation after Lemma 3).
        assert is_fixpoint(prog, Database(), trues)
        assert not is_stable_model(prog, Database(), trues)

    def test_stalls_on_odd_component(self):
        """The 3-negative cycle is not a tie: pure TB cannot assign anything."""
        prog = parse_program(
            "p1 :- not p2, not p3. p2 :- not p1, not p3. p3 :- not p1, not p2."
        )
        run = Engine(prog).solve("pure_tie_breaking")
        assert not run.is_total
        assert run.model.undefined_count == 3
        assert run.choices == ()

    def test_forced_choice_on_positive_loop(self):
        """A trivially-tied positive loop has an empty side: orientation forced false."""
        prog = parse_program("p :- p.")
        run = Engine(prog).solve("pure_tie_breaking")
        assert run.is_total
        assert run.model.value(Atom("p")) is False
        assert len(run.choices) == 1 and run.choices[0].forced

    def test_choice_trace_recorded(self):
        prog = parse_program("p :- not q. q :- not p.")
        run = Engine(prog).solve("pure_tie_breaking")
        assert run.free_choice_count == 1
        choice = run.choices[0]
        assert {a.predicate for a in choice.made_true | choice.made_false} == {"p", "q"}


class TestWellFoundedTieBreaking:
    def test_extends_well_founded(self):
        """WFTB agrees with WF wherever WF is defined (consistency, §3)."""
        prog = parse_program(
            "a :- a. p :- not q. q :- not p. r :- p. dead :- dead, not p."
        )
        wf = Engine(prog).solve("well_founded", grounding="full")
        tb = Engine(prog).solve("tie_breaking", grounding="full")
        assert tb.is_total
        for a in [Atom("a")]:
            assert wf.model.value(a) is False
            assert tb.model.value(a) is False

    def test_unfounded_pair_stays_false(self):
        """Unlike pure TB, WFTB falsifies the unfounded pair (paper §3)."""
        prog = parse_program("p :- p, not q. q :- q, not p.")
        run = Engine(prog).solve("tie_breaking", grounding="full")
        assert run.is_total
        assert run.model.value(Atom("p")) is False
        assert run.model.value(Atom("q")) is False
        assert run.choices == ()  # resolved by the unfounded step, no ties broken

    def test_total_result_is_stable(self):
        """Lemma 3: total WFTB models are stable models."""
        prog = parse_program(
            "p :- not q. q :- not p. r :- p, not s. s :- not r, not q."
        )
        for policy in [FirstSideTrue(), SecondSideTrue(), RandomChoice(7)]:
            run = Engine(prog).solve("tie_breaking", policy=policy, grounding="full")
            assert run.is_total
            assert is_stable_model(prog, Database(), run.model.true_set(), method="reduct")
            assert is_stable_model(
                prog, Database(), run.model.true_set(), method="close", grounding="full"
            )

    def test_deviates_from_wf_only_when_stuck(self):
        """§3: WFTB = WF until WF stalls, then breaks one tie and continues."""
        prog = parse_program("p :- not q. q :- not p.")
        wf = Engine(prog).solve("well_founded")
        assert not wf.is_total
        tb = Engine(prog).solve("tie_breaking")
        assert tb.is_total and tb.free_choice_count == 1

    def test_stalls_when_no_tie_no_unfounded(self):
        prog = parse_program(
            "p1 :- not p2, not p3. p2 :- not p1, not p3. p3 :- not p1, not p2."
        )
        run = Engine(prog).solve("tie_breaking")
        assert not run.is_total

    def test_mixed_pipeline(self):
        """Unfounded sets, forced ties, and free ties in one program."""
        prog = parse_program(
            """
            ghost :- ghost.
            p :- not q. q :- not p.
            good :- p, not ghost.
            """
        )
        run = Engine(prog).solve("tie_breaking", grounding="full")
        assert run.is_total
        assert run.model.value(Atom("ghost")) is False
        assert run.model.value(Atom("good")) == run.model.value(Atom("p"))


class TestEnumeration:
    def test_two_cycle_enumerates_both(self):
        prog = parse_program("p :- not q. q :- not p.")
        models = {
            frozenset(str(a) for a in run.model.true_set())
            for run in Engine(prog).enumerate("tie_breaking")
        }
        assert models == {frozenset({"p"}), frozenset({"q"})}

    def test_two_independent_ties_four_outcomes(self):
        prog = parse_program(
            "p :- not q. q :- not p. r :- not s. s :- not r."
        )
        runs = list(Engine(prog).enumerate("tie_breaking"))
        models = {frozenset(str(a) for a in r.model.true_set()) for r in runs}
        assert len(models) == 4

    def test_all_enumerated_totals_are_stable_for_wf_variant(self):
        prog = parse_program("p :- not q. q :- not p. r :- p, not r2. r2 :- not r.")
        for run in Engine(prog).enumerate("tie_breaking"):
            if run.is_total:
                assert is_stable_model(prog, Database(), run.model.true_set())

    def test_limit(self):
        prog = parse_program(
            "a :- not b. b :- not a. c :- not d. d :- not c. e :- not f. f :- not e."
        )
        runs = list(Engine(prog).enumerate("tie_breaking", limit=3))
        assert len(runs) == 3

    def test_pure_variant(self):
        prog = parse_program("p :- p, not q. q :- q, not p.")
        models = {
            frozenset(str(a) for a in run.model.true_set())
            for run in Engine(prog).enumerate("pure_tie_breaking")
        }
        assert models == {frozenset({"p"}), frozenset({"q"})}

    def test_invalid_variant(self):
        with pytest.raises(SemanticsError, match="unknown semantics"):
            list(Engine(parse_program("p.")).enumerate("bogus"))


class TestChoiceDependence:
    def test_choices_can_decide_totality(self):
        """§3: some programs reach a fixpoint under one orientation only.

        p :- ¬q. q :- ¬p. Then choosing p true enables the odd trap on r:
            r :- p, ¬r.
        Choosing q true leaves r unsupported (false) and the model total.
        """
        prog = parse_program("p :- not q. q :- not p. r :- p, not r.")
        outcomes = {}
        for run in Engine(prog).enumerate("tie_breaking"):
            key = frozenset(str(a) for a in run.model.true_set() if a.predicate in "pq")
            outcomes[key] = run.is_total
        assert outcomes[frozenset({"q"})] is True
        assert outcomes[frozenset({"p"})] is False
