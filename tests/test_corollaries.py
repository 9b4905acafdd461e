"""The paper's corollaries, each as an executable check.

* Corollary 1 (§4): for structurally total programs, a fixpoint extending
  the well-founded partial model is computable in polynomial time — and the
  well-founded tie-breaking interpreter computes one.
* Corollary 2 (§4): structural totality is unchanged if "fixpoint" is
  replaced by "stable model".
* Corollary 3 (§5): non-halting machines' reduction programs are total
  w.r.t. the stable / well-founded / tie-breaking semantics too (the least
  fixpoint avoiding the troublesome rule is consistent with all of them).
* the §4 closing remark after Theorem 5: unique-stable-model structural
  totality coincides with stratification (Gire's equivalence on the
  semi-strict fragment: WF total ⇔ unique stable model).
"""

import pytest

from repro.analysis.structural import is_call_consistent, is_structurally_total
from repro.constructions.counter_machines import alternating_machine, looping_machine
from repro.constructions.theorem2 import theorem2_variant
from repro.constructions.theorem6 import machine_to_program, natural_database
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.api import Engine
from repro.semantics.fixpoint import is_fixpoint
from repro.semantics.stable import is_stable_model
from repro.workloads.random_programs import random_call_consistent_program


class TestCorollary1:
    """WFTB computes a fixpoint extending the WF partial model."""

    @pytest.mark.parametrize("seed", range(10))
    def test_on_random_call_consistent_programs(self, seed):
        program = random_call_consistent_program(8, 14, seed=seed)
        assert is_structurally_total(program)
        db = Database()
        wf = Engine(program, db).solve("well_founded", grounding="full").model
        run = Engine(program, db).solve("tie_breaking", grounding="full")
        assert run.is_total
        assert is_fixpoint(program, db, run.model.true_set())
        # extension of the WF partial model:
        for atom in wf.true_atoms():
            assert run.model.value(atom) is True
        for atom in wf.false_atoms():
            assert run.model.value(atom) is False

    def test_even_cycle_instance(self):
        program = parse_program("p :- not q. q :- not p. r :- p.")
        wf = Engine(program).solve("well_founded").model
        assert wf.undefined_count == 3
        run = Engine(program).solve("tie_breaking")
        assert run.is_total and is_fixpoint(program, Database(), run.model.true_set())


class TestCorollary2:
    """Structural totality ⇔ every variant has a stable model for every Δ."""

    @pytest.mark.parametrize("seed", range(8))
    def test_structurally_total_implies_stable_model_exists(self, seed):
        program = random_call_consistent_program(7, 12, seed=seed)
        run = Engine(program).solve("tie_breaking", grounding="full")
        assert run.is_total
        assert is_stable_model(program, Database(), run.model.true_set())

    def test_odd_cycle_gives_variant_without_stable_model(self):
        """Only-if direction: the Theorem 2 variant has no fixpoint, hence
        no stable model (stable ⊆ fixpoints)."""
        program = parse_program("p :- e, not p.")
        variant, delta = theorem2_variant(program)
        assert not Engine(variant, delta).solve("stable", grounding="full").found


class TestCorollary3:
    """Non-halting machines are total under all the constructive semantics."""

    @pytest.mark.parametrize("machine", [looping_machine(), alternating_machine()])
    def test_wf_is_total_and_stable_on_natural_database(self, machine):
        program = machine_to_program(machine)
        db = natural_database(4)
        run = Engine(program, db).solve("well_founded")
        assert run.is_total
        trues = run.model.true_set()
        assert is_stable_model(program, db, trues)
        # tie-breaking agrees (nothing left to break):
        tb = Engine(program, db).solve("tie_breaking")
        assert tb.is_total and tb.model.true_set() == trues


class TestGireEquivalence:
    """§3/§4: on call-consistent (semi-strict) programs, the WF model is
    total iff the stable model is unique [Gi] — checked exhaustively on
    random call-consistent programs."""

    @pytest.mark.parametrize("seed", range(12))
    def test_wf_total_iff_unique_stable(self, seed):
        program = random_call_consistent_program(6, 10, seed=seed)
        assert is_call_consistent(program)
        db = Database()
        wf = Engine(program, db).solve("well_founded", grounding="full")
        stable_models = [
            s.true_atoms
            for s in Engine(program, db).enumerate("completion", grounding="full")
            if is_stable_model(program, db, s.true_atoms)
        ]
        assert stable_models, "Dung: call-consistent programs have stable models"
        if wf.is_total:
            assert len(stable_models) == 1
            assert stable_models[0] == wf.model.true_set()
        else:
            assert len(stable_models) >= 2
