"""Tests for the default-logic bridge and the choice constructs."""

import pytest

from repro.datalog.database import Database
from repro.datalog.program import Program
from repro.errors import ValidationError
from repro.extensions.choice import inequality_facts, one_of, subset_choice
from repro.extensions.default_logic import (
    Default,
    DefaultTheory,
    extensions,
    find_extension_tie_breaking,
    theory_to_program,
)
from repro.semantics.stable import is_stable_model
from repro.api import Engine

NIXON = DefaultTheory(
    frozenset({"quaker", "republican"}),
    (
        Default(("quaker",), ("hawk",), "pacifist"),
        Default(("republican",), ("pacifist",), "hawk"),
    ),
)

TWEETY = DefaultTheory(
    frozenset({"bird", "penguin"}),
    (
        Default(("bird",), ("abnormal",), "flies"),
        Default(("penguin",), (), "abnormal"),
    ),
)


class TestDefaultTheories:
    def test_nixon_diamond_two_extensions(self):
        found = sorted(sorted(e - NIXON.facts) for e in extensions(NIXON))
        assert found == [["hawk"], ["pacifist"]]

    def test_tweety_single_extension(self):
        found = list(extensions(TWEETY))
        assert len(found) == 1
        assert "abnormal" in found[0] and "flies" not in found[0]

    def test_no_extension_theory(self):
        """(: ¬p / p) — conclude p exactly when p can be assumed false:
        the classic extensionless default."""
        theory = DefaultTheory(frozenset(), (Default((), ("p",), "p"),))
        assert list(extensions(theory)) == []
        assert find_extension_tie_breaking(theory) is None

    def test_tie_breaking_finds_an_extension_fast(self):
        found = find_extension_tie_breaking(NIXON)
        assert found is not None
        core = found - NIXON.facts
        assert core in ({"hawk"}, {"pacifist"})
        # and it is genuinely an extension:
        program, db = theory_to_program(NIXON)
        truth = frozenset()
        assert found in set(extensions(NIXON))

    def test_translation_shape(self):
        program, db = theory_to_program(TWEETY)
        text = str(program)
        assert "flies :- bird, ¬abnormal." in text
        assert "abnormal :- penguin." in text
        assert db.contains("bird") and db.contains("penguin")

    def test_conclusion_required(self):
        with pytest.raises(ValidationError):
            Default((), (), "")

    def test_facts_always_in_extensions(self):
        for extension in extensions(NIXON):
            assert NIXON.facts <= extension


class TestSubsetChoice:
    def test_two_to_the_n_models(self):
        program = Program(subset_choice("invited", "person"))
        db = Database.from_dict({"person": [("ann",), ("bob",)]})
        solutions = Engine(program, db).enumerate("stable", grounding="full")
        invited_sets = {
            frozenset(a.args[0].value for a in s.true_atoms if a.predicate == "invited")
            for s in solutions
        }
        assert len(invited_sets) == 4

    def test_tie_breaking_executes_it(self):
        program = Program(subset_choice("invited", "person"))
        db = Database.from_dict({"person": [("ann",), ("bob",)]})
        run = Engine(program, db).solve("tie_breaking", grounding="full")
        assert run.is_total and run.free_choice_count == 2


class TestOneOf:
    def setup_db(self, names):
        db = Database.from_dict({"member": [(n,) for n in names]})
        inequality_facts(db, names)
        return db

    def test_exactly_one_stable_model_per_candidate(self):
        program = Program(one_of("leader", "member"))
        for names in (["a", "b"], ["a", "b", "c"]):
            db = self.setup_db(names)
            solutions = list(Engine(program, db).enumerate("stable", grounding="full"))
            leaders = sorted(
                a.args[0].value
                for s in solutions
                for a in s.true_atoms
                if a.predicate == "leader"
            )
            assert leaders == sorted(names), names
            for s in solutions:
                assert sum(1 for a in s.true_atoms if a.predicate == "leader") == 1

    def test_two_candidates_is_a_tie(self):
        """With two candidates the component is a tie: tie-breaking picks
        the leader directly (the §6 thesis in miniature)."""
        program = Program(one_of("leader", "member"))
        db = self.setup_db(["a", "b"])
        run = Engine(program, db).solve("tie_breaking", grounding="full")
        assert run.is_total
        leaders = [a for a in run.model.true_set() if a.predicate == "leader"]
        assert len(leaders) == 1
        assert is_stable_model(program, db, run.model.true_set())

    def test_three_candidates_needs_search(self):
        """Three-way mutual exclusion contains odd cycles: the interpreter
        stalls (correctly — Lemma 3 protects it from guessing wrong), while
        stable search still finds all three choices."""
        program = Program(one_of("leader", "member"))
        db = self.setup_db(["a", "b", "c"])
        run = Engine(program, db).solve("tie_breaking", grounding="full")
        assert not run.is_total

    def test_single_candidate_forced(self):
        program = Program(one_of("leader", "member"))
        db = self.setup_db(["solo"])
        run = Engine(program, db).solve("tie_breaking", grounding="full")
        assert run.is_total
        assert any(a.predicate == "leader" for a in run.model.true_set())
