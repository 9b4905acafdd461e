"""Experiment E11: counter machines and the Theorem 6 undecidability reduction."""

import pytest

from repro.constructions.counter_machines import (
    Configuration,
    CounterMachine,
    Transition,
    alternating_machine,
    bounded_counter_machine,
    countdown_machine,
    looping_machine,
)
from repro.constructions.theorem6 import (
    machine_to_program,
    natural_database,
    random_database,
    uniformize,
)
from repro.datalog.parser import parse_program
from repro.api import Engine
from repro.semantics.fixpoint import is_fixpoint


class TestCounterMachines:
    def test_bounded_machine_halts_on_time(self):
        result = bounded_counter_machine(3).run(100)
        assert result.halted and result.steps == 3
        assert result.final == Configuration(3, 3, 0)

    def test_looping_machine_never_halts(self):
        result = looping_machine().run(200)
        assert not result.halted and result.steps == 200

    def test_countdown_machine(self):
        m = countdown_machine(2)
        result = m.run(100)
        assert result.halted and result.steps == 5  # 2 up, 2 down, 1 halt move
        assert result.final.c1 == 0

    def test_alternating_machine_moves_through_states(self):
        states = {c.state for c in alternating_machine().trace(10)}
        assert states == {0, 1}

    def test_determinism_required(self):
        with pytest.raises(ValueError):
            CounterMachine(2, {(0, True, True): Transition(1, 0, 0)})  # missing tests

    def test_zero_decrement_rejected(self):
        transitions = {
            (0, z1, z2): Transition(1, -1 if z1 else 0, 0)
            for z1 in (False, True)
            for z2 in (False, True)
        }
        with pytest.raises(ValueError):
            CounterMachine(2, transitions)


class TestReductionProgram:
    def test_program_shape(self):
        prog = machine_to_program(bounded_counter_machine(1))
        assert {"state", "count1", "count2", "p"} <= prog.idb_predicates
        assert {"zero", "succ", "less"} <= prog.edb_predicates
        text = str(prog)
        assert "p :- ¬p, state(T, S)" in text  # troublesome rule
        assert "p :- succ(X, Y), ¬less(X, Y)." in text  # rule 1a
        assert "p :- succ(X, Y), less(Y, Z), ¬less(X, Z)." in text  # rule 1b

    def test_negation_only_on_edb_except_troublesome(self):
        """'The program will apply negation only to EDB predicates except for
        one rule.'"""
        prog = machine_to_program(countdown_machine(1))
        offending = [
            (r, lit)
            for r in prog.rules
            for lit in r.body
            if not lit.positive and lit.predicate in prog.idb_predicates
        ]
        assert len(offending) == 1
        assert offending[0][1].predicate == "p"

    def test_simulation_matches_machine_run(self):
        """The least fixpoint of the simulation rules reproduces the trace."""
        machine = countdown_machine(1)
        result = machine.run(50)
        prog = machine_to_program(machine)
        horizon = max(result.steps, machine.halting_state)
        run = Engine(prog, natural_database(horizon)).solve("well_founded")
        for t, config in enumerate(result.trace):
            assert run.model.value(
                parse_atom(f"state({t}, {config.state})")
            ) is True, (t, config)
            assert run.model.value(parse_atom(f"count1({t}, {config.c1})")) is True
            assert run.model.value(parse_atom(f"count2({t}, {config.c2})")) is True


class TestHaltingDirection:
    @pytest.mark.parametrize("machine,label", [
        (bounded_counter_machine(2), "bounded-2"),
        (countdown_machine(1), "countdown-1"),
    ])
    def test_halting_machine_has_no_fixpoint_on_natural_db(self, machine, label):
        result = machine.run(100)
        assert result.halted
        prog = machine_to_program(machine)
        horizon = max(result.steps, machine.halting_state)
        db = natural_database(horizon)
        assert not Engine(prog, db).solve("completion", grounding="edb").found, label

    def test_wf_detects_the_contradiction(self):
        """The well-founded model leaves p undefined on a halting run."""
        machine = bounded_counter_machine(2)
        prog = machine_to_program(machine)
        db = natural_database(2)
        run = Engine(prog, db).solve("well_founded")
        assert not run.is_total
        assert run.model.value(parse_atom("p")) is None


class TestNonHaltingDirection:
    @pytest.mark.parametrize("machine", [looping_machine(), alternating_machine()])
    def test_fixpoint_exists_on_natural_db(self, machine):
        prog = machine_to_program(machine)
        db = natural_database(4)
        solution = Engine(prog, db).solve("completion", grounding="edb")
        assert solution.found
        assert is_fixpoint(prog, db, solution.true_atoms)

    @pytest.mark.parametrize("seed", range(8))
    def test_fixpoint_exists_on_adversarial_dbs(self, seed):
        """Theorem 6's only-if direction quantifies over ALL databases; the
        guard rules (1a), (1b), (2) must absorb nonsense arithmetics."""
        prog = machine_to_program(alternating_machine())
        db = random_database(3, seed=seed)
        solution = Engine(prog, db).solve("completion", grounding="edb")
        assert solution.found, f"seed {seed}"
        assert is_fixpoint(prog, db, solution.true_atoms)

    def test_wf_total_on_natural_db_for_looping_machine(self):
        prog = machine_to_program(looping_machine())
        run = Engine(prog, natural_database(4)).solve("well_founded")
        assert run.is_total
        assert run.model.value(parse_atom("p")) is False


class TestUniformTransform:
    def test_guard_clash_rejected(self):
        with pytest.raises(ValueError):
            uniformize(parse_program("q :- e."))

    def test_guard_added_everywhere(self):
        prog = uniformize(parse_program("a :- e. b :- a."))
        for rule in prog.rules:
            if rule.head.predicate == "q":
                continue
            assert any(
                not lit.positive and lit.predicate == "q" for lit in rule.body
            )

    def test_q_rules_for_every_idb(self):
        prog = uniformize(parse_program("a(X) :- e(X). b :- a(Y)."))
        q_rules = [r for r in prog.rules if r.head.predicate == "q"]
        assert {r.body[0].predicate for r in q_rules} == {"a", "b"}
        # arity respected
        a_rule = next(r for r in q_rules if r.body[0].predicate == "a")
        assert a_rule.body[0].atom.arity == 1

    @pytest.mark.parametrize(
        "source",
        [
            "p :- not p, e.",
            "p :- not r. r :- not p.",
            "u :- u. p :- not p, u.",
            "p :- e, not r. r :- f.",
            "a :- not b. b :- not c. c :- not a.",
        ],
    )
    def test_nonuniform_totality_equals_uniform_of_transform(self, source):
        """The proof's claim: Π nonuniformly total ⇔ Π_q uniformly total."""
        from repro.constructions.proposition import is_total_propositional

        program = parse_program(source)
        lhs = is_total_propositional(program, nonuniform=True)
        rhs = is_total_propositional(uniformize(program), nonuniform=False)
        assert lhs == rhs


def parse_atom(text):
    from repro.datalog.parser import parse_atom as _parse

    return _parse(text)
