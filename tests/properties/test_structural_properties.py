"""Property-based validation of the structural analyses and constructions."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.structural import (
    is_structurally_nonuniformly_total,
    is_structurally_total,
    odd_cycle_in_program_graph,
)
from repro.analysis.useless import reduced_program, useless_predicates
from repro.constructions.theorem2 import theorem2_variant
from repro.constructions.theorem3 import theorem3_variant
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.printer import format_program
from repro.datalog.skeleton import is_alphabetic_variant, skeleton_of
from repro.api import Engine
from repro.semantics.stable import is_stable_model
from repro.workloads.random_programs import random_call_consistent_program

from tests.properties.strategies import (
    propositional_cases,
    propositional_programs,
    small_predicate_programs,
)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=100, **COMMON)
@given(program=propositional_programs())
def test_odd_cycle_witness_is_valid(program):
    """Any returned witness is a simple cycle of the program graph with odd
    negative parity; absence of a witness means call-consistent."""
    witness = odd_cycle_in_program_graph(program)
    if witness is None:
        assert is_structurally_total(program)
        return
    assert witness.negative_count % 2 == 1
    # closed and simple
    predicates = [source for source, _, _ in witness.arcs]
    assert len(set(predicates)) == len(predicates)
    assert witness.arcs[-1][1] == witness.arcs[0][0]
    for (_, target, _), (source, _, _) in zip(witness.arcs, witness.arcs[1:]):
        assert target == source
    # every arc is realized by some rule occurrence
    for source, target, positive in witness.arcs:
        assert any(
            rule.head.predicate == target
            and any(
                lit.predicate == source and lit.positive == positive
                for lit in rule.body
            )
            for rule in program.rules
        )


@settings(max_examples=100, **COMMON)
@given(program=propositional_programs())
def test_reduction_is_idempotent_and_clean(program):
    reduced = reduced_program(program)
    assert useless_predicates(reduced) == frozenset()
    again = reduced_program(reduced)
    assert skeleton_of(again) == skeleton_of(reduced)
    # reduced rules never mention useless predicates
    useless = useless_predicates(program)
    for rule in reduced.rules:
        assert rule.head.predicate not in useless
        for lit in rule.body:
            assert lit.predicate not in useless


@settings(max_examples=40, **COMMON)
@given(program=propositional_programs(max_rules=7))
def test_theorem2_variant_never_has_fixpoint(program):
    """Whenever the builder applies (an odd cycle exists), the produced
    variant + database is UNSAT — the Theorem 2 guarantee on random input."""
    if is_structurally_total(program):
        return
    variant, delta = theorem2_variant(program)
    assert is_alphabetic_variant(program, variant)
    assert not Engine(variant, delta).solve("completion", grounding="full").found


@settings(max_examples=40, **COMMON)
@given(program=propositional_programs(max_rules=7))
def test_theorem3_variant_never_has_fixpoint(program):
    if is_structurally_nonuniformly_total(program):
        return
    variant, delta = theorem3_variant(program)
    assert is_alphabetic_variant(program, variant)
    assert not Engine(variant, delta).solve("completion", grounding="full").found


@settings(max_examples=30, **COMMON)
@given(seed=st.integers(0, 10_000), db_bits=st.integers(0, 255))
def test_theorem1_on_random_call_consistent_programs(seed, db_bits):
    """Call-consistent ⇒ WFTB total and stable, for random databases
    (uniform case: IDB initializations included)."""
    program = random_call_consistent_program(8, 14, seed=seed)
    db = Database()
    for offset, name in enumerate(sorted(program.predicates)):
        if (db_bits >> (offset % 8)) & 1:
            db.add(name)
    run = Engine(program, db).solve("tie_breaking", grounding="full")
    assert run.is_total
    assert is_stable_model(program, db, run.model.true_set())


@settings(max_examples=100, **COMMON)
@given(program=propositional_programs())
def test_printer_parser_roundtrip_propositional(program):
    assert parse_program(format_program(program)) == program


@settings(max_examples=100, **COMMON)
@given(program=small_predicate_programs())
def test_printer_parser_roundtrip_predicates(program):
    assert parse_program(format_program(program)) == program


@settings(max_examples=100, **COMMON)
@given(case=propositional_cases())
def test_structural_totality_is_database_independent(case):
    """The structural check only reads the skeleton: rebuilding the program
    from its skeleton preserves the verdict."""
    program, _ = case
    rebuilt = skeleton_of(program).as_propositional_program()
    assert is_structurally_total(program) == is_structurally_total(rebuilt)
    assert is_structurally_nonuniformly_total(program) == is_structurally_nonuniformly_total(rebuilt)
