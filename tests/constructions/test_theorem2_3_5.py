"""Experiments E6/E7/E9: the Theorem 2, 3, and 5 variant constructions.

Each construction's claim is verified by an independent engine: fixpoint
non-existence by exhaustive SAT over the Clark completion, WF stalling by
running the well-founded interpreter.
"""

import pytest

from repro.analysis.structural import (
    is_structurally_nonuniformly_total,
    is_structurally_total,
    odd_cycle_in_program_graph,
)
from repro.constructions.theorem2 import theorem2_constant_free_variant, theorem2_variant
from repro.constructions.theorem3 import theorem3_constant_free_variant, theorem3_variant
from repro.constructions.theorem5 import negative_cycle_in_program_graph, theorem5_variant
from repro.constructions.variants import assign_arc_rules
from repro.datalog.parser import parse_program
from repro.datalog.skeleton import is_alphabetic_variant
from repro.errors import ConstructionError
from repro.api import Engine

# Programs whose graph has an odd cycle (not structurally total).
ODD_PROGRAMS = [
    "p(X, Y) :- not p(Y, Y), e(X).",                       # paper program (2) shape
    "p(a) :- not p(X), e(b).",                             # paper program (1)
    "a(X) :- not b(X), e(X). b(X) :- c(X). c(X) :- a(X), f(X).",  # 3-cycle, 1 negative
    "a :- not b. b :- not c. c :- not a.",                  # 3 negatives
    "w(X) :- m(X, Y), not w(Y).",                           # win-move
    "p :- q, not p. q :- e.",                               # self-loop via conjunction
]

# Programs with an odd cycle surviving reduction (for Theorem 3).
ODD_AFTER_REDUCTION = [
    "p :- e, not p.",
    "a(X) :- not b(X), e(X). b(X) :- c(X). c(X) :- a(X), f(X).",
    "w(X) :- m(X, Y), not w(Y).",
    "p :- q, not p. q :- e.",
]


class TestTheorem2:
    @pytest.mark.parametrize("source", ODD_PROGRAMS)
    def test_unary_variant_has_no_fixpoint(self, source):
        program = parse_program(source)
        variant, delta = theorem2_variant(program)
        assert is_alphabetic_variant(program, variant)
        assert all(arity == 1 for arity in variant.arities.values())
        assert not Engine(variant, delta).solve("completion", grounding="full").found

    @pytest.mark.parametrize("source", ODD_PROGRAMS)
    def test_constant_free_variant_has_no_fixpoint(self, source):
        program = parse_program(source)
        variant, delta = theorem2_constant_free_variant(program)
        assert is_alphabetic_variant(program, variant)
        assert len(variant.constants) == 0
        assert all(arity == 3 for arity in variant.arities.values())
        assert not Engine(variant, delta).solve("completion", grounding="full").found

    def test_structurally_total_program_rejected(self):
        with pytest.raises(ConstructionError):
            theorem2_variant(parse_program("p :- not q. q :- not p."))

    def test_delta_contains_b_for_all_predicates(self):
        program = parse_program("p :- e, not p.")
        _, delta = theorem2_variant(program)
        assert delta.contains("p", "b") and delta.contains("e", "b")

    def test_database_is_uniform_case(self):
        """Theorem 2 exploits the uniform setting: Δ̃ seeds IDB atoms too."""
        program = parse_program("p :- e, not p.")
        variant, delta = theorem2_variant(program)
        idb_facts = [a for a in delta.atoms() if a.predicate in variant.idb_predicates]
        assert idb_facts


class TestTheorem3:
    @pytest.mark.parametrize("source", ODD_AFTER_REDUCTION)
    def test_binary_variant_no_fixpoint_with_empty_idb(self, source):
        program = parse_program(source)
        variant, delta = theorem3_variant(program)
        assert is_alphabetic_variant(program, variant)
        assert all(arity == 2 for arity in variant.arities.values())
        # Nonuniform: Δ holds EDB facts only.
        assert all(a.predicate in variant.edb_predicates for a in delta.atoms())
        assert not Engine(variant, delta).solve("completion", grounding="full").found

    @pytest.mark.parametrize("source", ODD_AFTER_REDUCTION)
    def test_constant_free_variant_no_fixpoint(self, source):
        program = parse_program(source)
        variant, delta = theorem3_constant_free_variant(program)
        assert is_alphabetic_variant(program, variant)
        assert len(variant.constants) == 0
        assert all(arity == 4 for arity in variant.arities.values())
        assert not Engine(variant, delta).solve("completion", grounding="full").found

    def test_odd_cycle_through_useless_predicate_rejected(self):
        """u :- u; p :- ¬p, u is structurally nonuniformly total: no variant."""
        program = parse_program("u :- u. p :- not p, u.")
        assert is_structurally_nonuniformly_total(program)
        with pytest.raises(ConstructionError):
            theorem3_variant(program)

    def test_arc_rules_avoid_useless_witnesses(self):
        """When both a useless-infected and a clean rule witness an arc, the
        construction must pick the clean one."""
        program = parse_program(
            "u :- u. p :- not p, u. p :- not p, e."
        )
        assignments = assign_arc_rules(
            program, [("p", "p", False)], avoid_useless=True
        )
        assert assignments[0].rule_index == 2

    def test_constant_free_needs_edb(self):
        program = parse_program("p :- not p.")
        with pytest.raises(ConstructionError):
            theorem3_constant_free_variant(program)


class TestTheorem5:
    def test_even_cycle_variant_wf_stalls_but_fixpoints_exist(self):
        """The sharp case: WF is structurally incomplete on even cycles."""
        program = parse_program("p(X) :- not q(X). q(X) :- not p(X).")
        assert is_structurally_total(program)  # even cycle: TB always succeeds
        variant, delta = theorem5_variant(program)
        wf = Engine(variant, delta).solve("well_founded", grounding="full")
        assert not wf.is_total
        assert Engine(variant, delta).solve("completion", grounding="full").found
        tb = Engine(variant, delta).solve("tie_breaking", grounding="full")
        assert tb.is_total

    def test_odd_cycle_variant_has_no_fixpoint_at_all(self):
        program = parse_program("p(X) :- not p(X), e(X).")
        variant, delta = theorem5_variant(program)
        assert not Engine(variant, delta).solve("completion", grounding="full").found
        assert not Engine(variant, delta).solve("well_founded", grounding="full").is_total

    def test_nonuniform_variant(self):
        program = parse_program("p(X) :- e(X), not q(X). q(X) :- e(X), not p(X).")
        variant, delta = theorem5_variant(program, nonuniform=True)
        assert all(a.predicate in variant.edb_predicates for a in delta.atoms())
        wf = Engine(variant, delta).solve("well_founded", grounding="full")
        assert not wf.is_total

    def test_stratified_program_rejected(self):
        with pytest.raises(ConstructionError):
            theorem5_variant(parse_program("p :- e, not q. q :- f."))

    def test_negative_cycle_finder(self):
        cycle = negative_cycle_in_program_graph(
            parse_program("p :- not q. q :- p.")
        )
        assert cycle is not None
        assert any(not positive for _, _, positive in cycle)
        predicates = [source for source, _, _ in cycle]
        assert len(set(predicates)) == len(predicates)

    def test_negative_cycle_none_when_stratified(self):
        assert negative_cycle_in_program_graph(parse_program("p :- e, not q. q :- f.")) is None


class TestCycleDefaulting:
    def test_explicit_cycle_respected(self):
        program = parse_program("a :- not a. b :- not b.")
        variant, delta = theorem2_variant(program, [("b", "b", False)])
        # designated rule is b's; a's rule is rewritten as non-participating
        assert str(variant.rules[1]) == "b(a) :- ¬b(a)."
        assert str(variant.rules[0]) == "a(b) :- ¬a(c)."

    def test_default_uses_witness(self):
        program = parse_program("a :- not a.")
        witness = odd_cycle_in_program_graph(program)
        variant_default, _ = theorem2_variant(program)
        variant_explicit, _ = theorem2_variant(program, witness.arcs)
        assert variant_default == variant_explicit
