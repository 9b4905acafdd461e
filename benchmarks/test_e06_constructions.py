"""E6/E7 — Theorem 2/3 constructions: build the variant, prove UNSAT.

Scales the odd cycle length k and times (a) constructing the alphabetic
variant and (b) the exhaustive SAT proof that it has no fixpoint.  The
construction is linear in the program; the UNSAT proof is the expensive
part (NP oracle), which is the paper's point: checking *structural*
totality (E8) is linear while checking totality is hard.
"""

import pytest

from repro.constructions.theorem2 import theorem2_constant_free_variant, theorem2_variant
from repro.constructions.theorem3 import theorem3_variant
from repro.datalog.atoms import Atom, Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.api import Engine


def odd_cycle_program(k):
    """A k-predicate negative cycle (odd k) plus an EDB guard in each rule."""
    assert k % 2 == 1
    rules = []
    for i in range(k):
        head = Atom(f"c{i}")
        rules.append(
            Rule(
                head,
                (
                    Literal(Atom(f"c{(i + 1) % k}"), False),
                    Literal(Atom("e"), True),
                ),
            )
        )
    return Program(rules)


@pytest.mark.bench
@pytest.mark.parametrize("k", [3, 9, 21])
def test_theorem2_build_and_refute(benchmark, k):
    program = odd_cycle_program(k)

    def build_and_refute():
        variant, delta = theorem2_variant(program)
        assert not Engine(variant, delta).solve("completion", grounding="full").found
        return variant

    variant = benchmark(build_and_refute)
    assert len(variant) == len(program)
    benchmark.extra_info["cycle_length"] = k


@pytest.mark.bench
@pytest.mark.parametrize("k", [3, 9])
def test_theorem2_constant_free_build_and_refute(benchmark, k):
    program = odd_cycle_program(k)

    def build_and_refute():
        variant, delta = theorem2_constant_free_variant(program)
        assert not Engine(variant, delta).solve("completion", grounding="full").found
        return variant

    variant = benchmark(build_and_refute)
    assert len(variant.constants) == 0
    benchmark.extra_info["cycle_length"] = k


@pytest.mark.bench
@pytest.mark.parametrize("k", [3, 9, 21])
def test_theorem3_build_and_refute(benchmark, k):
    program = odd_cycle_program(k)

    def build_and_refute():
        variant, delta = theorem3_variant(program)
        assert not Engine(variant, delta).solve("completion", grounding="full").found
        return variant

    variant = benchmark(build_and_refute)
    assert all(arity == 2 for arity in variant.arities.values())
    benchmark.extra_info["cycle_length"] = k
