"""E4 — Theorem 1: call-consistent programs always reach a total model.

Sweeps random call-consistent programs (no odd cycle, by construction)
across sizes and random databases; every tie-breaking run must be total,
for both deterministic orientations.  The benchmark times the verification
sweep and records the observed success rates — the paper's claim is a
100% success column, contrasted with the unrestricted-program column where
the interpreters may stall.
"""

import pytest

from repro.analysis.structural import is_call_consistent
from repro.semantics.choices import FirstSideTrue, SecondSideTrue
from repro.api import Engine
from repro.workloads.random_programs import (
    random_call_consistent_program,
    random_propositional_program,
)


def success_rate(programs, policy):
    total = 0
    for program in programs:
        run = Engine(program).solve("tie_breaking", policy=policy, grounding="full")
        total += run.is_total
    return total / len(programs)


@pytest.mark.bench
@pytest.mark.parametrize("n_rules", [20, 60])
def test_call_consistent_always_total(benchmark, n_rules):
    programs = [
        random_call_consistent_program(10, n_rules, seed=seed) for seed in range(20)
    ]
    assert all(is_call_consistent(p) for p in programs)

    def sweep():
        return (
            success_rate(programs, FirstSideTrue()),
            success_rate(programs, SecondSideTrue()),
        )

    first, second = benchmark(sweep)
    assert first == 1.0 and second == 1.0  # Theorem 1, both orientations
    benchmark.extra_info["success_rate_first"] = first
    benchmark.extra_info["success_rate_second"] = second


@pytest.mark.bench
def test_unrestricted_programs_stall_sometimes(benchmark):
    """The contrast column: with odd cycles allowed, tie-breaking totality
    drops below 100% (and the well-founded baseline is lower still)."""
    programs = [
        random_propositional_program(8, 16, negation_probability=0.5, seed=seed)
        for seed in range(30)
    ]

    def sweep():
        tb_total = sum(
            Engine(p).solve("tie_breaking", grounding="full").is_total for p in programs
        )
        wf_total = sum(
            Engine(p).solve("well_founded", grounding="full").is_total for p in programs
        )
        return tb_total, wf_total

    tb_total, wf_total = benchmark(sweep)
    assert tb_total <= len(programs)
    assert wf_total <= tb_total  # WFTB extends WF: it never does worse
    benchmark.extra_info["tb_total_rate"] = tb_total / len(programs)
    benchmark.extra_info["wf_total_rate"] = wf_total / len(programs)
