"""E14 — exact fixpoint/stable enumeration via the SAT substrate.

The §2 observation that fixpoint existence is NP-complete means the exact
engine must search; this bench tracks:

* fixpoint counting on ``committee(n)`` (exactly 2^n models — exponential
  in the cleanest possible way);
* single-fixpoint decisions on random propositional programs across sizes
  (the practical cost of the NP oracle used throughout E6/E7/E11);
* the stable-model filter (reduct least-model check per candidate).
"""

import pytest

from repro.api import Engine
from repro.workloads.families import committee
from repro.workloads.random_programs import random_propositional_program


@pytest.mark.bench
@pytest.mark.parametrize("n", [3, 6, 9])
def test_fixpoint_counting_exponential(benchmark, n):
    program, db = committee(n)

    def count_all():
        return sum(1 for _ in Engine(program, db).enumerate("completion", grounding="relevant"))

    count = benchmark(count_all)
    assert count == 2**n
    benchmark.extra_info["models"] = count


@pytest.mark.bench
@pytest.mark.parametrize("n_rules", [20, 40, 80])
def test_fixpoint_decision_random_programs(benchmark, n_rules):
    programs = [
        random_propositional_program(
            n_rules // 2, n_rules, negation_probability=0.4, seed=seed
        )
        for seed in range(10)
    ]

    def sweep():
        return sum(Engine(p).solve("completion", grounding="full").found for p in programs)

    sat_count = benchmark(sweep)
    assert 0 <= sat_count <= len(programs)
    benchmark.extra_info["sat_rate"] = sat_count / len(programs)


@pytest.mark.bench
def test_stable_model_enumeration(benchmark):
    program, db = committee(4)

    def enumerate_all():
        return list(Engine(program, db).enumerate("stable", grounding="relevant"))

    models = benchmark(enumerate_all)
    assert len(models) == 2**4  # every committee split is stable
