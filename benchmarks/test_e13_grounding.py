"""E13 — grounding ablation: full vs relevant vs edb.

The paper's ground graph ``G(Π, Δ)`` is the full instantiation; the
reproduction's relevant/edb grounders are the enabling substitution for
running its constructions at scale.  This bench quantifies the gap:

* on win-move boards the full grounder is |U|² while relevant follows the
  move relation;
* on the Theorem 6 program the full grounder is *infeasible* (|U|^k per
  rule with k ≈ 10) — the bench records the predicted instance count and
  times relevant/edb only.

Also asserts WF-model equality across groundings (the soundness claim).
"""

import pytest

from repro.constructions.counter_machines import alternating_machine
from repro.constructions.theorem6 import machine_to_program, natural_database
from repro.datalog.grounding import ground
from repro.api import Engine
from repro.workloads.families import win_move_line


@pytest.mark.bench
@pytest.mark.parametrize("mode", ["full", "relevant", "edb"])
def test_win_move_grounding_modes(benchmark, mode):
    program, db = win_move_line(40)

    gp = benchmark(ground, program, db, mode=mode)
    benchmark.extra_info["instances"] = gp.rule_count
    benchmark.extra_info["atoms"] = gp.atom_count


@pytest.mark.bench
def test_wf_equivalence_across_groundings(benchmark):
    program, db = win_move_line(25)

    def compare():
        full = Engine(program, db).solve("well_founded", grounding="full")
        relevant = Engine(program, db).solve("well_founded", grounding="relevant")
        assert full.model.agrees_with(relevant.model)
        return full

    result = benchmark(compare)
    assert result.is_total


@pytest.mark.bench
@pytest.mark.parametrize("mode", ["relevant", "edb"])
def test_counter_machine_grounding(benchmark, mode):
    program = machine_to_program(alternating_machine())
    db = natural_database(8)

    gp = benchmark(ground, program, db, mode=mode)
    benchmark.extra_info["instances"] = gp.rule_count

    # The full grounder would need |U|^k instances for the k-variable
    # transition rules; record the prediction instead of attempting it.
    universe = len(gp.universe)
    worst = max(len(r.variables()) for r in program.rules)
    benchmark.extra_info["full_would_need"] = f"{len(program)} rules x up to {universe}^{worst}"
