"""E2 — the well-founded interpreter is polynomial (Algorithm Well-Founded).

Two series:

* ``win_move_line(n)`` — resolved entirely by close(): measures the
  worklist machinery (expected near-linear in ground-graph size);
* ``unfounded_tower(n)`` — forces n unfounded-set iterations: measures the
  outer loop worst case (expected ~quadratic: n iterations × O(graph)).

Each run asserts the model is total and spot-checks known values.
"""

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.grounding import ground
from repro.api import Engine
from repro.workloads.families import unfounded_tower, win_move_line


@pytest.mark.bench
@pytest.mark.parametrize("n", [50, 200, 800])
def test_win_move_line(benchmark, n):
    program, db = win_move_line(n)
    gp = ground(program, db, mode="relevant")

    def run():
        return Engine(program, db, ground_program=gp).solve("well_founded")

    result = benchmark(run)
    assert result.is_total
    # Alternating win values along the line, losing at the end.
    assert result.model.value(Atom("win", gp.atoms.atom(0).args)) is not None
    benchmark.extra_info["ground_atoms"] = gp.atom_count
    benchmark.extra_info["instances"] = gp.rule_count
    benchmark.extra_info["iterations"] = result.iterations


@pytest.mark.bench
@pytest.mark.parametrize("n", [20, 60, 180])
def test_unfounded_tower(benchmark, n):
    program, db = unfounded_tower(n)
    gp = ground(program, db, mode="full")

    def run():
        return Engine(program, db, ground_program=gp).solve("well_founded")

    result = benchmark(run)
    assert result.is_total
    assert result.iterations >= n  # one unfounded round per layer
    benchmark.extra_info["iterations"] = result.iterations
    benchmark.extra_info["ground_atoms"] = gp.atom_count


@pytest.mark.bench
@pytest.mark.parametrize("n", [50, 200])
def test_grounding_plus_wf_end_to_end(benchmark, n):
    program, db = win_move_line(n)

    def run():
        return Engine(program, db).solve("well_founded", grounding="relevant")

    result = benchmark(run)
    assert result.is_total
