"""E15 — ablation: incremental worklist close vs the paper-literal scan.

The production ``GroundGraphState`` maintains per-node counters and
propagates deletions through a worklist (O(edges) per close); the
reference implementation re-scans the whole graph per change, exactly as
the paper's prose describes the operations.  This ablation quantifies the
gap that justifies the engineering — and doubles as a differential test,
asserting both produce identical well-founded models while timing them.
"""

import pytest

from repro.datalog.grounding import ground
from repro.ground.reference import naive_well_founded
from repro.api import Engine
from repro.workloads.families import unfounded_tower, win_move_line


@pytest.mark.bench
@pytest.mark.parametrize("n", [20, 60])
def test_worklist_close_win_move(benchmark, n):
    program, db = win_move_line(n)
    gp = ground(program, db, mode="relevant")

    result = benchmark(lambda: Engine(program, db, ground_program=gp).solve("well_founded"))
    assert result.is_total
    benchmark.extra_info["implementation"] = "worklist"


@pytest.mark.bench
@pytest.mark.parametrize("n", [20, 60])
def test_naive_close_win_move(benchmark, n):
    program, db = win_move_line(n)
    gp = ground(program, db, mode="relevant")
    fast = Engine(program, db, ground_program=gp).solve("well_founded")

    slow = benchmark(lambda: naive_well_founded(gp))
    assert slow.status == fast.model.status  # differential check while timing
    benchmark.extra_info["implementation"] = "naive-scan"


@pytest.mark.bench
@pytest.mark.parametrize("n", [8, 16])
def test_worklist_close_unfounded_tower(benchmark, n):
    program, db = unfounded_tower(n)
    gp = ground(program, db, mode="full")

    result = benchmark(lambda: Engine(program, db, ground_program=gp).solve("well_founded"))
    assert result.iterations >= n
    benchmark.extra_info["implementation"] = "worklist"


@pytest.mark.bench
@pytest.mark.parametrize("n", [8, 16])
def test_naive_close_unfounded_tower(benchmark, n):
    program, db = unfounded_tower(n)
    gp = ground(program, db, mode="full")
    fast = Engine(program, db, ground_program=gp).solve("well_founded")

    slow = benchmark(lambda: naive_well_founded(gp))
    assert slow.status == fast.model.status
    benchmark.extra_info["implementation"] = "naive-scan"
