"""E3 — the tie-breaking interpreters are polynomial (§3, Lemmas 2-3).

Series:

* ``tie_chain(n)`` — n sequential free choices: the worst case for the
  bottom-SCC recomputation in the main loop (expected ~quadratic);
* ``committee(n)`` — n independent ties, broken one per iteration;
* ``win_move_cycle(2k)`` — one big even draw cycle: a single tie whose
  Lemma-1 partition spans the whole ground graph.

Each run asserts totality (these are all call-consistent workloads —
Theorem 1 guarantees success) and, on a sample, stability (Lemma 3).
"""

import pytest

from repro.datalog.grounding import ground
from repro.semantics.stable import is_stable_model
from repro.api import Engine
from repro.workloads.families import committee, tie_chain, win_move_cycle


@pytest.mark.bench
@pytest.mark.parametrize("n", [5, 15, 45])
def test_wftb_tie_chain(benchmark, n):
    program, db = tie_chain(n)
    gp = ground(program, db, mode="full")

    def run():
        return Engine(program, db, ground_program=gp).solve("tie_breaking")

    result = benchmark(run)
    assert result.is_total and result.free_choice_count == n
    benchmark.extra_info["choices"] = result.free_choice_count


@pytest.mark.bench
@pytest.mark.parametrize("n", [10, 40, 160])
def test_wftb_committee(benchmark, n):
    program, db = committee(n)
    gp = ground(program, db, mode="relevant")

    def run():
        return Engine(program, db, ground_program=gp).solve("tie_breaking")

    result = benchmark(run)
    assert result.is_total
    assert result.free_choice_count == n
    benchmark.extra_info["members"] = n


@pytest.mark.bench
@pytest.mark.parametrize("n", [20, 80, 320])
def test_pure_tb_even_draw_cycle(benchmark, n):
    program, db = win_move_cycle(n)
    gp = ground(program, db, mode="relevant")

    def run():
        return Engine(program, db, ground_program=gp).solve("pure_tie_breaking")

    result = benchmark(run)
    assert result.is_total
    winners = sum(1 for a in result.model.true_set() if a.predicate == "win")
    assert winners == n // 2  # alternating around the even cycle
    benchmark.extra_info["cycle"] = n


@pytest.mark.bench
def test_wftb_results_are_stable(benchmark):
    """Lemma 3 spot check folded into the suite (small size: check is SAT-free
    but join-heavy)."""
    program, db = committee(6)

    def run():
        result = Engine(program, db).solve("tie_breaking", grounding="relevant")
        assert is_stable_model(program, db, result.model.true_set())
        return result

    result = benchmark(run)
    assert result.is_total
