"""E11 — Theorem 6: the counter-machine reduction at growing horizons.

Times the full pipeline — reduction program construction, EDB-joined
grounding, and the SAT fixpoint decision — for halting machines of growing
runtimes and looping machines over growing natural databases.  Shape to
observe: the no-fixpoint verdict for halting machines at every horizon
that covers the run; fixpoints for the looping machine at every horizon.
"""

import pytest

from repro.constructions.counter_machines import alternating_machine, bounded_counter_machine
from repro.constructions.theorem6 import machine_to_program, natural_database
from repro.datalog.grounding import ground
from repro.api import Engine


@pytest.mark.bench
@pytest.mark.parametrize("n", [2, 4, 8])
def test_halting_machine_refutation(benchmark, n):
    machine = bounded_counter_machine(n)
    program = machine_to_program(machine)
    horizon = max(machine.run(4 * n).steps, machine.halting_state)
    db = natural_database(horizon)

    def decide():
        return Engine(program, db).solve("completion", grounding="edb").found

    result = benchmark(decide)
    assert result is False  # the halting run kills every fixpoint
    benchmark.extra_info["halt_time"] = horizon
    benchmark.extra_info["rules"] = len(program)


@pytest.mark.bench
@pytest.mark.parametrize("horizon", [4, 8, 16])
def test_looping_machine_fixpoint(benchmark, horizon):
    program = machine_to_program(alternating_machine())
    db = natural_database(horizon)

    def decide():
        return Engine(program, db).solve("completion", grounding="edb").found

    result = benchmark(decide)
    assert result is True
    benchmark.extra_info["horizon"] = horizon


@pytest.mark.bench
@pytest.mark.parametrize("horizon", [4, 8, 16])
def test_simulation_via_well_founded(benchmark, horizon):
    """The WF interpreter as a machine simulator (relevant grounding)."""
    machine = alternating_machine()
    program = machine_to_program(machine)
    db = natural_database(horizon)
    gp = ground(program, db, mode="relevant")

    def run():
        return Engine(program, db, ground_program=gp).solve("well_founded")

    result = benchmark(run)
    assert result.is_total
    states = sum(1 for a in result.model.true_set() if a.predicate == "state")
    assert states == horizon + 1  # one configuration per time step
    benchmark.extra_info["instances"] = gp.rule_count
