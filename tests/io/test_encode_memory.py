"""Encoding a solution keeps nothing on it.

The sorted atom lists of ``repro-solution/1`` are read from the atom
table's literal table, built once per table; a held solution keeps no
encode output.  Encoding many held solutions of one engine therefore
grows the heap by a small fixed amount per solution, whatever the size
of the model.
"""

import gc
import tracemalloc

from repro.api.engine import Engine
from repro.io.json_io import solution_to_obj
from repro.semantics.choices import RandomChoice
from repro.workloads import families

SOLUTIONS = 12
BOUND_PER_SOLUTION = 8 * 1024  # bytes


def test_encoding_held_solutions_retains_no_memory_per_solution():
    engine = Engine(*families.grounded_argumentation(200))
    solutions = [
        engine.solve("tie_breaking", policy=RandomChoice(seed)) for seed in range(SOLUTIONS)
    ]
    served = engine.stats()["tie_table_solves"]
    again = engine.solve("tie_breaking", policy=RandomChoice(0))  # read from the tie table
    assert engine.stats()["tie_table_solves"] == served + 1
    first = solutions[0]
    assert (again.model, again.choices, again.policy) == (first.model, first.choices, first.policy)
    assert len(solutions[0].model.status) > 500
    solution_to_obj(solutions[0])  # builds the one literal table of the atom table
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for solution in solutions:
            solution_to_obj(solution)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / SOLUTIONS < BOUND_PER_SOLUTION, grown
