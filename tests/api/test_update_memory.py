"""A live engine's memory does not grow with the number of updates it applied.

Every semantics is a function of (Π, Δ) alone, so an engine that toggles
one fact back and forth must end where it started: no per-update log,
history or counter table may accumulate on the grounding.
"""

import gc
import tracemalloc

import pytest

from repro import Engine

GAME = "win(X) :- move(X, Y), not win(Y)."
BOARD = "move(1, 2). move(2, 1). move(2, 3)."

WARMUP = 50
PAIRS = 2000
BOUND = 64 * 1024


def _toggle(engine: Engine, pairs: int) -> None:
    for _ in range(pairs):
        engine.insert_facts("move(3, 1)")
        engine.retract_facts("move(3, 1)")


@pytest.mark.parametrize("mode", ["relevant", "full"])
def test_live_engine_keeps_no_memory_per_update(mode):
    engine = Engine(GAME, BOARD, grounding=mode)
    engine.ground_for()
    _toggle(engine, WARMUP)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _toggle(engine, PAIRS)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert engine.stats()["delta_applied"] == 2 * (WARMUP + PAIRS)
    assert growth < BOUND, f"{growth} bytes retained over {2 * PAIRS} updates"
