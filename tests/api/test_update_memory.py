"""A live engine's memory does not grow with the number of updates it applied.

Every semantics is a function of (Π, Δ) alone, so an engine that toggles
one fact back and forth must end where it started: no per-update log,
history or counter table may accumulate on the grounding — nor, when a
``well_founded`` solve follows every update, on the kernel side: the
kept end state, its label table, or the touched-atom sets.
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


# Inserting e(2) kills b(2)'s grounded instance and leaves a(2) and b(2)
# on a positive loop, so the solve after it falsifies them in an
# unfounded round (in relevant mode too: d(2) puts both in U*).  d(2)
# keeps 2 in the universe while e(2) is out, and the negation goes
# through the IDB f so relevant mode updates in place.
CONE = (
    "a(X) :- b(X), e(X). b(X) :- a(X). b(X) :- d(X), not f(X). f(X) :- e(X). "
    "c(X) :- e(X), not a(X)."
)
CONE_FACTS = "d(1). d(2). e(1). e(2)."


def _toggle(engine: Engine, pairs: int) -> None:
    for _ in range(pairs):
        engine.insert_facts("move(3, 1)")
        engine.retract_facts("move(3, 1)")


def _toggle_solving(engine: Engine, pairs: int) -> None:
    for _ in range(pairs):
        engine.retract_facts("e(2)")
        engine.solve("well_founded")
        engine.insert_facts("e(2)")
        assert engine.solve("well_founded").iterations == 1


def _growth(engine: Engine, toggle) -> int:
    toggle(engine, WARMUP)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        toggle(engine, PAIRS)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", ["relevant", "full"])
def test_live_engine_keeps_no_memory_per_update(mode):
    engine = Engine(GAME, BOARD, grounding=mode)
    engine.ground_for()
    growth = _growth(engine, _toggle)
    assert engine.stats()["delta_applied"] == 2 * (WARMUP + PAIRS)
    assert growth < BOUND, f"{growth} bytes retained over {2 * PAIRS} updates"


@pytest.mark.parametrize("mode", ["relevant", "full"])
def test_live_engine_keeps_no_memory_per_solved_update(mode):
    engine = Engine(CONE, CONE_FACTS, grounding=mode)
    engine.solve("well_founded")
    growth = _growth(engine, _toggle_solving)
    stats = engine.stats()
    assert stats["delta_applied"] == 2 * (WARMUP + PAIRS)
    assert stats["wf_patches"] == 2 * (WARMUP + PAIRS)
    assert growth < BOUND, f"{growth} bytes retained over {2 * PAIRS} solved updates"
