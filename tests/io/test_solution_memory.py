"""A cached tie-breaking solution keeps its model and reasons, nothing more.

After its run, a tie-breaking solve turns its kernel state into a
:class:`~repro.ground.state.FinishedState`: the SCC cache, the tie
schedule, the unfounded-set sources, the counters and the live-slot
arrays are dropped, and only what ``explain`` reads stays.  Each solution
in the engine's solution cache then costs a few arrays of one entry per
atom (the model, the state's status and reason buffers) plus its trail.
"""

import copy
import gc
import sys
import tracemalloc

import pytest

from repro.api.engine import Engine
from repro.ground.explain import explain
from repro.ground.state import FinishedState, GroundGraphState
from repro.semantics.choices import RandomChoice
from repro.semantics.tie_breaking import _run
from repro.workloads import families

SOLUTIONS = 8
# Kept state, measured on grounded_argumentation(300): about 6 times the
# model's status tuple per solution; the whole kernel state was 14 to 17.
BOUND_IN_MODEL_TUPLES = 8


def test_cached_solutions_keep_no_search_machinery():
    engine = Engine(*families.grounded_argumentation(300))
    engine.solve("tie_breaking", policy=RandomChoice(SOLUTIONS))  # checkpoint, tables
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solutions = [
            engine.solve("tie_breaking", policy=RandomChoice(seed)) for seed in range(SOLUTIONS)
        ]
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert solutions[0].free_choice_count > 50
    per_model_tuple = sys.getsizeof(solutions[0].model.status)
    assert grown / SOLUTIONS < BOUND_IN_MODEL_TUPLES * per_model_tuple, grown


@pytest.mark.parametrize(
    "semantics,grounding,well_founded",
    [("tie_breaking", "relevant", True), ("pure_tie_breaking", "full", False)],
)
def test_finished_state_explains_like_the_live_state(semantics, grounding, well_founded):
    engine = Engine(*families.grounded_argumentation(40))
    gp = engine.ground_for(grounding)
    options = {"semantics": semantics, "policy": RandomChoice(5), "grounding": grounding}
    solution = engine.solve(**options)
    live = GroundGraphState(gp)
    _run(live, copy.deepcopy(options["policy"]), well_founded=well_founded)
    assert type(solution.state) is FinishedState
    assert solution.state.status == live.status
    for a in range(len(gp.atoms)):
        atom = gp.atoms.atom(a)
        expected = explain(live, atom)
        assert solution.state.reason_of(a) == live.reason_of(a)
        assert explain(solution.state, atom) == expected
        assert engine.explain(atom, **options) == expected


@pytest.mark.parametrize(
    "semantics,grounding",
    [("tie_breaking", "relevant"), ("pure_tie_breaking", "full")],
)
def test_tie_reasons_are_stored_without_labels(semantics, grounding):
    """A tie orientation stores its side in each atom's reason slot, as
    the unfounded step stores its round: the finished state interns no
    label, and ``reason_of`` still reads ``("assigned", ("tie", side))``."""
    engine = Engine(*families.grounded_argumentation(40))
    solution = engine.solve(semantics, policy=RandomChoice(5), grounding=grounding)
    state = solution.state
    assert state._labels == []
    assert solution.free_choice_count > 0
    for choice in solution.choices:
        true_reasons = {state.reason_of(a) for a in choice.true_ids}
        false_reasons = {state.reason_of(a) for a in choice.false_ids}
        assert len(true_reasons) <= 1 and len(false_reasons) <= 1
        sides = set()
        for kind, (label, side) in true_reasons | false_reasons:
            assert (kind, label) == ("assigned", "tie") and side in (0, 1)
            sides.add(side)
        assert len(sides) == len(true_reasons) + len(false_reasons)
        for a in choice.true_ids:
            assert "broken tie" in explain(state, state.gp.atoms.atom(a)).detail


def test_kernel_calls_on_a_finished_state_raise():
    engine = Engine(*families.grounded_argumentation(40))
    state = engine.solve("tie_breaking").state
    status = list(state.status)
    for call in (
        lambda: state.close(),
        lambda: state.assign(0, 1),
        lambda: state.assign_many([0], 1),
        lambda: state.select_ties(),
        lambda: state.falsify_unfounded(),
        lambda: state.bottom_components_live(),
        lambda: state.clone(),
        lambda: state.trail_begin(),
        lambda: state.finish(),
    ):
        with pytest.raises(AttributeError):
            call()
    assert state.status == status
