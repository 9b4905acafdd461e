"""What a tie-breaking solve keeps: a finished state, and nothing on the engine.

After its run, a tie-breaking solve turns its kernel state into a
:class:`~repro.ground.state.FinishedState`: the SCC cache, the tie
schedule, the unfounded-set sources, the counters and the live-slot
arrays are dropped, and only what ``explain`` reads stays.  The engine
keeps no tie-breaking solution: the checkpoint's tie table is their
cache, so a repeated seed is drawn again and, once the table holds its
sides, read from the table.  A deterministic semantics keeps one last
solution per semantics, emptied by an update.
"""

import copy
import gc
import json
import sys
import tracemalloc
import weakref

import pytest

from repro.api.engine import Engine
from repro.ground.explain import explain
from repro.ground.state import FinishedState, GroundGraphState
from repro.io.json_io import solution_text
from repro.semantics.choices import FewestTrue, RandomChoice, SecondSideTrue
from repro.semantics.tie_breaking import _run
from repro.workloads import families

SOLUTIONS = 8
# Solving SOLUTIONS distinct seeds, each solution dropped at once, grows
# the engine by less than one model status (its bytes) per solve.
BOUND_IN_MODEL_TUPLES = 1


@pytest.mark.parametrize(
    "build",
    [lambda: families.grounded_argumentation(300), lambda: families.tie_chain(150)],
    ids=["table_served", "run_made"],
)
def test_distinct_tie_seeds_grow_the_engine_by_no_per_solve_memory(build):
    """Read from the tie table (grounded_argumentation) or run on the
    kernel (tie_chain, whose ties span several rounds): either way the
    engine keeps nothing per solve."""
    engine = Engine(*build())
    for seed in (SOLUTIONS, SOLUTIONS + 1):  # the checkpoint, then its table
        probe = engine.solve("tie_breaking", policy=RandomChoice(seed))
    per_model_tuple = sys.getsizeof(probe.model.status)
    assert probe.free_choice_count > 10
    del probe
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for seed in range(SOLUTIONS):
            engine.solve("tie_breaking", policy=RandomChoice(seed))  # dropped at once
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert engine.stats()["cached_solutions"] == 0
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
        lambda: state.finish(),
    ):
        with pytest.raises(AttributeError):
            call()
    assert list(state.status) == status


# -- repeated seeds: equal solutions, deferred trail and state ---------------

REPEAT_CASES = [
    (semantics, grounding, well_founded, policy)
    for semantics, grounding, well_founded in (
        ("tie_breaking", "relevant", True),
        ("pure_tie_breaking", "full", False),
    )
    for policy in (RandomChoice(5), SecondSideTrue(), FewestTrue())
]


def _explains_like(state, live, gp) -> None:
    assert type(state) is FinishedState
    assert list(state.status) == list(live.status)
    for a in range(len(gp.atoms)):
        atom = gp.atoms.atom(a)
        assert state.reason_of(a) == live.reason_of(a)
        assert explain(state, atom) == explain(live, atom)


@pytest.mark.parametrize("semantics,grounding,well_founded,policy", REPEAT_CASES)
def test_a_repeated_seeds_state_explains_like_the_first_solves(
    semantics, grounding, well_founded, policy
):
    engine = Engine(*families.grounded_argumentation(40))
    gp = engine.ground_for(grounding)
    options = {"semantics": semantics, "policy": policy, "grounding": grounding}
    first = engine.solve(**options)
    again = engine.solve(**options)
    assert again is not first and engine.stats()["solution_cache_hits"] == 0
    assert again.model == first.model and again.choices == first.choices
    assert again.policy == first.policy
    assert again.free_choice_count == first.free_choice_count > 0
    assert again.state is not first.state
    _explains_like(again.state, first.state, gp)
    live = GroundGraphState(gp)
    _run(live, copy.deepcopy(policy), well_founded=well_founded)
    _explains_like(again.state, live, gp)
    for a in range(len(gp.atoms)):
        atom = gp.atoms.atom(a)
        assert engine.explain(atom, **options) == explain(first.state, atom)


def _warm(engine: Engine, semantics: str, grounding: str) -> None:
    """Fill the checkpoint's tie table with the sides of 24 seeds."""
    for seed in range(24):
        engine.solve(semantics, policy=RandomChoice(100 + seed), grounding=grounding)


def test_an_atoms_only_repeat_decodes_no_trail_and_builds_no_state():
    engine = Engine(*families.grounded_argumentation(40))
    first = engine.solve("tie_breaking", policy=RandomChoice(3))
    _warm(engine, "tie_breaking", "relevant")
    builds = engine.stats()["checkpoint_builds"]
    served = engine.stats()["tie_table_solves"]
    again = engine.solve("tie_breaking", policy=RandomChoice(3))
    assert engine.stats()["tie_table_solves"] == served + 1
    atom = first.model.ground_program.atoms.atom(0)
    assert again.value(atom) == first.value(atom)
    assert again.free_choice_count == first.free_choice_count
    assert again._load_choices is not None and again._load_state is not None
    assert engine.stats()["checkpoint_builds"] == builds
    # replace() keeps the trail and the state deferred.
    copied = again.replace(iterations=7)
    assert copied._load_choices is not None and copied._load_state is not None
    assert copied.choices == first.choices


def _untimed(solution) -> str:
    document = json.loads(solution_text(solution))
    del document["timings"]
    return json.dumps(document, sort_keys=True)


@pytest.mark.parametrize("semantics,grounding,well_founded,policy", REPEAT_CASES)
def test_a_repeated_seed_on_a_warm_tie_table_is_table_served(
    semantics, grounding, well_founded, policy, monkeypatch
):
    """Once the checkpoint's tie table holds every side a seed took, the
    seed's repeat is read from the table: no ``close``, for the solve or
    for its ``state``, and a full reply equal to the first's but for its
    timings."""
    engine = Engine(*families.grounded_argumentation(40))
    gp = engine.ground_for(grounding)
    options = {"semantics": semantics, "policy": policy, "grounding": grounding}
    first = engine.solve(**options)
    first_text = _untimed(first)
    _warm(engine, semantics, grounding)
    engine.solve(**options)  # fills the seed's sides if the warm-up did not
    live = GroundGraphState(gp)
    _run(live, copy.deepcopy(policy), well_founded=well_founded)
    closes = []
    close = GroundGraphState.close
    monkeypatch.setattr(GroundGraphState, "close", lambda state: closes.append(1) or close(state))
    served = engine.stats()["tie_table_solves"]
    again = engine.solve(**options)
    assert engine.stats()["tie_table_solves"] == served + 1
    assert again.trail is not None and again.trail.table is not None
    assert _untimed(again) == first_text
    _explains_like(again.state, live, gp)
    assert closes == []
    assert engine.explain(gp.atoms.atom(0), **options) == explain(live, gp.atoms.atom(0))
    assert closes == []


def test_a_held_table_served_miss_keeps_no_kernel_state_after_an_update():
    """A miss read from the tie table rebuilds its state from the table's
    base, which shares the checkpoint's status and reason buffers; once an
    update drops the checkpoint, a held miss keeps those buffers and the
    table alive, not the live kernel state."""
    engine = Engine(*families.grounded_argumentation(40))
    gp = engine.ground_for("relevant")
    for seed in range(24):
        engine.solve("tie_breaking", policy=RandomChoice(seed))
    served = engine.tie_table_solves
    seed = 100
    while engine.tie_table_solves == served:
        seed += 1
        miss = engine.solve("tie_breaking", policy=RandomChoice(seed))
    live = GroundGraphState(gp)
    _run(live, RandomChoice(seed), well_founded=True)
    (checkpoint,) = engine._checkpoints.values()
    kernel = weakref.ref(checkpoint.state)
    base = checkpoint.table.base
    assert base.status is checkpoint.state.status
    assert base._reason_kind is checkpoint.state._reason_kind
    del checkpoint
    assert engine.insert_facts("attacks(3, 1)")
    gc.collect()
    assert kernel() is None
    state = miss.state  # first read: after the update
    assert list(state.status) == list(live.status) and state._reason_kind == live._reason_kind
    assert list(state._reason_arg) == list(live._reason_arg)


def test_the_tie_table_is_smaller_than_one_model_tuple():
    engine = Engine(*families.grounded_argumentation(300))
    for seed in range(SOLUTIONS):
        solution = engine.solve("tie_breaking", policy=RandomChoice(seed))
    (checkpoint,) = engine._checkpoints.values()
    assert checkpoint.table is not None
    size = engine.stats()["tie_table_bytes"]
    assert size == checkpoint.table.nbytes
    assert 0 < size < sys.getsizeof(tuple(solution.model.status))


@pytest.mark.parametrize(
    "semantics,build",
    [
        ("well_founded", lambda: families.grounded_argumentation(40)),
        ("stratified", lambda: families.negation_tower(30)),
    ],
)
def test_a_well_founded_slot_keeps_a_snapshot_of_its_own(semantics, build):
    """The engine reopens its well-founded base in place, so the solution
    it keeps as the semantics' last answer holds a snapshot: the model's
    status bytes, shared, and reason buffers and labels of its own.  A
    repeat shares that snapshot."""
    engine = Engine(*build())
    solution = engine.solve(semantics)
    state = solution.state
    assert type(state) is FinishedState
    assert solution.model.status is state.status
    base = engine._wf_bases["relevant"][0]
    for name in ("_reason_kind", "_reason_arg", "_labels"):
        assert getattr(state, name) == getattr(base, name), name
        assert getattr(state, name) is not getattr(base, name), name
    again = engine.solve(semantics)
    assert engine.stats()["solution_cache_hits"] == 1
    assert again == solution and again.state is state
