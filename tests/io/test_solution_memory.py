"""What a tie-breaking solve keeps: a finished state, and a compact cache entry.

After its run, a tie-breaking solve turns its kernel state into a
:class:`~repro.ground.state.FinishedState`: the SCC cache, the tie
schedule, the unfounded-set sources, the counters and the live-slot
arrays are dropped, and only what ``explain`` reads stays.  The solution
a miss returns keeps that state; the engine's solution cache keeps less.
An entry is the model's status as ``bytes`` and the trail as a few flat
buffers, and a cache hit replays the trail on the engine's checkpoint
when its ``state`` is first read.  The cache is a bounded LRU, by entries
and by bytes, with counted evictions.
"""

import copy
import gc
import sys
import tracemalloc
import weakref

import pytest

from repro.api import engine as engine_module
from repro.api.engine import Engine
from repro.errors import SemanticsError
from repro.ground.explain import explain
from repro.ground.state import FinishedState, GroundGraphState
from repro.semantics.choices import FewestTrue, FirstSideTrue, RandomChoice, SecondSideTrue
from repro.semantics.tie_breaking import FlatTrail, _run
from repro.workloads import families

SOLUTIONS = 8
# A cache entry on grounded_argumentation(300) measures about 0.4 model
# status tuples (status bytes, trail buffers, timings); a cached Solution
# with its finished state measured about 6.
BOUND_IN_MODEL_TUPLES = 1


def test_cache_entries_are_smaller_than_one_model_tuple():
    engine = Engine(*families.grounded_argumentation(300))
    probe = engine.solve("tie_breaking", policy=RandomChoice(SOLUTIONS))  # checkpoint, tables
    per_model_tuple = sys.getsizeof(probe.model.status)
    assert probe.free_choice_count > 50
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
    assert engine.stats()["cached_solutions"] == SOLUTIONS + 1
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


# -- cache hits: equal solutions, deferred trail, replayed state -------------

REPLAY_CASES = [
    (semantics, grounding, well_founded, policy)
    for semantics, grounding, well_founded in (
        ("tie_breaking", "relevant", True),
        ("pure_tie_breaking", "full", False),
    )
    for policy in (RandomChoice(5), SecondSideTrue(), FewestTrue())
]


@pytest.mark.parametrize("semantics,grounding,well_founded,policy", REPLAY_CASES)
def test_a_replayed_state_explains_like_the_live_run(semantics, grounding, well_founded, policy):
    engine = Engine(*families.grounded_argumentation(40))
    gp = engine.ground_for(grounding)
    options = {"semantics": semantics, "policy": policy, "grounding": grounding}
    miss = engine.solve(**options)
    hit = engine.solve(**options)
    assert hit is not miss and engine.stats()["solution_cache_hits"] == 1
    assert hit.model == miss.model and hit.choices == miss.choices
    assert hit.policy == miss.policy and hit.timings == miss.timings
    assert hit.free_choice_count == miss.free_choice_count > 0
    live = GroundGraphState(gp)
    _run(live, copy.deepcopy(policy), well_founded=well_founded)
    replayed = hit.state
    assert type(replayed) is FinishedState and replayed is not miss.state
    assert replayed.status == live.status
    for a in range(len(gp.atoms)):
        atom = gp.atoms.atom(a)
        expected = explain(live, atom)
        assert replayed.reason_of(a) == live.reason_of(a)
        assert explain(replayed, atom) == expected
        assert engine.explain(atom, **options) == expected


def test_an_atoms_only_hit_decodes_no_trail_and_replays_nothing():
    engine = Engine(*families.grounded_argumentation(40))
    miss = engine.solve("tie_breaking", policy=RandomChoice(3))
    builds = engine.stats()["checkpoint_builds"]
    hit = engine.solve("tie_breaking", policy=RandomChoice(3))
    atom = miss.model.ground_program.atoms.atom(0)
    assert hit.value(atom) == miss.value(atom)
    assert hit.free_choice_count == miss.free_choice_count
    assert hit._load_choices is not None and hit._load_state is not None
    assert engine.stats()["checkpoint_builds"] == builds
    # replace() keeps the trail and the state deferred.
    copied = hit.replace(iterations=7)
    assert copied._load_choices is not None and copied._load_state is not None
    assert copied.choices == miss.choices


def test_replaying_after_an_update_raises():
    engine = Engine(*families.grounded_argumentation(40))
    engine.solve("tie_breaking", policy=RandomChoice(3))
    hit = engine.solve("tie_breaking", policy=RandomChoice(3))
    assert engine.insert_facts("attacks(3, 1)")
    with pytest.raises(SemanticsError, match="update"):
        hit.state
    # The engine answers afresh for the updated database.
    assert engine.solve("tie_breaking", policy=RandomChoice(3)).state is not None


def test_a_replay_that_diverges_raises():
    engine = Engine(*families.grounded_argumentation(40))
    engine.solve("tie_breaking", policy=RandomChoice(3))
    (entry,) = engine._solution_cache.values()
    hit = engine.solve("tie_breaking", policy=RandomChoice(3))
    flags = bytearray(entry.trail.flags)
    free = next(k for k, flag in enumerate(flags) if not flag & 2)
    flags[free] ^= 1  # the other side of one free tie
    entry.trail.flags = bytes(flags)
    with pytest.raises(SemanticsError, match="did not reproduce"):
        hit.state


@pytest.mark.parametrize("semantics,grounding,well_founded,policy", REPLAY_CASES)
def test_a_hit_on_a_warm_tie_table_replays_without_close(
    semantics, grounding, well_founded, policy, monkeypatch
):
    """Once the checkpoint's tie table holds every side a cached trail
    took, replaying the trail for ``state`` runs no ``close``."""
    engine = Engine(*families.grounded_argumentation(40))
    gp = engine.ground_for(grounding)
    options = {"semantics": semantics, "policy": policy, "grounding": grounding}
    engine.solve(**options)
    for seed in range(24):
        engine.solve(semantics, policy=RandomChoice(100 + seed), grounding=grounding)
    hit = engine.solve(**options)
    closes = []
    close = GroundGraphState.close
    monkeypatch.setattr(GroundGraphState, "close", lambda state: closes.append(1) or close(state))
    served = engine.stats()["tie_table_solves"]
    replayed = hit.state
    assert closes == [] and engine.stats()["tie_table_solves"] == served + 1
    assert type(replayed) is FinishedState
    live = GroundGraphState(gp)
    _run(live, copy.deepcopy(policy), well_founded=well_founded)
    assert replayed.status == live.status
    for a in range(len(gp.atoms)):
        atom = gp.atoms.atom(a)
        expected = explain(live, atom)
        assert replayed.reason_of(a) == live.reason_of(a)
        assert explain(replayed, atom) == expected
    closes.clear()
    assert engine.explain(gp.atoms.atom(0), **options) == explain(live, gp.atoms.atom(0))
    assert closes == []


def test_a_table_served_entry_counts_its_flags_only():
    """A miss read from the tie table is cached as its trail flags, its
    status derived from the table on demand; the trail's ids and offsets
    are the table's, shared by every such entry and counted once, in
    ``tie_table_bytes``."""
    engine = Engine(*families.grounded_argumentation(40))
    gp = engine.ground_for("relevant")
    for seed in range(24):
        engine.solve("tie_breaking", policy=RandomChoice(seed))
    (checkpoint,) = engine._checkpoints.values()
    table = checkpoint.table
    served = []
    for seed in range(100, 160):
        before = engine.tie_table_solves
        engine.solve("tie_breaking", policy=RandomChoice(seed))
        if engine.tie_table_solves > before:
            served.append((seed, next(reversed(engine._solution_cache.values()))))
    assert len(served) > 10
    for seed, entry in served:
        assert entry.trail.ids is table.ids and entry.trail.offsets is table.offsets
        assert entry.nbytes == sys.getsizeof(entry.trail.flags)
        # The flags and status are those of a live run's trail and model.
        live = GroundGraphState(gp)
        choices = _run(live, RandomChoice(seed), well_founded=True)
        live.finish()
        assert entry.trail.flags == FlatTrail.encode(choices, live._reason_arg).flags
        assert entry.status == bytes(live.status)
        assert entry.trail.free == sum(not choice.forced for choice in choices)
    stats = engine.stats()
    assert stats["solution_cache_bytes"] == sum(e.nbytes for e in engine._solution_cache.values())
    assert stats["tie_table_bytes"] == table.nbytes
    shared = sys.getsizeof(table.ids) + sys.getsizeof(table.offsets)
    assert shared < table.nbytes
    # A hit on such an entry replays its flags through the table.
    seed, entry = served[0]
    hit = engine.solve("tie_breaking", policy=RandomChoice(seed))
    live = GroundGraphState(gp)
    _run(live, RandomChoice(seed), well_founded=True)
    assert hit.state.status == live.status
    assert hit.state._reason_kind == live._reason_kind


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
    assert list(state.status) == live.status and state._reason_kind == live._reason_kind
    assert list(state._reason_arg) == live._reason_arg


def test_the_tie_table_is_smaller_than_one_model_tuple():
    engine = Engine(*families.grounded_argumentation(300))
    for seed in range(SOLUTIONS):
        solution = engine.solve("tie_breaking", policy=RandomChoice(seed))
    (checkpoint,) = engine._checkpoints.values()
    assert checkpoint.table is not None
    size = engine.stats()["tie_table_bytes"]
    assert size == checkpoint.table.nbytes
    assert 0 < size < sys.getsizeof(solution.model.status)


@pytest.mark.parametrize(
    "semantics,build",
    [
        ("well_founded", lambda: families.grounded_argumentation(40)),
        ("stratified", lambda: families.negation_tower(30)),
    ],
)
def test_a_well_founded_entry_counts_the_buffers_it_alone_holds(semantics, build):
    """The engine reopens its well-founded base in place, so the solution
    and its cache entry keep a snapshot: the model's status tuple, shared,
    and reason buffers and labels of their own.  The entry counts exactly
    those buffers."""
    engine = Engine(*build())
    solution = engine.solve(semantics)
    (entry,) = engine._solution_cache.values()
    state = entry.state
    assert type(state) is FinishedState and state is solution.state
    assert entry.status is solution.model.status is state.status
    base = engine._wf_bases["relevant"][0]
    for name in ("_reason_kind", "_reason_arg", "_labels"):
        assert getattr(state, name) == getattr(base, name), name
        assert getattr(state, name) is not getattr(base, name), name
    buffers = (state.status, state._reason_kind, state._reason_arg, state._labels)
    assert entry.nbytes == sum(map(sys.getsizeof, buffers))
    assert engine.stats()["solution_cache_bytes"] == entry.nbytes


# -- the bound ---------------------------------------------------------------

ENTRY_BOUND = 6


def _patch_bounds(monkeypatch, *, entries=None, nbytes=None):
    if entries is not None:
        monkeypatch.setattr(engine_module, "SOLUTION_CACHE_ENTRIES", entries)
    if nbytes is not None:
        monkeypatch.setattr(engine_module, "SOLUTION_CACHE_BYTES", nbytes)


def test_the_entry_bound_evicts_the_least_recently_used(monkeypatch):
    _patch_bounds(monkeypatch, entries=ENTRY_BOUND)
    engine = Engine(*families.grounded_argumentation(200))

    def solve(seed):
        return engine.solve("tie_breaking", policy=RandomChoice(seed))

    def hits():
        return engine.stats()["solution_cache_hits"]

    first = solve(0)
    first_choices = first.choices
    solve(1)
    solve(0)  # a hit: seed 0 is now more recent than seed 1
    for seed in range(2, ENTRY_BOUND + 1):
        solve(seed)
    assert engine.stats()["solution_cache_evictions"] == 1
    before = hits()
    solve(0)  # still cached: the one eviction took seed 1
    assert hits() == before + 1
    for seed in range(ENTRY_BOUND + 1, 2 * ENTRY_BOUND + 1):
        solve(seed)
    # Seed 0 is evicted by now; it re-solves to the same model and trail.
    before = hits()
    again = solve(0)
    assert hits() == before
    assert again.model == first.model and again.choices == first_choices


def _trace_twice_the_bound(engine):
    """Solve ``2 * ENTRY_BOUND`` distinct seeds from an empty cache; the
    engine's stats and the traced memory after each solve."""
    traced = []
    gc.collect()
    tracemalloc.start()
    try:
        for seed in range(2 * ENTRY_BOUND):
            engine.solve("tie_breaking", policy=RandomChoice(seed))
            stats = engine.stats()
            assert stats["cached_solutions"] <= ENTRY_BOUND
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert stats["cached_solutions"] == ENTRY_BOUND
    assert stats["solution_cache_evictions"] == ENTRY_BOUND
    entries = engine._solution_cache.values()
    assert stats["solution_cache_bytes"] == sum(entry.nbytes for entry in entries)
    # Flat over the second half: each new entry evicts one of its size.
    sizes = [entry.nbytes for entry in entries]
    if all(entry.trail is not None and entry.trail.tie_table is not None for entry in entries):
        # A table-served entry counts its flags only, less than one resize
        # of the cache's dict: its size is also what it holds beside them.
        sizes = [_held_bytes(key, entry) for key, entry in engine._solution_cache.items()]
    half = traced[ENTRY_BOUND:]
    assert max(half) - min(half) < max(sizes), traced
    return stats


def _held_bytes(key, entry) -> int:
    """What a table-served cache entry holds apart from the table it
    shares: its counted flags, its object, its timings and its key."""

    def size(obj) -> int:
        return sys.getsizeof(obj) + (sum(map(size, obj)) if isinstance(obj, tuple) else 0)

    timings = entry.timings
    held = entry.nbytes + sys.getsizeof(entry) + size(key)
    return held + sys.getsizeof(timings) + sum(map(sys.getsizeof, timings.values()))


def test_twice_the_bound_in_distinct_seeds_stays_within_it(monkeypatch):
    _patch_bounds(monkeypatch, entries=ENTRY_BOUND)
    engine = Engine(*families.grounded_argumentation(200))
    # Build the checkpoint and fill its tie table untraced, outside the
    # cache, so every traced solve is read from the table and stores an
    # entry of one size.
    gp = engine.ground_for()
    for policy in (FirstSideTrue(), FirstSideTrue(), SecondSideTrue()):
        engine._tie_solve(gp, True, policy)
    stats = _trace_twice_the_bound(engine)
    assert stats["tie_table_solves"] == 2 * ENTRY_BOUND


def test_twice_the_bound_in_run_made_entries_stays_within_it(monkeypatch):
    """The same bound on a program with no tie table (ties over several
    rounds): every entry is a kernel run's, which owns its trail."""
    _patch_bounds(monkeypatch, entries=ENTRY_BOUND)
    engine = Engine(*families.tie_chain(60))
    engine._tie_state(engine.ground_for(), True)  # build the checkpoint untraced
    stats = _trace_twice_the_bound(engine)
    assert stats["tie_table_solves"] == 0


def test_the_byte_bound_keeps_the_counted_bytes_under_it(monkeypatch):
    engine = Engine(*families.grounded_argumentation(200))
    engine.solve("tie_breaking", policy=RandomChoice(0))
    per_entry = engine.stats()["solution_cache_bytes"]
    bound = int(3.5 * per_entry)
    _patch_bounds(monkeypatch, nbytes=bound)
    for seed in range(1, 8):
        engine.solve("tie_breaking", policy=RandomChoice(seed))
        assert engine.stats()["solution_cache_bytes"] <= bound
    stats = engine.stats()
    assert stats["cached_solutions"] == 3
    assert stats["solution_cache_evictions"] == 8 - 3


def test_an_update_empties_the_cache_without_counting_evictions():
    engine = Engine(*families.grounded_argumentation(40))
    for seed in range(3):
        engine.solve("tie_breaking", policy=RandomChoice(seed))
    engine.solve("well_founded")
    assert engine.stats()["solution_cache_bytes"] > 0
    engine.insert_facts("attacks(3, 1)")
    stats = engine.stats()
    assert (stats["cached_solutions"], stats["solution_cache_bytes"]) == (0, 0)
    assert stats["solution_cache_evictions"] == 0
