"""A live engine reopens its well-founded base in place; solutions keep snapshots.

After a ``well_founded`` solve the engine keeps the end state as the base
of its grounding mode, and the next solve after an in-place update runs
on ``base.reopen(touched)``: the same state object, with only the forward
cone of the touched atoms reset.  So no solve clones the base, and a
solution cannot hold the live state: it keeps a
:class:`~repro.ground.state.FinishedState` snapshot, over its model's
status bytes, with reason buffers of its own.  Pinned here:

* hypothesis traces over the delta families, in relevant and full mode,
  hold every well-founded solution; after the trace each held solution's
  state is a ``FinishedState`` whose status is its model's, whose reasons
  are those it had when solved and pass ``assert_reasons_sound`` against
  the index it was solved on, whose ``explain`` agrees with its model on
  every atom, and whose model equals a fresh engine's on that step's
  database;
* well-founded solves after in-place updates call ``clone`` never, and
  ``_wf_bases[mode][0]`` is one object until a rebuild drops it;
* a solve that raises mid-cascade leaves no base, the next solve starts
  fresh, and the solve after the next update patches again;
* a held solution keeps compact buffers: its model's status is ``bytes``,
  its snapshot's reasons are a ``bytearray`` and an ``array('i')`` of
  its own, so it costs six bytes per atom plus a fixed part; a published
  index keeps its canonical ids as an ``array('i')`` copy.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import Engine
from repro.errors import CloseConflictError
from repro.ground import state as state_module
from repro.ground.explain import explain
from repro.ground.state import FinishedState, GroundGraphState
from repro.workloads import families

from tests.ground.test_reason_soundness import FAMILIES, assert_reasons_sound
from tests.properties.test_delta_index import _candidates, _trace
from tests.properties.test_wf_patch import MODES, _decoded


@pytest.fixture
def clones(monkeypatch):
    """The states ``GroundGraphState.clone`` was called on, in call order."""
    cloned: list[GroundGraphState] = []
    clone = GroundGraphState.clone

    def counting(self):
        cloned.append(self)
        return clone(self)

    monkeypatch.setattr(GroundGraphState, "clone", counting)
    return cloned


def _held_trace(name, build, mode, seed, gaps):
    """Solve after each gap of updates; yield each solution with the index
    it was solved on, its reasons then, and a fresh engine's model then."""
    program, database = build()
    rng = random.Random(seed)
    live = Engine(program, database.copy(), grounding=mode)
    updates = _trace(live.database, _candidates(program, database, rng, fresh=1), rng, sum(gaps))
    for gap in (0, *gaps):
        for _ in range(gap):
            inserted, retracted = next(updates)
            live.retract_facts(*retracted)
            live.insert_facts(*inserted)
        solution = live.solve("well_founded")
        state = solution.state
        fresh = Engine(live.program, live.database.copy(), grounding=mode).solve("well_founded")
        yield (
            solution,
            state.gp.index,
            [state.reason_of(a) for a in range(state.n_atoms)],
            _decoded(fresh.state.gp, fresh.model.status),
        )


@settings(max_examples=60, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(FAMILIES) - 1),
    mode=st.sampled_from(MODES),
    seed=st.integers(min_value=0, max_value=10_000),
    gaps=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6),
)
def test_held_solutions_keep_their_own_snapshot(case, mode, seed, gaps):
    name, build = FAMILIES[case]
    held = list(_held_trace(name, build, mode, seed, gaps))
    for step, (solution, index, reasons, expected) in enumerate(held):
        label = f"{name}/{mode} seed {seed} step {step}"
        state = solution.state
        assert type(state) is FinishedState, label
        assert state.status == solution.model.status, f"{label}: status is not the model's"
        assert [state.reason_of(a) for a in range(state.n_atoms)] == reasons, (
            f"{label}: a later reopen moved the snapshot's reasons"
        )
        assert_reasons_sound(state, label, index=index)
        table = state.gp.atoms
        for a in range(state.n_atoms):
            atom = table.atom(a)
            assert explain(state, atom, max_depth=1).value == solution.value(atom), label
        assert _decoded(state.gp, solution.model.status) == expected, f"{label}: fresh engine"


@pytest.mark.parametrize("name,build", FAMILIES, ids=[name for name, _ in FAMILIES])
@pytest.mark.parametrize("mode", MODES)
def test_patched_solves_reopen_one_base_and_clone_nothing(name, build, mode, clones):
    program, database = build()
    rng = random.Random(7)
    live = Engine(program, database.copy(), grounding=mode)
    live.solve("well_founded")
    base = live._wf_bases[mode][0]
    updates = _trace(live.database, _candidates(program, database, rng, fresh=0), rng, 8)
    for step, (inserted, retracted) in enumerate(updates):
        rebuilds, patches = live.delta_rebuilds, live.wf_patches
        live.retract_facts(*retracted)
        live.insert_facts(*inserted)
        live.solve("well_founded")
        if live.delta_rebuilds == rebuilds:
            assert live.wf_patches == patches + 1, f"{name}/{mode} step {step}: no patch"
            assert live._wf_bases[mode][0] is base, f"{name}/{mode} step {step}: a new base"
        base = live._wf_bases[mode][0]
    assert clones == []
    if name != "committee":  # its member(k) facts each carry a constant
        assert live.wf_patches > 0


@settings(max_examples=40, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(FAMILIES) - 1),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_a_solve_that_raises_mid_cascade_drops_the_base(case, seed, data):
    """The raise lands at the k-th unfounded round of a patched solve."""
    name, build = FAMILIES[case]
    program, database = build()
    rng = random.Random(seed)
    updates = _trace(database.copy(), _candidates(program, database, rng, fresh=0), rng, 2)
    (inserted, retracted), (again_in, again_out) = updates
    live = Engine(program, database.copy())
    live.solve("well_founded")
    rebuilds = live.delta_rebuilds
    live.retract_facts(*retracted)
    live.insert_facts(*inserted)
    patched = live.delta_rebuilds == rebuilds

    rounds = []
    check = state_module.check_deadline
    k = data.draw(st.integers(min_value=1, max_value=3), label="k")

    def failing() -> None:
        rounds.append(None)
        if len(rounds) == k:
            raise CloseConflictError(0)
        check()

    patches = live.wf_patches
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(state_module, "check_deadline", failing)
        try:
            live.solve("well_founded")
        except CloseConflictError:
            assert live.wf_patches == patches + patched
            assert "relevant" not in live._wf_bases, f"{name}: an aborted solve kept its base"
        else:
            assert len(rounds) < k  # the cascade ended before round k

    patches = live.wf_patches
    solution = live.solve("well_founded")
    fresh = Engine(live.program, live.database.copy()).solve("well_founded")
    assert _decoded(solution.state.gp, solution.model.status) == _decoded(
        fresh.state.gp, fresh.model.status
    ), name
    if len(rounds) >= k:
        assert live.wf_patches == patches, f"{name}: the solve after the abort patched"

    calls, rebuilds = live.update_calls, live.delta_rebuilds
    live.retract_facts(*again_out)
    live.insert_facts(*again_in)
    patches = live.wf_patches
    solution = live.solve("well_founded")
    fresh = Engine(live.program, live.database.copy()).solve("well_founded")
    assert _decoded(solution.state.gp, solution.model.status) == _decoded(
        fresh.state.gp, fresh.model.status
    ), name
    patched_again = live.update_calls > calls and live.delta_rebuilds == rebuilds
    assert live.wf_patches == patches + patched_again, f"{name}: the next update did not patch"


# -- compact buffers ----------------------------------------------------------

# Per atom, a held well-founded solution keeps one status byte, one reason
# kind byte and one 4-byte reason argument.  The fixed part (the Solution,
# Interpretation and FinishedState objects, the timings and phase_s dicts
# and the buffers' headers) measures 1361 bytes on CPython 3.11, with
# Interpretation a slotted dataclass (no instance dict).
HELD_BYTES_PER_ATOM = 6
HELD_FIXED_BYTES = 1400


def _absent_attacks(database, n: int, count: int) -> list[str]:
    """``count`` ``attacks`` facts between existing arguments that
    ``database`` does not hold."""
    present = {tuple(c.value for c in row) for row in database["attacks"]}
    out = []
    source = 0
    while len(out) < count:
        pair = (source, (source + 7) % n)
        if pair not in present:
            out.append("attacks(%d, %d)" % pair)
        source += 5
    return out


def _assert_compact(solution, base, label: str) -> None:
    state = solution.state
    status = solution.model.status
    assert type(status) is bytes and len(status) == state.n_atoms, label
    assert state.status is status, label
    assert type(state._reason_kind) is bytearray, label
    assert type(state._reason_arg) is array and state._reason_arg.typecode == "i", label
    assert len(state._reason_kind) == len(state._reason_arg) == state.n_atoms, label
    assert state._reason_kind is not base._reason_kind, label
    assert state._reason_arg is not base._reason_arg, label


@pytest.mark.parametrize("mode", MODES)
def test_a_held_solution_keeps_byte_and_int_buffers_of_its_own(mode):
    program, database = families.grounded_argumentation(40)
    engine = Engine(program, database.copy(), grounding=mode)
    first = engine.solve("well_founded")
    _assert_compact(first, engine._wf_bases[mode][0], f"{mode}: first solve")
    (fact,) = _absent_attacks(database, 40, 1)
    assert engine.insert_facts(fact)
    patches = engine.wf_patches
    patched = engine.solve("well_founded")
    assert engine.wf_patches == patches + 1, mode
    base = engine._wf_bases[mode][0]
    _assert_compact(patched, base, f"{mode}: patched solve")
    _assert_compact(first, base, f"{mode}: first solve, after the reopen")


def test_each_held_solution_keeps_six_bytes_per_atom():
    """On grounded_argumentation(1200), a live_updates-like toggle holds
    every well-founded solution it solves.  Dropping them frees, per
    solution, its status bytes and its snapshot's reason buffers (six
    bytes per atom) plus a fixed part.  The indexes the models were
    solved on are held apart, so only the solutions' own memory is
    freed."""
    program, database = families.grounded_argumentation(1200)
    engine = Engine(program, database.copy())
    engine.solve("well_founded")
    held, indexes = [], []
    tracemalloc.start()
    try:
        for fact in _absent_attacks(database, 1200, 3):
            for update in (engine.insert_facts, engine.retract_facts):
                update(fact)
                held.append(engine.solve("well_founded"))
                indexes.append(held[-1].model.index)
        engine.insert_facts(fact)  # empties the engine's last-answer slot
        bound = sum(
            HELD_BYTES_PER_ATOM * solution.state.n_atoms + HELD_FIXED_BYTES
            for solution in held
        )
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        del held
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert engine.delta_rebuilds == 0
    assert all(index is not None for index in indexes)
    assert 0 < freed <= bound, (freed, bound)


def test_a_published_index_keeps_an_int_array_copy_of_the_canonical_ids():
    program, database = families.grounded_argumentation(40)
    engine = Engine(program, database.copy())
    engine.solve("well_founded")
    first, second = _absent_attacks(database, 40, 2)
    assert engine.insert_facts(first)
    gp = engine.ground_for("relevant")
    session = gp._delta_session
    index = gp.index
    canonical = index.canonical_ids
    assert type(canonical) is array and canonical.typecode == "i"
    assert type(session.canonical) is array and session.canonical.typecode == "i"
    assert canonical is not session.canonical
    assert list(canonical) == list(session.canonical)
    held = list(canonical)
    assert engine.insert_facts(second)
    assert gp.index is not index and gp.index.canonical_ids is not canonical
    assert list(session.canonical) != held  # the new attacks atom joined U*
    assert list(canonical) == held


# An index over grounded_argumentation(1200) is about 270 KiB; an update
# that frees the index it replaced grows the traced heap by about 1 KiB.
UPDATE_GROWTH_BYTES = 64 * 1024


def test_an_update_frees_the_index_the_kept_base_was_solved_on():
    """The kept well-founded base drops the index it was solved on when
    an update publishes the next one (its reopen reads ``gp.index``), so
    one index is alive between an update and the next solve, not two.
    On an engine that holds no solution, an update then grows the traced
    heap by far less than an index."""
    program, database = families.grounded_argumentation(1200)
    engine = Engine(program, database.copy())
    first, *facts = _absent_attacks(database, 1200, 4)
    grew = []
    tracemalloc.start()
    try:
        # One cycle first: the first update builds the delta session.
        engine.solve("well_founded")
        engine.insert_facts(first)
        engine.solve("well_founded")
        engine.retract_facts(first)
        for fact in facts:
            engine.solve("well_founded")  # the engine's last-answer slot holds it
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            engine.insert_facts(fact)  # empties the slot
            gc.collect()
            grew.append(tracemalloc.get_traced_memory()[0] - before)
            engine.retract_facts(fact)
    finally:
        tracemalloc.stop()
    assert engine.delta_rebuilds == 0 and engine.wf_patches == len(facts) + 1
    assert all(g < UPDATE_GROWTH_BYTES for g in grew), grew
