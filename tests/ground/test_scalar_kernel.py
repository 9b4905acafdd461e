"""Whole-drive tests for the scalar kernel's batched tie schedule.

:class:`~repro.ground.state.GroundGraphState` is the one evaluation
kernel.  These tests drive it through complete well-founded tie-breaking
runs (close, falsify unfounded sets, orient every bottom tie, repeat) on
the named workload families at medium sizes and on random programs, and
pin every run at four granularities:

* **lockstep** — the min-keyed schedule (``select_ties``) against the
  schedule-free scan (``_scan_ties``), with a full raw-buffer snapshot
  compared after every round, and a whole batched drive against the
  one-tie-per-step drive of ``_select_tie``;
* **sides cache** — the incremental (K, L) sides cache against fresh
  analyses on every round;
* **clone / trail** — a ``clone`` or a ``trail_undo`` to the start
  replays the identical run and leaves no trace on the original;
* **end state** — a finished drive is a fixpoint with no unfounded atom
  and no bottom tie left, and every orientation is a disjoint partition
  of its tie that the final model keeps.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.api import Engine
from repro.datalog.database import Database
from repro.datalog.grounding import ground
from repro.ground.model import FALSE, TRUE
from repro.ground.state import GroundGraphState
from repro.workloads import families
from repro.workloads.random_programs import random_propositional_program

from tests.properties.strategies import propositional_programs
from tests.semantics.tie_oracle import _scan_ties, _select_tie

MAX_STEPS = 256

FAMILY_CASES = [
    ("win_move_line", families.win_move_line, 40, "relevant"),
    ("win_move_cycle", families.win_move_cycle, 41, "relevant"),
    ("unfounded_tower", families.unfounded_tower, 24, "relevant"),
    ("negation_tower", families.negation_tower, 16, "relevant"),
    ("tie_chain", families.tie_chain, 20, "relevant"),
    ("committee", families.committee, 16, "relevant"),
]


def _grounds():
    for name, generator, n, mode in FAMILY_CASES:
        program, db = generator(n)
        yield f"{name}({n})", ground(program, db, mode=mode)
    for seed in range(3):
        program = random_propositional_program(
            seed=seed, n_predicates=8, n_rules=14, negation_probability=0.45, edb_predicates=2
        )
        yield f"random-seed{seed}", ground(program, Database(), mode="full")


GROUND_CASES = list(_grounds())
GROUND_IDS = [name for name, _ in GROUND_CASES]


def _snapshot(state: GroundGraphState) -> tuple:
    """Raw-buffer view of one state, comparable across two drives."""
    return (
        bytes(state.status),
        bytes(state.atom_alive),
        bytes(state.rule_alive),
        list(state.rule_pending),
        list(state.atom_support),
        list(state.pos_live),
        sorted(state._live_atoms),
        sorted(state._live_rules),
        state.live_atom_count,
    )


def _orient_min(state: GroundGraphState, tie) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orient one tie deterministically (min-atom side true); return sides."""
    sides = tie.side_of_atom()
    side_atoms: tuple[list[int], list[int]] = ([], [])
    for atom_id, side in sides.items():
        side_atoms[side].append(atom_id)
    if not side_atoms[0]:
        true_side = 0
    elif not side_atoms[1]:
        true_side = 1
    else:
        true_side = 0 if min(side_atoms[0]) <= min(side_atoms[1]) else 1
    state.assign_many(side_atoms[true_side], TRUE, ("tie", true_side))
    state.assign_many(side_atoms[1 - true_side], FALSE, ("tie", 1 - true_side))
    return (
        tuple(sorted(side_atoms[true_side])),
        tuple(sorted(side_atoms[1 - true_side])),
    )


def _settle(state: GroundGraphState) -> None:
    state.close()
    state.falsify_unfounded(numbered=False)
    state.close()


def _one_tie(state: GroundGraphState) -> list:
    """The one-tie-per-step schedule: the oracle's single pick."""
    tie = _select_tie(state)
    return [] if tie is None else [tie]


def _drive(state: GroundGraphState, pick=GroundGraphState.select_ties):
    """Well-founded tie-breaking, orienting the ties ``pick`` serves per round.

    Returns ``(final status, orientation decisions in order)``.
    """
    decisions = []
    _settle(state)
    for _ in range(MAX_STEPS):
        ties = pick(state)
        if not ties:
            return list(state.status), decisions
        decisions.extend(_orient_min(state, tie) for tie in ties)
        _settle(state)
    pytest.fail("drive did not converge")


def _atoms(ties) -> list[tuple[int, ...]]:
    return [tuple(tie.atom_ids) for tie in ties]


@pytest.mark.parametrize("name,gp", GROUND_CASES, ids=GROUND_IDS)
def test_lockstep_schedule_vs_oracle(name, gp):
    """Schedule-driven and scan-driven states stay identical every round."""
    scheduled = GroundGraphState(gp)
    scanned = GroundGraphState(gp)
    scheduled.close()
    scanned.close()
    assert scheduled.unfounded_atoms() == scanned.unfounded_atoms()
    _settle(scheduled)
    _settle(scanned)
    assert _snapshot(scheduled) == _snapshot(scanned), "divergence after unfounded cascade"
    for _ in range(MAX_STEPS):
        ts = scheduled.select_ties()
        to = _scan_ties(scanned)
        assert _atoms(ts) == _atoms(to)
        if not ts:
            break
        assert [t.side_of_atom() for t in ts] == [t.side_of_atom() for t in to]
        for tie in ts:
            _orient_min(scheduled, tie)
        for tie in to:
            _orient_min(scanned, tie)
        _settle(scheduled)
        _settle(scanned)
        assert _snapshot(scheduled) == _snapshot(scanned), "divergence after tie round"
    else:
        pytest.fail("drive did not converge")
    assert scheduled.interpretation().status == scanned.interpretation().status


@pytest.mark.parametrize("name,gp", GROUND_CASES, ids=GROUND_IDS)
def test_lockstep_with_and_without_sides_cache(name, gp):
    """The incremental (K, L) sides cache is invisible to the semantics.

    Drives the kernel twice through identical rounds — once with the
    cache operating normally, once with the cache and the memoized bottom
    components cleared before every select (forcing fresh analyses
    throughout) — and requires the identical tie-decision sequence and
    identical raw buffers after every round.
    """
    cached = GroundGraphState(gp)
    uncached = GroundGraphState(gp)
    _settle(cached)
    _settle(uncached)
    assert _snapshot(cached) == _snapshot(uncached)
    for _ in range(MAX_STEPS):
        uncached._tie_sides.clear()  # cache-off leg: every analysis fresh
        uncached._scc_bottom_obj.clear()
        tc = cached.select_ties()
        tu = uncached.select_ties()
        assert _atoms(tc) == _atoms(tu)
        if not tc:
            break
        assert [_orient_min(cached, t) for t in tc] == [_orient_min(uncached, t) for t in tu], (
            "tie decisions diverge without the cache"
        )
        _settle(cached)
        _settle(uncached)
        assert _snapshot(cached) == _snapshot(uncached), "divergence after tie round"
    else:
        pytest.fail("drive did not converge")
    assert cached.interpretation().status == uncached.interpretation().status


@pytest.mark.parametrize("name,gp", GROUND_CASES, ids=GROUND_IDS)
def test_clone_drive_leaves_original_untouched(name, gp):
    """A clone runs to the end independently and replays the same run."""
    state = GroundGraphState(gp)
    _settle(state)
    before = _snapshot(state)
    copy = state.clone()
    assert _snapshot(copy) == before
    copy_run = _drive(copy)
    assert _snapshot(state) == before
    assert _drive(state) == copy_run


@pytest.mark.parametrize("name,gp", GROUND_CASES, ids=GROUND_IDS)
def test_trail_undo_to_start_replays_identically(name, gp):
    """Undoing a whole drive restores the start; re-driving repeats it."""
    state = GroundGraphState(gp)
    state.trail_begin()
    _settle(state)
    mark = state.trail_mark()
    before = _snapshot(state)
    first = _drive(state)
    state.trail_undo(mark)
    assert _snapshot(state) == before
    assert _drive(state) == first


@pytest.mark.parametrize("name,gp", GROUND_CASES, ids=GROUND_IDS)
def test_finished_drive_is_a_tie_free_fixpoint(name, gp):
    """A finished drive leaves no unfounded atom and no bottom tie, and
    every orientation partitions its tie into sides the model keeps."""
    state = GroundGraphState(gp)
    status, decisions = _drive(state)
    assert state.unfounded_atoms(full_recompute=True) == []
    assert not [c for c in state.bottom_components_live(full_recompute=True) if c.is_tie]
    seen: set[int] = set()
    for true_side, false_side in decisions:
        atoms = set(true_side) | set(false_side)
        assert len(atoms) == len(true_side) + len(false_side), "sides overlap"
        assert not atoms & seen, "an atom was oriented twice"
        seen |= atoms
        assert all(status[a] == TRUE for a in true_side)
        assert all(status[a] == FALSE for a in false_side)


@settings(max_examples=30, deadline=None)
@given(program=propositional_programs())
def test_schedule_drive_matches_oracle_drive_on_random_programs(program):
    """Batched rounds reach the one-tie-per-step model with the same
    decisions; a layered tie is only served a round later."""
    gp = ground(program, Database(), mode="full")
    status, decisions = _drive(GroundGraphState(gp))
    assert _drive(GroundGraphState(gp), _scan_ties) == (status, decisions)
    oracle_status, oracle_decisions = _drive(GroundGraphState(gp), _one_tie)
    assert status == oracle_status
    assert Counter(decisions) == Counter(oracle_decisions)


@pytest.mark.parametrize("n", [6, 12, 24])
def test_committee_needs_one_choice_per_member(n):
    """committee(n) has n independent ties: one orientation each."""
    program, db = families.committee(n)
    gp = ground(program, db, mode="relevant")
    _, decisions = _drive(GroundGraphState(gp))
    assert len(decisions) == n
    solution = Engine(program, db).solve("tie_breaking")
    assert solution.total
    assert len(solution.choices) == n


def test_select_ties_serves_every_independent_tie_in_oracle_order():
    program, db = families.committee(8)
    state = GroundGraphState(ground(program, db, mode="relevant"))
    _settle(state)
    ties = [c for c in state.bottom_components_live() if c.is_tie]
    assert len(ties) == 8
    oracle_pick = _select_tie(state)
    served = state.select_ties()
    assert _atoms(served) == _atoms(_scan_ties(state))
    assert tuple(served[0].atom_ids) == tuple(oracle_pick.atom_ids)
    assert min(served[0].atom_ids) == min(min(t.atom_ids) for t in ties)
    assert state.select_ties() == []  # the round was drained


def test_state_clone_is_independent():
    program, db = families.tie_chain(12)
    gp = ground(program, db, mode="relevant")
    state = GroundGraphState(gp)
    _settle(state)
    expected = _atoms(_scan_ties(state))
    assert expected
    copy = state.clone()
    assert type(copy) is GroundGraphState
    assert _snapshot(copy) == _snapshot(state)
    # Diverge the clone; the original must not move.
    before = _snapshot(state)
    ties = copy.select_ties()
    assert _atoms(ties) == expected
    for tie in ties:
        _orient_min(copy, tie)
    copy.close()
    assert _snapshot(state) == before
    assert _snapshot(copy) != before
    # Draining the clone's schedule left the original's intact.
    assert _atoms(state.select_ties()) == expected
