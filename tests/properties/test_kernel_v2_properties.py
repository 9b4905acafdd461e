"""Differential properties pinning the v2 kernel's incremental machinery.

Four pieces of kernel-v2 state carry answers across rounds instead of
recomputing them — each is driven here against an oracle that shares none
of its bookkeeping:

* the **fused unfounded cascade** (``falsify_unfounded``, source
  pointers maintained by ``close``) against the step-by-step loop over
  ``unfounded_atoms(full_recompute=True)`` — the read-only full cascade;
* the **incremental unfounded query** against ``full_recompute=True`` at
  every interpreter step;
* the **min-keyed tie schedule** (``select_tie``) against the
  schedule-free scan of ``bottom_components_live()`` at every step;
* the **trail-based undo log** — the trail-undo DFS enumerator must emit
  the identical (model, choice-trail) sequence as the clone-based
  reference explorer, and a ``trail_undo`` must land on a state
  indistinguishable (statuses, liveness, counters, query answers) from a
  ``clone`` taken at the mark.

Random inputs come from the hypothesis strategies and from the library's
own :mod:`repro.workloads.random_programs` distributions, plus every
named workload family at small sizes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.database import Database
from repro.datalog.grounding import apply_facts_delta, ground
from repro.ground.model import FALSE, TRUE
from repro.ground.state import GroundGraphState
from repro.semantics.tie_breaking import (
    _enumerate_reference,
    _enumerate_tie_breaking_models,
    _select_tie,
)
from repro.workloads import families
from repro.workloads.random_programs import random_propositional_program

from tests.properties.strategies import propositional_programs

MAX_STEPS = 64

FAMILY_CASES = [
    ("win_move_line", families.win_move_line, 7, "relevant"),
    ("win_move_cycle", families.win_move_cycle, 8, "relevant"),
    ("unfounded_tower", families.unfounded_tower, 5, "relevant"),
    ("tie_chain", families.tie_chain, 5, "relevant"),
    ("committee", families.committee, 5, "relevant"),
    ("grounded_argumentation", families.grounded_argumentation, 13, "relevant"),
    ("adversarial_scc", families.adversarial_scc, 8, "relevant"),
]

RANDOM_DISTRIBUTIONS = [
    dict(n_predicates=8, n_rules=14, max_body=3, negation_probability=0.45, edb_predicates=2),
    dict(n_predicates=7, n_rules=12, negation_probability=0.35, edb_predicates=2),
    dict(n_predicates=6, n_rules=10, negation_probability=0.6, edb_predicates=1),
]


def _grounds():
    """Every (name, ground program) case: families plus random programs."""
    for name, generator, n, mode in FAMILY_CASES:
        program, db = generator(n)
        yield f"{name}({n})", ground(program, db, mode=mode)
    for d, dist in enumerate(RANDOM_DISTRIBUTIONS):
        for seed in range(4):
            program = random_propositional_program(seed=100 * d + seed, **dist)
            for mode in ("full", "relevant"):
                yield f"dist{d}-seed{seed}-{mode}", ground(program, Database(), mode=mode)


GROUND_CASES = list(_grounds())


def _run_key(run) -> tuple:
    """Comparable view of one run: (true set, id-based decision trail)."""
    return (
        frozenset(run.model.true_set()),
        tuple((c.true_ids, c.false_ids, c.forced) for c in run.choices),
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


def _drive_stepwise_oracle(gp) -> tuple[list[int], int]:
    """Well-founded tie-breaking via the escape hatches only.

    Uses ``unfounded_atoms(full_recompute=True)`` +
    ``bottom_components_live(full_recompute=True)`` scanning — no source
    pointers, no schedule, no fused cascade.
    """
    state = GroundGraphState(gp)
    state.close()
    iterations = 0
    for _ in range(MAX_STEPS):
        unfounded = state.unfounded_atoms(full_recompute=True)
        if unfounded:
            iterations += 1
            state.assign_many(unfounded, FALSE, ("unfounded", iterations))
            state.close()
            continue
        tie = None
        tie_key = None
        for component in state.bottom_components_live(full_recompute=True):
            if not component.is_tie:
                continue
            key = min(component.atom_ids)
            if tie_key is None or key < tie_key:
                tie, tie_key = component, key
        if tie is None:
            return list(state.status), iterations
        _orient_min(state, tie)
        state.close()
    pytest.fail("stepwise oracle did not converge")


def _drive_fused(gp) -> tuple[list[int], int]:
    """The same trajectory through the v2 hot path (fused + schedule)."""
    state = GroundGraphState(gp)
    state.close()
    iterations = 0
    for _ in range(MAX_STEPS):
        iterations += state.falsify_unfounded(numbered=True, start=iterations + 1)
        tie = state.select_tie()
        if tie is None:
            return list(state.status), iterations
        _orient_min(state, tie)
        state.close()
    pytest.fail("fused drive did not converge")


@pytest.mark.parametrize("name,gp", GROUND_CASES, ids=[n for n, _ in GROUND_CASES])
def test_fused_cascade_matches_stepwise_full_recompute(name, gp):
    """falsify_unfounded + select_tie ≡ the full_recompute step loop."""
    fused_status, fused_iters = _drive_fused(gp)
    oracle_status, oracle_iters = _drive_stepwise_oracle(gp)
    assert fused_status == oracle_status
    assert fused_iters == oracle_iters


@pytest.mark.parametrize("name,gp", GROUND_CASES, ids=[n for n, _ in GROUND_CASES])
def test_incremental_queries_match_oracles_per_step(name, gp):
    """unfounded_atoms() and select_tie() vs their per-step oracles."""
    state = GroundGraphState(gp)
    state.close()
    for step in range(MAX_STEPS):
        incremental = state.unfounded_atoms()
        assert incremental == state.unfounded_atoms(full_recompute=True)
        if incremental:
            state.assign_many(incremental, FALSE, ("unfounded", step))
            state.close()
            continue
        scheduled = state.select_tie()
        scanned = _select_tie(state)
        if scheduled is None:
            assert scanned is None
            return
        assert scanned is not None
        assert sorted(scheduled.atom_ids) == sorted(scanned.atom_ids)
        assert sorted(scheduled.rule_ids) == sorted(scanned.rule_ids)
        assert scheduled.is_tie and scanned.is_tie
        sides = scheduled.side_of_atom()
        made_true = sorted(a for a, s in sides.items() if s == 0)
        made_false = sorted(a for a, s in sides.items() if s == 1)
        state.assign_many(made_true, TRUE, ("tie", 0))
        state.assign_many(made_false, FALSE, ("tie", 1))
        state.close()
    pytest.fail("drive did not converge")


@pytest.mark.parametrize("variant", ["well-founded", "pure"])
@pytest.mark.parametrize("name,gp", GROUND_CASES, ids=[n for n, _ in GROUND_CASES])
def test_trail_enumeration_matches_clone_reference(name, gp, variant):
    """Identical (model, choice-trail) run sequences, trail vs clone."""
    trail_runs = [
        _run_key(run)
        for run in _enumerate_tie_breaking_models(
            gp.program, gp.database, variant=variant, ground_program=gp
        )
    ]
    clone_runs = [_run_key(run) for run in _enumerate_reference(gp, variant=variant)]
    assert trail_runs == clone_runs
    assert trail_runs  # at least one run is always emitted


@pytest.mark.parametrize("limit", [0, 1, 3])
def test_trail_enumeration_respects_limit(limit):
    program, db = families.committee(4)
    gp = ground(program, db, mode="relevant")
    runs = list(
        _enumerate_tie_breaking_models(program, db, ground_program=gp, limit=limit)
    )
    assert len(runs) == min(limit, 16)


# Field audit of GroundGraphState: every instance attribute must appear
# in exactly one of these sets, and test_state_fields_are_classified
# fails on any attribute in none of them — so a new mutable field (the
# way the streaming-update overlay added rule_alive seeding and the
# canonical atom order) cannot be added without deciding how the
# trail-undo ≡ clone fingerprint covers it.
#
# CORE state is captured by _state_fingerprint (raw, normalized, or —
# for the provenance buffers — decoded through reason_of, since undo
# clears reason kinds but leaves the unreferenced argument slots stale).
_CORE_STATE = frozenset(
    {
        "status",
        "atom_alive",
        "rule_alive",
        "rule_pending",
        "atom_support",
        "pos_live",
        "_live_atoms",
        "_atom_slot",
        "_live_rules",
        "_rule_slot",
        "_live_atom_count",
        "_reason_kind",
        "_reason_arg",
        "_labels",
        "_dirty",
        "_initial",
    }
)
# DERIVED caches rebuild on demand; undo restores them only to a
# *consistent* view, so the audit pins their query answers (unfounded
# set, selected tie) rather than their representation.
_DERIVED_CACHES = frozenset(
    {
        "_src",
        "_unf_valid",
        "_unf_lost",
        "_unf_sourceless",
        "_scc_comps",
        "_scc_comp_of",
        "_scc_incross",
        "_scc_bottom",
        "_scc_bottom_obj",
        "_scc_next_cid",
        "_scc_dirty",
        "_tie_heap",
        "_tie_sides",
    }
)
# SHARED structure is immutable and owned by the ground program/index;
# the fingerprint asserts identity for the overlay's atom order.
_SHARED_IMMUTABLE = frozenset({"gp", "_idx", "n_atoms", "n_rules", "_order"})
# MACHINERY is the trail itself, the epoch-disciplined query scratch,
# and wall-clock accounting — definitionally outside state equality.
_MACHINERY = frozenset({"_trail", "_scratch", "phase_s", "_ta_overlap"})


def test_state_fields_are_classified():
    """Every GroundGraphState field is classified for the trail audit."""
    program, db = families.win_move_line(4)
    state = GroundGraphState(ground(program, db, mode="relevant"))
    fields = set(vars(state))
    classified = _CORE_STATE | _DERIVED_CACHES | _SHARED_IMMUTABLE | _MACHINERY
    unclassified = fields - classified
    assert not unclassified, (
        f"unclassified GroundGraphState field(s) {sorted(unclassified)}: add "
        "trail coverage and extend _state_fingerprint (core), or classify "
        "them as derived/shared/machinery here"
    )
    stale = classified - fields
    assert not stale, f"classified field(s) no longer exist: {sorted(stale)}"
    overlap = (
        (_CORE_STATE & _DERIVED_CACHES)
        | (_CORE_STATE & _SHARED_IMMUTABLE)
        | (_CORE_STATE & _MACHINERY)
        | (_DERIVED_CACHES & _SHARED_IMMUTABLE)
        | (_DERIVED_CACHES & _MACHINERY)
        | (_SHARED_IMMUTABLE & _MACHINERY)
    )
    assert not overlap, f"ambiguously classified field(s): {sorted(overlap)}"


def _state_fingerprint(state: GroundGraphState) -> tuple:
    """Comparable view of every _CORE_STATE field of one state.

    The swap-remove live lists and their slot maps are order-sensitive
    representations of sets (undo may repack them differently than the
    timeline it rewinds), so they are normalized: sorted contents plus an
    internal-consistency check.  Provenance is compared decoded.
    """
    for node in state._live_atoms:
        assert state._live_atoms[state._atom_slot[node]] == node
    for node in state._live_rules:
        assert state._live_rules[state._rule_slot[node]] == node
    return (
        list(state.status),
        bytes(state.atom_alive),
        bytes(state.rule_alive),
        list(state.rule_pending),
        list(state.atom_support),
        list(state.pos_live),
        sorted(state._live_atoms),
        sorted(state._live_rules),
        state.live_atom_count,
        bytes(state._reason_kind),
        tuple(state.reason_of(i) for i in range(state.n_atoms)),
        sorted(state._dirty),
        state._initial,
    )


@settings(max_examples=40, deadline=None)
@given(program=propositional_programs(), steps=st.integers(min_value=1, max_value=4))
def test_trail_undo_restores_clone_equivalent_state(program, steps):
    """After trail_undo, the state answers like a clone taken at the mark."""
    gp = ground(program, Database(), mode="full")
    state = GroundGraphState(gp)
    state.trail_begin()
    state.close()
    state.falsify_unfounded(numbered=False)
    reference = state.clone()
    mark = state.trail_mark()

    # Wander: break up to `steps` ties (the branchy mutation source).
    for _ in range(steps):
        tie = state.select_tie()
        if tie is None:
            break
        sides = tie.side_of_atom()
        state.assign_many([a for a, s in sides.items() if s == 0], TRUE, ("tie", 0))
        state.assign_many([a for a, s in sides.items() if s == 1], FALSE, ("tie", 1))
        state.close()
        state.falsify_unfounded(numbered=False)
    state.trail_undo(mark)

    assert _state_fingerprint(state) == _state_fingerprint(reference)
    assert state.unfounded_atoms() == reference.unfounded_atoms()
    assert state.unfounded_atoms() == state.unfounded_atoms(full_recompute=True)
    undone = state.select_tie()
    cloned = _select_tie(reference)
    if undone is None:
        assert cloned is None
    else:
        assert cloned is not None
        assert sorted(undone.atom_ids) == sorted(cloned.atom_ids)

    # The rewound state must still drive to the same final model as the
    # untouched clone under the same canonical decisions.
    undone_status, undone_iters = _drive_from(state)
    clone_status, clone_iters = _drive_from(reference)
    assert undone_status == clone_status
    assert undone_iters == clone_iters


def test_trail_undo_on_streamed_ground_program():
    """The trail audit holds on a delta-updated index (overlay fields).

    After streaming updates the index carries the overlay's extra state —
    disabled instances seeding ``rule_alive``, ghost atoms, and the
    canonical ``atom_order`` — and the trail-undo ≡ clone equivalence
    must survive all of it.
    """
    program, db = families.win_move_cycle(8)
    db = db.copy()
    gp = ground(program, db, mode="relevant")
    facts = sorted(db.atoms(), key=str)
    first, second = facts[2], facts[4]
    for inserted, retracted in ([[], [first]], [[first], []], [[], [second]]):
        for atom in retracted:
            db.discard_atom(atom)
        for atom in inserted:
            db.add_atom(atom)
        assert apply_facts_delta(gp, inserted, retracted)

    state = GroundGraphState(gp)
    assert state._order is gp.index.atom_order  # shared, never copied
    assert bytes(state.rule_alive) == bytes(gp.index.initial_rule_alive)
    state.trail_begin()
    state.close()
    state.falsify_unfounded(numbered=False)
    reference = state.clone()
    assert reference._order is state._order
    mark = state.trail_mark()

    for _ in range(3):
        tie = state.select_tie()
        if tie is None:
            break
        sides = tie.side_of_atom()
        state.assign_many([a for a, s in sides.items() if s == 0], TRUE, ("tie", 0))
        state.assign_many([a for a, s in sides.items() if s == 1], FALSE, ("tie", 1))
        state.close()
        state.falsify_unfounded(numbered=False)
    state.trail_undo(mark)

    assert _state_fingerprint(state) == _state_fingerprint(reference)
    assert state.unfounded_atoms() == state.unfounded_atoms(full_recompute=True)
    undone_status, _ = _drive_from(state)
    clone_status, _ = _drive_from(reference)
    assert undone_status == clone_status


def test_close_after_undo_past_rebuild():
    """Undoing past the first condensation build must disarm close()'s
    SCC tracking (regression: stale comp_of against an empty incross map
    raised KeyError on the next close)."""
    program, db = families.tie_chain(4)
    gp = ground(program, db, mode="relevant")
    state = GroundGraphState(gp)
    state.trail_begin()
    state.close()
    state.falsify_unfounded(numbered=False)
    mark = state.trail_mark()
    labels_before = len(state._labels)
    tie = state.select_tie()  # first query: appends the rebuild record
    assert tie is not None
    sides = tie.side_of_atom()
    state.assign_many([a for a, s in sides.items() if s == 0], TRUE, ("tie", 0))
    state.assign_many([a for a, s in sides.items() if s == 1], FALSE, ("tie", 1))
    state.close()
    state.trail_undo(mark)
    # Labels interned since the mark are reclaimed with it.
    assert len(state._labels) == labels_before
    # Mutate and close again WITHOUT an intervening query: tracking must
    # be off until the next query rebuilds the condensation (the undone
    # component ids no longer have edge counts).
    state.assign_many([a for a, s in sides.items() if s == 0], TRUE, ("tie", 0))
    state.assign_many([a for a, s in sides.items() if s == 1], FALSE, ("tie", 1))
    state.close()
    status, _ = _drive_from(state)
    fresh_status, _ = _drive_fused(gp)
    assert status == fresh_status


def _drive_from(state: GroundGraphState) -> tuple[list[int], int]:
    iterations = 0
    for _ in range(MAX_STEPS):
        iterations += state.falsify_unfounded(numbered=False)
        tie = state.select_tie()
        if tie is None:
            return list(state.status), iterations
        _orient_min(state, tie)
        state.close()
    pytest.fail("post-undo drive did not converge")


@settings(max_examples=30, deadline=None)
@given(program=propositional_programs())
def test_hypothesis_trail_enumeration_matches_clone(program):
    gp = ground(program, Database(), mode="full")
    trail_runs = [
        _run_key(run)
        for run in _enumerate_tie_breaking_models(
            gp.program, gp.database, variant="well-founded", ground_program=gp
        )
    ]
    clone_runs = [
        _run_key(run) for run in _enumerate_reference(gp, variant="well-founded")
    ]
    assert trail_runs == clone_runs


# ---------------------------------------------------------------------------
# select_tie lazy-discard edge cases under trail undo.  The min-keyed
# schedule keeps stale heap entries around after assignments and undos;
# every resurfaced entry must be re-validated against live state, pinned
# here by the schedule-free oracle.
# ---------------------------------------------------------------------------


def _assert_schedule_matches_oracle(state: GroundGraphState) -> None:
    scheduled = state.select_tie()
    scanned = _select_tie(state)
    if scheduled is None:
        assert scanned is None
    else:
        assert scanned is not None
        assert sorted(scheduled.atom_ids) == sorted(scanned.atom_ids)
        assert scheduled.side_of_atom() == scanned.side_of_atom()


def test_select_tie_revalidates_after_undo_of_consumed_tie():
    """Undoing a tie orientation resurrects it as the scheduled minimum."""
    program, db = families.tie_chain(8)
    state = GroundGraphState(ground(program, db, mode="relevant"))
    state.trail_begin()
    state.close()
    state.falsify_unfounded(numbered=False)
    first = state.select_tie()
    assert first is not None
    first_atoms = tuple(first.atom_ids)
    mark = state.trail_mark()
    _orient_min(state, first)
    state.close()
    # The heap has discarded/consumed entries for the orientation above;
    # after undo the same component must be offered again.
    state.trail_undo(mark)
    again = state.select_tie()
    assert again is not None
    assert tuple(again.atom_ids) == first_atoms
    _assert_schedule_matches_oracle(state)


def test_select_tie_discards_stale_entries_after_partial_assignment():
    """Assigning a tie's atoms outside select-tie flow lazily discards it."""
    program, db = families.committee(4)
    state = GroundGraphState(ground(program, db, mode="relevant"))
    state.trail_begin()
    state.close()
    state.falsify_unfounded(numbered=False)
    tie = state.select_tie()
    assert tie is not None
    mark = state.trail_mark()
    # Orient the scheduled minimum *and* the next tie, then undo only to
    # the mark: the schedule must resurface exactly the oracle's pick,
    # not a stale heap head.
    _orient_min(state, tie)
    state.close()
    second = state.select_tie()
    assert second is not None
    _orient_min(state, second)
    state.close()
    state.trail_undo(mark)
    _assert_schedule_matches_oracle(state)


@settings(max_examples=25, deadline=None)
@given(
    program=propositional_programs(),
    plan=st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=4),
)
def test_select_tie_schedule_survives_random_undo_cycles(program, plan):
    """Random orient/undo interleavings: schedule ≡ oracle at every stop.

    Each plan step orients up to three scheduled ties and then either
    keeps them or undoes back to the step's mark; after every step the
    min-keyed schedule must agree with the schedule-free scan.
    """
    gp = ground(program, Database(), mode="full")
    state = GroundGraphState(gp)
    state.trail_begin()
    state.close()
    state.falsify_unfounded(numbered=False)
    for breaks, keep in plan:
        mark = state.trail_mark()
        for _ in range(breaks):
            tie = state.select_tie()
            if tie is None:
                break
            _orient_min(state, tie)
            state.close()
            state.falsify_unfounded(numbered=False)
            state.close()
        if not keep:
            state.trail_undo(mark)
        _assert_schedule_matches_oracle(state)
