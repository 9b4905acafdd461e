"""Differential properties pinning the v2 kernel's incremental machinery.

Four pieces of kernel-v2 state carry answers across rounds instead of
recomputing them — each is driven here against an oracle that shares none
of its bookkeeping:

* the **fused unfounded cascade** (``falsify_unfounded``, source
  pointers maintained by ``close``) against the step-by-step loop over
  ``unfounded_atoms(full_recompute=True)`` — the read-only full cascade;
* the **incremental unfounded query** against ``full_recompute=True`` at
  every interpreter step;
* the **min-keyed tie schedule** (``select_ties``) against the
  schedule-free scan of ``bottom_components_live()`` at every round;
* the **enumerator** — it branches inside batched rounds on a clone
  per free tie and must emit the same multiset of (model, multiset of
  choices) runs as the reference explorer, which branches one tie per
  step; with a ``limit`` it keeps at most ``limit - 1`` clones.

Random inputs come from the hypothesis strategies and from the library's
own :mod:`repro.workloads.random_programs` distributions, plus every
named workload family at small sizes.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings

from repro.api import Engine
from repro.datalog.database import Database
from repro.datalog.grounding import apply_facts_delta, ground
from repro.ground.model import FALSE, TRUE
from repro.ground.state import GroundGraphState
from repro.semantics.tie_breaking import _enumerate_tie_breaking_models
from repro.workloads import families
from repro.workloads.random_programs import random_propositional_program

from tests.properties.strategies import propositional_programs
from tests.semantics.tie_oracle import _enumerate_reference, _scan_ties, _select_tie

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
    """Comparable view of one (model, trail) run: the true set and the
    multiset of id-based choices.  Batched rounds serve a tie that becomes
    bottom only after an earlier choice a round later, so the order of
    choices within a trail is the schedule's, not the run's."""
    model, choices = run
    return (
        frozenset(model.true_set()),
        frozenset(Counter((c.true_ids, c.false_ids, c.forced) for c in choices).items()),
    )


def _runs(runs) -> Counter:
    """The multiset of runs an explorer emits."""
    return Counter(_run_key(run) for run in runs)


def _atoms(ties) -> list[tuple[int, ...]]:
    return [tuple(tie.atom_ids) for tie in ties]


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
    pointers, no schedule, no fused cascade.  Each round orients every
    bottom tie, smallest atom first, as the schedule's rounds do.
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
        ties = [c for c in state.bottom_components_live(full_recompute=True) if c.is_tie]
        if not ties:
            return list(state.status), iterations
        for tie in sorted(ties, key=lambda c: min(c.atom_ids)):
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
        ties = state.select_ties()
        if not ties:
            return list(state.status), iterations
        for tie in ties:
            _orient_min(state, tie)
        state.close()
    pytest.fail("fused drive did not converge")


@pytest.mark.parametrize("name,gp", GROUND_CASES, ids=[n for n, _ in GROUND_CASES])
def test_fused_cascade_matches_stepwise_full_recompute(name, gp):
    """falsify_unfounded + select_ties ≡ the full_recompute step loop."""
    fused_status, fused_iters = _drive_fused(gp)
    oracle_status, oracle_iters = _drive_stepwise_oracle(gp)
    assert fused_status == oracle_status
    assert fused_iters == oracle_iters


@pytest.mark.parametrize("name,gp", GROUND_CASES, ids=[n for n, _ in GROUND_CASES])
def test_incremental_queries_match_oracles_per_step(name, gp):
    """unfounded_atoms() and select_ties() vs their per-step oracles."""
    state = GroundGraphState(gp)
    state.close()
    for step in range(MAX_STEPS):
        incremental = state.unfounded_atoms()
        assert incremental == state.unfounded_atoms(full_recompute=True)
        if incremental:
            state.assign_many(incremental, FALSE, ("unfounded", step))
            state.close()
            continue
        scanned = _scan_ties(state)
        first = _select_tie(state)
        scheduled = state.select_ties()
        if not scheduled:
            assert not scanned and first is None
            return
        assert _atoms(scheduled) == _atoms(scanned)
        assert tuple(scheduled[0].atom_ids) == tuple(first.atom_ids)
        for tie, ref in zip(scheduled, scanned):
            assert sorted(tie.rule_ids) == sorted(ref.rule_ids)
            assert tie.is_tie and ref.is_tie
            sides = tie.side_of_atom()
            made_true = sorted(a for a, s in sides.items() if s == 0)
            made_false = sorted(a for a, s in sides.items() if s == 1)
            state.assign_many(made_true, TRUE, ("tie", 0))
            state.assign_many(made_false, FALSE, ("tie", 1))
        state.close()
    pytest.fail("drive did not converge")


@pytest.mark.parametrize("variant", ["well-founded", "pure"])
@pytest.mark.parametrize("name,gp", GROUND_CASES, ids=[n for n, _ in GROUND_CASES])
def test_enumeration_matches_clone_reference(name, gp, variant):
    """The same multiset of runs, enumerator (batched rounds) vs reference
    (one tie per step), multiplicities included."""
    well_founded = variant == "well-founded"
    runs = _runs(_enumerate_tie_breaking_models(GroundGraphState(gp), well_founded=well_founded))
    clone_runs = _runs(_enumerate_reference(gp, well_founded=well_founded))
    assert runs == clone_runs
    assert runs  # at least one run is always emitted


@pytest.mark.parametrize("limit", [0, 1, 3])
def test_enumeration_respects_limit(limit):
    program, db = families.committee(4)
    gp = ground(program, db, mode="relevant")
    runs = list(
        _enumerate_tie_breaking_models(GroundGraphState(gp), well_founded=True, limit=limit)
    )
    assert len(runs) == min(limit, 16)


# Field audit of GroundGraphState: every instance attribute must appear
# in exactly one of these sets, and test_state_fields_are_classified
# fails on any attribute in none of them — so a new mutable field (the
# way the streaming-update overlay added rule_alive seeding and the
# canonical atom order) cannot be added without deciding how the
# clone fingerprint covers it.
#
# CORE state is captured by _state_fingerprint (raw, normalized, or —
# for the provenance buffers — decoded through reason_of).
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
# DERIVED caches rebuild on demand, so the audit pins their query
# answers (unfounded set, selected tie) rather than their representation.
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
        "_scc_bits",
        "_scc_bits_own",
        "_scc_odd",
    }
)
# SHARED structure is immutable and owned by the ground program/index.
# The overlay's atom order is no field: it is read through ``_idx``, and
# the streamed-index audit asserts that clones read their index's.
_SHARED_IMMUTABLE = frozenset({"gp", "_idx", "n_atoms", "n_rules"})
# MACHINERY is the epoch-disciplined query scratch and wall-clock
# accounting — definitionally outside state equality.
_MACHINERY = frozenset({"_scratch", "phase_s", "_ta_overlap"})


def test_state_fields_are_classified():
    """Every GroundGraphState field is classified for the clone audit."""
    program, db = families.win_move_line(4)
    state = GroundGraphState(ground(program, db, mode="relevant"))
    fields = set(vars(state))
    classified = _CORE_STATE | _DERIVED_CACHES | _SHARED_IMMUTABLE | _MACHINERY
    unclassified = fields - classified
    assert not unclassified, (
        f"unclassified GroundGraphState field(s) {sorted(unclassified)}: copy "
        "it in clone() and extend _state_fingerprint (core), or classify "
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
    representations of sets, so they are normalized: sorted contents plus
    an internal-consistency check.  Provenance is compared decoded.
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


def test_clone_on_streamed_ground_program():
    """The clone audit holds on a delta-updated index (overlay fields).

    After streaming updates the index carries the overlay's extra state —
    disabled instances seeding ``rule_alive``, ghost atoms, and the
    canonical ``atom_order`` — and a clone must read the same index and
    replay the same run.
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
    ranks = [state.order_key(a) for a in range(state.n_atoms)]
    # The order is the index's own, read through it, never copied, and
    # it ranks every canonical atom at its fresh-grounding id.
    assert state._idx is gp.index
    assert ranks == list(gp.index.atom_order)
    fresh = ground(program, db, mode="relevant").atoms
    for a, rank in enumerate(ranks):
        if rank < state.n_atoms:
            assert fresh.get(gp.atoms.atom(a)) == rank
    assert bytes(state.rule_alive) == bytes(gp.index.initial_rule_alive)
    state.close()
    state.falsify_unfounded(numbered=False)
    reference = state.clone()
    assert reference._idx is state._idx
    assert [reference.order_key(a) for a in range(reference.n_atoms)] == ranks
    before = _state_fingerprint(state)
    assert _state_fingerprint(reference) == before

    status, _, _ = _drive_from(state)
    assert state._idx is gp.index
    assert _state_fingerprint(reference) == before
    assert reference.unfounded_atoms() == reference.unfounded_atoms(full_recompute=True)
    clone_status, _, _ = _drive_from(reference)
    assert clone_status == status


def _drive_from(state: GroundGraphState) -> tuple[list[int], int, list]:
    """Drive to the end; each round's served ties are pinned against the
    scan.  Returns (status, unfounded rounds, served atoms per round)."""
    iterations = 0
    served = []
    for _ in range(MAX_STEPS):
        iterations += state.falsify_unfounded(numbered=False)
        expected = _atoms(_scan_ties(state))
        ties = state.select_ties()
        assert _atoms(ties) == expected
        if not ties:
            return list(state.status), iterations, served
        served.append(expected)
        for tie in ties:
            _orient_min(state, tie)
        state.close()
    pytest.fail("drive did not converge")


@settings(max_examples=30, deadline=None)
@given(program=propositional_programs())
def test_hypothesis_enumeration_matches_clone(program):
    gp = ground(program, Database(), mode="full")
    runs = _runs(_enumerate_tie_breaking_models(GroundGraphState(gp), well_founded=True))
    clone_runs = _runs(_enumerate_reference(gp, well_founded=True))
    assert runs == clone_runs


# ---------------------------------------------------------------------------
# select_ties lazy-discard edge cases.  select_ties pops the schedule for
# good, and stale heap entries stay around after assignments the schedule
# did not serve; every resurfaced entry must be re-validated against live
# state, pinned here by the schedule-free oracle.
# ---------------------------------------------------------------------------


def _assert_schedule_matches_oracle(state: GroundGraphState) -> list:
    """Serve one round and pin it against the scan; returns the round,
    which the caller must orient (the pops are permanent)."""
    scanned = _scan_ties(state)
    first = _select_tie(state)
    scheduled = state.select_ties()
    assert _atoms(scheduled) == _atoms(scanned)
    assert [t.side_of_atom() for t in scheduled] == [t.side_of_atom() for t in scanned]
    if scheduled:
        assert tuple(scheduled[0].atom_ids) == tuple(first.atom_ids)
    else:
        assert first is None
    return scheduled


def test_select_ties_discards_stale_entries_after_partial_assignment():
    """Entries of ties oriented outside the schedule go stale."""
    program, db = families.committee(4)
    state = GroundGraphState(ground(program, db, mode="relevant"))
    state.close()
    state.falsify_unfounded(numbered=False)
    branch = state.clone()
    ties = state.select_ties()
    assert len(ties) == 4
    for tie in ties:
        _orient_min(state, tie)
    state.close()
    assert state.select_ties() == []
    # The clone was taken before the pops, so its schedule still holds all
    # four ties; orient two of them outside the schedule: the schedule
    # must serve exactly the oracle's two, not a stale heap head.
    for tie in ties[:2]:
        _orient_min(branch, tie)
    branch.close()
    rest = _assert_schedule_matches_oracle(branch)
    assert _atoms(rest) == _atoms(ties[2:])


@pytest.mark.parametrize("mode", ["relevant", "full"])
@pytest.mark.parametrize(
    "generator,n,ties",
    [(families.committee, 200, 200), (families.tie_chain, 12, 1), (families.win_move_cycle, 8, 1)],
    ids=["committee(200)", "tie_chain(12)", "win_move_cycle(8)"],
)
def test_rebuilds_leave_one_schedule_entry_per_bottom_component(generator, n, ties, mode):
    """A rebuild gives every component a new id, so it replaces the
    schedule instead of adding to it: however often the condensation is
    rebuilt, the heap holds one entry per bottom component, and the
    schedule still serves the oracle's round."""
    program, db = generator(n)
    state = GroundGraphState(ground(program, db, mode=mode))
    state.close()
    state.falsify_unfounded(numbered=False)
    for _ in range(4):
        bottom = state.bottom_components_live(full_recompute=True)
        assert len(bottom) == len(state._scc_bottom) > 0
        assert sorted(cid for _, cid in state._tie_heap) == sorted(state._scc_bottom)
    assert len(_assert_schedule_matches_oracle(state)) == ties
    assert state._tie_heap == []


@pytest.mark.parametrize("semantics", ["tie_breaking", "pure_tie_breaking"])
@pytest.mark.parametrize("limit", [1, 3, 5])
def test_enumeration_keeps_at_most_limit_minus_one_clones(monkeypatch, limit, semantics):
    """A pending branch yields at least one more sequence, so with
    ``limit`` only the newest ``limit - 1`` copies can be reached: the
    enumerator keeps no more alive, whatever the number of free ties, and
    does not copy a free tie that later free ties of its round would
    push out of the bound (committee(200) has 200 free ties in one
    round)."""
    engine = Engine(*families.committee(200))
    engine.solve(semantics)  # build the checkpoint before counting
    alive: list[weakref.ref] = []
    clone = GroundGraphState.clone

    def tracked(self):
        other = clone(self)
        alive.append(weakref.ref(other))
        return other

    monkeypatch.setattr(GroundGraphState, "clone", tracked)
    pending = []
    for _ in engine.enumerate(semantics, limit=limit):
        gc.collect()
        # One live clone is the state the enumeration is on: the engine's
        # copy of its checkpoint, or the branch it popped last.
        pending.append(sum(ref() is not None for ref in alive) - 1)
    assert len(pending) == limit
    assert len(alive) < 2 * limit  # not a copy per free tie
    assert max(pending) <= limit - 1
