"""Differential properties pinning the compiled kernel to the seed kernel.

The production :class:`~repro.ground.state.GroundGraphState` (compiled CSR
adjacency, incremental unfounded-set counters, cached bottom-SCC
condensation) is driven in lockstep with the frozen pre-compilation
implementation (:class:`~repro.bench.seed_kernel.SeedGroundGraphState`) on
random programs, checking after every step:

* identical statuses, liveness and live-atom counts;
* identical greatest unfounded sets (incremental vs. per-call rebuild);
* identical bottom components and tie partitions (cached/refined
  condensation vs. per-call full Tarjan), and additionally vs. the
  ``full_recompute=True`` escape hatch of the production kernel itself;
* ``clone()`` independence: a mid-run clone is unaffected by the
  original's subsequent evolution and reaches the same final model as a
  fresh state driven with the same decisions.

Random inputs come from both the hypothesis strategies and the library's
own :mod:`repro.workloads.random_programs` generators; the seven
:mod:`repro.workloads.families` at smoke size are driven to the same total
model on both kernels.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.seed_kernel import SeedGroundGraphState
from repro.datalog.database import Database
from repro.datalog.grounding import ground
from repro.ground.model import FALSE, TRUE
from repro.ground.state import GroundGraphState
from repro.workloads import families
from repro.workloads.random_programs import random_propositional_program

from tests.properties.strategies import propositional_programs

MAX_STEPS = 64


def _partition_key(component):
    """Label-independent view of one bottom component."""
    sides = None
    if component.is_tie:
        atom_sides = component.side_of_atom()
        side0 = frozenset(a for a, s in atom_sides.items() if s == 0)
        side1 = frozenset(a for a, s in atom_sides.items() if s == 1)
        sides = frozenset((side0, side1))
    return (
        frozenset(component.atom_ids),
        frozenset(component.rule_ids),
        component.is_tie,
        sides,
    )


def _bottoms_key(components):
    return {_partition_key(c) for c in components}


def _assert_states_agree(fast: GroundGraphState, slow: SeedGroundGraphState):
    assert list(fast.status) == list(slow.status)
    assert [bool(b) for b in fast.atom_alive] == [bool(b) for b in slow.atom_alive]
    assert [bool(b) for b in fast.rule_alive] == [bool(b) for b in slow.rule_alive]
    assert fast.live_atom_count == slow.live_atom_count
    assert fast.live_atom_ids() == slow.live_atom_ids()


def _canonical_tie_assignment(component):
    """Orientation depending only on atom ids, not on side labels:
    the side containing the smallest atom id becomes true."""
    atom_sides = component.side_of_atom()
    side0 = sorted(a for a, s in atom_sides.items() if s == 0)
    side1 = sorted(a for a, s in atom_sides.items() if s == 1)
    if not side0:
        return [], side1
    if not side1:
        return [], side0
    if side0[0] < side1[0]:
        return side0, side1
    return side1, side0


def _drive_lockstep(
    gp,
    *,
    check_full_recompute: bool = True,
    clone_at: int | None = None,
    break_ties: bool = True,
):
    """Run well-founded tie-breaking on both kernels, comparing each step.

    With ``break_ties=False`` the drive stops at the well-founded model.
    Returns ``(fast, clone_pair)`` where ``clone_pair`` is a
    ``(fast_clone, step)`` snapshot taken before step ``clone_at``.
    """
    fast = GroundGraphState(gp)
    slow = SeedGroundGraphState(gp)
    fast.close()
    slow.close()
    clone_pair = None
    for step in range(MAX_STEPS):
        _assert_states_agree(fast, slow)
        if clone_at is not None and step == clone_at:
            clone_pair = (fast.clone(), [row for row in fast.status])

        unfounded_fast = fast.unfounded_atoms()
        unfounded_slow = slow.unfounded_atoms()
        assert unfounded_fast == unfounded_slow
        if unfounded_fast:
            fast.assign_many(unfounded_fast, FALSE, ("unfounded", step))
            slow.assign_many(unfounded_slow, FALSE, ("unfounded", step))
            fast.close()
            slow.close()
            continue

        bottoms_fast = fast.bottom_components_live()
        bottoms_slow = slow.bottom_components_live()
        assert _bottoms_key(bottoms_fast) == _bottoms_key(bottoms_slow)
        if check_full_recompute:
            bottoms_full = fast.clone().bottom_components_live(full_recompute=True)
            assert _bottoms_key(bottoms_fast) == _bottoms_key(bottoms_full)

        ties = [c for c in bottoms_fast if c.is_tie]
        if not ties or not break_ties:
            break
        tie_fast = min(ties, key=lambda c: min(c.atom_ids))
        tie_slow = min(
            (c for c in bottoms_slow if c.is_tie), key=lambda c: min(c.atom_ids)
        )
        true_atoms, false_atoms = _canonical_tie_assignment(tie_fast)
        true_slow, false_slow = _canonical_tie_assignment(tie_slow)
        assert (sorted(true_atoms), sorted(false_atoms)) == (
            sorted(true_slow),
            sorted(false_slow),
        )
        for state, t, f in ((fast, true_atoms, false_atoms), (slow, true_slow, false_slow)):
            state.assign_many(t, TRUE, ("tie", step))
            state.assign_many(f, FALSE, ("tie", step))
            state.close()
    else:  # pragma: no cover - MAX_STEPS is far above any reachable depth
        pytest.fail("lockstep drive did not converge")
    _assert_states_agree(fast, slow)
    return fast, clone_pair


@settings(max_examples=60, deadline=None)
@given(program=propositional_programs())
def test_incremental_queries_match_seed_kernel(program):
    gp = ground(program, Database(), mode="full")
    _drive_lockstep(gp)


@settings(max_examples=40, deadline=None)
@given(
    program=propositional_programs(),
    clone_at=st.integers(min_value=0, max_value=3),
)
def test_clone_independence_under_interleaving(program, clone_at):
    gp = ground(program, Database(), mode="full")
    _, clone_pair = _drive_lockstep(gp, check_full_recompute=False, clone_at=clone_at)
    if clone_pair is None:
        return  # the run converged before the clone point
    clone, snapshot = clone_pair
    # The original ran to completion after the clone was taken; the clone
    # must still be exactly at the snapshot...
    assert list(clone.status) == snapshot
    # ...and driving the clone (against a fresh seed state fast-forwarded
    # by the same canonical decisions) must agree step for step.
    replay = SeedGroundGraphState(gp)
    replay.close()
    for step in range(MAX_STEPS):
        if replay.status == snapshot:
            break
        unfounded = replay.unfounded_atoms()
        if unfounded:
            replay.assign_many(unfounded, FALSE, ("unfounded", step))
            replay.close()
            continue
        ties = [c for c in replay.bottom_components_live() if c.is_tie]
        assert ties, "replay diverged from the cloned trajectory"
        tie = min(ties, key=lambda c: min(c.atom_ids))
        t, f = _canonical_tie_assignment(tie)
        replay.assign_many(t, TRUE, ("tie", step))
        replay.assign_many(f, FALSE, ("tie", step))
        replay.close()
    for step in range(MAX_STEPS):
        _assert_states_agree(clone, replay)
        unfounded = clone.unfounded_atoms()
        assert unfounded == replay.unfounded_atoms()
        if unfounded:
            clone.assign_many(unfounded, FALSE, ("unfounded", step))
            replay.assign_many(unfounded, FALSE, ("unfounded", step))
            clone.close()
            replay.close()
            continue
        bottoms = clone.bottom_components_live()
        assert _bottoms_key(bottoms) == _bottoms_key(replay.bottom_components_live())
        ties = [c for c in bottoms if c.is_tie]
        if not ties:
            break
        tie = min(ties, key=lambda c: min(c.atom_ids))
        t, f = _canonical_tie_assignment(tie)
        for state in (clone, replay):
            state.assign_many(t, TRUE, ("tie", step))
            state.assign_many(f, FALSE, ("tie", step))
            state.close()
    _assert_states_agree(clone, replay)


@pytest.mark.parametrize("seed", range(12))
def test_random_programs_generator_lockstep(seed):
    """The random-program generator distribution, pinned at small sizes."""
    program = random_propositional_program(
        n_predicates=8,
        n_rules=14,
        max_body=3,
        negation_probability=0.45,
        edb_predicates=2,
        seed=seed,
    )
    gp = ground(program, Database(), mode="full")
    _drive_lockstep(gp)


@pytest.mark.parametrize("seed", range(6))
def test_relevant_grounding_lockstep(seed):
    """Same differential drive over the relevant grounder's output."""
    program = random_propositional_program(
        n_predicates=7,
        n_rules=12,
        negation_probability=0.35,
        edb_predicates=2,
        seed=100 + seed,
    )
    gp = ground(program, Database(), mode="relevant")
    _drive_lockstep(gp)


# The seven workload families at smoke size (base n = 60, scaled down for
# the families whose seed-kernel runs are quadratic), relevant grounding:
# wf where the well-founded model is already total, wf-tb for the rest.
FAMILY_CASES = [
    ("win_move_line", families.win_move_line, 60, "wf"),
    ("win_move_cycle", families.win_move_cycle, 60, "wf-tb"),
    ("unfounded_tower", families.unfounded_tower, 15, "wf"),
    ("tie_chain", families.tie_chain, 15, "wf-tb"),
    ("committee", families.committee, 30, "wf-tb"),
    ("grounded_argumentation", families.grounded_argumentation, 30, "wf-tb"),
    ("adversarial_scc", families.adversarial_scc, 15, "wf-tb"),
]


@pytest.mark.parametrize(
    "name,generator,n,semantics", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES]
)
def test_workload_families_reach_identical_models(name, generator, n, semantics):
    """Both kernels reach the same total model on every workload family."""
    program, database = generator(n)
    gp = ground(program, database, mode="relevant")
    fast, _ = _drive_lockstep(gp, break_ties=semantics == "wf-tb")
    assert fast.interpretation().is_total
