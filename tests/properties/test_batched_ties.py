"""Batched tie rounds against the sequential schedule.

:func:`repro.semantics.tie_breaking._run` orients every current bottom
tie per round before it re-closes.  The oracle here is the one-tie-per-
round loop it replaced (:func:`_run_sequential`): each round orients
only the tie the schedule-free scan
(:func:`tests.semantics.tie_oracle._select_tie`) picks, then re-closes
(and runs the unfounded step in the well-founded variant).  Bottom ties
are disjoint and have no incoming cross edges, so both schedules make
the same decisions, possibly in another order:

* a deterministic policy gives the same model and the same multiset of
  :class:`~repro.semantics.tie_breaking.TieChoice` on both;
* a seeded :class:`RandomChoice` consumes its stream in trail order, so
  the sequential run replays the batched trail instead
  (:class:`_Replay`, keyed by each tie's atoms) and must reach the same
  model with the same choices.
"""

from __future__ import annotations

import copy
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import Engine
from repro.ground.state import GroundGraphState
from repro.semantics.choices import FewestTrue, FirstSideTrue, MostTrue, RandomChoice
from repro.semantics.tie_breaking import TieChoice, _break_tie, _run

from tests.properties.strategies import propositional_cases
from tests.properties.test_tie_checkpoint import FAMILIES, POLICIES, VARIANTS
from tests.semantics.tie_oracle import _select_tie

# Sequential serves the ties keyed 0 (a/b), 2 (c/d: bottom only once a
# is decided) and 4 (x/y); a batched round serves 0 and 4, then 2.
LAYERED = """
a :- not b.  b :- not a.
c :- a, not d.  d :- a, not c.
x :- not y.  y :- not x.
"""


def _run_sequential(state: GroundGraphState, policy, *, well_founded: bool) -> list[TieChoice]:
    """The one-tie-per-round schedule: orient the tie ``_select_tie``
    picks, re-close, repeat."""
    choices: list[TieChoice] = []
    state.close()
    while True:
        if well_founded:
            state.falsify_unfounded(numbered=False)
        tie = _select_tie(state)
        if tie is None:
            return choices
        choices.append(_break_tie(state, tie, policy))
        state.close()


class _Replay:
    """Orient each tie as a recorded trail did, whatever the order.

    Policies see canonical ranks; on a fresh grounding a rank is the
    atom id, so a tie is found by the set of its atoms' ids.
    """

    def __init__(self, choices) -> None:
        self.true_side = {
            frozenset(c.true_ids + c.false_ids): frozenset(c.true_ids)
            for c in choices
            if not c.forced
        }

    def choose_true_side(self, side0_atoms, side1_atoms) -> int:
        side0 = frozenset(side0_atoms)
        return 0 if self.true_side[side0 | frozenset(side1_atoms)] == side0 else 1


def _solve(gp, policy, well_founded: bool, run):
    state = GroundGraphState(gp)
    choices = run(state, copy.deepcopy(policy), well_founded=well_founded)
    return list(state.status), choices


def _assert_schedules_agree(gp, policy, well_founded: bool, label: str):
    status, batched = _solve(gp, policy, well_founded, _run)
    oracle = policy if not isinstance(policy, RandomChoice) else _Replay(batched)
    seq_status, sequential = _solve(gp, oracle, well_founded, _run_sequential)
    assert status == seq_status, f"{label}: model"
    assert Counter(batched) == Counter(sequential), f"{label}: choices"
    return batched, sequential


@pytest.mark.parametrize("semantics,grounding,well_founded", VARIANTS)
@pytest.mark.parametrize("name,build", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_batched_rounds_equal_the_sequential_schedule(
    name, build, semantics, grounding, well_founded
):
    gp = Engine(*build()).ground_for(grounding)
    for policy in POLICIES:
        _assert_schedules_agree(gp, policy, well_founded, f"{name} {semantics} {policy!r}")


@settings(max_examples=60, deadline=None)
@given(
    case=propositional_cases(),
    variant=st.sampled_from(VARIANTS),
    policy=st.sampled_from(POLICIES),
)
def test_batched_rounds_equal_the_sequential_schedule_on_random_programs(
    case, variant, policy
):
    semantics, grounding, well_founded = variant
    gp = Engine(*case).ground_for(grounding)
    _assert_schedules_agree(gp, policy, well_founded, f"{semantics} {policy!r}")


@pytest.mark.parametrize("semantics,grounding,well_founded", VARIANTS)
def test_layered_ties_are_served_in_another_order(semantics, grounding, well_founded):
    gp = Engine(LAYERED).ground_for(grounding)
    atom = gp.atoms.atom
    for policy in (FirstSideTrue(), FewestTrue(), MostTrue(), RandomChoice(1)):
        batched, sequential = _assert_schedules_agree(gp, policy, well_founded, repr(policy))
        if isinstance(policy, RandomChoice):
            continue
        first = [str(atom(min(c.true_ids + c.false_ids))) for c in sequential]
        assert first == ["a", "c", "x"]
        assert [str(atom(min(c.true_ids + c.false_ids))) for c in batched] == ["a", "x", "c"]
    # RandomChoice draws per choice in trail order: the reorder hands the
    # c/d tie another draw than the sequential schedule gave it.
    status, _ = _solve(gp, RandomChoice(1), well_founded, _run)
    seq_status, _ = _solve(gp, RandomChoice(1), well_founded, _run_sequential)
    assert status != seq_status


def _assert_enumerated_trails_are_run_trails(engine, semantics, grounding, well_founded):
    """Every enumerated trail is the trail ``_run`` takes when it makes
    the same orientations: same model, same choices in the same order."""
    gp = engine.ground_for(grounding)
    runs = list(engine.enumerate(semantics, grounding=grounding, limit=64))
    assert runs
    for solution in runs:
        state = GroundGraphState(gp)
        choices = _run(state, _Replay(solution.choices), well_founded=well_founded)
        assert list(state.status) == list(solution.model.status)
        assert choices == list(solution.choices)
    return runs


@pytest.mark.parametrize("semantics,grounding,well_founded", VARIANTS)
@pytest.mark.parametrize("name,build", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_enumerated_trails_follow_the_rounds(name, build, semantics, grounding, well_founded):
    _assert_enumerated_trails_are_run_trails(
        Engine(*build()), semantics, grounding, well_founded
    )


# As LAYERED, but c/d becomes a tie on the side-1 branch of a/b, which
# the search reaches by a rewind into the middle of the first round.
LAYERED_ON_SIDE_1 = """
a :- not b.  b :- not a.
c :- b, not d.  d :- b, not c.
x :- not y.  y :- not x.
"""


@pytest.mark.parametrize(
    "program", [LAYERED, LAYERED_ON_SIDE_1], ids=["layered", "layered_on_side_1"]
)
@pytest.mark.parametrize("semantics,grounding,well_founded", VARIANTS)
def test_enumerated_layered_ties_are_served_a_round_later(
    program, semantics, grounding, well_founded
):
    runs = _assert_enumerated_trails_are_run_trails(
        Engine(program), semantics, grounding, well_founded
    )
    # c/d is a tie on one branch of a/b only: 2 × 2 sequences there, 2 on
    # the other.
    atom = runs[0].model.ground_program.atoms.atom
    served = [[str(atom(min(c.true_ids + c.false_ids))) for c in s.choices] for s in runs]
    assert Counter(map(tuple, served)) == {("a", "x", "c"): 4, ("a", "x"): 2}
