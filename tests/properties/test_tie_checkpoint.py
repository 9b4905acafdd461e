"""Checkpointed tie-breaking solves equal fresh-state solves.

An :class:`~repro.api.engine.Engine` serves every ``tie_breaking`` and
``pure_tie_breaking`` solve from a clone of one kernel state per
(grounding mode, ``well_founded``), taken at the end of the prefix no
policy can change: ``close``, the unfounded step (well-founded variant),
and the analysis of the first round's bottom components.  The oracle is the interpreter run on a
fresh :class:`~repro.ground.state.GroundGraphState`, which redoes that
prefix itself.  The k-th solve on a warm engine must equal it in the
model, the choice trail, the free-choice count, and ``explain``; after
every step of an insert/retract trace, a solve on the live engine must
equal a solve on a fresh engine over the same database.
"""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.engine import Engine
from repro.ground.explain import explain
from repro.ground.model import TRUE, UNDEF
from repro.ground.state import GroundGraphState
from repro.semantics.choices import (
    FewestTrue,
    FirstSideTrue,
    MostTrue,
    RandomChoice,
    SecondSideTrue,
)
from repro.semantics.tie_breaking import _run
from repro.workloads import families

from tests.properties.test_delta_index import _candidates, _trace

FAMILIES = [
    ("win_move_line", lambda: families.win_move_line(7)),
    ("win_move_cycle", lambda: families.win_move_cycle(8)),
    ("committee", lambda: families.committee(6)),
    ("layered_games", lambda: families.layered_games(3, 3)),
    ("negation_tower", lambda: families.negation_tower(5)),
    ("grounded_argumentation", lambda: families.grounded_argumentation(17)),
    ("adversarial_scc", lambda: families.adversarial_scc(8)),
]

POLICIES = [
    FirstSideTrue(),
    SecondSideTrue(),
    FewestTrue(),
    MostTrue(),
    RandomChoice(0),
    RandomChoice(3),
    RandomChoice(7),
    RandomChoice(2024),
]

# (semantics, grounding, well_founded): the well-founded variant on the
# relevant grounding, the pure variant on the full grounding it is
# locked to.
VARIANTS = [
    ("tie_breaking", "relevant", True),
    ("pure_tie_breaking", "full", False),
]


def _ids_with(status, value: int) -> tuple[int, ...]:
    return tuple(i for i, s in enumerate(status) if s == value)


def _trail(choices) -> list[tuple]:
    return [(c.true_ids, c.false_ids, c.forced) for c in choices]


def _atom_trail(choices) -> list[tuple]:
    return [(c.made_true, c.made_false, c.forced) for c in choices]


def _probe_atoms(gp, choices) -> list:
    """A few atoms worth explaining: the first choice's atoms, plus a
    spread over the atom table (unfounded, fired and undefined alike)."""
    ids = set(range(0, len(gp.atoms), max(1, len(gp.atoms) // 5)))
    if choices:
        ids.update(choices[0].true_ids[:1] + choices[0].false_ids[:1])
    return [gp.atoms.atom(i) for i in sorted(ids)]


def _assert_equals_fresh(solution, gp, policy, well_founded: bool, label: str) -> None:
    state = GroundGraphState(gp)
    choices = _run(state, copy.deepcopy(policy), well_founded=well_founded)
    status = state.status
    assert solution.true_ids == _ids_with(status, TRUE), f"{label}: true ids"
    assert solution.undefined_ids == _ids_with(status, UNDEF), f"{label}: undefined ids"
    assert _trail(solution.choices) == _trail(choices), f"{label}: trail"
    assert solution.free_choice_count == sum(not c.forced for c in choices), (
        f"{label}: free choices"
    )
    for atom in _probe_atoms(gp, choices):
        assert explain(solution.state, atom) == explain(state, atom), (
            f"{label}: explain({atom})"
        )


@pytest.mark.parametrize("semantics,grounding,well_founded", VARIANTS)
@pytest.mark.parametrize("name,build", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_warm_solves_equal_fresh_state_solves(name, build, semantics, grounding, well_founded):
    program, database = build()
    engine = Engine(program, database)
    gp = engine.ground_for(grounding)
    for k, policy in enumerate(POLICIES):
        solution = engine.solve(semantics, policy=policy, grounding=grounding)
        _assert_equals_fresh(
            solution, gp, policy, well_founded, f"{name} {semantics} solve {k} {policy!r}"
        )
    assert engine.checkpoint_builds == 1


@pytest.mark.parametrize("name,build", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_checkpoints_do_not_cross_modes_or_variants(name, build):
    """One engine, every (mode, variant) key interleaved: each solve still
    equals its own fresh-state run."""
    program, database = build()
    engine = Engine(program, database)
    keys = [
        ("tie_breaking", "relevant", True),
        ("pure_tie_breaking", "full", False),
        ("tie_breaking", "full", True),
        ("pure_tie_breaking", "relevant", False),
    ]
    for k, policy in enumerate(POLICIES[:4] + POLICIES[5:7]):
        for semantics, grounding, well_founded in keys:
            engine.solve("well_founded", grounding=grounding)
            solution = engine.solve(semantics, policy=policy, grounding=grounding)
            _assert_equals_fresh(
                solution,
                engine.ground_for(grounding),
                policy,
                well_founded,
                f"{name} {semantics}/{grounding} solve {k}",
            )
    assert engine.checkpoint_builds == len(keys)


@settings(max_examples=25, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(FAMILIES) - 1),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=2, max_value=8),
    policy=st.sampled_from(POLICIES),
)
# Retract-then-reinsert leaves a tie's lowest atom id off its lowest
# canonical rank; side 0 must follow the rank.
@example(case=5, seed=17, steps=5, policy=FirstSideTrue())
@example(case=3, seed=3378, steps=5, policy=FirstSideTrue())
def test_solves_after_updates_equal_a_fresh_engine(case, seed, steps, policy):
    """Updates drop the checkpoint: every solve between updates equals a
    fresh engine's solve over the same database, and a fresh-state run
    on the live ground program."""
    name, build = FAMILIES[case]
    program, database = build()
    rng = random.Random(seed)
    live = Engine(program, database.copy(), grounding="relevant")
    live.solve("tie_breaking", policy=policy)
    candidates = _candidates(program, database, rng, fresh=1)
    for step, (inserted, retracted) in enumerate(_trace(live.database, candidates, rng, steps)):
        live.retract_facts(*retracted)
        live.insert_facts(*inserted)
        label = f"{name} step {step} {policy!r}"
        for other in (policy, RandomChoice(seed)):
            solution = live.solve("tie_breaking", policy=other)
            fresh = Engine(program, live.database.copy(), grounding="relevant").solve(
                "tie_breaking", policy=other
            )
            assert solution.true_atoms == fresh.true_atoms, f"{label}: true atoms"
            assert solution.undefined_atoms == fresh.undefined_atoms, f"{label}: undefined"
            assert _atom_trail(solution.choices) == _atom_trail(fresh.choices), (
                f"{label}: trail"
            )
            _assert_equals_fresh(solution, live.ground_for("relevant"), other, True, label)
