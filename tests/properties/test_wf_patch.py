"""Well-founded solves on a live engine equal a fresh engine and the seed kernel.

After a ``well_founded`` solve an :class:`~repro.api.engine.Engine` keeps
the end state as a base per grounding mode; the next solve after an
in-place update runs on ``base.reopened(touched)``, which resets only
the forward cone of the atoms the updates touched.  Hypothesis drives
insert/retract traces over the seven workload families, a program with
positive loops, and random small programs, in relevant and full mode,
with 0–3 updates between two solves, updates that change the
universe (a fact over a fresh constant, or the last fact of a constant)
and updates the engine rejects.  After every solve:

* the true and undefined sets, decoded to strings, equal a fresh
  ``Engine`` over ``live.database.copy()`` and the frozen seed kernel
  (:mod:`repro.bench.seed_kernel`) on a fresh grounding;
* every reason fits the final model (``assert_reasons_sound``);
* ``wf_patches`` counts exactly the solves that followed an in-place
  update, so a rebuild drops the base, and the patched path ran;
* the solution the base came from still holds its own model.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import Engine
from repro.bench.seed_kernel import SeedGroundGraphState
from repro.datalog.atoms import Atom
from repro.datalog.grounding import ground
from repro.datalog.terms import Constant, Variable
from repro.errors import ReproError
from repro.ground.model import FALSE, TRUE, UNDEF

from tests.ground.test_reason_soundness import FAMILIES, assert_reasons_sound
from tests.properties.strategies import CONSTANTS, small_predicate_cases
from tests.properties.test_delta_index import _candidates, _trace

MODES = ["relevant", "full"]


def _decoded(gp, status) -> tuple[frozenset[str], frozenset[str]]:
    table = gp.atoms
    true = frozenset(str(table.atom(a)) for a, s in enumerate(status) if s == TRUE)
    undefined = frozenset(str(table.atom(a)) for a, s in enumerate(status) if s == UNDEF)
    return true, undefined


def _seed_model(program, database, mode) -> tuple[frozenset[str], frozenset[str]]:
    """The seed kernel's well-founded model on a fresh grounding."""
    gp = ground(program, database, mode=mode)
    state = SeedGroundGraphState(gp)
    state.close()
    while unfounded := state.unfounded_atoms():
        state.assign_many(unfounded, FALSE)
        state.close()
    return _decoded(gp, state.status)


def _rejected(engine: Engine, database, rng: random.Random) -> None:
    """An update the engine refuses: a non-ground fact, or an arity clash
    with a stored fact."""
    stored = sorted(engine.database.atoms(), key=str)
    fact = rng.choice(stored or sorted(database.atoms(), key=str))
    bad = [Atom(fact.predicate, (Variable("X"),) + fact.args[1:])]
    if stored:
        bad.append(Atom(fact.predicate, fact.args + (Constant("extra"),)))
    with pytest.raises(ReproError):
        engine.insert_facts(rng.choice(bad))


def _assert_equals_oracles(live: Engine, mode: str, label: str) -> None:
    solution = live.solve("well_founded")
    got = _decoded(solution.state.gp, solution.state.status)
    fresh = Engine(live.program, live.database.copy(), grounding=mode).solve("well_founded")
    assert got == _decoded(fresh.state.gp, fresh.state.status), f"{label}: fresh engine"
    assert got == _seed_model(live.program, live.database.copy(), mode), f"{label}: seed kernel"
    assert_reasons_sound(solution.state, label)


def _run(name, build, mode, seed, gaps, reject):
    program, database = build()
    rng = random.Random(seed)
    live = Engine(program, database.copy(), grounding=mode)
    _assert_equals_oracles(live, mode, f"{name}/{mode} start")
    candidates = _candidates(program, database, rng, fresh=1)
    updates = _trace(live.database, candidates, rng, sum(gaps))
    expected = 0
    for step, gap in enumerate(gaps):
        previous = live.solve("well_founded")
        kept = tuple(previous.state.status)
        has_base = True  # every solve leaves its end state as the base
        for _ in range(gap):
            inserted, retracted = next(updates)
            rebuilds = live.delta_rebuilds
            live.retract_facts(*retracted)
            live.insert_facts(*inserted)
            if live.delta_rebuilds != rebuilds:
                has_base = False
            if reject and rng.random() < 0.5:
                _rejected(live, database, rng)
        # With no update in between, the solve is a solution-cache hit.
        expected += gap > 0 and has_base
        _assert_equals_oracles(live, mode, f"{name}/{mode} seed {seed} step {step} gap {gap}")
        assert tuple(previous.state.status) == kept, f"{name}: the base was mutated"
        assert live.wf_patches == expected, f"{name}/{mode} step {step}: patch count"
    return live


@settings(max_examples=80, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(FAMILIES) - 1),
    mode=st.sampled_from(MODES),
    seed=st.integers(min_value=0, max_value=10_000),
    gaps=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
    reject=st.booleans(),
)
def test_patched_solves_equal_fresh_engine_and_seed_kernel(case, mode, seed, gaps, reject):
    name, build = FAMILIES[case]
    _run(name, build, mode, seed, gaps, reject)


# Every fact small_predicate_cases can hold: eu over the three constants,
# eb over the first two.
RANDOM_FACTS = [Atom("eu", (c,)) for c in CONSTANTS] + [
    Atom("eb", (x, y)) for x in CONSTANTS[:2] for y in CONSTANTS[:2]
]


@settings(max_examples=80, deadline=None)
@given(
    case=small_predicate_cases(),
    mode=st.sampled_from(MODES),
    seed=st.integers(min_value=0, max_value=10_000),
    gaps=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
)
def test_random_programs_patch_like_a_fresh_engine(case, mode, seed, gaps):
    """Random unary/binary programs: positive loops and negation in any
    mix, over a universe the toggled facts may grow or shrink."""
    program, database = case
    rng = random.Random(seed)
    live = Engine(program, database.copy(), grounding=mode)
    _assert_equals_oracles(live, mode, "start")
    updates = _trace(live.database, RANDOM_FACTS, rng, sum(gaps))
    for step, gap in enumerate(gaps):
        for _ in range(gap):
            inserted, retracted = next(updates)
            live.retract_facts(*retracted)
            live.insert_facts(*inserted)
        _assert_equals_oracles(live, mode, f"step {step} gap {gap}")


@pytest.mark.parametrize("name,build", FAMILIES, ids=[name for name, _ in FAMILIES])
@pytest.mark.parametrize("mode", MODES)
def test_every_family_takes_the_patched_path(name, build, mode):
    """A fixed trace per family: one update between solves, with rejected
    updates mixed in.  The patched path ran in every family whose facts
    can change without changing the universe."""
    live = _run(name, build, mode, seed=5, gaps=[1] * 8, reject=True)
    if name != "committee":  # its member(k) facts each carry a constant
        assert live.wf_patches > 0


def test_a_rebuild_drops_the_base():
    program, database = FAMILIES[0][1]()
    live = Engine(program, database.copy(), grounding="relevant")
    live.solve("well_founded")
    assert "relevant" in live._wf_bases
    live.insert_facts("move(1, fresh)")  # a constant outside the universe
    assert live.delta_rebuilds == 1
    assert "relevant" not in live._wf_bases
    live.solve("well_founded")
    assert live.wf_patches == 0
    live.retract_facts("move(1, fresh)")  # back to the old universe: a rebuild again
    live.solve("well_founded")
    live.insert_facts("move(1, 0)")
    live.solve("well_founded")
    assert live.wf_patches == 1
