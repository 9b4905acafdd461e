"""A streamed index ranks its atoms on first read, once, and only for ties.

A streaming update publishes a :class:`~repro.datalog.grounding.GroundIndex`
with a snapshot of the session's canonical id list (``canonical_ids``) and
no ``atom_order``: the index builds the ranks from the snapshot the first
time a tie path reads them.  Pinned here:

* an index held across later updates, with ``atom_order`` and
  ``ghost_ids`` first read only after them, equals the rebuild taken when
  it was published (so the snapshot shares nothing with the live list);
* well-founded traffic — insert, solve, ``query_many``, the model lists,
  retract, solve — builds no ranks; the first ``tie_breaking`` solve after
  an update builds them once, for the index it runs on, and its choices
  and model equal a fresh engine's;
* a reopened well-founded state reads the ranks of the index it was
  moved onto, not those of its base's index.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import Engine
from repro.datalog.grounding import GroundIndex
from repro.semantics.choices import FewestTrue, FirstSideTrue, MostTrue, SecondSideTrue
from repro.workloads import families

from tests.properties.test_delta_index import FAMILIES, _candidates, _reference_fields, _trace

# Label-swap-invariant policies (see tests/properties/test_delta_properties.py).
POLICIES = [FirstSideTrue(), SecondSideTrue(), FewestTrue(), MostTrue()]


@pytest.fixture
def rank_builds(monkeypatch):
    """The indexes whose ``atom_order`` the lazy path built, in call order."""
    built: list[GroundIndex] = []
    lazy = GroundIndex.__getattr__

    def counting(self, name):
        if name == "atom_order":
            built.append(self)
        return lazy(self, name)

    monkeypatch.setattr(GroundIndex, "__getattr__", counting)
    return built


def _fresh_ranks(engine: Engine, gp) -> tuple[list[int | None], frozenset[int]]:
    """Per atom id of ``gp``, its id in a fresh relevant grounding of the
    engine's database (``None`` when that grounding does not hold it), and
    the ids it does not hold."""
    fresh = Engine(engine.program, engine.database.copy(), grounding="relevant")
    atoms = fresh.ground_for("relevant").atoms
    ids = [atoms.get(gp.atoms.atom(a)) for a in range(gp.index.n_atoms)]
    return ids, frozenset(a for a, fresh_id in enumerate(ids) if fresh_id is None)


@settings(max_examples=30, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(FAMILIES) - 1),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=2, max_value=8),
)
def test_a_held_index_ranks_as_published(case, seed, steps):
    """Ranks and ghosts first read after later updates are the publish-time ones."""
    name, build = FAMILIES[case]
    program, database = build()
    rng = random.Random(seed)
    engine = Engine(program, database.copy(), grounding="relevant")
    engine.ground_for("relevant")
    candidates = _candidates(program, database, rng, fresh=1)
    held = []
    for step, (inserted, retracted) in enumerate(
        _trace(engine.database, candidates, rng, steps)
    ):
        engine.retract_facts(*retracted)
        engine.insert_facts(*inserted)
        gp = engine.ground_for("relevant")
        session = getattr(gp, "_delta_session", None)
        if session is None:  # regrounded: a fresh index, ids are the order
            continue
        reference = _reference_fields(session)
        _, ghosts = _fresh_ranks(engine, gp)
        held.append((step, gp.index, reference["atom_order"], reference["canonical_ids"], ghosts))
    for step, idx, order, canonical, ghosts in held:
        label = f"{name}: index published at step {step}"
        assert idx.canonical_ids == canonical, f"{label}: canonical ids"
        assert idx.atom_order == order, f"{label}: ranks"
        assert idx.ghost_ids == ghosts, f"{label}: ghosts"


def _decoded(solution):
    choices = tuple(
        (frozenset(map(str, c.made_true)), frozenset(map(str, c.made_false)), c.forced)
        for c in solution.choices
    )
    return choices, solution.texts()


def _new_facts(program, database, seed: int):
    """Rows over known constants the database lacks: inserting or retracting
    them never moves the universe, so every update streams."""
    rows = _candidates(program, database, random.Random(seed), fresh=0)
    return [atom for atom in rows if not database.contains_atom(atom)]


@pytest.mark.parametrize(
    "name,build",
    [
        ("win_move_cycle", lambda: families.win_move_cycle(8)),
        ("grounded_argumentation", lambda: families.grounded_argumentation(13)),
        ("adversarial_scc", lambda: families.adversarial_scc(8)),
    ],
)
def test_ranks_are_built_once_per_index_and_only_for_ties(rank_builds, name, build):
    program, database = build()
    engine = Engine(program, database.copy(), grounding="relevant")
    gp = engine.ground_for("relevant")
    queried = [a for a in gp.atoms.atoms() if a.predicate not in program.edb_predicates][:8]
    for step, fact in enumerate(_new_facts(program, database, seed=len(name))[:4]):
        # Well-founded traffic, as a live caller sends it: no ranks.
        for update in (engine.insert_facts, engine.retract_facts):
            update(fact)
            engine.solve("well_founded").texts()
            engine.query_many(queried)
        assert rank_builds == [], f"{name} step {step}: well-founded traffic ranked atoms"
        engine.insert_facts(fact)
        gp = engine.ground_for("relevant")
        assert gp._delta_session is not None, f"{name} step {step}: regrounded"
        fresh = Engine(engine.program, engine.database.copy(), grounding="relevant")
        for policy in POLICIES:
            live = engine.solve("tie_breaking", policy=policy)
            assert _decoded(live) == _decoded(fresh.solve("tie_breaking", policy=policy)), (
                f"{name} step {step} {policy!r}: differs from a fresh engine"
            )
        assert rank_builds == [gp.index], f"{name} step {step}: ranks not built once"
        engine.retract_facts(fact)
        rank_builds.clear()


def test_a_reopened_state_reads_its_new_index_ranks(rank_builds):
    """The well-founded base is reopened on the updated index: its ranks are
    that index's, and they put every canonical atom at its fresh id."""
    program, database = families.grounded_argumentation(13)
    engine = Engine(program, database.copy(), grounding="relevant")
    engine.ground_for("relevant")
    engine.solve("well_founded")
    base = engine._wf_bases["relevant"][0]
    before = [base.order_key(a) for a in range(base.n_atoms)]
    old_index = base._idx
    engine.insert_facts(*_new_facts(program, database, seed=0)[:2])
    gp = engine.ground_for("relevant")
    engine.solve("well_founded")
    state = engine._wf_bases["relevant"][0]
    assert engine.wf_patches == 1
    assert state is base and state._idx is gp.index is not old_index
    assert rank_builds == []
    ranks = [state.order_key(a) for a in range(state.n_atoms)]
    assert ranks == list(gp.index.atom_order)
    assert ranks[: len(before)] != before  # the update moved ranks
    fresh_ids, _ = _fresh_ranks(engine, gp)
    canonical = [a for a, rank in enumerate(ranks) if rank < state.n_atoms]
    assert canonical and all(fresh_ids[a] == ranks[a] for a in canonical)
