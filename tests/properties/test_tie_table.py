"""Solves served from a checkpoint's first-round tie table equal fresh runs.

From the second tie-breaking solve of a checkpoint on, the engine keeps a
:class:`~repro.semantics.tie_breaking.TieTable`: the outcome of each
first-round tie's orientation on its forward cone.  A solve whose drawn
sides are all in the table is assembled from it, with no clone and no
``close``; any other solve runs the interpreter and fills the table.  The
oracle is the interpreter run on a fresh
:class:`~repro.ground.state.GroundGraphState`: every solve, served from
the table or not, must equal it in the status array, the reason buffers,
the labels and the choice trail with its ``forced`` flags.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import Engine
from repro.datalog.atoms import Atom, Literal
from repro.datalog.database import Database
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.ground.model import TRUE, Interpretation
from repro.ground.state import FinishedState, GroundGraphState
from repro.semantics.choices import FewestTrue, FirstSideTrue, RandomChoice, SecondSideTrue
from repro.semantics.tie_breaking import TieChoice, TieTable, _run
from repro.service.batch import BatchRequest, solve_one
from repro.workloads import families

from tests.properties.strategies import propositional_cases, small_predicate_cases
from tests.properties.test_deadline import _count_checks, _interrupt
from tests.properties.test_tie_checkpoint import FAMILIES, VARIANTS

POLICIES = [RandomChoice(seed) for seed in range(24)] + [
    FirstSideTrue(),
    SecondSideTrue(),
    FewestTrue(),
]

# Families whose first round settles every live atom: the table serves them.
TABLED = {"committee", "grounded_argumentation"}


@st.composite
def tied_programs(draw):
    """Propositional programs built around 1-4 ties ``t_i :- not f_i.
    f_i :- not t_i.`` plus up to 6 random rules over the tie atoms and
    ``p0``-``p3``: cones that stay apart, overlap, or feed later rounds."""
    ties = draw(st.integers(1, 4))
    rules = []
    for i in range(ties):
        t, f = Atom(f"t{i}"), Atom(f"f{i}")
        rules += [Rule(t, (Literal(f, False),)), Rule(f, (Literal(t, False),))]
    heads = [f"p{i}" for i in range(4)]
    names = heads + [f"{side}{i}" for i in range(ties) for side in "tf"]
    for _ in range(draw(st.integers(0, 6))):
        body = tuple(
            Literal(Atom(draw(st.sampled_from(names))), draw(st.booleans()))
            for _ in range(draw(st.integers(1, 3)))
        )
        rules.append(Rule(Atom(draw(st.sampled_from(heads))), body))
    return Program(rules), Database()


def _fresh_run(gp, policy, well_founded: bool):
    state = GroundGraphState(gp)
    choices = _run(state, copy.deepcopy(policy), well_founded=well_founded)
    return state, choices


def _choice_ids(choices) -> list[tuple]:
    return [(c.true_ids, c.false_ids, c.forced) for c in choices]


def _assert_equals_fresh(solution, gp, policy, well_founded: bool, label: str) -> None:
    fresh, choices = _fresh_run(gp, policy, well_founded)
    state = solution.state
    assert bytes(solution.model.status) == bytes(fresh.status), f"{label}: model"
    assert list(state.status) == list(fresh.status), f"{label}: status"
    assert state._reason_kind == fresh._reason_kind, f"{label}: reason kinds"
    assert list(state._reason_arg) == list(fresh._reason_arg), f"{label}: reason args"
    assert state._labels == fresh._labels, f"{label}: labels"
    assert _choice_ids(solution.choices) == _choice_ids(choices), f"{label}: trail"


def _solve_all(engine: Engine, gp, semantics, grounding, well_founded, label) -> int:
    """Solve every policy once, each against its fresh run; returns how
    many solves the table served."""
    served = 0
    for policy in POLICIES:
        before = engine.tie_table_solves
        solution = engine.solve(semantics, policy=policy, grounding=grounding)
        served += engine.tie_table_solves - before
        _assert_equals_fresh(solution, gp, policy, well_founded, f"{label} {policy!r}")
    return served


@pytest.mark.parametrize("semantics,grounding,well_founded", VARIANTS)
@pytest.mark.parametrize("name,build", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_table_solves_equal_fresh_runs(name, build, semantics, grounding, well_founded):
    engine = Engine(*build())
    gp = engine.ground_for(grounding)
    served = _solve_all(engine, gp, semantics, grounding, well_founded, f"{name} {semantics}")
    stats = engine.stats()
    assert served == stats["tie_table_solves"]
    assert served + stats["tie_table_fallbacks"] <= len(POLICIES) - 1  # never the first
    if name in TABLED:
        assert served > 0, name
        assert stats["tie_table_bytes"] > 0


@pytest.mark.parametrize("semantics,grounding,well_founded", VARIANTS)
@pytest.mark.parametrize("name,build", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_a_table_trail_splits_its_choices_as_the_status_does(
    name, build, semantics, grounding, well_founded
):
    """A table's trail (:meth:`TieTable.choices`) splits each choice at the
    table's ``mids`` by the flag's side bit, reading no status; the split
    equals the one the model's status gives, and flipping one side bit
    changes that choice alone."""
    engine = Engine(*build())
    atoms = engine.ground_for(grounding).atoms
    tabled = 0
    for policy in POLICIES:
        solution = engine.solve(semantics, policy=policy, grounding=grounding)
        trail = solution.trail
        if trail is None:
            continue
        tabled += 1
        table, status = trail.table, solution.model.status
        by_status = []
        for flag, lo, hi in zip(trail.flags, table.offsets, table.offsets[1:]):
            chunk = table.ids[lo:hi]
            true_ids = [a for a in chunk if status[a] == TRUE]
            false_ids = [a for a in chunk if status[a] != TRUE]
            by_status.append(TieChoice(true_ids, false_ids, bool(flag & 2), atoms))
        by_status = tuple(by_status)
        assert table.choices(trail.flags) == by_status == solution.choices
        for k in range(len(trail.flags)):
            flags = bytearray(trail.flags)
            flags[k] ^= 1
            choices = table.choices(bytes(flags))
            assert choices[k] != by_status[k]
            assert choices[:k] + choices[k + 1 :] == by_status[:k] + by_status[k + 1 :]
    if name in TABLED:
        assert tabled > 0, name


class _PerTie:
    """``policy`` asked one tie at a time: it has no batch method."""

    def __init__(self, policy) -> None:
        self.policy = policy

    def choose_true_side(self, side0_atoms, side1_atoms) -> int:
        return self.policy.choose_true_side(side0_atoms, side1_atoms)


# 40 free ties and, for the pure variant, 40 forced ones (positive loops,
# which the well-founded variant's unfounded step falsifies instead).
FREE_AND_FORCED = "\n".join(
    f"p{i} :- not q{i}. q{i} :- not p{i}. r{i} :- s{i}. s{i} :- r{i}." for i in range(40)
)
DRAWN = FAMILIES + [
    ("grounded_argumentation_60", lambda: families.grounded_argumentation(60)),
    ("free_and_forced", lambda: (FREE_AND_FORCED,)),
]


@pytest.mark.parametrize("semantics,grounding,well_founded", VARIANTS)
@pytest.mark.parametrize("name,build", DRAWN, ids=[name for name, _ in DRAWN])
def test_free_choice_count_equals_the_fresh_runs(name, build, semantics, grounding, well_founded):
    """A table-served solve counts its free ties from the table, before
    any trail is decoded; a run-made one counts the choices it holds.
    Both equal the unforced choices of the fresh run."""
    engine = Engine(*build())
    gp = engine.ground_for(grounding)
    for policy in POLICIES:
        solution = engine.solve(semantics, policy=policy, grounding=grounding)
        _, choices = _fresh_run(gp, policy, well_founded)
        expected = sum(1 for c in choices if not c.forced)
        assert solution.free_choice_count == expected, f"{name} {policy!r}"
        assert sum(1 for c in solution.choices if not c.forced) == expected


@pytest.mark.parametrize("semantics,grounding,well_founded", VARIANTS)
@pytest.mark.parametrize("name,build", DRAWN, ids=[name for name, _ in DRAWN])
def test_a_batched_draw_equals_per_tie_draws(name, build, semantics, grounding, well_founded):
    """``draw`` takes a RandomChoice's free sides in one
    ``choose_true_sides`` call: the flags, and the generator state after
    them, are those of the per-tie calls, with forced ties among them
    too; and the solves equal fresh runs."""
    engine = Engine(*build())
    for seed in range(2):
        engine.solve(semantics, policy=RandomChoice(seed), grounding=grounding)
    (checkpoint,) = engine._checkpoints.values()
    table = checkpoint.table
    if table is None:
        assert name not in TABLED, name
        return
    for policy in POLICIES:
        batched, single = copy.deepcopy(policy), _PerTie(copy.deepcopy(policy))
        assert table.draw(batched) == table.draw(single), (name, policy)
        if isinstance(policy, RandomChoice):
            assert batched._rng.getstate() == single.policy._rng.getstate(), (name, policy)
    if name == "free_and_forced":
        assert table.free == 40 and len(table.template) == (40 if well_founded else 80)
        gp = engine.ground_for(grounding)
        served = _solve_all(engine, gp, semantics, grounding, well_founded, name)
        assert served > 0


@pytest.mark.parametrize("semantics,grounding,well_founded", VARIANTS)
def test_tie_chain_never_takes_the_table(semantics, grounding, well_founded):
    """tie_chain orients its ties one round after another: the table's
    first fallback run goes past its first round, and the table is
    dropped for good."""
    engine = Engine(*families.tie_chain(6))
    gp = engine.ground_for(grounding)
    _solve_all(engine, gp, semantics, grounding, well_founded, f"tie_chain {semantics}")
    stats = engine.stats()
    assert stats["tie_table_solves"] == 0
    assert stats["tie_table_fallbacks"] == 1
    assert stats["tie_table_bytes"] == 0


@pytest.mark.parametrize("semantics,grounding,well_founded", VARIANTS)
def test_the_table_serves_grounded_argumentation_once_warm(semantics, grounding, well_founded):
    engine = Engine(*families.grounded_argumentation(60))
    gp = engine.ground_for(grounding)
    served = _solve_all(engine, gp, semantics, grounding, well_founded, "argumentation")
    assert served > len(POLICIES) // 2
    assert engine.stats()["tie_table_fallbacks"] < len(POLICIES) // 2


@settings(max_examples=60, deadline=None)
@given(
    case=st.one_of(propositional_cases(), small_predicate_cases(), tied_programs()),
    variant=st.sampled_from(VARIANTS),
)
def test_table_solves_equal_fresh_runs_on_random_programs(case, variant):
    semantics, grounding, well_founded = variant
    engine = Engine(*case)
    gp = engine.ground_for(grounding)
    _solve_all(engine, gp, semantics, grounding, well_founded, semantics)


TIES = "t0 :- not f0. f0 :- not t0. t1 :- not f1. f1 :- not t1. "


@pytest.mark.parametrize(
    "program",
    [
        TIES + "p :- t0, t1.",  # p is in both ties' cones
        TIES + "p :- t0. q :- not q.",  # the odd loop is in no tie's cone
        # Both at once: the node counts alone would match.
        TIES + "p :- t0, t1. q :- not q.",
    ],
    ids=["overlapping cones", "uncovered odd loop", "overlap and odd loop"],
)
@pytest.mark.parametrize("semantics,grounding,well_founded", VARIANTS)
def test_a_checkpoint_whose_cones_do_not_partition_it_keeps_no_table(
    program, semantics, grounding, well_founded
):
    engine = Engine(program)
    gp = engine.ground_for(grounding)
    served = _solve_all(engine, gp, semantics, grounding, well_founded, program)
    assert served == 0 and engine.stats()["tie_table_fallbacks"] == 0
    assert all(c.table is None for c in engine._checkpoints.values())


def test_a_single_solve_builds_no_table():
    engine = Engine(*families.grounded_argumentation(40))
    engine.solve("tie_breaking", policy=RandomChoice(1))
    stats = engine.stats()
    assert (stats["tie_table_solves"], stats["tie_table_fallbacks"]) == (0, 0)
    assert stats["tie_table_bytes"] == 0
    assert all(c.table is None for c in engine._checkpoints.values())


def test_an_update_drops_the_table():
    engine = Engine(*families.grounded_argumentation(17), grounding="relevant")
    for seed in range(12):
        engine.solve("tie_breaking", policy=RandomChoice(seed))
    assert engine.stats()["tie_table_bytes"] > 0
    solves = engine.tie_table_solves
    assert solves > 0
    assert engine.insert_facts("attacks(3, 1)")
    assert engine.stats()["tie_table_bytes"] == 0
    gp = engine.ground_for("relevant")
    for seed in range(12):
        policy = RandomChoice(seed)
        solution = engine.solve("tie_breaking", policy=policy)
        _assert_equals_fresh(solution, gp, policy, True, f"after update {policy!r}")
    assert engine.stats()["tie_table_bytes"] > 0
    assert engine.tie_table_solves > solves


def _covered(engine: Engine, policies):
    """The first of ``policies`` whose every drawn side is in the table."""
    (checkpoint,) = engine._checkpoints.values()
    return next(
        policy
        for policy in policies
        if checkpoint.table.covers(checkpoint.table.draw(copy.deepcopy(policy)))
    )


def test_a_table_solve_checks_the_deadline_once():
    engine = Engine(*families.grounded_argumentation(40))
    for seed in range(16):
        engine.solve("tie_breaking", policy=RandomChoice(seed))
    policy = _covered(engine, [FirstSideTrue(), SecondSideTrue(), FewestTrue()])
    solves = engine.tie_table_solves
    checks = _count_checks(lambda e: e.solve("tie_breaking", policy=policy), engine)
    assert engine.tie_table_solves == solves + 1
    assert checks == 1
    solution = engine.solve("tie_breaking", policy=policy)
    assert solution.timings["close_s"] == 0.0 and solution.timings["tie_apply_s"] > 0.0
    assert solution.timings["tie_select_s"] > 0.0  # the draw


def test_a_timed_out_solve_stores_no_table():
    """The second solve builds the table; one that times out keeps none,
    and the engine's later solves equal fresh runs."""
    engine = Engine(*families.grounded_argumentation(40))
    gp = engine.ground_for("relevant")
    engine.solve("tie_breaking", policy=RandomChoice(1))
    _interrupt(lambda e: e.solve("tie_breaking", policy=RandomChoice(2)), engine, 2)
    assert engine.stats()["tie_table_bytes"] == 0
    assert engine.stats()["tie_table_fallbacks"] == 0
    for seed in range(2, 14):
        policy = RandomChoice(seed)
        solution = engine.solve("tie_breaking", policy=policy)
        _assert_equals_fresh(solution, gp, policy, True, f"after timeout {policy!r}")
    assert engine.tie_table_solves > 0
    # A table solve that times out stores nothing either.
    stats = engine.stats()
    policy = _covered(engine, [RandomChoice(seed) for seed in range(100, 10_000)])
    _interrupt(lambda e: e.solve("tie_breaking", policy=policy), engine, 1)
    assert engine.stats() == stats
    solution = engine.solve("tie_breaking", policy=policy)
    _assert_equals_fresh(solution, gp, policy, True, f"after a table timeout {policy!r}")


# -- a table-served miss is its status bytes and trail flags -----------------


def _warm(engine: Engine, grounding: str = "relevant", semantics: str = "tie_breaking"):
    """Fill the table with 24 seeds, then return a policy it covers."""
    for seed in range(24):
        engine.solve(semantics, policy=RandomChoice(seed), grounding=grounding)
    return _covered(engine, [RandomChoice(seed) for seed in range(1000, 10_000)])


def _counting(monkeypatch, cls, name: str) -> list[int]:
    calls = [0]
    method = getattr(cls, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return method(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_a_table_served_miss_builds_no_choices_or_state_until_read(monkeypatch):
    engine = Engine(*families.grounded_argumentation(40))
    gp = engine.ground_for("relevant")
    policy = _warm(engine)
    choices_built = _counting(monkeypatch, TieChoice, "__init__")
    states_built = _counting(monkeypatch, FinishedState, "of")
    statuses_built = _counting(monkeypatch, TieTable, "status")
    models_built = _counting(monkeypatch, Interpretation, "__init__")
    served = engine.tie_table_solves
    solution = engine.solve("tie_breaking", policy=policy)
    assert engine.tie_table_solves == served + 1
    # A values miss, then a values hit, read from the table: no status by
    # atom id and no Interpretation until ``model`` is read.
    atoms = [gp.atoms.atom(a) for a in range(len(gp.atoms))]
    values = [solution.value(atom) for atom in atoms]
    hit = engine.solve("tie_breaking", policy=policy)
    request = BatchRequest.from_obj({"atoms": [str(a) for a in atoms], "seed": policy.seed})
    reply = solve_one(engine, request)
    assert reply["ok"] and list(reply["values"].values()) == values
    assert [hit.value(atom) for atom in atoms] == values
    assert (statuses_built[0], models_built[0]) == (0, 0)
    assert values == [solution.model.value(atom) for atom in atoms]
    assert (statuses_built[0], models_built[0]) == (1, 1)
    assert solution.free_choice_count > 0 and solution.total
    assert (choices_built[0], states_built[0]) == (0, 0)
    trail = solution.choices
    assert choices_built[0] == len(trail) and states_built[0] == 0
    assert solution.state is not None and states_built[0] == 1
    _assert_equals_fresh(solution, gp, policy, True, "table-served miss")


@pytest.mark.parametrize("semantics,grounding,well_founded", VARIANTS)
def test_a_table_served_state_first_read_after_an_update_equals_the_live_run(
    semantics, grounding, well_founded
):
    engine = Engine(*families.grounded_argumentation(40))
    gp = engine.ground_for(grounding)
    policy = _warm(engine, grounding, semantics)
    fresh, fresh_choices = _fresh_run(gp, policy, well_founded)
    served = engine.tie_table_solves
    solution = engine.solve(semantics, policy=policy, grounding=grounding)
    assert engine.tie_table_solves == served + 1
    assert engine.insert_facts("attacks(3, 1)")
    state = solution.state  # first read: after the update dropped the table
    assert list(state.status) == list(fresh.status)
    assert state._reason_kind == fresh._reason_kind
    assert list(state._reason_arg) == list(fresh._reason_arg)
    assert state._labels == fresh._labels
    assert _choice_ids(solution.choices) == _choice_ids(fresh_choices)
    for a in range(len(fresh.status)):
        assert state.reason_of(a) == fresh.reason_of(a)
