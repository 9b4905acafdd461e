"""Differential properties of the streaming update engine.

Every test drives one *live* :class:`~repro.api.Engine` through a trace
of ``insert_facts`` / ``retract_facts`` updates and compares it, after
**every** step, against the oracle that shares none of its machinery: a
fresh engine built from a copy of the mutated database.  Compared per
step and per deterministic policy:

* the model (true set and undefined set, decoded to atom strings — live
  and fresh groundings assign different dense ids);
* the tri-partition, via the two-way :meth:`Interpretation.agrees_with`
  (false atoms and closed-world defaults included), and the true / false
  / undefined lists and counts of ``Engine.solve``, which leave out the
  atoms only the live grounding holds;
* the tie trail — the decoded ``(made_true, made_false, forced)``
  sequence of every choice the interpreter committed.

``RandomChoice`` is excluded on purpose: the live overlay may visit a
Lemma-1 component from the opposite side as a fresh grounding (the K/L
labels swap), and only label-swap-invariant policies produce comparable
trails.  Enumeration is compared as a *set* of models for the same
reason — the side labels may swap the enumeration order, never the
reachable models.

Updates that fall outside the incremental envelope (a retraction that
shrinks the Herbrand universe, for example) are part of the contract:
the engine transparently re-grounds (``delta_rebuilds``), and the
differential must hold regardless of which path served each step.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import Engine
from repro.datalog.atoms import Atom
from repro.ground.state import GroundGraphState
from repro.semantics.choices import FewestTrue, FirstSideTrue, MostTrue, SecondSideTrue
from repro.semantics.tie_breaking import _enumerate_tie_breaking_models, _run
from repro.workloads import families
from repro.workloads.random_programs import random_propositional_program

# Label-swap-invariant policies only (see module docstring).
POLICIES = [FirstSideTrue(), SecondSideTrue(), FewestTrue(), MostTrue()]

_ENUM_LIMIT = 64


def _solve_sig(gp, policy):
    """(true set, undef set, decoded trail, interpretation) of one solve."""
    state = GroundGraphState(gp)
    choices = _run(state, policy, well_founded=True)
    interp = state.interpretation()
    true = frozenset(str(a) for a in interp.true_atoms())
    undef = frozenset(str(a) for a in interp.undefined_atoms())
    trail = tuple(
        (
            frozenset(str(a) for a in c.made_true),
            frozenset(str(a) for a in c.made_false),
            c.forced,
        )
        for c in choices
    )
    return true, undef, trail, interp


def _enum_model_set(gp):
    """The set of reachable tie-breaking models, decoded."""
    return frozenset(
        frozenset(str(a) for a in model.true_set())
        for model, _ in _enumerate_tie_breaking_models(
            GroundGraphState(gp), well_founded=True, limit=_ENUM_LIMIT
        )
    )


def _fresh_oracle(live: Engine, mode) -> Engine:
    """A fresh engine over a copy of the live engine's mutated database."""
    return Engine(live.program, live.database.copy(), grounding=mode)


def _assert_step_equivalent(live: Engine, mode, label: str, enumerate_too=False):
    """Live engine ≡ fresh re-ground, models + tri-partition + trails."""
    fresh = _fresh_oracle(live, mode)
    live_gp = live.ground_for(mode)
    fresh_gp = fresh.ground_for(mode)
    for policy in POLICIES:
        lt, lu, ltrail, lm = _solve_sig(live_gp, policy)
        ft, fu, ftrail, fm = _solve_sig(fresh_gp, policy)
        assert lt == ft, (
            f"{label} {policy!r}: true-set mismatch\n"
            f"live-only={sorted(lt - ft)}\nfresh-only={sorted(ft - lt)}"
        )
        assert lu == fu, f"{label} {policy!r}: undefined-set mismatch"
        assert ltrail == ftrail, f"{label} {policy!r}: tie-trail mismatch"
        assert lm.agrees_with(fm), f"{label} {policy!r}: tri-partition mismatch"
    # The public facade must agree too (solution cache invalidation,
    # delta bookkeeping): same model through Engine.solve on both sides.
    live_solution, fresh_solution = live.solve("tie_breaking"), fresh.solve("tie_breaking")
    live_true = frozenset(str(a) for a in live_solution.true_atoms)
    fresh_true = frozenset(str(a) for a in fresh_solution.true_atoms)
    assert live_true == fresh_true, f"{label}: Engine.solve mismatch"
    # The lists a reply writes, false atoms included: a live grounding's
    # ghosts (atoms a fresh grounding would not hold) are left out.
    assert live_solution.texts() == fresh_solution.texts(), f"{label}: model lists differ"
    assert live_solution.counts() == fresh_solution.counts(), f"{label}: counts differ"
    if enumerate_too:
        assert _enum_model_set(live_gp) == _enum_model_set(fresh_gp), (
            f"{label}: enumerated model sets differ"
        )


def _candidate_facts(program, database, rng, extra=20):
    """EDB rows present at start plus random rows over known constants."""
    base = [(a.predicate, tuple(a.args)) for a in database.atoms()]
    candidates = list(dict.fromkeys(base))
    constants = sorted(program.constants | database.constants(), key=str)
    arity = {p: len(row) for p, row in base}
    predicates = sorted(arity)
    if predicates and constants:
        for _ in range(extra):
            pred = rng.choice(predicates)
            row = tuple(rng.choice(constants) for _ in range(arity[pred]))
            if (pred, row) not in candidates:
                candidates.append((pred, row))
    return candidates


def _run_trace(program, database, *, mode, steps, seed, enum_every=10):
    """Drive a mixed insert/retract trace, asserting after every step."""
    rng = random.Random(seed)
    engine = Engine(program, database.copy(), grounding=mode)
    candidates = _candidate_facts(program, database, rng)
    assert candidates, "trace needs at least one streamable fact"
    present = {c for c in candidates if database.contains_atom(Atom(c[0], c[1]))}
    for step in range(steps):
        inserts, retracts = [], []
        # Distinct facts per step: the engine applies retractions before
        # insertions, so toggling one fact twice in a step would not
        # commute with this bookkeeping.
        for fact in rng.sample(candidates, k=rng.randint(1, min(3, len(candidates)))):
            if fact in present:
                present.discard(fact)
                retracts.append(Atom(fact[0], fact[1]))
            else:
                present.add(fact)
                inserts.append(Atom(fact[0], fact[1]))
        retracted = engine.retract_facts(*retracts)
        inserted = engine.insert_facts(*inserts)
        assert {str(a) for a in retracted} == {str(a) for a in retracts}
        assert {str(a) for a in inserted} == {str(a) for a in inserts}
        _assert_step_equivalent(
            engine,
            mode,
            f"step {step}",
            enumerate_too=(step % enum_every == 0),
        )
    # Empty insert/retract calls are no-ops and uncounted; every step
    # issues at least one non-empty update.  Deltas are absorbed lazily,
    # so the per-grounding counters trail the call counter.
    assert steps <= engine.update_calls <= 2 * steps
    assert 0 < engine.delta_applied + engine.delta_rebuilds <= engine.update_calls
    return engine


TRACE_CASES = [
    ("win_move_line", lambda: families.win_move_line(7), "relevant"),
    ("win_move_cycle", lambda: families.win_move_cycle(8), "relevant"),
    ("committee", lambda: families.committee(5), "relevant"),
    ("layered_games", lambda: families.layered_games(3, 3), "relevant"),
    ("negation_tower", lambda: families.negation_tower(5), "relevant"),
    ("grounded_argumentation", lambda: families.grounded_argumentation(13), "relevant"),
    ("adversarial_scc", lambda: families.adversarial_scc(8), "relevant"),
    ("win_move_line-full", lambda: families.win_move_line(7), "full"),
    ("win_move_cycle-full", lambda: families.win_move_cycle(8), "full"),
]


def test_long_mixed_trace_matches_fresh_engine_at_every_step():
    """The acceptance trace: 60 mixed steps, every step differential."""
    program, database = families.win_move_line(7)
    _run_trace(program, database, mode="relevant", steps=60, seed=7)


@pytest.mark.parametrize(
    "name,case,mode", TRACE_CASES, ids=[name for name, _, _ in TRACE_CASES]
)
def test_mixed_trace_matches_fresh_engine(name, case, mode):
    program, database = case()
    _run_trace(program, database, mode=mode, steps=15, seed=11, enum_every=5)


@pytest.mark.parametrize(
    "name,case,mode", TRACE_CASES, ids=[name for name, _, _ in TRACE_CASES]
)
def test_retract_then_reinsert_round_trips(name, case, mode):
    """Retracting facts and reinserting them restores the exact model."""
    program, database = case()
    engine = Engine(program, database.copy(), grounding=mode)
    pristine = Engine(program, database.copy(), grounding=mode)
    before = {
        str(policy): _solve_sig(engine.ground_for(mode), policy)[:3]
        for policy in POLICIES
    }
    facts = sorted(database.atoms(), key=str)[:5]
    assert facts, "round-trip needs EDB facts"
    retracted = engine.retract_facts(*facts)
    assert {str(a) for a in retracted} == {str(a) for a in facts}
    _assert_step_equivalent(engine, mode, f"{name} after retract")
    inserted = engine.insert_facts(*facts)
    assert {str(a) for a in inserted} == {str(a) for a in facts}
    after = {
        str(policy): _solve_sig(engine.ground_for(mode), policy)[:3]
        for policy in POLICIES
    }
    assert before == after, f"{name}: round-trip did not restore the model"
    # The round-tripped engine still matches a never-touched engine.
    pristine_true = frozenset(str(a) for a in pristine.solve("tie_breaking").true_atoms)
    live_true = frozenset(str(a) for a in engine.solve("tie_breaking").true_atoms)
    assert live_true == pristine_true
    # Re-inserting an already-present fact is a no-op, not an error.
    assert engine.insert_facts(*facts) == []


@pytest.mark.parametrize(
    "name,case,mode",
    TRACE_CASES[:3],
    ids=[name for name, _, _ in TRACE_CASES[:3]],
)
def test_updates_interleaved_with_enumeration(name, case, mode):
    """Enumeration stays differential while updates stream in between."""
    program, database = case()
    rng = random.Random(23)
    engine = Engine(program, database.copy(), grounding=mode)
    candidates = _candidate_facts(program, database, rng)
    present = {c for c in candidates if database.contains_atom(Atom(c[0], c[1]))}
    for step in range(8):
        fact = rng.choice(candidates)
        atom = Atom(fact[0], fact[1])
        if fact in present:
            present.discard(fact)
            engine.retract_facts(atom)
        else:
            present.add(fact)
            engine.insert_facts(atom)
        fresh = _fresh_oracle(engine, mode)
        assert _enum_model_set(engine.ground_for(mode)) == _enum_model_set(
            fresh.ground_for(mode)
        ), f"{name} step {step}: enumerated model sets differ"


# Random-program distributions (matching the kernel property suite); the
# first `edb_predicates` 0-ary predicates are the streamable facts.
RANDOM_DISTRIBUTIONS = [
    dict(n_predicates=8, n_rules=14, max_body=3, negation_probability=0.45, edb_predicates=2),
    dict(n_predicates=7, n_rules=12, negation_probability=0.35, edb_predicates=2),
    dict(n_predicates=6, n_rules=10, negation_probability=0.6, edb_predicates=1),
]


@settings(max_examples=25, deadline=None)
@given(
    dist=st.integers(min_value=0, max_value=len(RANDOM_DISTRIBUTIONS) - 1),
    program_seed=st.integers(min_value=0, max_value=10_000),
    trace_seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from(["full", "relevant"]),
    steps=st.integers(min_value=3, max_value=8),
)
def test_random_program_traces_match_fresh_engine(
    dist, program_seed, trace_seed, mode, steps
):
    """Hypothesis traces over the library's random-program distributions."""
    spec = RANDOM_DISTRIBUTIONS[dist]
    program = random_propositional_program(seed=program_seed, **spec)
    edb = sorted(program.edb_predicates)[: spec["edb_predicates"]]
    candidates = [Atom(p) for p in sorted(edb)]
    if not candidates:
        return
    rng = random.Random(trace_seed)
    from repro.datalog.database import Database

    engine = Engine(program, Database(), grounding=mode)
    present: set[str] = set()
    for step in range(steps):
        atom = rng.choice(candidates)
        if str(atom) in present:
            present.discard(str(atom))
            engine.retract_facts(atom)
        else:
            present.add(str(atom))
            engine.insert_facts(atom)
        _assert_step_equivalent(engine, mode, f"dist{dist} step {step}")


@settings(max_examples=15, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(TRACE_CASES) - 1),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=3, max_value=8),
)
def test_hypothesis_family_traces_match_fresh_engine(case, seed, steps):
    """Hypothesis-chosen traces over the named workload families."""
    name, build, mode = TRACE_CASES[case]
    program, database = build()
    _run_trace(program, database, mode=mode, steps=steps, seed=seed, enum_every=4)


def _streamed_gp():
    """A live grounding whose CSR actually grew past its initial arrays.

    Three guaranteed-incremental updates: a novel fact over existing
    constants (appends atoms and instances), then a ghost/revive pair.
    """
    program, database = families.win_move_cycle(8)
    engine = Engine(program, database.copy(), grounding="relevant")
    engine.ground_for("relevant")  # materialize before streaming
    c = sorted(program.constants | database.constants(), key=str)
    novel = Atom("move", (c[0], c[2]))
    safe = Atom("move", (c[1], c[2]))
    assert engine.insert_facts(novel) == [novel]
    assert engine.retract_facts(safe) == [safe]
    assert engine.insert_facts(safe) == [safe]
    assert engine.delta_applied == 3 and engine.delta_rebuilds == 0
    return engine.ground_for("relevant")


def test_full_recompute_queries_tolerate_grown_csr():
    """The escape-hatch queries pin the incremental paths on a streamed
    index, along a whole solve trajectory (cascade steps and ties)."""
    from repro.ground.model import FALSE, TRUE

    gp = _streamed_gp()
    assert gp.index.atom_order is not None  # the overlay is in play
    state = GroundGraphState(gp)
    state.close()
    for _ in range(200):
        assert state.unfounded_atoms() == state.unfounded_atoms(full_recompute=True)
        live = {
            (frozenset(comp.atom_ids), comp.is_tie)
            for comp in state.bottom_components_live()
        }
        full = {
            (frozenset(comp.atom_ids), comp.is_tie)
            for comp in state.bottom_components_live(full_recompute=True)
        }
        assert live == full
        unfounded = state.unfounded_atoms()
        if unfounded:
            state.assign_many(unfounded, FALSE, ("unfounded", 1))
            state.close()
            continue
        ties = state.select_ties()
        if not ties:
            return
        for tie in ties:
            sides = tie.side_of_atom()
            state.assign_many([a for a, s in sides.items() if s == 0], TRUE, ("tie", 0))
            state.assign_many([a for a, s in sides.items() if s == 1], FALSE, ("tie", 1))
        state.close()
    pytest.fail("solve trajectory did not converge")
