"""The patched delta-overlay index equals a full rebuild, field by field.

A streaming update patches the published :class:`GroundIndex` arrays for
the touched atoms and instances only (``GroundDeltaSession._publish``).
The oracle here is the O(atoms + instances) rebuild those patches
replace: it recomputes every field from the session's raw state — M₀
from Δ, the worklists by scanning every atom, the live-rule slots by
scanning every instance, the atom order by sorting the U\\* atoms.  After
every step of a hypothesis trace the published index must equal it, and
an index published earlier must still hold the values it was published
with.

The universe check is pinned the same way: the per-constant refcounts
must answer exactly what a rescan (``universe_of``) answers, including
inserts of a constant the universe lacks and retractions of a constant's
last occurrence.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import Engine
from repro.datalog.atoms import Atom
from repro.datalog.grounding import _initial_model, apply_facts_delta, ground, universe_of
from repro.datalog.parser import parse_atom, parse_database, parse_program
from repro.datalog.terms import Constant
from repro.workloads import families

FAMILIES = [
    ("win_move_line", lambda: families.win_move_line(7)),
    ("win_move_cycle", lambda: families.win_move_cycle(8)),
    ("committee", lambda: families.committee(5)),
    ("layered_games", lambda: families.layered_games(3, 3)),
    ("negation_tower", lambda: families.negation_tower(5)),
    ("grounded_argumentation", lambda: families.grounded_argumentation(13)),
    ("adversarial_scc", lambda: families.adversarial_scc(8)),
]

FIELDS = (
    "n_atoms",
    "n_rules",
    "initial_status",
    "edb_mask",
    "initial_valued",
    "zero_support_atoms",
    "iota_atoms",
    "iota_rules",
    "live_rules_init",
    "rule_slot_init",
    "atom_order",
    "canonical_ids",
    "support",
    "initial_rule_alive",
    "body_len",
    "pos_len",
    "head_of_t",
    "pos_occ_t",
    "neg_occ_t",
    "rules_by_head_t",
)


def _reference_fields(session) -> dict:
    """The published index as the full O(atoms + instances) rebuild computes it."""
    csr = session.csr
    n_atoms = len(session.pred_of)
    n_rules = len(csr.heads)
    edb_mask, initial_status = _initial_model(
        n_atoms, session.pred_of, session.ids_by_pred, session.sem.base, session.edb
    )
    alive = session.alive
    live = array("i")
    slot = array("i", [-1]) * n_rules
    for r in range(n_rules):
        if alive[r]:
            slot[r] = len(live)
            live.append(r)
    canonical = sorted((a for a in range(n_atoms) if session.in_ustar[a]), key=session._key)
    order = array("i", bytes(4 * n_atoms))
    for rank, a in enumerate(canonical):
        order[a] = rank
    for a in range(n_atoms):
        if not session.in_ustar[a]:
            order[a] = n_atoms + a
    support = session.support_live
    return {
        "n_atoms": n_atoms,
        "n_rules": n_rules,
        "initial_status": initial_status,
        "edb_mask": edb_mask,
        "initial_valued": array("i", (a for a in range(n_atoms) if initial_status[a])),
        "zero_support_atoms": array("i", (a for a in range(n_atoms) if support[a] == 0)),
        "iota_atoms": array("i", range(n_atoms)),
        "iota_rules": array("i", range(n_rules)),
        "live_rules_init": live,
        "rule_slot_init": slot,
        "atom_order": order,
        "canonical_ids": array("i", canonical),
        "support": array("i", support),
        "initial_rule_alive": bytes(alive),
        "body_len": array("i", session.body_len),
        "pos_len": array("i", session.pos_len),
        "head_of_t": tuple(csr.heads),
        "pos_occ_t": tuple(session.pos_occ_lists),
        "neg_occ_t": tuple(session.neg_occ_lists),
        "rules_by_head_t": tuple(session.head_lists),
    }


def _snapshot(idx) -> dict:
    """Immutable copies of every checked field of a published index."""
    return {
        name: bytes(value) if isinstance(value, (array, bytearray)) else value
        for name, value in ((name, getattr(idx, name)) for name in FIELDS)
    }


def _assert_matches_rebuild(gp, label: str) -> None:
    session = gp._delta_session
    idx = gp.index
    reference = _reference_fields(session)
    for name in FIELDS:
        assert getattr(idx, name) == reference[name], f"{label}: {name} differs from rebuild"
    # Independent of the session's own counters: support counts the live
    # instances per head, and an instance is live iff its positive body
    # lies in the maintained U*.
    store = session.sem.store
    in_ustar = bytes(
        store.contains(p, row) for p, row in zip(session.pred_of, session.row_of)
    )
    assert bytes(session.in_ustar) == in_ustar, f"{label}: U* membership drifted"
    for r in range(idx.n_rules):
        body = idx.pos_atoms[idx.pos_off[r] : idx.pos_off[r + 1]]
        assert idx.initial_rule_alive[r] == all(in_ustar[a] for a in body), (
            f"{label}: instance {r} alive flag disagrees with U*"
        )
    for a in range(idx.n_atoms):
        live_support = sum(idx.initial_rule_alive[r] for r in idx.rules_by_head_t[a])
        assert idx.support[a] == live_support, f"{label}: support of atom {a}"


def _candidates(program, database, rng: random.Random, fresh: int) -> list[Atom]:
    """Present facts, absent rows over known constants, and ``fresh`` rows
    that mention a constant outside the universe."""
    present = sorted(database.atoms(), key=str)
    constants = sorted(program.constants | database.constants(), key=str)
    arity = {a.predicate: len(a.args) for a in present}
    out = list(present)
    for _ in range(12):
        pred = rng.choice(sorted(arity))
        row = tuple(rng.choice(constants) for _ in range(arity[pred]))
        out.append(Atom(pred, row))
    for k in range(fresh):
        pred = rng.choice(sorted(arity))
        if arity[pred]:
            row = [rng.choice(constants) for _ in range(arity[pred])]
            row[rng.randrange(len(row))] = Constant(f"fresh{k}")
            out.append(Atom(pred, tuple(row)))
    return list(dict.fromkeys(out))


def _trace(database, candidates, rng: random.Random, steps: int):
    """Yield ``(inserted, retracted)`` toggles of 1–2 distinct candidates."""
    present = {a for a in candidates if database.contains_atom(a)}
    for _ in range(steps):
        inserted, retracted = [], []
        for atom in rng.sample(candidates, k=min(rng.randint(1, 2), len(candidates))):
            if atom in present:
                present.discard(atom)
                retracted.append(atom)
            else:
                present.add(atom)
                inserted.append(atom)
        yield inserted, retracted


@settings(max_examples=30, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(FAMILIES) - 1),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=2, max_value=10),
    hold=st.integers(min_value=1, max_value=4),
)
def test_patched_index_equals_full_rebuild(case, seed, steps, hold):
    """Every published field equals the rebuild; old indexes never change."""
    name, build = FAMILIES[case]
    program, database = build()
    rng = random.Random(seed)
    engine = Engine(program, database.copy(), grounding="relevant")
    engine.ground_for("relevant")
    candidates = _candidates(program, database, rng, fresh=1)
    captured: list[tuple[int, object, dict]] = []
    for step, (inserted, retracted) in enumerate(
        _trace(engine.database, candidates, rng, steps)
    ):
        engine.retract_facts(*retracted)
        engine.insert_facts(*inserted)
        gp = engine.ground_for("relevant")
        if getattr(gp, "_delta_session", None) is not None:
            _assert_matches_rebuild(gp, f"{name} step {step}")
        captured.append((step, gp.index, _snapshot(gp.index)))
        for then, idx, fields in captured:
            if step - then >= hold:
                assert _snapshot(idx) == fields, (
                    f"{name}: index published at step {then} changed by step {step}"
                )


def _database_counts(database) -> Counter:
    return Counter(c for pred in database.predicates() for row in database[pred] for c in row)


@settings(max_examples=30, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(FAMILIES) - 1),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=2, max_value=10),
    mode=st.sampled_from(["relevant", "full"]),
)
def test_refcount_universe_check_agrees_with_rescan(case, seed, steps, mode):
    """apply_facts_delta's verdict is exactly ``universe_of(...) == gp.universe``."""
    # Full grounding is |U|^k per rule: keep it to the two small games.
    name, build = FAMILIES[case % 2 if mode == "full" else case]
    program, database = build()
    database = database.copy()
    rng = random.Random(seed)
    candidates = _candidates(program, database, rng, fresh=2)
    gp = ground(program, database, mode=mode)
    for step, (inserted, retracted) in enumerate(_trace(database, candidates, rng, steps)):
        for atom in retracted:
            database.discard_atom(atom)
        for atom in inserted:
            database.add_atom(atom)
        kept = universe_of(gp.program, gp.database) == gp.universe
        refs = getattr(gp, "_constant_refs", None)
        before = None if refs is None else Counter(refs.counts)
        assert apply_facts_delta(gp, inserted, retracted) == kept, f"{name} step {step}"
        refs = getattr(gp, "_constant_refs", None)
        if kept:
            # The counts track the database exactly while the program lives.
            assert +refs.counts == _database_counts(database), f"{name} step {step}"
        else:
            # A rejected delta leaves the counts as they were.
            assert before is None or refs.counts == before, f"{name} step {step}"
            gp = ground(program, database, mode=mode)


def test_universe_check_sees_new_and_vanishing_constants():
    """A new constant and a constant's last occurrence both move the universe."""
    program, database = families.win_move_line(4)
    database = database.copy()
    gp = ground(program, database, mode="relevant")
    constants = sorted(database.constants(), key=str)
    first = Atom("move", (constants[0], constants[1]))
    assert database.contains_atom(first)
    # A first delta over known constants builds the counts.
    extra = Atom("move", (constants[1], constants[0]))
    database.add_atom(extra)
    assert apply_facts_delta(gp, [extra], [])
    counts = Counter(gp._constant_refs.counts)
    # Inserting a constant the universe lacks is out of the envelope, and
    # leaves the counts as they were.
    novel = Atom("move", (constants[0], Constant("novel")))
    database.add_atom(novel)
    assert not apply_facts_delta(gp, [novel], [])
    assert gp._constant_refs.counts == counts
    database.discard_atom(novel)
    # Retracting every occurrence of a constant the program does not
    # mention shrinks the universe.
    last = constants[-1]
    occurrences = [a for a in database.atoms() if last in a.args]
    assert occurrences
    for atom in occurrences:
        database.discard_atom(atom)
    assert universe_of(gp.program, gp.database) != gp.universe
    assert not apply_facts_delta(gp, [], occurrences)
    assert gp._constant_refs.counts == counts


@pytest.mark.parametrize("mode", ["relevant", "full"])
def test_universe_check_keeps_constants_the_program_mentions(mode):
    """A constant's last fact may go when the program still names it."""
    program = parse_program("win(X) :- move(X, Y), not win(Y). goal :- win(c).")
    database = parse_database("move(a, b). move(b, c). move(c, a).")
    gp = ground(program, database, mode=mode)
    steps = [([], ["move(b, c)"]), ([], ["move(c, a)"]), (["move(a, c)"], []), ([], ["move(a, c)"])]
    for inserted, retracted in steps:
        inserted = [parse_atom(a) for a in inserted]
        retracted = [parse_atom(a) for a in retracted]
        for atom in retracted:
            database.discard_atom(atom)
        for atom in inserted:
            database.add_atom(atom)
        assert universe_of(gp.program, gp.database) == gp.universe
        assert apply_facts_delta(gp, inserted, retracted)
    assert Constant("c") not in database.constants()
