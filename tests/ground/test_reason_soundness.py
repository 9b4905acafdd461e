"""Every recorded reason is a valid derivation in the final model.

:func:`assert_reasons_sound` walks every atom of a finished kernel state
and checks that the reason ``explain`` would print for it fits the final
model under the ground program's *current* index:

* a ``fired`` instance is alive in the index, has that head, and has true
  positive and false negative premises;
* for ``no-support``, every instance the index keeps alive for the atom
  has a failed literal;
* ``delta`` and ``edb-absent`` match M₀;
* ``unfounded`` atoms are false, and undefined atoms carry no reason.

It runs on fresh states here and, from the differential traces of
``tests/properties/test_wf_patch.py``, on states a live engine reopened
after updates, whose reasons outside the reset cone were carried over.
"""

from __future__ import annotations

import pytest

from repro.api.engine import Engine
from repro.datalog.parser import parse_database, parse_program
from repro.ground.explain import explain
from repro.ground.model import FALSE, TRUE, UNDEF
from repro.ground.state import _R_NO_SUPPORT, FinishedState, GroundGraphState
from repro.workloads import families

from tests.properties.test_delta_index import FAMILIES as SEVEN_FAMILIES

# The seven families never run an unfounded round (their well-founded
# solves report 0 iterations), so they leave the reopened state's
# unfounded-set repair untested.  Here e(k) decides whether a(k) and b(k)
# are founded: with e(k), b(k)'s grounded instance dies (f(k) holds) and
# the a(k)/b(k) loop is unfounded; without it, b(k) holds and a(k) fails.
LOOPS = (
    "a(X) :- b(X), e(X). b(X) :- a(X). b(X) :- d(X), not f(X). f(X) :- e(X). "
    "c(X) :- e(X), not a(X). g(X) :- c(X), a(X)."
)
LOOPS_DB = "d(1). d(2). d(3). d(4). e(1). e(3)."

FAMILIES = SEVEN_FAMILIES + [
    ("positive_loops", lambda: (parse_program(LOOPS), parse_database(LOOPS_DB))),
]


def _failed(status, idx, r: int) -> bool:
    """Whether instance ``r`` has a literal the final model falsifies."""
    pos = idx.pos_atoms[idx.pos_off[r] : idx.pos_off[r + 1]]
    neg = idx.neg_atoms[idx.neg_off[r] : idx.neg_off[r + 1]]
    return any(status[b] == FALSE for b in pos) or any(status[b] == TRUE for b in neg)


def assert_reasons_sound(state: FinishedState, label: str = "", *, index=None) -> None:
    """Check every atom's reason against the final model (module docstring),
    under ``index``: by default the ground program's current one; a
    solution held across later updates passes the index it was solved on."""
    idx = state.gp.index if index is None else index
    assert (state.n_atoms, state.n_rules) == (idx.n_atoms, idx.n_rules), (
        f"{label}: state is not over the current index"
    )
    index_alive = idx.initial_rule_alive
    status = state.status
    for a in range(state.n_atoms):
        value = status[a]
        reason = state.reason_of(a)
        where = f"{label} {state.gp.atoms.atom(a)} ({reason})"
        if value == UNDEF:
            assert reason is None, f"{where}: undefined atom has a reason"
            continue
        assert reason is not None, f"{where}: valued atom has no reason"
        kind = reason[0]
        if kind == "fired":
            r = reason[1]
            assert index_alive is None or index_alive[r], f"{where}: instance disabled"
            assert idx.head_of_t[r] == a, f"{where}: instance has another head"
            assert value == TRUE, f"{where}: fired head is not true"
            pos = idx.pos_atoms[idx.pos_off[r] : idx.pos_off[r + 1]]
            neg = idx.neg_atoms[idx.neg_off[r] : idx.neg_off[r + 1]]
            assert all(status[b] == TRUE for b in pos), f"{where}: positive premise not true"
            assert all(status[b] == FALSE for b in neg), f"{where}: negative premise not false"
        elif kind == "no-support":
            assert value == FALSE, f"{where}: unsupported atom is not false"
            for r in idx.rules_by_head_t[a]:
                if index_alive is None or index_alive[r]:
                    assert _failed(status, idx, r), f"{where}: instance {r} has no failed literal"
        elif kind == "delta":
            assert value == TRUE == idx.initial_status[a], f"{where}: not a Δ fact"
        elif kind == "edb-absent":
            assert value == FALSE == idx.initial_status[a], f"{where}: not an absent EDB atom"
        else:
            assert kind == "assigned", f"{where}: unknown reason kind"
            if reason[1][0] == "unfounded":
                assert value == FALSE, f"{where}: unfounded atom is not false"
            else:
                assert reason[1][0] == "tie", f"{where}: unknown assignment label"


@pytest.mark.parametrize("name,build", FAMILIES, ids=[name for name, _ in FAMILIES])
@pytest.mark.parametrize(
    "semantics,grounding",
    [
        ("well_founded", "relevant"),
        ("well_founded", "full"),
        ("tie_breaking", "relevant"),
        ("pure_tie_breaking", "full"),
    ],
)
def test_fresh_states_have_sound_reasons(name, build, semantics, grounding):
    program, database = build()
    solution = Engine(program, database).solve(semantics, grounding=grounding)
    assert_reasons_sound(solution.state, f"{name} {semantics}/{grounding}")


@pytest.mark.parametrize("name,build", FAMILIES, ids=[name for name, _ in FAMILIES])
@pytest.mark.parametrize("mode", ["relevant", "full"])
def test_reopened_states_have_sound_reasons(name, build, mode):
    """Retract each of the first facts, then put it back, solving after
    every update: each solve after an in-place update reopens the last
    one's state; one after a rebuild starts fresh."""
    program, database = build()
    engine = Engine(program, database.copy(), grounding=mode)
    engine.solve("well_founded")
    expected = 0
    for fact in sorted(database.atoms(), key=str)[:4]:
        for update in (engine.retract_facts, engine.insert_facts):
            rebuilds = engine.delta_rebuilds
            update(fact)
            expected += engine.delta_rebuilds == rebuilds
            solution = engine.solve("well_founded")
            label = f"{name}/{mode} after {update.__name__}({fact})"
            assert_reasons_sound(solution.state, label)
            # explain() renders from the same reasons: its root agrees
            # with the model for every atom of the ground program.
            table = solution.state.gp.atoms
            for a in range(0, solution.state.n_atoms, 3):
                atom = table.atom(a)
                assert explain(solution.state, atom).value == solution.value(atom), label
    assert engine.stats()["wf_patches"] == expected
    if name != "committee":
        # committee's only facts are member(k): retracting one drops k
        # from the universe, so every update there is a rebuild.
        assert expected > 0


def _first_with(state: GroundGraphState, kind: str) -> int:
    return next(a for a in range(state.n_atoms) if (state.reason_of(a) or ("",))[0] == kind)


def test_checker_rejects_a_wrong_fired_instance():
    program, database = families.win_move_line(7)
    engine = Engine(program, database)
    engine.solve("well_founded")
    state = engine._wf_bases["relevant"][0].clone()
    a = _first_with(state, "fired")
    other = next(r for r in range(state.n_rules) if state.gp.index.head_of_t[r] != a)
    state._reason_arg[a] = other
    with pytest.raises(AssertionError, match="another head"):
        assert_reasons_sound(state)


def test_checker_rejects_a_supported_no_support_atom():
    program, database = families.win_move_line(7)
    engine = Engine(program, database)
    engine.solve("well_founded")
    state = engine._wf_bases["relevant"][0].clone()
    a = _first_with(state, "fired")
    state.status[a] = FALSE
    state._reason_kind[a] = _R_NO_SUPPORT
    with pytest.raises(AssertionError, match="no failed literal"):
        assert_reasons_sound(state)
