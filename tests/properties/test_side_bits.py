"""The kernel's Lemma-1 side bits against fresh analyses.

The condensation's signed Tarjan labels every node with its side bit and
checks every in-component edge, so each component's tie verdict and a
tie's two side lists come with the condensation (see
:meth:`repro.ground.state.GroundGraphState._rebuild_scc`).  Three checks
pin them to :func:`repro.graphs.ties.analyze_component`, run fresh on
the live graph:

* **runs** — on every tie family of ``test_tie_incremental.py`` and on
  guarded gadgets whose components split (non-ties into ties and into
  non-ties, ties into ties), in relevant and full grounding, every
  component of every round (the
  pieces refinements leave included) has the fresh verdict, and every
  bottom tie the fresh sides, canonically oriented (the component's
  first atom on side 0), rule nodes included;
* **enumeration** — the same holds at every round of the enumerator,
  on every clone it branches to: deep chains of clones share the side
  bits copy-on-write;
* **clones** — a clone's refinements leave its checkpoint's bits,
  verdicts and memoized components as they were, and a policy that
  changes the side lists it is handed changes no component.
"""

from __future__ import annotations

import pytest

from repro.api import Engine
from repro.datalog.database import Database
from repro.datalog.grounding import ground
from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.graphs.ties import analyze_component
from repro.ground.state import GroundGraphState
from repro.semantics.choices import RandomChoice
from repro.semantics.tie_breaking import _break_tie, _enumerate_tie_breaking_models
from repro.workloads import families

from tests.properties.test_tie_incremental import FAMILY_CASES

MODES = ("relevant", "full")
MAX_ROUNDS = 4000


def _gadgets(n: int, guard: str) -> Program:
    """A tie ``a``/``b`` guarding ``n`` copies of three components whose
    refinements the families above never reach: a non-tie ``c``/``d``
    whose odd loop runs through the guard (its piece is a tie), a tie
    ``e``..``h`` whose two halves are bridged through the guard (it
    splits into two ties, or goes bottom whole), and a non-tie ``p``/``q``
    with a second odd loop (its piece stays a non-tie)."""
    lines = ["a :- not b.", "b :- not a."]
    for i in range(n):
        lines += [
            f"c{i} :- not c{i}, {guard}.",
            f"c{i} :- not d{i}.",
            f"d{i} :- not c{i}.",
            f"e{i} :- not f{i}.",
            f"f{i} :- not e{i}.",
            f"g{i} :- not h{i}.",
            f"h{i} :- not g{i}.",
            f"g{i} :- not e{i}, {guard}.",
            f"e{i} :- not g{i}, {guard}.",
            f"p{i} :- not p{i}, {guard}.",
            f"q{i} :- not q{i}.",
            f"p{i} :- q{i}.",
            f"q{i} :- p{i}.",
        ]
    return parse_program("\n".join(lines))


def _cases():
    for name, generator, n, _ in FAMILY_CASES:
        program, db = generator(n)
        for mode in MODES:
            yield pytest.param(ground(program, db, mode=mode), id=f"{name}({n})-{mode}")
    for guard in ("a", "not a"):
        program = _gadgets(3, guard)
        for mode in MODES:
            gp = ground(program, Database(), mode=mode)
            yield pytest.param(gp, id=f"gadgets({guard.replace(' ', '-')})-{mode}")


CASES = list(_cases())


def _check_components(state: GroundGraphState) -> int:
    """Every current component's verdict, and every bottom tie's sides,
    equal a fresh analysis; returns the number of bottom ties checked."""
    n_atoms = state.n_atoms
    bottom = state.bottom_components_live()
    for cid, nodes in state._scc_comps.items():
        if len(nodes) > 1:
            fresh = analyze_component(nodes, state._live_successors)
            assert fresh.is_tie == (cid not in state._scc_odd), nodes
    checked = 0
    for component in bottom:
        nodes = component.atom_ids + [n_atoms + r for r in component.rule_ids]
        fresh = analyze_component(nodes, state._live_successors)
        assert component.is_tie == fresh.is_tie, nodes
        if not fresh.is_tie:
            continue
        flip = fresh.sides[component.atom_ids[0]]
        canonical = {node: side ^ flip for node, side in fresh.sides.items()}
        side0 = [a for a in component.atom_ids if canonical[a] == 0]
        side1 = [a for a in component.atom_ids if canonical[a] == 1]
        assert component.sides == (side0, side1)
        assert component.analysis.sides == canonical
        assert component.side_of_atom() == {a: canonical[a] for a in component.atom_ids}
        checked += 1
    return checked


@pytest.mark.parametrize("well_founded", [True, False], ids=["wf", "pure"])
@pytest.mark.parametrize("gp", CASES)
def test_every_round_matches_fresh_analysis(gp, well_founded):
    """A seeded tie-breaking run, checked before every round."""
    state = GroundGraphState(gp)
    policy = RandomChoice(7)
    state.close()
    checked = 0
    for _ in range(MAX_ROUNDS):
        if well_founded:
            state.falsify_unfounded(numbered=False)
        checked += _check_components(state)
        ties = state.select_ties()
        if not ties:
            break
        for tie in ties:
            _break_tie(state, tie, policy)
        state.close()
    else:
        pytest.fail("run did not converge")
    assert checked > 0


@pytest.mark.parametrize("gp", CASES)
def test_a_clone_enumeration_matches_fresh_analysis(gp, monkeypatch):
    """Every round of the enumerator, on every branch's clone."""
    state = GroundGraphState(gp)
    select = GroundGraphState.select_ties
    rounds = []

    def checked_select(self):
        ties = select(self)
        rounds.append(_check_components(self))
        return ties

    monkeypatch.setattr(GroundGraphState, "select_ties", checked_select)
    state.close()
    state.falsify_unfounded(numbered=False)
    models = list(_enumerate_tie_breaking_models(state, well_founded=True, limit=48))
    assert models and sum(rounds) > 0


def _checkpoint_view(state: GroundGraphState) -> tuple:
    objs = state._scc_bottom_obj
    return (
        bytes(state._scc_bits),
        frozenset(state._scc_odd),
        {
            cid: (id(obj), obj.is_tie, obj.is_tie and tuple(map(tuple, obj.sides)))
            for cid, obj in objs.items()
        },
        {cid: list(nodes) for cid, nodes in state._scc_comps.items()},
    )


@pytest.mark.parametrize("gp", CASES)
def test_a_clone_leaves_its_checkpoint_bits_and_components_alone(gp):
    """The engine's checkpoint shape: closed, unfounded step, first round
    analysed.  Clones share its bits, and a clone that refines copies
    them first."""
    checkpoint = GroundGraphState(gp)
    checkpoint.close()
    checkpoint.falsify_unfounded(numbered=False)
    checkpoint.bottom_components_live()
    bits = checkpoint._scc_bits
    before = _checkpoint_view(checkpoint)

    clone = checkpoint.clone()
    assert clone._scc_bits is bits
    policy = RandomChoice(3)
    for _ in range(MAX_ROUNDS):
        clone.falsify_unfounded(numbered=False)
        ties = clone.select_ties()
        if not ties:
            break
        for tie in ties:
            _break_tie(clone, tie, policy)
        clone.close()
    assert _checkpoint_view(checkpoint) == before
    assert checkpoint._scc_bits is bits

    # A second clone enumerates, cloning in turn; the checkpoint is
    # untouched.
    other = checkpoint.clone()
    list(_enumerate_tie_breaking_models(other, well_founded=True, limit=4))
    assert _checkpoint_view(checkpoint) == before


class _Scribbler:
    """Orients every free tie side 0 true, then empties the lists it was
    handed."""

    def choose_true_side(self, side0, side1):
        side0.clear()
        side1.clear()
        return 0


class _SideZero:
    def choose_true_side(self, side0, side1):
        return 0


@pytest.mark.parametrize(
    "name,generator,n", [("committee", families.committee, 6), ("tie_chain", families.tie_chain, 5)]
)
def test_a_policy_that_changes_its_sides_changes_no_component(name, generator, n):
    """A tie's side lists are memoized on the engine's checkpoint and
    shared by its clones; a policy gets lists of its own."""
    program, db = generator(n)
    engine = Engine(program, db)
    fresh = Engine(program, db).solve("tie_breaking", policy=_SideZero())
    for _ in range(3):  # a run, the table build, table-served or run again
        solution = engine.solve("tie_breaking", policy=_Scribbler())
        assert bytes(solution.model.status) == bytes(fresh.model.status)
        assert solution.choices == fresh.choices
