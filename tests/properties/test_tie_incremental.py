"""Differential properties of the Lemma-1 (K, L) analysis.

Three layers, all against a ground truth:

* **structure level** — :func:`repro.graphs.ties.analyze_component` on a
  random signed component with a *planted* partition recovers the
  planted sides (up to a global flip), and a component with one flipped
  arc sign is a non-tie with a valid odd-cycle witness.
* **kernel level** — a full well-founded tie-breaking drive on each workload
  family where, before every tie round, the incremental path (cached
  condensation and its side bits) is compared against a
  ``full_recompute=True`` clone.
* **clone level** — clones taken before every round of a run keep the
  exact pre-round fingerprint (including the served tie partitions)
  while the run moves on, and replaying one lands on the original final
  model.
"""

from __future__ import annotations

from typing import Mapping

import pytest
from hypothesis import HealthCheck, given, settings

from repro.workloads import families
from repro.datalog.grounding import ground
from repro.errors import ReproError
from repro.graphs.ties import analyze_component
from repro.ground.model import FALSE, TRUE
from repro.ground.state import GroundGraphState
from repro.semantics.choices import FirstSideTrue, forced_orientation

from tests.properties.strategies import signed_tie_components

MAX_ROUNDS = 4000

FAMILY_CASES = [
    ("win_move_cycle", lambda n: families.win_move_cycle(n), 12, "relevant"),
    ("tie_chain", families.tie_chain, 14, "relevant"),
    ("committee", families.committee, 9, "relevant"),
    ("grounded_argumentation", families.grounded_argumentation, 17, "relevant"),
    ("adversarial_scc", families.adversarial_scc, 10, "relevant"),
]


# -- structure level ------------------------------------------------------


def _successors_from(arcs):
    """A ``successors`` callable over a signed arc list."""
    out: dict[int, list[tuple[int, bool]]] = {}
    for u, v, positive in arcs:
        out.setdefault(u, []).append((v, positive))
    return lambda node: out.get(node, ())


def _normalized(side: dict[int, int], nodes) -> dict[int, int]:
    """Side labels flipped so the smallest node gets side 0."""
    flip = side[min(nodes)]
    return {n: side[n] ^ flip for n in nodes}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=signed_tie_components())
def test_analyze_matches_planted_partition(case):
    """On an unflipped component the analysis recovers the planted sides
    (up to a global flip); flipping one arc makes it a non-tie whose
    witness is a simple cycle of the component's arcs with an odd number
    of negative arcs (every arc lies on a cycle)."""
    nodes, arcs, planted, n_flipped = case
    analysis = analyze_component(nodes, _successors_from(arcs))
    if analysis.is_tie:
        assert analysis.odd_cycle is None
        assert set(analysis.sides) == set(nodes)
        for u, v, positive in arcs:
            assert (analysis.sides[u] == analysis.sides[v]) == positive
    else:
        assert analysis.sides is None
        cycle = analysis.odd_cycle
        assert cycle and set(cycle) <= set(arcs)
        sources = [u for u, _, _ in cycle]
        assert len(set(sources)) == len(sources), "witness cycle is not simple"
        assert [v for _, v, _ in cycle] == sources[1:] + sources[:1]
        assert sum(1 for _, _, positive in cycle if not positive) % 2 == 1
    if n_flipped == 0:
        assert analysis.is_tie
        assert _normalized(analysis.sides, nodes) == _normalized(planted, nodes)
    elif n_flipped == 1:
        # One flipped arc lies on some cycle (strong connectivity), and
        # that cycle's negative parity became odd.  Two or more flips can
        # cancel along a shared cycle, so only the single-flip case has a
        # guaranteed verdict.
        assert not analysis.is_tie


# -- kernel level ---------------------------------------------------------


def _normalized_sides(sides: Mapping[int, int]) -> dict[int, int]:
    """Sides flipped so the smallest node sits on side 0.

    The K/L naming is root-dependent (a global flip yields the same
    partition), so differential comparisons go through this canonical
    relabelling.
    """
    flip = sides[min(sides)]
    return {node: side ^ flip for node, side in sides.items()}


def _verify_tie_sides(name: str, gp) -> int:
    """Lockstep differential of the kernel's (K, L) side bits.

    Drives one untimed well-founded tie-breaking run; before every tie
    round, each bottom component served by the incremental path (cached
    condensation and its side bits) is compared against a
    ``full_recompute=True`` pass on a clone — the fresh-Tarjan,
    fresh-``analyze_component`` oracle.  Components are matched by node
    set and sides are compared through the canonical relabelling.
    Returns the number of (component, round) pairs verified; raises
    :class:`ReproError` on any divergence.
    """
    policy = FirstSideTrue()
    state = GroundGraphState(gp)
    state.close()
    checked = 0
    while True:
        state.falsify_unfounded(numbered=False)
        incremental = {
            frozenset(c.atom_ids): c for c in state.bottom_components_live()
        }
        oracle = state.clone().bottom_components_live(full_recompute=True)
        if len(oracle) != len(incremental):
            raise ReproError(
                f"bench family {name!r}: incremental tie sides report "
                f"{len(incremental)} bottom components, oracle {len(oracle)}"
            )
        for ref in oracle:
            inc = incremental.get(frozenset(ref.atom_ids))
            if inc is None or inc.is_tie != ref.is_tie:
                raise ReproError(
                    f"bench family {name!r}: incremental tie sides diverge "
                    f"from the full_recompute oracle (component membership)"
                )
            if ref.is_tie:
                assert inc.analysis.sides is not None
                assert ref.analysis.sides is not None
                if _normalized_sides(inc.analysis.sides) != _normalized_sides(
                    ref.analysis.sides
                ):
                    raise ReproError(
                        f"bench family {name!r}: incremental (K, L) sides "
                        f"diverge from the full_recompute oracle"
                    )
            checked += 1
        ties = state.select_ties()
        if not ties:
            return checked
        for tie in ties:
            sides = tie.side_of_atom()
            side_atoms: tuple[list[int], list[int]] = ([], [])
            for atom_id, side in sides.items():
                side_atoms[side].append(atom_id)
            true_side = forced_orientation(len(side_atoms[0]), len(side_atoms[1]))
            if true_side is None:
                true_side = policy.choose_true_side(side_atoms[0], side_atoms[1])
            state.assign_many(sorted(side_atoms[true_side]), TRUE, ("tie", true_side))
            state.assign_many(sorted(side_atoms[1 - true_side]), FALSE, ("tie", 1 - true_side))
        state.close()


@pytest.mark.parametrize(
    "name,generator,n,mode", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES]
)
def test_kernel_lockstep_vs_full_recompute(name, generator, n, mode):
    """Per-round incremental sides ≡ the full_recompute oracle."""
    program, db = generator(n)
    gp = ground(program, db, mode=mode)
    checked = _verify_tie_sides(f"{name}({n})", gp)
    assert checked > 0


# -- clone level ----------------------------------------------------------


def _fingerprint(state) -> tuple:
    """Observable state: assignments, live set, and the served tie views."""
    ties = []
    for component in state.bottom_components_live():
        entry = (tuple(component.atom_ids), component.is_tie)
        if component.is_tie:
            sides = component.side_of_atom()
            flip = sides[min(sides)] if sides else 0
            entry += (tuple(sorted((a, s ^ flip) for a, s in sides.items())),)
        ties.append(entry)
    return (
        tuple(state.status),
        frozenset(state.live_atom_ids()),
        tuple(sorted(ties)),
    )


def _drive_round(state) -> bool:
    """One batched wf-tb round; returns False when the run is complete."""
    state.falsify_unfounded(numbered=False)
    ties = state.select_ties()
    if not ties:
        return False
    for tie in ties:
        sides = tie.side_of_atom()
        side_atoms: tuple[list[int], list[int]] = ([], [])
        for atom_id, side in sides.items():
            side_atoms[side].append(atom_id)
        if not side_atoms[0]:
            true_side = 0
        elif not side_atoms[1]:
            true_side = 1
        else:
            true_side = 0 if min(side_atoms[0]) <= min(side_atoms[1]) else 1
        state.assign_many(sorted(side_atoms[true_side]), TRUE, ("tie", true_side))
        state.assign_many(sorted(side_atoms[1 - true_side]), FALSE, ("tie", 1 - true_side))
    state.close()
    return True


@pytest.mark.parametrize(
    "name,generator,n,mode", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES]
)
def test_round_clones_replay_preserves_tie_state(name, generator, n, mode):
    """Clone before every round, finish the run, then replay the clones.

    Each clone shares its parent's condensation and side bits until one
    of them writes, so the original run moving on must leave every clone
    with the exact fingerprint it had when taken — including the tie
    partitions it serves — and driving a clone must land on the original
    final model.
    """
    program, db = generator(n)
    gp = ground(program, db, mode=mode)
    state = GroundGraphState(gp)
    state.close()

    clones = []
    fingerprints = []
    for _ in range(MAX_ROUNDS):
        fingerprints.append(_fingerprint(state))
        clones.append(state.clone())
        if not _drive_round(state):
            break
    else:
        pytest.fail("drive did not converge")
    final = (tuple(state.status), frozenset(state.live_atom_ids()))
    assert len(clones) >= 2, "family too small to exercise a replay prefix"

    for target in sorted({0, len(clones) // 2, len(clones) - 1}):
        branch = clones[target]
        assert _fingerprint(branch) == fingerprints[target], (
            f"{name}: clone of round {target} diverges after the run moved on"
        )
        for _ in range(MAX_ROUNDS):
            if not _drive_round(branch):
                break
        else:
            pytest.fail("replay did not converge")
        assert (tuple(branch.status), frozenset(branch.live_atom_ids())) == final, (
            f"{name}: replay from round {target} missed the original model"
        )
