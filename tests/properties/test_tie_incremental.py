"""Differential properties of the incremental Lemma-1 (K, L) machinery.

Three layers, all lockstep against a fresh-analysis oracle:

* **structure level** — a :class:`repro.graphs.ties.TieSides` absorbing a
  random deletion trace must, after *every* step, agree with a fresh
  :meth:`TieSides.analyze` of the surviving graph: same tie verdict, and
  on ties the same partition through side relabelling.  When a deletion
  splits the component the mutator reports it (``False``) and the caller
  falls back to fresh analyses per piece — exactly the kernel's
  ``_refine_scc`` contract.
* **kernel level** — a full well-founded tie-breaking drive on each bench
  family where, before every tie round, the incremental path (cached
  condensation + sides cache) is compared against a
  ``full_recompute=True`` clone.
* **trail level** — undoing a prefix of a trailed run must restore the
  exact pre-round fingerprint (including the served tie partitions), and
  redoing from there must land on the original final model.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.workloads import families
from repro.bench.runner import _verify_tie_sides
from repro.datalog.grounding import ground
from repro.graphs.ties import TieSides
from repro.ground.model import FALSE, TRUE
from repro.ground.state import GroundGraphState

from tests.properties.strategies import signed_tie_components, tie_deletion_traces

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


def _weak_pieces(nodes, arcs) -> list[set[int]]:
    """Weakly connected components of the surviving graph."""
    neighbours: dict[int, set[int]] = {n: set() for n in nodes}
    for u, v, _positive in arcs:
        neighbours[u].add(v)
        neighbours[v].add(u)
    pieces = []
    seen: set[int] = set()
    for start in nodes:
        if start in seen:
            continue
        piece = {start}
        queue = [start]
        while queue:
            u = queue.pop()
            for v in neighbours[u]:
                if v not in piece:
                    piece.add(v)
                    queue.append(v)
        seen |= piece
        pieces.append(piece)
    return pieces


def _check_self_consistent(sides: TieSides, live_arcs) -> None:
    """Structural invariants: labels cover the members, and the violation
    set is exactly the set of live arcs inconsistent under the labels."""
    assert set(sides.side) == sides.members
    expected_violations = set()
    for arc in live_arcs:
        u, v, positive = arc
        consistent = (
            sides.side[u] == sides.side[v]
            if positive
            else sides.side[u] != sides.side[v]
        )
        if not consistent:
            expected_violations.add(arc)
    assert sides.violations == expected_violations


def _check_matches_fresh(sides: TieSides, live_nodes, live_arcs) -> None:
    """The incremental structure ≡ a fresh analysis of the live graph."""
    component = sorted(live_nodes)
    fresh = TieSides.analyze(component, _successors_from(live_arcs))
    assert sides.is_tie == fresh.is_tie
    if sides.is_tie:
        assert _normalized(sides.side, live_nodes) == _normalized(
            fresh.side, live_nodes
        )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=signed_tie_components())
def test_analyze_matches_planted_partition(case):
    """On an unflipped component the analysis recovers the planted sides;
    flipping any arc makes it a non-tie (every arc lies on a cycle)."""
    nodes, arcs, planted, n_flipped = case
    sides = TieSides.analyze(sorted(nodes), _successors_from(arcs))
    _check_self_consistent(sides, arcs)
    if n_flipped == 0:
        assert sides.is_tie
        assert _normalized(sides.side, nodes) == _normalized(planted, nodes)
    elif n_flipped == 1:
        # One flipped arc lies on some cycle (strong connectivity), and
        # that cycle's negative parity became odd.  Two or more flips can
        # cancel along a shared cycle, so only the single-flip case has a
        # guaranteed verdict.
        assert not sides.is_tie


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=tie_deletion_traces())
def test_deletion_trace_matches_fresh_analysis(case):
    """After every deletion step: incremental ≡ fresh, split ⟺ reported."""
    nodes, arcs, steps = case
    live_nodes = set(nodes)
    live_arcs = list(arcs)
    sides = TieSides.analyze(sorted(nodes), _successors_from(arcs))
    for kind, payload in steps:
        if kind == "edges":
            payload = [a for a in payload if a in live_arcs]
            if not payload:
                continue
            gone = set(payload)
            live_arcs = [a for a in live_arcs if a not in gone]
            intact = sides.delete_edges(payload)
        else:
            payload = [n for n in payload if n in live_nodes]
            if not payload:
                continue
            dead = set(payload)
            live_nodes -= dead
            live_arcs = [
                a for a in live_arcs if a[0] not in dead and a[1] not in dead
            ]
            intact = sides.delete_nodes(payload)
        if not live_nodes:
            # Everything died: the structure is empty, not split.
            assert intact
            assert not sides.members and not sides.side and not sides.violations
            return
        pieces = _weak_pieces(sorted(live_nodes), live_arcs)
        assert intact == (len(pieces) == 1)
        if not intact:
            # Split: the incremental structure is stale by contract; the
            # caller re-analyzes per piece (the kernel's refine fallback).
            for piece in pieces:
                piece_arcs = [
                    a for a in live_arcs if a[0] in piece and a[1] in piece
                ]
                fresh = TieSides.analyze(sorted(piece), _successors_from(piece_arcs))
                _check_self_consistent(fresh, piece_arcs)
            return
        _check_self_consistent(sides, live_arcs)
        _check_matches_fresh(sides, live_nodes, live_arcs)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=signed_tie_components(flipped=False))
def test_restricted_partition_stays_valid(case):
    """A clean partition restricted to any node subset stays clean — the
    monotonicity fact ``_refine_scc`` relies on when it derives a fresh
    piece's sides from its parent component."""
    nodes, arcs, _planted, _n_flipped = case
    sides = TieSides.analyze(sorted(nodes), _successors_from(arcs))
    assert sides.is_tie
    keep = {n for n in nodes if n % 2 == 0} or set(nodes)
    restricted = sides.restricted(keep)
    kept_arcs = [a for a in arcs if a[0] in keep and a[1] in keep]
    for u, v, positive in kept_arcs:
        if positive:
            assert restricted.side[u] == restricted.side[v]
        else:
            assert restricted.side[u] != restricted.side[v]
    with pytest.raises(ValueError):
        restricted.delete_edges(kept_arcs[:1])


# -- kernel level ---------------------------------------------------------


@pytest.mark.parametrize(
    "name,generator,n,mode", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES]
)
def test_kernel_lockstep_vs_full_recompute(name, generator, n, mode):
    """Per-round incremental sides ≡ the full_recompute oracle (the same
    differential the bench runs on every record)."""
    program, db = generator(n)
    gp = ground(program, db, mode=mode)
    checked = _verify_tie_sides(f"{name}({n})", gp)
    assert checked > 0


# -- trail level ----------------------------------------------------------


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
    """One wf-tb round; returns False when the run is complete."""
    state.falsify_unfounded(numbered=False)
    tie = state.select_tie()
    if tie is None:
        return False
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
def test_trail_undo_replay_preserves_tie_state(name, generator, n, mode):
    """Undo a prefix of a trailed run, redo it, compare fingerprints.

    The rewound state must reproduce the exact pre-round fingerprint —
    including the tie partitions served by the (trail-aware) sides cache
    — and the redo must land on the original final model.
    """
    program, db = generator(n)
    gp = ground(program, db, mode=mode)
    state = GroundGraphState(gp)
    state.trail_begin()
    state.close()

    marks = []
    fingerprints = []
    for _ in range(MAX_ROUNDS):
        marks.append(state.trail_mark())
        fingerprints.append(_fingerprint(state))
        if not _drive_round(state):
            break
    else:
        pytest.fail("drive did not converge")
    final = (tuple(state.status), frozenset(state.live_atom_ids()))
    assert len(marks) >= 2, "family too small to exercise an undo prefix"

    for target in {0, len(marks) // 2, len(marks) - 1}:
        state.trail_undo(marks[target])
        assert _fingerprint(state) == fingerprints[target], (
            f"{name}: fingerprint diverges after undo to round {target}"
        )
        for _ in range(MAX_ROUNDS):
            if not _drive_round(state):
                break
        else:
            pytest.fail("redo did not converge")
        assert (tuple(state.status), frozenset(state.live_atom_ids())) == final, (
            f"{name}: redo from round {target} missed the original model"
        )
