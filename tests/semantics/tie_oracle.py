"""Schedule-free tie-breaking oracles, kept for the differential suites.

The library has one tie schedule: the kernel's min-keyed heap, drained a
round at a time by :meth:`~repro.ground.state.GroundGraphState.select_ties`
in :func:`~repro.semantics.tie_breaking._run` and in the trail enumerator.
These are the independent paths the tests check it against:

* :func:`_select_tie` scans every bottom component for the tie with the
  smallest atom in canonical order — no heap, no lazy discard;
* :func:`_scan_ties` is the same scan returning every bottom tie, in the
  order ``select_ties`` must serve them;
* :func:`_enumerate_reference` is the clone-based explorer the trail
  enumerator replaced: one tie per step picked by :func:`_select_tie`,
  the unfounded step through ``unfounded_atoms`` after every tie, and a
  full state copy per branch.
"""

from __future__ import annotations

from typing import Iterator

from repro.datalog.grounding import GroundProgram
from repro.ground.model import FALSE, Interpretation
from repro.ground.state import BottomComponent, GroundGraphState
from repro.semantics.choices import forced_orientation
from repro.semantics.tie_breaking import TieChoice, _apply_tie


def _select_tie(state: GroundGraphState) -> BottomComponent | None:
    """Reference tie selection: scan all bottom components for the min.

    The first tie :meth:`GroundGraphState.select_ties` serves (the
    property suite pins the two against each other); kept as the
    schedule-free oracle and for the clone-based reference explorer.
    Bottom components are disjoint and breaking one cannot affect another
    bottom component (it has no incoming edges), so the processing
    *order* does not change the set of reachable outcomes — only the
    orientation choices do.
    """
    best: BottomComponent | None = None
    best_key: int | None = None
    order = state.order_key
    for component in state.bottom_components_live():
        if not component.is_tie:
            continue
        key = min(order(a) for a in component.atom_ids)
        if best_key is None or key < best_key:
            best, best_key = component, key
    return best


def _scan_ties(state: GroundGraphState) -> list[BottomComponent]:
    """Every bottom tie, by its smallest atom in canonical order.

    What :meth:`GroundGraphState.select_ties` must return, found by a scan
    of ``bottom_components_live()``; leaves the schedule untouched.
    """
    order = state.order_key
    ties = [c for c in state.bottom_components_live() if c.is_tie]
    return sorted(ties, key=lambda c: min(order(a) for a in c.atom_ids))


def _enumerate_reference(
    gp: GroundProgram,
    *,
    well_founded: bool,
    limit: int | None = None,
) -> Iterator[tuple[Interpretation, tuple[TieChoice, ...]]]:
    """Clone-based reference explorer (the pre-trail algorithm).

    Branches by copying the whole evaluation state and uses the
    schedule-free queries (``unfounded_atoms`` + ``bottom_components_live``
    scan), so it shares none of the trail/undo or tie-schedule machinery —
    the differential oracle the property suite drives against the
    trail-based explorer.
    """
    emitted = 0
    start = GroundGraphState(gp)
    start.close()
    # Closed states ready to drive, deepest last (depth-first, side 0
    # first; the trail explorer emits the same runs, its trails in round
    # order).
    pending: list[tuple[GroundGraphState, list[TieChoice]]] = [(start, [])]
    while pending:
        state, trail = pending.pop()
        while True:
            if limit is not None and emitted >= limit:
                return
            if well_founded:
                unfounded = state.unfounded_atoms()
                if unfounded:
                    state.assign_many(unfounded, FALSE, ("unfounded", None))
                    state.close()
                    continue
            tie = _select_tie(state)
            if tie is None:
                emitted += 1
                yield state.interpretation(), tuple(trail)
                break
            assert tie.analysis.sides is not None
            count0, count1 = tie.side_counts()
            forced = forced_orientation(count0, count1)
            if forced is not None:
                trail.append(_apply_tie(state, tie, forced, forced=True))
                state.close()
                continue
            # Side 1 continues later on an independent copy; side 0
            # consumes this state now.
            other = state.clone()
            other_trail = list(trail)
            other_trail.append(_apply_tie(other, tie, 1, forced=False))
            other.close()
            pending.append((other, other_trail))
            trail.append(_apply_tie(state, tie, 0, forced=False))
            state.close()
