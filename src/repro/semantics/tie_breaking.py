"""The tie-breaking semantics — §3 of the paper, the primary contribution.

Two interpreters, one loop (:func:`_run`) that differs only in the
unfounded step:

* **Pure tie-breaking** (Algorithm Pure Tie-Breaking,
  ``well_founded=False``): after ``close``, repeatedly find a bottom
  strongly connected component that is a tie, orient its Lemma-1
  partition (K true, L false), and close again.  It is defined on the
  paper's exact ground graph and may assign unfounded atoms *true*
  (e.g. ``p :- p, ¬q``/``q :- q, ¬p``), so the registry runs it on the
  full grounding — relevant pruning would change its outcomes.
* **Well-founded tie-breaking** (Algorithm Well-Founded Tie-Breaking,
  ``well_founded=True``): interleave the well-founded unfounded-set step
  with tie-breaking, trying the unfounded step first — ties are only
  broken when no nonempty unfounded set exists, which keeps the result
  consistent with the well-founded semantics, and (Lemma 3) makes every
  total result a *stable* model.  Relevant grounding is exact for it.

  The paper's pseudocode for this algorithm contains a typo ("for each
  atom a ∈ K set M(a) := true; for each atom a ∈ K set M(a) := false");
  the second K is L, exactly as in the pure version — we implement the
  corrected algorithm.

Both are polynomial-time, and both ride the v2 kernel hot path: the
unfounded step is the fused
:meth:`~repro.ground.state.GroundGraphState.falsify_unfounded` cascade and
tie selection is the kernel's min-keyed schedule — no per-round rescan
of the live graph.  :func:`_run` goes in batched rounds: each round
orients every current bottom tie
(:meth:`~repro.ground.state.GroundGraphState.select_ties`, in canonical
order) and then closes once.  Bottom ties are disjoint and have no
incoming cross edges, so this makes the decisions the one-tie-per-round
schedule makes, in another order: a tie that becomes bottom only after
an earlier choice is served a round later.  The enumerators branch per
tie and keep the sequential
:meth:`~repro.ground.state.GroundGraphState.select_tie`.  Tie
orientation is nondeterministic; a
:class:`~repro.semantics.choices.ChoicePolicy` resolves it and every run
returns its trace of :class:`TieChoice` decisions (id-based, decoded to
atoms lazily).  ``Engine.enumerate("tie_breaking")`` explores *all*
orientations with a trail-based undo log — branching costs the work
undone, not a state copy.  Everything here takes the engine's
:class:`~repro.datalog.grounding.GroundProgram` (or a kernel state over
it) and returns kernel values; :mod:`repro.api.registry` wraps them into
solutions.

A solve does not start :func:`_run` on a fresh state.  Every run on one
ground program shares the prefix ``close`` → unfounded step (well-founded
variant) → analysis of the first round's bottom components, since the
algorithm chooses only once no nonempty unfounded set is left; the
engine keeps the state after that prefix as a checkpoint and hands each
solve a clone (:meth:`repro.api.engine.Engine._tie_state`).  On the
clone, the prefix ``_run`` repeats changes nothing and its first round
serves the same, already analysed, ties, so the schedule, trail and
provenance are those of a fresh-state run.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterator

from repro.datalog.atoms import Atom
from repro.datalog.grounding import GroundProgram
from repro.ground.model import FALSE, TRUE, Interpretation
from repro.ground.state import BottomComponent, GroundGraphState
from repro.semantics.choices import ChoicePolicy, forced_orientation

__all__ = ["TieChoice"]


class TieChoice:
    """One recorded tie orientation.

    ``forced`` marks decisions where one side of the partition was empty
    (no real nondeterminism).  The trail is *id-based*: ``true_ids`` /
    ``false_ids`` are the sorted dense atom ids assigned by the decision,
    and the ground-atom views ``made_true`` / ``made_false`` decode them
    against the grounding's atom table lazily, on first access — a run
    that never inspects its trail never materializes an Atom.  Equality
    and hashing use the id tuples (trails are compared within one
    grounding).
    """

    __slots__ = ("true_ids", "false_ids", "forced", "_table", "_true", "_false")

    def __init__(self, true_ids, false_ids, forced: bool, table) -> None:
        self.true_ids: tuple[int, ...] = tuple(sorted(true_ids))
        self.false_ids: tuple[int, ...] = tuple(sorted(false_ids))
        self.forced = forced
        self._table = table
        self._true: frozenset[Atom] | None = None
        self._false: frozenset[Atom] | None = None

    @property
    def made_true(self) -> frozenset[Atom]:
        """The atoms assigned true (decoded lazily, then cached)."""
        if self._true is None:
            atom = self._table.atom
            self._true = frozenset(atom(i) for i in self.true_ids)
        return self._true

    @property
    def made_false(self) -> frozenset[Atom]:
        """The atoms assigned false (decoded lazily, then cached)."""
        if self._false is None:
            atom = self._table.atom
            self._false = frozenset(atom(i) for i in self.false_ids)
        return self._false

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TieChoice):
            return NotImplemented
        return (
            self.true_ids == other.true_ids
            and self.false_ids == other.false_ids
            and self.forced == other.forced
        )

    def __hash__(self) -> int:
        return hash((self.true_ids, self.false_ids, self.forced))

    def __repr__(self) -> str:
        return (
            f"TieChoice(true_ids={self.true_ids}, false_ids={self.false_ids}, "
            f"forced={self.forced})"
        )


def _select_tie(state: GroundGraphState) -> BottomComponent | None:
    """Reference tie selection: scan all bottom components for the min.

    Equivalent to :meth:`GroundGraphState.select_tie` (the property suite
    pins the two against each other); kept as the schedule-free oracle
    and for the clone-based reference explorer.  Bottom components are
    disjoint and breaking one cannot affect another bottom component (it
    has no incoming edges), so the processing *order* does not change the
    set of reachable outcomes — only the orientation choices do.
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


def _apply_tie(
    state: GroundGraphState, component: BottomComponent, true_side: int, *, forced: bool
) -> TieChoice:
    """Orient one tie: assign the chosen side true, the other false.

    Assignment batches are sorted by atom id so the trail/decision
    trajectory is independent of the side dict's iteration order (fresh
    BFS and cached sides enumerate differently).
    """
    made_true: list[int] = []
    made_false: list[int] = []
    for a, s in component.side_of_atom().items():
        (made_true if s == true_side else made_false).append(a)
    made_true.sort()
    made_false.sort()
    t0 = perf_counter()
    state.assign_many(made_true, TRUE, ("tie", true_side))
    state.assign_many(made_false, FALSE, ("tie", 1 - true_side))
    state.phase_s["tie_apply_s"] += perf_counter() - t0
    return TieChoice(made_true, made_false, forced, state.gp.atoms)


def _break_tie(
    state: GroundGraphState, component: BottomComponent, policy: ChoicePolicy
) -> TieChoice:
    """Orient one tie under a policy (forced orientations bypass it).

    A side is forced exactly when it holds no atoms: in a bipartite SCC
    every rule node's head edge stays in-component and on its own side,
    so a side without atoms has no nodes at all — counting atoms
    (:meth:`BottomComponent.side_counts`) is equivalent to counting
    nodes, and skips a sweep over the rule half of the partition.
    """
    side_atoms: tuple[list[int], list[int]] = ([], [])
    for atom_id, side in component.side_of_atom().items():
        side_atoms[side].append(atom_id)
    true_side = forced_orientation(len(side_atoms[0]), len(side_atoms[1]))
    forced = true_side is not None
    if true_side is None:
        # Policies see canonical ranks, not raw ids: a streamed-update
        # state must make the same choice a fresh re-ground would.  The
        # overlay is identity for fresh groundings — skip the mapping.
        order = state._order
        if order is None:
            ranks0, ranks1 = side_atoms[0], side_atoms[1]
        else:
            ranks0 = [order[a] for a in side_atoms[0]]
            ranks1 = [order[a] for a in side_atoms[1]]
        true_side = policy.choose_true_side(ranks0, ranks1)
    return _apply_tie(state, component, true_side, forced=forced)


def _run(
    state: GroundGraphState,
    policy: ChoicePolicy,
    *,
    well_founded: bool,
) -> list[TieChoice]:
    """Drive a (pure or well-founded) tie-breaking run to completion.

    Each round orients every current bottom tie —
    :meth:`GroundGraphState.select_ties`, in canonical order, so the
    policy sees them in that order — and then re-closes once (and, in
    the well-founded variant, runs the unfounded step once).
    """
    choices: list[TieChoice] = []
    state.close()
    while True:
        if well_founded:
            state.falsify_unfounded(numbered=False)
        ties = state.select_ties()
        if not ties:
            return choices
        choices.extend(_break_tie(state, tie, policy) for tie in ties)
        state.close()


def _enumerate_tie_breaking_models(
    gp: GroundProgram,
    *,
    well_founded: bool,
    limit: int | None = None,
) -> Iterator[tuple[Interpretation, tuple[TieChoice, ...]]]:
    """Every outcome of the tie-breaking interpreter over all free choices.

    Performs a depth-first search over tie orientations (two branches per
    genuinely free decision) on **one** evaluation state with a
    trail-based undo log: entering a branch marks the trail, leaving it
    rewinds assignments, counters, and the kernel caches — branch cost is
    proportional to the work undone, never an O(state) copy.  Yields one
    ``(model, choice trail)`` pair per decision *sequence*; deduplicate on
    ``model.true_set()`` if only models matter.

    Worst-case exponential in the number of free choices — this is the
    exhaustive verifier behind the paper's "for all choices" statements,
    not an interpreter.
    """
    emitted = 0
    state = GroundGraphState(gp)
    state.trail_begin()
    state.close()
    trail: list[TieChoice] = []
    # Unexplored second branches, deepest last: (trail mark, choice depth,
    # the tie to re-orient).  Iterative so depth is bounded by memory, not
    # the interpreter stack, and each yield is O(1), not O(depth).
    pending: list[tuple] = []
    advancing = True
    while True:
        if advancing:
            if limit is not None and emitted >= limit:
                return
            if well_founded:
                state.falsify_unfounded(numbered=False)
            tie = state.select_tie()
            if tie is None:
                emitted += 1
                yield state.interpretation(), tuple(trail)
                advancing = False
                continue
            assert tie.analysis.sides is not None
            count0, count1 = tie.side_counts()
            forced = forced_orientation(count0, count1)
            if forced is not None:
                trail.append(_apply_tie(state, tie, forced, forced=True))
                state.close()
                continue
            pending.append((state.trail_mark(), len(trail), tie))
            trail.append(_apply_tie(state, tie, 0, forced=False))
            state.close()
        else:
            if not pending or (limit is not None and emitted >= limit):
                return
            mark, depth, tie = pending.pop()
            del trail[depth:]
            state.trail_undo(mark)
            trail.append(_apply_tie(state, tie, 1, forced=False))
            state.close()
            advancing = True


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
    # first — the same (model, trail) sequence the trail explorer emits).
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
