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
an earlier choice is served a round later.  Tie orientation is
nondeterministic; a :class:`~repro.semantics.choices.ChoicePolicy`
resolves it and every run returns its trace of :class:`TieChoice`
decisions (id-based, decoded to atoms lazily).
``Engine.enumerate("tie_breaking")`` explores *all* orientations on the
same rounds, branching inside each round with a trail-based undo log —
branching costs the work undone, not a state copy.  Everything here
takes a kernel state over the engine's
:class:`~repro.datalog.grounding.GroundProgram` and returns kernel
values; :mod:`repro.api.registry` wraps them into solutions.

A solve or an enumeration does not start on a fresh state.  Every run on
one ground program shares the prefix ``close`` → unfounded step
(well-founded variant) → analysis of the first round's bottom
components, since the algorithm chooses only once no nonempty unfounded
set is left; the engine keeps the state after that prefix as a
checkpoint and hands each solve and enumeration a clone
(:meth:`repro.api.engine.Engine._tie_state`).  On the clone, the prefix
a run repeats changes nothing and its first round serves the same,
already analysed, ties, so the schedule, trail and provenance are those
of a fresh-state run.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterator

from repro.datalog.atoms import Atom
from repro.ground.model import FALSE, TRUE, Interpretation
from repro.ground.state import _R_TIE, BottomComponent, GroundGraphState
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
    state._assign_batch(made_true, TRUE, _R_TIE, true_side)
    state._assign_batch(made_false, FALSE, _R_TIE, 1 - true_side)
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
    state: GroundGraphState,
    *,
    well_founded: bool,
    limit: int | None = None,
) -> Iterator[tuple[Interpretation, tuple[TieChoice, ...]]]:
    """Every outcome of the tie-breaking interpreter over all free choices.

    Starts from ``state`` (the engine hands a clone of its checkpoint)
    and goes in the rounds :func:`_run` goes in: each round's ties come
    from :meth:`GroundGraphState.select_ties`, the search branches over
    their free orientations depth-first inside the round (side 0 first),
    and each round leaf re-closes once (and, in the well-founded variant,
    runs the unfounded step once).  One state with a trail-based undo
    log serves the whole search: every free tie takes a trail mark, and
    leaving a branch rewinds assignments, counters and the kernel caches
    — branch cost is proportional to the work undone, never an O(state)
    copy.  Yields one ``(model, choice trail)`` pair per decision
    *sequence*, the trail in round order; deduplicate on
    ``model.true_set()`` if only models matter.

    Worst-case exponential in the number of free choices — this is the
    exhaustive verifier behind the paper's "for all choices" statements,
    not an interpreter.
    """
    emitted = 0
    state.trail_begin()
    trail: list[TieChoice] = []
    # Unexplored side-1 branches, deepest last: (trail mark, choice depth,
    # the round's ties, the tie's index).  select_ties pops the schedule
    # for good, so a branch carries the rest of its round itself; the
    # entries an undo pushes again go stale once the round is closed.
    # Iterative so depth is bounded by memory, not the interpreter stack.
    pending: list[tuple] = []
    ties: list[BottomComponent] = []
    first = 0
    while limit is None or emitted < limit:
        for i in range(first, len(ties)):
            tie = ties[i]
            forced = forced_orientation(*tie.side_counts())
            if forced is None:
                pending.append((state.trail_mark(), len(trail), ties, i))
                trail.append(_apply_tie(state, tie, 0, forced=False))
            else:
                trail.append(_apply_tie(state, tie, forced, forced=True))
        state.close()
        if well_founded:
            state.falsify_unfounded(numbered=False)
        ties, first = state.select_ties(), 0
        if ties:
            continue
        emitted += 1
        yield state.interpretation(), tuple(trail)
        if not pending:
            return
        mark, depth, ties, i = pending.pop()
        del trail[depth:]
        state.trail_undo(mark)
        trail.append(_apply_tie(state, ties[i], 1, forced=False))
        first = i + 1
