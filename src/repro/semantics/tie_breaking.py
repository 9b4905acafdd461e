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

From its second solve on, a checkpoint also keeps a :class:`TieTable`:
the outcome of each first-round tie's orientation on its forward cone,
filled by the runs that needed it.  When every outcome a solve draws is
known, the solve writes them onto a copy of the checkpoint's buffers
instead of cloning the state and closing it
(:meth:`repro.api.engine.Engine._tie_solve`).
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Iterable, Iterator

from repro.datalog.atoms import Atom
from repro.errors import SemanticsError, check_deadline
from repro.ground.model import FALSE, TRUE, UNDEF, Interpretation
from repro.ground.state import (
    _R_TIE,
    _R_UNFOUNDED,
    BottomComponent,
    FinishedState,
    GroundGraphState,
)
from repro.semantics.choices import ChoicePolicy, forced_orientation

__all__ = ["FlatTrail", "TieChoice", "TieTable"]


class TieChoice:
    """One recorded tie orientation.

    ``forced`` marks decisions where one side of the partition was empty
    (no real nondeterminism).  The trail is *id-based*: ``true_ids`` /
    ``false_ids`` are the dense atom ids assigned by the decision, which
    callers pass in ascending order, and the ground-atom views
    ``made_true`` / ``made_false`` decode them against the grounding's
    atom table lazily, on first access — a run
    that never inspects its trail never materializes an Atom.  Equality
    and hashing use the id tuples (trails are compared within one
    grounding).
    """

    __slots__ = ("true_ids", "false_ids", "forced", "_table", "_true", "_false")

    def __init__(self, true_ids, false_ids, forced: bool, table) -> None:
        self.true_ids: tuple[int, ...] = tuple(true_ids)
        self.false_ids: tuple[int, ...] = tuple(false_ids)
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


class FlatTrail:
    """A tie trail as a few flat buffers: what a cached solve keeps of it.

    The paper's tie-breaking run is determined by its orientations, so a
    cache entry stores the trail, not an object per choice:

    * ``ids`` — each choice's true ids, then its false ids (``array("i")``);
    * ``offsets`` — choice ``k`` owns ``ids[offsets[k]:offsets[k + 1]]``;
    * ``flags`` — one byte per choice: bit 0 is the side its true atoms
      took (the ``_R_TIE`` reason argument), bit 1 its ``forced`` flag;
    * ``free`` — the number of free (not forced) choices.

    A choice's true count is not stored: its true ids are exactly its ids
    whose status byte in the solve's model is true, so :meth:`choices`
    reads the split from the status it is given.
    """

    __slots__ = ("ids", "offsets", "flags", "free")

    def __init__(self, choices: Iterable[TieChoice], reason_arg) -> None:
        ids: list[int] = []
        offsets = [0]
        flags = bytearray()
        free = 0
        for choice in choices:
            ids += choice.true_ids
            ids += choice.false_ids
            offsets.append(len(ids))
            if choice.true_ids:
                side = reason_arg[choice.true_ids[0]]
            else:  # a forced choice whose true side is empty
                side = 1 - reason_arg[choice.false_ids[0]]
            flags.append(side | (2 if choice.forced else 0))
            free += not choice.forced
        self.ids = array("i", ids)
        self.offsets = array("i", offsets)
        self.flags = bytes(flags)
        self.free = free

    @property
    def nbytes(self) -> int:
        """The size of the three buffers, object headers included."""
        return sys.getsizeof(self.ids) + sys.getsizeof(self.offsets) + sys.getsizeof(self.flags)

    def choices(self, status: bytes | tuple[int, ...], table) -> tuple[TieChoice, ...]:
        """Decode the trail into :class:`TieChoice` objects over ``table``."""
        ids, offsets = self.ids, self.offsets
        out = []
        for k, flag in enumerate(self.flags):
            chunk = ids[offsets[k] : offsets[k + 1]]
            made_true = [a for a in chunk if status[a] == TRUE]
            made_false = [a for a in chunk if status[a] != TRUE]
            out.append(TieChoice(made_true, made_false, bool(flag & 2), table))
        return tuple(out)

    def replay_policy(self) -> "_ReplaySides":
        """A policy that orients the free ties as this trail did, in order."""
        return _ReplaySides(flag & 1 for flag in self.flags if not flag & 2)


class _ReplaySides:
    """Answers each free tie with the next recorded side (see FlatTrail),
    then hands later ties to ``then``; without ``then``, a tie past the
    record raises."""

    def __init__(self, sides: Iterable[int], then: ChoicePolicy | None = None) -> None:
        self._sides = iter(sides)
        self._then = then

    def choose_true_side(self, side0_atoms, side1_atoms) -> int:
        side = next(self._sides, None)
        if side is not None:
            return side
        if self._then is None:
            raise SemanticsError("the replay met more free ties than the trail records")
        return self._then.choose_true_side(side0_atoms, side1_atoms)


class TieTable:
    """The outcome of each first-round tie's orientation, on a checkpoint.

    A tie-breaking checkpoint's first round orients bottom ties, which
    are disjoint and have no incoming cross edges, so orienting one
    changes only its forward cone.  When those cones are pairwise
    disjoint and cover every live atom and rule, a run that ends with the
    first round's ``close`` is a set of independent two-way choices:
    ``close`` is confluent, and the FIFO order restricted to one cone does
    not depend on the other cones, so each cone's status, and which rule
    fired first there, depend only on its tie's side.  The table keeps
    that outcome per (tie, side) once a run has shown it, and
    :meth:`apply` assembles a solve from it without a kernel run.

    Flat buffers only:

    * ``ids`` (``array("i")``) — per tie, in ``select_ties`` order: its
      side-0 atom ids, its side-1 atom ids, then the other atoms of its
      cone, each run sorted;
    * ``bounds`` — tie ``k``'s three runs start at ``bounds[3k]``,
      ``bounds[3k + 1]`` and ``bounds[3k + 2]``, and its cone ends at
      ``bounds[3k + 3]``;
    * ``status`` / ``kind`` / ``arg`` — per side, each cone atom's
      status, reason kind and reason argument after that side, aligned
      with ``ids``;
    * ``filled`` — per tie, bit ``s`` set once side ``s`` is recorded.
    """

    __slots__ = ("ids", "bounds", "status", "kind", "arg", "filled")

    def __init__(self, ids: array, bounds: array) -> None:
        size = len(ids)
        self.ids = ids
        self.bounds = bounds
        self.status = (bytearray(size), bytearray(size))
        self.kind = (bytearray(size), bytearray(size))
        self.arg = (array("i", [0]) * size, array("i", [0]) * size)
        self.filled = bytearray(len(bounds) // 3)

    @classmethod
    def build(cls, checkpoint: GroundGraphState) -> "TieTable | None":
        """The table of a closed checkpoint, or ``None`` when its
        first-round ties' forward cones overlap or leave a live atom or
        rule outside them."""
        n_atoms = checkpoint.n_atoms
        successors = checkpoint._live_successors
        owner = [-1] * (n_atoms + checkpoint.n_rules)
        ids = array("i")
        bounds = array("i", [0])
        covered = 0
        for k, tie in enumerate(checkpoint.clone().select_ties()):
            cone = tie.atom_ids + [n_atoms + r for r in tie.rule_ids]
            for node in cone:
                if owner[node] >= 0:
                    return None
                owner[node] = k
            for node in cone:  # the list grows as the search goes
                for successor, _ in successors(node):
                    if owner[successor] == k:
                        continue
                    if owner[successor] >= 0:
                        return None
                    owner[successor] = k
                    cone.append(successor)
            covered += len(cone)
            sides: tuple[list[int], list[int]] = ([], [])
            for atom_id, side in tie.side_of_atom().items():
                sides[side].append(atom_id)
            ids.extend(sorted(sides[0]))
            bounds.append(len(ids))
            ids.extend(sorted(sides[1]))
            bounds.append(len(ids))
            reached = cone[len(tie.atom_ids) + len(tie.rule_ids) :]
            ids.extend(sorted(node for node in reached if node < n_atoms))
            bounds.append(len(ids))
        if covered != checkpoint.live_atom_count + len(checkpoint._live_rules):
            return None
        return cls(ids, bounds)

    @property
    def nbytes(self) -> int:
        """The size of the buffers, object headers included."""
        buffers = (self.ids, self.bounds, self.filled, *self.status, *self.kind, *self.arg)
        return sum(sys.getsizeof(buffer) for buffer in buffers)

    def _ties(self) -> Iterator[tuple[int, int, int, int]]:
        """Each tie's ``(side 0 start, side 1 start, rest start, end)``."""
        bounds = self.bounds
        return zip(bounds[0::3], bounds[1::3], bounds[2::3], bounds[3::3])

    def draw(self, policy: ChoicePolicy, checkpoint: GroundGraphState) -> bytes:
        """Each tie's true side, drawn as :func:`_break_tie` draws it, in
        the same order: forced ties skip the policy."""
        ids, order = self.ids, checkpoint._order
        return bytes(
            _choose_side(policy, order, ids[lo:mid].tolist(), ids[mid:hi].tolist())[0]
            for lo, mid, hi, _ in self._ties()
        )

    def covers(self, sides: bytes) -> bool:
        """Whether every (tie, side) outcome ``sides`` needs is recorded."""
        filled = self.filled
        return all(filled[k] >> side & 1 for k, side in enumerate(sides))

    def apply(
        self, checkpoint: GroundGraphState, sides: bytes
    ) -> tuple[FinishedState, list[TieChoice]]:
        """The finished state and trail of the run that orients the ties
        as ``sides`` says, read from the table (requires :meth:`covers`)."""
        ids, atoms = self.ids, checkpoint.gp.atoms
        # Side 0's outcome everywhere, then side 1's over the cones whose
        # tie took side 1: C-level slice copies, then one scatter.
        cone_status, cone_kind, cone_arg = (
            bytearray(self.status[0]),
            bytearray(self.kind[0]),
            array("i", self.arg[0]),
        )
        choices = []
        for (lo, mid, hi, end), side in zip(self._ties(), sides):
            if side:
                cone_status[lo:end] = self.status[1][lo:end]
                cone_kind[lo:end] = self.kind[1][lo:end]
                cone_arg[lo:end] = self.arg[1][lo:end]
                true_ids, false_ids = ids[mid:hi], ids[lo:mid]
            else:
                true_ids, false_ids = ids[lo:mid], ids[mid:hi]
            choices.append(TieChoice(true_ids, false_ids, lo == mid or mid == hi, atoms))
        status = list(checkpoint.status)
        kind = bytearray(checkpoint._reason_kind)
        arg = list(checkpoint._reason_arg)
        for a, value, reason, reason_arg in zip(ids, cone_status, cone_kind, cone_arg):
            status[a] = value
            kind[a] = reason
            arg[a] = reason_arg
        phase_s = dict.fromkeys(checkpoint.phase_s, 0.0)
        return FinishedState.of(checkpoint, status, kind, arg, phase_s), choices

    def replay(self, sides: bytes, policy: ChoicePolicy) -> _ReplaySides:
        """A policy that answers the free ties of the first round with
        ``sides`` and hands every later tie to ``policy``."""
        return _ReplaySides(
            (side for (lo, mid, hi, _), side in zip(self._ties(), sides) if lo != mid != hi),
            then=policy,
        )

    def fill(self, state: FinishedState, sides: bytes, choices: list[TieChoice]) -> bool:
        """Record the outcomes of a run that oriented the ties as ``sides``.

        Records only a run that ended in its first round and whose
        ``close`` alone left no live atom (no atom of a cone undefined or
        falsified by the unfounded step); returns ``False`` for any other
        run, whose outcomes no cone determines on its own.
        """
        status, kind, arg = state.status, state._reason_kind, state._reason_arg
        ids, filled = self.ids, self.filled
        if len(choices) != len(sides) or any(
            status[a] == UNDEF or kind[a] == _R_UNFOUNDED for a in ids
        ):
            return False
        for k, ((lo, _, _, end), side) in enumerate(zip(self._ties(), sides)):
            if filled[k] >> side & 1:
                continue
            filled[k] |= 1 << side
            cone_status, cone_kind, cone_arg = self.status[side], self.kind[side], self.arg[side]
            for i in range(lo, end):
                a = ids[i]
                cone_status[i] = status[a]
                cone_kind[i] = kind[a]
                cone_arg[i] = arg[a]
        return True


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
    side_atoms[0].sort()
    side_atoms[1].sort()
    true_side, forced = _choose_side(policy, state._order, *side_atoms)
    return _apply_tie(state, component, true_side, forced=forced)


def _choose_side(
    policy: ChoicePolicy, order, side0: list[int], side1: list[int]
) -> tuple[int, bool]:
    """A tie's true side, and whether it was forced, from its sorted
    side atom ids: a forced tie skips the policy.

    Policies see canonical ranks, not raw ids: a streamed-update state
    must make the same choice a fresh re-ground would.  The overlay
    ``order`` is ``None`` (identity) for fresh groundings.
    """
    forced = forced_orientation(len(side0), len(side1))
    if forced is not None:
        return forced, True
    if order is not None:
        side0 = [order[a] for a in side0]
        side1 = [order[a] for a in side1]
    return policy.choose_true_side(side0, side1), False


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
    the well-founded variant, runs the unfounded step once).  Each round
    starts with :func:`~repro.errors.check_deadline`, so an armed
    deadline stops the run between rounds.  A round that finds no atom
    left undefined ends the run without asking ``select_ties``, which
    would refine every component the last close touched to find no tie.
    """
    choices: list[TieChoice] = []
    state.close()
    while True:
        check_deadline()
        if well_founded:
            state.falsify_unfounded(numbered=False)
        if not state.live_atom_count:
            return choices
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
    not an interpreter.  Every round and every leaf checks the armed
    deadline (:func:`~repro.errors.check_deadline`).
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
        check_deadline()
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
