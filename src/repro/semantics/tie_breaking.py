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
same rounds, branching inside each round on a state copy per free tie.
Everything here takes a kernel state over the engine's
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
known, the solve is the trail's flag bytes over the table
(:class:`TableModel`): no clone, no ``close``, no status; its values and
model lists are read from the table, and its status, choices and state
are built only when first read
(:meth:`repro.api.engine.Engine._tie_solve`).  The table is the engine's
only cache of tie-breaking solves: a repeated seed is drawn again and
served from it.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from functools import partial
from itertools import chain, compress
from time import perf_counter
from typing import Callable, Iterator, NamedTuple

from repro.datalog.atoms import Atom
from repro.datalog.grounding import _ABSENT, LiteralTable
from repro.errors import check_deadline
from repro.ground.model import _BOOL_OF, _NO_GHOSTS, FALSE, TRUE, UNDEF, Interpretation
from repro.ground.state import (
    _R_TIE,
    _R_UNFOUNDED,
    BottomComponent,
    FinishedState,
    GroundGraphState,
)
from repro.semantics.choices import ChoicePolicy, forced_orientation

__all__ = ["TableModel", "TieChoice", "TieSolve", "TieTable"]


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


class _ReplaySides:
    """A policy that answers each free tie with the side the next free
    choice of ``flags`` took (trail flags, as :meth:`TieTable.draw` makes
    them), then hands later ties to ``then``."""

    def __init__(self, flags: bytes, then: ChoicePolicy) -> None:
        self._sides = (flag & 1 for flag in flags if not flag & 2)
        self._then = then

    def choose_true_side(self, side0_atoms, side1_atoms) -> int:
        side = next(self._sides, None)
        if side is None:
            return self._then.choose_true_side(side0_atoms, side1_atoms)
        return side


class TieSolve(NamedTuple):
    """One tie-breaking solve, as the engine hands it on.

    ``model`` is the model, ``total`` whether it is total (worked out
    once, on the run's status or by the table) and ``phase_s`` the kernel
    phase times; ``choices()`` and ``state()`` build the choice trail and
    the finished state.

    * A run (:meth:`of_run`) leaves its finished state and its choices:
      its model is an :class:`~repro.ground.model.Interpretation`.
    * A table solve (:meth:`TieTable.solve`) leaves a :class:`TableModel`
      (the table and the trail flags); its status, choices and state are
      built from the table when asked for.
    """

    model: "Interpretation | TableModel"
    total: bool
    phase_s: dict[str, float]
    choices: Callable[[], tuple[TieChoice, ...]]
    state: Callable[[], FinishedState]

    @classmethod
    def of_run(cls, state: FinishedState, choices: list[TieChoice]) -> "TieSolve":
        """The solve a finished run left."""
        trail = tuple(choices)
        return cls(
            state.interpretation(),
            UNDEF not in state.status,
            state.phase_s,
            choices=lambda: trail,
            state=lambda: state,
        )


class TableModel:
    """The model of a solve a :class:`TieTable` served, read from the table.

    The first-round ties are disjoint bottom components, each split into
    its Lemma-1 sides (K true, L false), so the model is one side bit per
    tie (the trail ``flags``: per tie, bit 0 is the side it made true and
    bit 1 marks a forced tie) plus the table's outcome per (tie, side).
    The pair is the solve's trail too (:attr:`repro.api.Solution.trail`):
    :meth:`TieTable.choices` decodes it.
    :meth:`value_of_id` and :meth:`masks` read it from the table, and
    the status by atom id is patched together only when :attr:`status`
    or :meth:`interpretation` asks for it.  ``index`` is the grounding's
    index when the solve ran
    (:meth:`~repro.ground.model.Interpretation.index_of`): its ghosts are
    the model's.
    """

    __slots__ = ("table", "flags", "index")

    def __init__(self, table: "TieTable", flags: bytes) -> None:
        self.table = table
        self.flags = flags
        self.index = Interpretation.index_of(table.base.gp)

    @property
    def ground_program(self):
        return self.table.base.gp

    @property
    def status(self) -> bytes:
        """The status by atom id (patched on every read)."""
        return self.table.status(self.flags)

    @property
    def ghost_ids(self) -> frozenset[int]:
        return _NO_GHOSTS if self.index is None else self.index.ghost_ids

    def interpretation(self) -> Interpretation:
        """The model as an :class:`~repro.ground.model.Interpretation`."""
        return Interpretation.over(self.ground_program, self.status, self.index)

    def value(self, atom: Atom) -> bool | None:
        """As :meth:`~repro.ground.model.Interpretation.value`."""
        gp = self.ground_program
        index = gp.atoms.get(atom)
        if index is None:
            return Interpretation.unmaterialized_value(gp, atom)
        return self.value_of_id(index)

    def value_of_id(self, index: int) -> bool | None:
        """As :meth:`~repro.ground.model.Interpretation.value_of_id`."""
        table = self.table
        if index >= len(table.status0):
            return False
        return _BOOL_OF[table.value(self.flags, index)]

    def masks(self, literals: LiteralTable) -> tuple[bytes, ...]:
        """As :meth:`~repro.ground.model.Interpretation.masks`, from the
        table's string-order view (:meth:`TieTable.ordered_status`)."""
        ordered = self.table.ordered_status(self.flags, literals)
        return literals.ordered_masks(ordered, self.ghost_ids)


class TieView(NamedTuple):
    """A :class:`TieTable`'s outcomes over one order of the atoms: by atom
    id (``literals`` is ``None``), or by a literal table's string order.

    * ``ties`` — per 255 ties, one byte per atom: its tie's index less
      ``255 * j`` in plane ``j`` if that tie's cone holds the atom, else
      ``0xff``;
    * ``status0`` — the status if every tie took side 0 (``0xff`` past
      the table's atoms);
    * ``status1`` — the same with every recorded side-1 outcome written
      in: ``status0`` outside the cones.

    :meth:`TieTable.fill` keeps both statuses in step.
    """

    literals: LiteralTable | None
    ties: list[bytes]
    status0: bytearray
    status1: bytearray

    def status(self, flags: bytes) -> bytes:
        """The model's status for ``flags`` in this view's order: per atom,
        ``status1``'s byte where its tie took side 1, else ``status0``'s.

        One ``bytes.translate`` per plane marks the atoms of the ties that
        took side 1 (``0xff``); the pick is then big-integer arithmetic over
        the whole buffers, with no Python loop per atom."""
        picked = 0
        for j, plane in enumerate(self.ties):
            sides = flags[255 * j : 255 * j + 255].translate(_SIDE_FF)
            picked |= int.from_bytes(plane.translate(sides.ljust(256, b"\0")), "little")
        status0 = int.from_bytes(self.status0, "little")
        status1 = int.from_bytes(self.status1, "little")
        status = status0 ^ ((status0 ^ status1) & picked)
        return status.to_bytes(len(self.status0), "little")

    def value(self, flags: bytes, k: int) -> int:
        """Byte ``k`` of :meth:`status`."""
        for j, plane in enumerate(self.ties):
            tie = plane[k]
            if tie != 255:
                return (self.status1 if flags[255 * j + tie] & 1 else self.status0)[k]
        return self.status0[k]


# Byte translations of a trail flag: whether it is free, the bit of its
# side in TieTable.filled, and 0xff for side 1 (a TieView.status mask).
_FREE = bytes(not flag & 2 for flag in range(256))
_NEEDED = bytes(1 << (flag & 1) for flag in range(256))
_SIDE_FF = bytes(0xFF * (flag & 1) for flag in range(256))


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
    :meth:`solve` assembles a solve from it without a kernel run.

    ``base`` is what a solve reads of the checkpoint: a
    :class:`FinishedState` over the checkpoint's own status and reason
    buffers, not copies, so a solution the table served keeps those
    alive, not the live state, once an update drops the checkpoint.
    Then flat buffers only, built once, per tie in ``select_ties`` order:

    * ``ids`` (``array("i")``) — each tie's side-0 atom ids then its
      side-1 atom ids, each run sorted, and after the last tie's sides,
      each tie's other cone atoms, sorted;
    * ``offsets`` — tie ``k``'s sides are ``ids[offsets[k]:offsets[k + 1]]``,
      side 1 from ``mids[k]``;
    * ``rest`` — tie ``k``'s other cone atoms are ``ids[rest[k]:rest[k + 1]]``;
    * ``ranks`` — the canonical ranks policies see, aligned with the
      sides (``ids`` itself on a fresh grounding);
    * ``template`` — per tie, the trail flag of a forced tie (its side
      and bit 1) and 0 for a free one;

    and the outcomes, filled by the runs that show them:

    * ``status0`` — the model's status if every tie took side 0, by atom
      id: the checkpoint's, with each filled side-0 cone written in;
    * ``status1`` / ``kind`` / ``arg`` — each cone atom's side-1 status,
      and per side its reason kind and argument, aligned with ``ids``
      (``status1`` only until ``by_id`` is built, which then keeps the
      side-1 outcomes by atom id, and ``status1`` is ``None``);
    * ``filled`` — per tie, bit ``s`` set once side ``s`` is recorded.

    ``total`` says whether a solve the table serves is total: every atom
    outside the cones is decided on the checkpoint (a recorded outcome
    leaves no cone atom undefined).

    The table is read without a patched status (:class:`TableModel`).
    Built on first read, and counted in :attr:`text_nbytes`, not in
    :attr:`nbytes`:

    * ``by_id`` — a :class:`TieView` by atom id (its ``status0`` is the
      table's own, its ``status1`` replaces the table's): one atom's value,
      and the status by atom id;
    * ``view`` — a :class:`TieView` over the current literal table's
      string order, from which a full reply's model lists are selected
      (:meth:`ordered_status`); one per literal table;
    * ``texts`` — left by the first full encode of a solve the table
      served: per tie, the JSON list of each side's atom texts in string
      order, side 0's at ``2 * k`` and side 1's at ``2 * k + 1``, so a
      choice's ``made_true`` / ``made_false`` are two of them
      (:meth:`side_texts`).
    """

    __slots__ = (
        "base",
        "ids",
        "offsets",
        "mids",
        "rest",
        "ranks",
        "template",
        "status0",
        "status1",
        "kind",
        "arg",
        "filled",
        "free",
        "total",
        "by_id",
        "view",
        "texts",
    )

    def __init__(
        self,
        base: FinishedState,
        ids: array,
        offsets: array,
        mids: array,
        rest: array,
        ranks: array,
        template: bytes,
    ) -> None:
        size = len(ids)
        self.base = base
        self.ids = ids
        self.offsets = offsets
        self.mids = mids
        self.rest = rest
        self.ranks = ranks
        self.template = template
        self.status0 = bytearray(base.status)
        self.status1: bytearray | None = bytearray(size)
        self.kind = (bytearray(size), bytearray(size))
        self.arg = (array("i", [0]) * size, array("i", [0]) * size)
        self.filled = bytearray(len(template))
        self.free = template.translate(_FREE).count(1)
        status = base.status
        self.total = status.count(UNDEF) == sum(status[a] == UNDEF for a in ids)
        self.by_id: TieView | None = None
        self.view: TieView | None = None
        self.texts: list[str] | None = None

    @classmethod
    def build(cls, checkpoint: GroundGraphState) -> "TieTable | None":
        """The table of a closed checkpoint, or ``None`` when its
        first-round ties' forward cones overlap or leave a live atom or
        rule outside them."""
        n_atoms = checkpoint.n_atoms
        successors = checkpoint._live_successors
        owner = [-1] * (n_atoms + checkpoint.n_rules)
        ids = array("i")
        offsets = array("i", [0])
        mids = array("i")
        template = bytearray()
        others: list[list[int]] = []
        covered = 0
        order = checkpoint._idx.atom_order
        ranks = ids if order is None else array("i")
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
            side0, side1 = tie.sides
            ids.extend(side0)
            mids.append(len(ids))
            ids.extend(side1)
            offsets.append(len(ids))
            if ranks is not ids:
                ranks.extend(_ranks(order, side0))
                ranks.extend(_ranks(order, side1))
            forced = forced_orientation(len(side0), len(side1))
            template.append(0 if forced is None else forced | 2)
            reached = cone[len(tie.atom_ids) + len(tie.rule_ids) :]
            others.append(sorted(node for node in reached if node < n_atoms))
        if covered != checkpoint.live_atom_count + len(checkpoint._live_rules):
            return None
        rest = array("i", [len(ids)])
        for atoms in others:
            ids.extend(atoms)
            rest.append(len(ids))
        # What a table solve reads of the checkpoint, over its buffers (no
        # copy): a solution it serves keeps this alive, not the live state.
        base = FinishedState.of(
            checkpoint,
            checkpoint.status,
            checkpoint._reason_kind,
            checkpoint._reason_arg,
            dict.fromkeys(checkpoint.phase_s, 0.0),
        )
        return cls(base, ids, offsets, mids, rest, ranks, bytes(template))

    @property
    def nbytes(self) -> int:
        """The size of the buffers, object headers included (``status1``
        only until ``by_id`` takes its place)."""
        buffers = [
            self.ids,
            self.offsets,
            self.mids,
            self.rest,
            self.template,
            self.status0,
            self.filled,
            *self.kind,
            *self.arg,
        ]
        if self.status1 is not None:
            buffers.append(self.status1)
        if self.ranks is not self.ids:
            buffers.append(self.ranks)
        return sum(sys.getsizeof(buffer) for buffer in buffers)

    @property
    def text_nbytes(self) -> int:
        """The size of the side texts and the views, object headers
        included (not the ``status0`` the table and ``by_id`` share): 0
        before the first read."""
        size = 0
        texts = self.texts
        if texts is not None:
            size += sys.getsizeof(texts) + sum(map(sys.getsizeof, texts))
        for view in (self.by_id, self.view):
            if view is not None:
                size += sys.getsizeof(view) + sys.getsizeof(view.ties)
                size += sum(map(sys.getsizeof, view.ties)) + sys.getsizeof(view.status1)
                if view.status0 is not self.status0:
                    size += sys.getsizeof(view.status0)
        return size

    def side_texts(self, literals: LiteralTable) -> list[str]:
        """Per (tie, side), the JSON list of that side's atom texts in
        string order (see the class docstring), built on the first call.

        ``literals`` is the atom table's current literal table.  A table
        that has grown since gives the same texts: an atom's text and the
        string order among the older atoms do not change.
        """
        texts = self.texts
        if texts is None:
            ids, json_list = self.ids, literals.json_list
            texts = []
            for lo, mid, hi in zip(self.offsets, self.mids, self.offsets[1:]):
                texts.append(json_list(ids[lo:mid]))
                texts.append(json_list(ids[mid:hi]))
            self.texts = texts
        return texts

    def _cone(self, k: int) -> Iterator[int]:
        """The positions in ``ids`` of tie ``k``'s cone atoms."""
        offsets, rest = self.offsets, self.rest
        return chain(range(offsets[k], offsets[k + 1]), range(rest[k], rest[k + 1]))

    def draw(self, policy: ChoicePolicy) -> bytes:
        """The trail flags of a run under ``policy``: each tie's true side,
        drawn as :func:`_break_tie` draws it and in the same order (forced
        ties skip the policy), and bit 1 on a forced tie.

        A side-blind policy (:func:`_batch_sides`) draws every free side
        in one ``choose_true_sides`` call and sees no ranks; any other is
        asked once per free tie, with the tie's ranks."""
        flags = bytearray(self.template)
        batch = _batch_sides(policy)
        if batch is not None:
            sides = batch(self.free)
            if self.free == len(flags):
                return sides  # no forced tie: the flags are the sides
            for k, side in zip(compress(range(len(flags)), flags.translate(_FREE)), sides):
                flags[k] = side
            return bytes(flags)
        choose, ranks, offsets = policy.choose_true_side, self.ranks, self.offsets
        ties = zip(range(len(flags)), offsets, self.mids, offsets[1:])
        for k, lo, mid, hi in compress(ties, flags.translate(_FREE)):
            flags[k] = choose(ranks[lo:mid].tolist(), ranks[mid:hi].tolist())
        return bytes(flags)

    def covers(self, flags: bytes) -> bool:
        """Whether every (tie, side) outcome ``flags`` needs is recorded."""
        # Per tie, the bit of the side it took: one big-int test for all.
        needed = int.from_bytes(flags.translate(_NEEDED), "little")
        return (int.from_bytes(self.filled, "little") & needed) == needed

    def _by_id(self) -> TieView:
        """The view by atom id, built on first use; from then on it keeps
        the side-1 outcomes, and the table drops its ``status1``."""
        view = self.by_id
        if view is None:
            size = len(self.status0)
            ties = [bytearray(b"\xff") * size for _ in range(0, len(self.template), 255)]
            status1 = bytearray(self.status0)
            ids, side1 = self.ids, self.status1
            for k in range(len(self.template)):
                plane, tie = ties[k // 255], k % 255
                for i in self._cone(k):
                    plane[ids[i]] = tie
                    status1[ids[i]] = side1[i]
            view = self.by_id = TieView(None, list(map(bytes, ties)), self.status0, status1)
            self.status1 = None
        return view

    def status(self, flags: bytes) -> bytes:
        """The model's status by atom id for ``flags`` (requires
        :meth:`covers`): side 0's outcomes, with the cones of the ties that
        took side 1 at their side-1 outcomes (:meth:`TieView.status`)."""
        return self._by_id().status(flags)

    def value(self, flags: bytes, index: int) -> int:
        """Byte ``index`` of :meth:`status` (``index`` is one of the
        table's atoms), read without building the status."""
        return self._by_id().value(flags, index)

    def ordered_status(self, flags: bytes, literals: LiteralTable) -> bytes:
        """The model's status for ``flags`` in the string order of
        ``literals``, the atom table's current literal table (requires
        :meth:`covers`); ``0xff`` for atoms past the table's.  The view in
        that order is gathered from :attr:`by_id` once per literal table."""
        view = self.view
        if view is None or view.literals is not literals:
            by_id = self._by_id()
            pad = len(literals.ordered) - len(self.status0)

            def gather(buffer: bytes | bytearray) -> bytearray:
                return bytearray(map((buffer + _ABSENT * pad).__getitem__, literals.order))

            view = self.view = TieView(
                literals,
                [bytes(gather(plane)) for plane in by_id.ties],
                gather(by_id.status0),
                gather(by_id.status1),
            )
        return view.status(flags)

    def solve(self, flags: bytes) -> TieSolve:
        """The solve that orients the ties as ``flags`` says, read from the
        table (requires :meth:`covers`): no status is built."""
        phase_s = dict(self.base.phase_s)
        return TieSolve(
            TableModel(self, flags),
            self.total,
            phase_s,
            choices=partial(self.choices, flags),
            state=partial(self.state, flags, phase_s),
        )

    def choices(self, flags: bytes) -> tuple[TieChoice, ...]:
        """The choice trail of the solve that orients the ties as ``flags``
        says: choice ``k`` is tie ``k``, its sides split at ``mids[k]``,
        and the flag's side bit says which one is true."""
        ids, offsets, atoms = self.ids, self.offsets, self.base.gp.atoms
        out = []
        for flag, lo, mid, hi in zip(flags, offsets, self.mids, offsets[1:]):
            sides = (ids[lo:mid], ids[mid:hi])
            side = flag & 1
            out.append(TieChoice(sides[side], sides[1 - side], bool(flag & 2), atoms))
        return tuple(out)

    def state(self, flags: bytes, phase_s: dict[str, float]) -> FinishedState:
        """The finished state of the run that orients the ties as ``flags``
        says, with its full reason buffers (requires :meth:`covers`)."""
        base = self.base
        kind = bytearray(base._reason_kind)
        arg = array("i", base._reason_arg)
        ids = self.ids
        for k, flag in enumerate(flags):
            cone_kind, cone_arg = self.kind[flag & 1], self.arg[flag & 1]
            for i in self._cone(k):
                a = ids[i]
                kind[a] = cone_kind[i]
                arg[a] = cone_arg[i]
        return FinishedState.of(base, self.status(flags), kind, arg, dict(phase_s))

    def fill(self, state: FinishedState, flags: bytes, choices: list[TieChoice]) -> bool:
        """Record the outcomes of a run whose first round took ``flags``.

        Records only a run that ended in its first round and whose
        ``close`` alone left no live atom (no atom of a cone undefined or
        falsified by the unfounded step); returns ``False`` for any other
        run, whose outcomes no cone determines on its own.
        """
        status, kind, arg = state.status, state._reason_kind, state._reason_arg
        ids, filled = self.ids, self.filled
        # The side-1 outcomes go to the table's ``status1`` until ``by_id``
        # keeps them; ``status0`` is shared with ``by_id``.
        side1 = self.status1 if self.by_id is None else None
        by_id, view = self.by_id, self.view
        rank = None if view is None else view.literals.rank
        if len(choices) != len(flags) or any(
            status[a] == UNDEF or kind[a] == _R_UNFOUNDED for a in ids
        ):
            return False
        for k, flag in enumerate(flags):
            side = flag & 1
            if filled[k] >> side & 1:
                continue
            filled[k] |= 1 << side
            cone_kind, cone_arg = self.kind[side], self.arg[side]
            for i in self._cone(k):
                a = ids[i]
                if side:
                    if side1 is not None:
                        side1[i] = status[a]
                    else:
                        by_id.status1[a] = status[a]
                    if view is not None:
                        view.status1[rank[a]] = status[a]
                else:
                    self.status0[a] = status[a]
                    if view is not None:
                        view.status0[rank[a]] = status[a]
                cone_kind[i] = kind[a]
                cone_arg[i] = arg[a]
        return True


def _batch_sides(policy: ChoicePolicy) -> Callable[[int], bytes] | None:
    """``policy.choose_true_sides`` when the class that defines it also
    defines the ``choose_true_side`` in use, else ``None``: a subclass that
    overrides only the per-tie choice keeps its per-tie calls."""
    mro = type(policy).__mro__
    batch, single = (
        next((cls for cls in mro if name in vars(cls)), None)
        for name in ("choose_true_sides", "choose_true_side")
    )
    return None if batch is None or batch is not single else policy.choose_true_sides


def _apply_tie(
    state: GroundGraphState, component: BottomComponent, true_side: int, *, forced: bool
) -> TieChoice:
    """Orient one tie: assign the chosen side true, the other false.

    Each side list is ascending, so the assignment batches, and with them
    the trail and decision trajectory, do not depend on how the sides
    were found (side bits or a fresh analysis).
    """
    sides = component.sides
    made_true = sides[true_side]
    made_false = sides[1 - true_side]
    t0 = perf_counter()
    state._assign_batch(made_true, TRUE, _R_TIE, true_side)
    state._assign_batch(made_false, FALSE, _R_TIE, 1 - true_side)
    state.phase_s["tie_apply_s"] += perf_counter() - t0
    return TieChoice(made_true, made_false, forced, state.gp.atoms)


def _ranks(order: list[int] | None, ids: list[int]) -> list[int]:
    """What a policy sees of a tie side's ascending atom ``ids``: their
    canonical ranks, not raw ids, so a streamed-update state makes the
    choice a fresh re-ground would.  ``order`` is the state's rank
    overlay; it is ``None`` (identity) on a fresh grounding.  Always a
    new list: a tie's side lists are shared by every clone of the state,
    and a policy may keep or change what it is given."""
    return list(ids) if order is None else [order[a] for a in ids]


def _break_tie(
    state: GroundGraphState, component: BottomComponent, policy: ChoicePolicy
) -> TieChoice:
    """Orient one tie under a policy (forced orientations bypass it).

    A side is forced exactly when it holds no atoms: in a bipartite SCC
    every rule node's head edge stays in-component and on its own side,
    so a side without atoms has no nodes at all — counting atoms
    (:meth:`BottomComponent.side_counts`) is equivalent to counting
    nodes, and skips a sweep over the rule half of the partition.  A free
    tie offers the policy :func:`_ranks` of its
    :attr:`~repro.ground.state.BottomComponent.sides`, as
    :meth:`TieTable.draw` does.
    """
    side0, side1 = component.sides
    true_side = forced_orientation(len(side0), len(side1))
    forced = true_side is not None
    if true_side is None:
        order = state._idx.atom_order
        true_side = policy.choose_true_side(_ranks(order, side0), _ranks(order, side1))
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
    and each round leaf runs the unfounded step once (well-founded
    variant).  Each free tie branches by :meth:`GroundGraphState.clone`:
    the state is closed, a copy is kept for side 1, and side 0 goes on
    in place.  Since the state is closed before each free tie's copy, a
    leaf that re-orients one tie redoes only the work of that tie and the
    ties after it, not the whole round's (``close`` is confluent, so the
    round ends in the state one ``close`` after all its ties would
    leave).  Every pending branch yields at least one more sequence, so
    with a ``limit`` only the newest ``limit - 1`` branches can ever be
    reached.  A free tie followed in its round by ``limit - 1`` or more
    free ties is never copied; an older copy that a later round's pushes
    overtake is dropped unread.  Yields one
    ``(model, choice trail)`` pair per decision *sequence*, the trail in
    round order; deduplicate on ``model.true_set()`` if only models
    matter.

    Worst-case exponential in the number of free choices — this is the
    exhaustive verifier behind the paper's "for all choices" statements,
    not an interpreter.  Every round and every leaf checks the armed
    deadline (:func:`~repro.errors.check_deadline`).
    """
    emitted = 0
    trail: list[TieChoice] = []
    # Unexplored side-1 branches, deepest last: (closed state copy, choice
    # depth, the round's ties, the tie's index).  select_ties pops the
    # schedule for good, so a branch carries the rest of its round itself.
    # Iterative so depth is bounded by memory, not the interpreter stack.
    pending: deque[tuple] = deque(maxlen=None if limit is None else max(limit - 1, 0))
    ties: list[BottomComponent] = []
    first = 0
    while limit is None or emitted < limit:
        check_deadline()
        # Whether a tie is free depends on the tie alone, so the free ties
        # still to come in this round are known now.  A copy that
        # ``maxlen`` later pushes of the same round would evict unread is
        # never made.
        forced_sides = [forced_orientation(*tie.side_counts()) for tie in ties[first:]]
        free_after = forced_sides.count(None)
        for i, forced in enumerate(forced_sides, first):
            tie = ties[i]
            if forced is None:
                free_after -= 1
                state.close()
                if pending.maxlen is None or free_after < pending.maxlen:
                    pending.append((state.clone(), len(trail), ties, i))
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
        state, depth, ties, i = pending.pop()
        del trail[depth:]
        trail.append(_apply_tie(state, ties[i], 1, forced=False))
        first = i + 1
