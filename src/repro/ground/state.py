"""Live ground-graph state: the ``close(M, G)`` procedure and its queries.

This is the operational heart of the paper.  The ground graph ``G(Π, Δ)``
is bipartite — predicate (atom) nodes and rule nodes, with signed edges —
and every semantics in §2-3 is phrased as repeatedly:

1. assigning truth values to some atoms, then
2. running ``close(M, G)``: deleting valued atoms, deleting rule nodes
   whose body became false, firing rule nodes with no incoming edges
   (their head becomes true), and falsifying atoms with no incoming edges,
   until nothing changes;

interleaved with two *global* queries on the remaining graph: the greatest
unfounded set ``Atoms[close(M, G+)]`` (well-founded steps) and the bottom
strongly connected components that are ties (tie-breaking steps).

:class:`GroundGraphState` is the v2 *compiled kernel* over the shared
:class:`~repro.datalog.grounding.GroundIndex` (CSR arrays plus tuple
views, built once per ground program):

* ``close`` is an O(edges) worklist over the compiled adjacency with
  per-rule pending counters and per-atom support counters; provenance is
  recorded in flat kind/argument buffers (no per-atom tuple allocation —
  see :meth:`GroundGraphState.reason_of`), and batch assignment
  (:meth:`assign_many`, the fused unfounded step) enqueues directly;
* the greatest-unfounded-set query is **incrementally valid across
  rounds**: every derived live atom carries a *source pointer* (the rule
  that first derived it in the positive cascade).  ``close`` detects when
  a source rule dies and queues the head; a query then only withdraws and
  re-establishes sources in the affected region instead of re-running the
  cascade over the whole live graph — a round in which no source was
  touched answers in O(1).  ``unfounded_atoms(full_recompute=True)`` runs
  the seed-era full cascade (the differential oracle);
  :meth:`falsify_unfounded` fuses query → falsify → close into one call,
  so a well-founded round never rebuilds anything it already knows;
* the bottom-SCC query is fully incremental.  Evaluation only ever
  *removes* nodes, so strongly connected components can split but never
  merge: the cached condensation keeps stable (never reused) component
  ids, Tarjan is re-run only inside components that lost a node, and each
  component carries a count of incoming cross edges that ``close``
  decrements as edges disappear — a component is a bottom component
  exactly when that count hits zero.  The same signed Tarjan pass labels
  every node with its Lemma-1 side bit (parity of negative edges along
  the DFS tree) and checks every in-component edge against the bits, so
  each component's tie verdict and sides come with the condensation,
  with no second walk per component.  On top of the cache sits a
  **min-keyed tie schedule**: every component that becomes bottom is
  pushed onto a heap keyed by its smallest atom id, and
  :meth:`select_ties` drains the schedule for a batched round (discarding
  entries whose component split, resolved, or turned out not to be a
  tie) instead of rescanning all bottom components per round.
  ``bottom_components_live(full_recompute=True)`` bypasses the cache (the
  escape hatch the property suite pins against the incremental path);
* a branching caller (the tie enumerator) branches by :meth:`clone`:
  the per-state arrays are copied at C level, and the condensation's
  node lists, side bits and memoized components are shared.

``close`` is confluent (the paper notes the result is independent of
operation order); a property test shuffles worklist order to confirm.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Iterable, Iterator

from repro.datalog.grounding import GroundProgram
from repro.errors import CloseConflictError, NotATieError, SemanticsError, check_deadline
from repro.graphs.scc import signed_strongly_connected_components
from repro.graphs.ties import TieAnalysis, analyze_component
from repro.ground.model import FALSE, TRUE, UNDEF, Interpretation

__all__ = ["GroundGraphState", "FinishedState", "BottomComponent"]

# Provenance kinds, stored in the flat ``_reason_kind`` buffer.  The
# argument buffer holds the fired rule id (R_FIRED), the interned label
# id (R_ASSIGNED), an unfounded round (R_UNFOUNDED) or a tie side
# (R_TIE); reason_of() reconstitutes the legacy tuples.
_R_NONE = 0
_R_DELTA = 1
_R_EDB_ABSENT = 2
_R_FIRED = 3
_R_NO_SUPPORT = 4
_R_ASSIGNED = 5
_R_UNFOUNDED = 6  # argument: the round number, or -1 for an unnumbered round
_R_TIE = 7  # argument: the tie side the atom is on

_KIND_TUPLES = {
    _R_DELTA: ("delta",),
    _R_EDB_ABSENT: ("edb-absent",),
    _R_NO_SUPPORT: ("no-support",),
}


class BottomComponent:
    """One bottom SCC of the live graph, with its tie analysis.

    ``atom_ids`` / ``rule_ids`` split the component's nodes.  A tie's
    :attr:`sides` are its two Lemma-1 side atom lists, each ascending
    (which one plays K is the interpreter's choice).  The kernel builds a
    tie from those lists alone, read off its side bits, and
    :attr:`analysis` and :meth:`side_of_atom` are views built on first
    read; a component built from an :class:`~repro.graphs.ties.TieAnalysis`
    (a non-tie's odd-cycle witness, a fresh oracle analysis, the seed
    kernel) derives its lists from that analysis instead.
    """

    __slots__ = (
        "atom_ids",
        "rule_ids",
        "_analysis",
        "_sides",
        "_atom_count",
        "_head_of",
        "_side_of_atom",
    )

    def __init__(
        self,
        atom_ids: list[int],
        rule_ids: list[int],
        analysis: TieAnalysis | None,
        atom_count: int,
        sides: tuple[list[int], list[int]] | None = None,
        head_of: tuple[int, ...] | None = None,
    ):
        self.atom_ids = atom_ids
        self.rule_ids = rule_ids
        self._analysis = analysis
        self._sides = sides
        self._atom_count = atom_count
        # The index's head map, for the rule nodes' sides in ``analysis``
        # (a rule of a bottom SCC is on the side of its head atom).
        self._head_of = head_of
        self._side_of_atom: dict[int, int] | None = None

    @property
    def analysis(self) -> TieAnalysis:
        """The frozen Lemma-1 analysis (built on first read for a tie
        made from its side lists: every node, rule nodes included)."""
        a = self._analysis
        if a is None:
            side0, side1 = self.sides
            sides = dict.fromkeys(side0, 0)
            sides.update(dict.fromkeys(side1, 1))
            head_of, n_atoms = self._head_of, self._atom_count
            assert head_of is not None
            for r in self.rule_ids:
                sides[n_atoms + r] = sides[head_of[r]]
            a = self._analysis = TieAnalysis(is_tie=True, sides=sides)
        return a

    @property
    def is_tie(self) -> bool:
        """True iff the component has no cycle with odd negative parity."""
        return self._sides is not None or self._analysis.is_tie  # type: ignore[union-attr]

    @property
    def sides(self) -> tuple[list[int], list[int]]:
        """The side-0 and side-1 atom ids, each ascending; requires a tie.
        Built once and shared by every clone that memoized the component,
        so callers never mutate them."""
        sides = self._sides
        if sides is None:
            analysis = self._analysis
            assert analysis is not None
            if analysis.sides is None:
                raise NotATieError("component has an odd cycle; no (K, L) partition exists")
            sides = ([], [])
            atom_count = self._atom_count
            for node, side in analysis.sides.items():
                if node < atom_count:
                    sides[side].append(node)
            sides[0].sort()
            sides[1].sort()
            self._sides = sides
        return sides

    def side_of_atom(self) -> dict[int, int]:
        """Atom id → side (0/1) under the Lemma-1 partition (a view over
        :attr:`sides`, built on first read)."""
        mapping = self._side_of_atom
        if mapping is None:
            side0, side1 = self.sides
            mapping = dict.fromkeys(side0, 0)
            mapping.update(dict.fromkeys(side1, 1))
            self._side_of_atom = mapping
        return mapping

    def side_counts(self) -> tuple[int, int]:
        """Number of *atoms* on side 0 and side 1."""
        side0, side1 = self.sides
        return len(side0), len(side1)


class _QueryScratch:
    """Epoch-marked scratch for the unfounded-set cascades.

    Shared (by reference) between a state and all of its clones: every
    query bumps the shared epoch, so stale marks from any other state are
    ignored without ever clearing the arrays.
    """

    __slots__ = ("epoch", "rule_mark", "rule_pend", "atom_mark")

    def __init__(self, n_atoms: int, n_rules: int) -> None:
        self.epoch = 0
        self.rule_mark = [0] * n_rules
        self.rule_pend = [0] * n_rules
        self.atom_mark = [0] * n_atoms

    def grow(self, n_atoms: int, n_rules: int) -> None:
        """Extend the mark arrays (the streaming-update overlay appends
        atoms and instances to a live ground program; a scratch shared
        with pre-update states must cover the grown id space)."""
        if len(self.rule_mark) < n_rules:
            pad = n_rules - len(self.rule_mark)
            self.rule_mark.extend([0] * pad)
            self.rule_pend.extend([0] * pad)
        if len(self.atom_mark) < n_atoms:
            self.atom_mark.extend([0] * (n_atoms - len(self.atom_mark)))


class FinishedState:
    """The model and provenance a finished run leaves behind.

    :meth:`GroundGraphState.finish` turns a live state into one of these
    in place; :meth:`GroundGraphState.snapshot` copies one out of a live
    state that runs on.  It holds :attr:`FIELDS` only — the ground
    program, the status bytes and the flat reason buffers (a kind
    ``bytearray`` and an argument ``array('i')``) with their labels, plus
    the run's ``phase_s`` — which is what ``explain`` reads.  Every
    per-atom buffer is a machine array, so a copy is one memcpy and
    freeing one costs O(1).
    The live :class:`GroundGraphState` extends it with the search
    machinery.
    """

    FIELDS = (
        "gp",
        "n_atoms",
        "n_rules",
        "status",
        "_reason_kind",
        "_reason_arg",
        "_labels",
        "phase_s",
    )

    @classmethod
    def of(
        cls,
        base: "FinishedState",
        status: bytes | bytearray,
        reason_kind: bytearray,
        reason_arg: array,
        phase_s: dict[str, float],
    ) -> "FinishedState":
        """A finished state over ``base``'s ground program and labels with
        the given buffers (status bytes, a kind ``bytearray`` and an
        ``array('i')`` of arguments, kept as they are), assembled without
        a kernel run."""
        state = object.__new__(cls)
        state.gp = base.gp
        state.n_atoms = base.n_atoms
        state.n_rules = base.n_rules
        state.status = status
        state._reason_kind = reason_kind
        state._reason_arg = reason_arg
        state._labels = list(base._labels)
        state.phase_s = phase_s
        return state

    def reason_of(self, index: int) -> tuple | None:
        """Why atom ``index`` received its value (legacy tuple form).

        Returns ``None`` for unvalued atoms; otherwise one of the
        provenance tuples documented on :class:`GroundGraphState`
        (``("fired", r)``, ``("assigned", label)``, ``("delta",)``, ...).
        """
        kind = self._reason_kind[index]
        if kind == _R_NONE:
            return None
        if kind == _R_FIRED:
            return ("fired", self._reason_arg[index])
        if kind == _R_ASSIGNED:
            return ("assigned", self._labels[self._reason_arg[index]])
        if kind == _R_UNFOUNDED:
            k = self._reason_arg[index]
            return ("assigned", ("unfounded", None if k < 0 else k))
        if kind == _R_TIE:
            return ("assigned", ("tie", self._reason_arg[index]))
        return _KIND_TUPLES[kind]

    def interpretation(self) -> Interpretation:
        """Snapshot the current (possibly partial) model."""
        return Interpretation(self.gp, bytes(self.status))

    def __repr__(self) -> str:
        return f"FinishedState(atoms={self.n_atoms}, rules={self.n_rules})"


class GroundGraphState(FinishedState):
    """Mutable evaluation state over a :class:`GroundProgram`.

    The constructor installs the initial model M₀(Δ) — true for every atom
    of Δ, false for EDB atoms outside Δ, undefined for the remaining IDB
    atoms — but does **not** run ``close``; interpreters call
    :meth:`close` explicitly, mirroring the paper's pseudocode.

    All per-state storage is flat and initialized by C-level copies from
    the shared :class:`~repro.datalog.grounding.GroundIndex`, so
    construction and :meth:`clone` cost O(n) memcpy rather than O(edges)
    Python loops.  The buffers a finished model or snapshot takes along
    are machine arrays: ``status`` and ``_reason_kind`` are bytearrays
    and ``_reason_arg`` an ``array('i')``, so :meth:`interpretation` and
    :meth:`snapshot` copy bytes, not Python ints.  The counters and
    live-slot arrays that never leave the live state (``atom_support``,
    ``rule_pending``, ``pos_live``, the source pointers) stay lists,
    which CPython indexes fastest in the hot loops.
    ``phase_s`` accumulates wall-clock seconds per kernel phase
    (``close_s`` / ``unfounded_s`` / ``tie_select_s`` / ``tie_apply_s`` /
    ``tie_analysis_s``) for the solve-phase accounting surfaced in
    :class:`~repro.api.solution.Solution` timings.  ``tie_analysis_s``
    books the building of bottom components: a tie's two side lists read
    off the side bits, a non-tie's odd-cycle witness.  It is carved out
    of tie selection; the labelling and the tie verdicts themselves come
    with the condensation's signed Tarjan and are booked where that runs:
    ``tie_select_s`` inside :meth:`select_ties`, no phase inside
    :meth:`bottom_components_live` (the engine's checkpoint build books
    its call as ``checkpoint_s``).
    """

    def __init__(self, ground_program: GroundProgram):
        gp = ground_program
        idx = gp.index
        self.gp = gp
        self._idx = idx
        n_atoms = idx.n_atoms
        n_rules = idx.n_rules
        self.n_atoms = n_atoms
        self.n_rules = n_rules

        # M0(Δ): values for EDB atoms and for atoms of Δ, precompiled.
        self.status = bytearray(idx.initial_status)
        self.atom_alive = bytearray(b"\x01" * n_atoms)
        alive_init = idx.initial_rule_alive
        if alive_init is None:
            self.rule_alive = bytearray(b"\x01" * n_rules)
        else:
            # Streaming updates disable instances a retraction killed;
            # they start dead (never fired, never killed, invisible to
            # every live-set sweep) rather than being compacted away.
            self.rule_alive = bytearray(alive_init)
        # Provenance, as flat parallel buffers (kind byte + int argument;
        # assignment labels interned once per batch in _labels) instead of
        # one tuple per atom; reason_of() rebuilds the legacy tuples:
        #   ("delta",)          — true because it is in Δ
        #   ("edb-absent",)     — EDB atom outside Δ
        #   ("fired", r)        — head of rule instance r, body all true
        #   ("no-support",)     — every rule instance for it was deleted
        #   ("assigned", label) — external assignment (unfounded set / tie);
        #                           falsify_unfounded stores its round number
        #                           and a tie orientation its side instead
        #                           of interning ("unfounded", k) / ("tie", s)
        self._reason_kind = bytearray(n_atoms)
        self._reason_arg = array("i", [0]) * n_atoms
        self._labels: list[tuple | None] = []
        self.rule_pending: list[int] = list(idx.body_len)
        self.atom_support: list[int] = list(idx.support)
        # Live positive body atoms per rule, maintained incrementally by
        # close(); seeds the unfounded-set cascades without a rebuild.
        self.pos_live: list[int] = list(idx.pos_len)

        # Swap-remove compaction of the live node sets: *_slot maps a node
        # to its slot in the corresponding unordered live list (-1 = dead).
        self._live_atoms: list[int] = list(idx.iota_atoms)
        self._atom_slot: list[int] = list(idx.iota_atoms)
        if alive_init is None:
            self._live_rules: list[int] = list(idx.iota_rules)
            self._rule_slot: list[int] = list(idx.iota_rules)
        else:
            self._live_rules = list(idx.live_rules_init)
            self._rule_slot = list(idx.rule_slot_init)
        self._live_atom_count = n_atoms

        self._dirty: deque[int] = deque(idx.initial_valued)
        status = self.status
        kind = self._reason_kind
        for a in idx.initial_valued:
            kind[a] = _R_DELTA if status[a] == TRUE else _R_EDB_ABSENT

        self._scratch = _QueryScratch(n_atoms, n_rules)

        # Incremental unfounded-set machinery (source pointers).  _src[a]
        # is the live rule whose firing derived a in the last positive
        # cascade (-1 = none); valid only while _unf_valid.  _unf_lost
        # queues atoms whose source rule died since the last query;
        # _unf_sourceless is the current greatest unfounded set.
        self._src: list[int] = [-1] * n_atoms
        self._unf_valid = False
        self._unf_lost: list[int] = []
        self._unf_sourceless: set[int] = set()

        # Cached condensation of the live graph (see bottom_components_live).
        # Components have *stable, never reused* ids: a dict cid → sorted
        # node list, a node → cid map, a per-cid count of incoming cross
        # edges (decremented by close as edges disappear), the cids whose
        # count reached zero (the bottom components), memoized
        # BottomComponent objects, and the cids that lost a node since the
        # last query.
        self._scc_comps: dict[int, list[int]] | None = None
        self._scc_comp_of: list[int] | None = None
        self._scc_incross: dict[int, int] = {}
        self._scc_bottom: set[int] = set()
        self._scc_bottom_obj: dict[int, BottomComponent] = {}
        self._scc_next_cid = 0
        self._scc_dirty: set[int] = set()

        # Lemma-1 side bits, one byte per node, written by the signed
        # Tarjan that builds the condensation: inside each component they
        # are the parity labelling along its DFS tree, so a tie's two
        # sides are its two bit classes.  The same pass checks every
        # in-component edge against them; _scc_odd holds the cids that
        # failed (the non-ties).  Clones share the bits until either side
        # rewrites them (_scc_bits_own is False while shared).
        self._scc_bits: bytearray | None = None
        self._scc_bits_own = False
        self._scc_odd: set[int] = set()
        # tie_analysis_s seconds accrued inside the current select_ties
        # window, subtracted so the two phases never overlap.
        self._ta_overlap = 0.0

        # Min-keyed schedule of bottom components: (smallest node, cid)
        # heap entries pushed whenever a component becomes bottom; stale
        # entries (split, resolved, or non-tie components) are discarded
        # by select_ties().
        self._tie_heap: list[tuple[int, int]] = []

        # Per-phase wall-clock accounting (seconds, accumulated).
        self.phase_s: dict[str, float] = {
            "close_s": 0.0,
            "unfounded_s": 0.0,
            "tie_select_s": 0.0,
            "tie_apply_s": 0.0,
            "tie_analysis_s": 0.0,
        }

        # Rule nodes that start with no incoming edges (empty bodies) fire
        # during the first close; atoms with no support start falsifiable.
        self._initial = True

    # -- provenance ---------------------------------------------------------

    def _intern_label(self, label: tuple | None) -> int:
        self._labels.append(label)
        return len(self._labels) - 1

    # -- assignment and closure --------------------------------------------

    def _set(self, index: int, value: int, kind: int, arg: int = 0) -> None:
        current = self.status[index]
        if current == value:
            return
        if current != UNDEF:
            raise CloseConflictError(index)
        self.status[index] = value
        self._reason_kind[index] = kind
        self._reason_arg[index] = arg
        self._dirty.append(index)

    def assign(self, index: int, value: int, label: tuple | None = None) -> None:
        """Externally assign ``M(a) := value`` (queued until :meth:`close`).

        Assigning an already-valued atom to the same value is a no-op;
        to the opposite value raises :class:`CloseConflictError`.
        ``label`` (e.g. ``("unfounded", round)`` or ``("tie", n, side)``)
        is recorded for provenance.
        """
        if value not in (TRUE, FALSE):
            raise SemanticsError("assign() takes TRUE or FALSE")
        self._set(index, value, _R_ASSIGNED, self._intern_label(label))

    def assign_many(
        self, indices: Iterable[int], value: int, label: tuple | None = None
    ) -> None:
        """Assign a batch of atoms the same value.

        The label is interned once and the batch is written straight into
        the flat buffers and the close worklist — no per-atom tuple is
        allocated.
        """
        if value not in (TRUE, FALSE):
            raise SemanticsError("assign() takes TRUE or FALSE")
        self._assign_batch(indices, value, _R_ASSIGNED, self._intern_label(label))

    def _assign_batch(self, indices: Iterable[int], value: int, reason: int, arg: int) -> None:
        status = self.status
        kind = self._reason_kind
        reason_arg = self._reason_arg
        dirty = self._dirty
        for index in indices:
            current = status[index]
            if current == value:
                continue
            if current != UNDEF:
                raise CloseConflictError(index)
            status[index] = value
            kind[index] = reason
            reason_arg[index] = arg
            dirty.append(index)

    def close(self) -> None:
        """Run the paper's ``close(M, G)`` until no operation applies."""
        t_close = perf_counter()
        idx = self._idx
        if self._initial:
            self._initial = False
            for r_index in idx.empty_body_rules:
                if self.rule_alive[r_index]:
                    self._fire(r_index)
            status = self.status
            for index in idx.zero_support_atoms:
                if status[index] == UNDEF and self.atom_support[index] == 0:
                    self._set(index, FALSE, _R_NO_SUPPORT)

        dirty = self._dirty
        if not dirty:
            self.phase_s["close_s"] += perf_counter() - t_close
            return
        # Hot loop: everything in locals.  Rule fire/kill events happen at
        # most once per rule and stay as method calls; per-edge work is
        # inline.
        status = self.status
        atom_alive = self.atom_alive
        rule_alive = self.rule_alive
        rule_pending = self.rule_pending
        pos_live = self.pos_live
        pos_occ_t = idx.pos_occ_t
        neg_occ_t = idx.neg_occ_t
        live_atoms, atom_slot = self._live_atoms, self._atom_slot
        comp_of = self._scc_comp_of
        track = comp_of is not None
        comps = self._scc_comps
        scc_dirty = self._scc_dirty
        incross = self._scc_incross
        bottom = self._scc_bottom
        heap = self._tie_heap
        sourceless = self._unf_sourceless
        n_atoms = self.n_atoms
        heap_key = self._heap_key

        while dirty:
            index = dirty.popleft()
            if not atom_alive[index]:
                continue
            atom_alive[index] = 0
            self._live_atom_count -= 1
            slot = atom_slot[index]
            last = live_atoms.pop()
            if last != index:
                live_atoms[slot] = last
                atom_slot[last] = slot
            atom_slot[index] = -1
            if sourceless:
                sourceless.discard(index)
            cu = -1
            if track:
                cu = comp_of[index]
                scc_dirty.add(cu)
            value = status[index]
            if value == TRUE:
                # A true exit can only make *more* atoms derivable, which
                # is irrelevant while every live atom has a source — but
                # with standing unfounded atoms it could re-found them, so
                # the incremental machinery surrenders to a full rebuild.
                if self._unf_valid and sourceless:
                    self._unf_valid = False
                # Positive occurrences are satisfied, negative ones violated.
                for r in pos_occ_t[index]:
                    pos_live[r] -= 1
                    if rule_alive[r]:
                        if track:
                            cr = comp_of[n_atoms + r]
                            if cr != cu:
                                count = incross[cr] - 1
                                incross[cr] = count
                                if count == 0:
                                    bottom.add(cr)
                                    heappush(heap, (heap_key(comps[cr]), cr))
                        pending = rule_pending[r] - 1
                        rule_pending[r] = pending
                        if pending == 0:
                            self._fire(r)
                for r in neg_occ_t[index]:
                    if rule_alive[r]:
                        if track:
                            cr = comp_of[n_atoms + r]
                            if cr != cu:
                                count = incross[cr] - 1
                                incross[cr] = count
                                if count == 0:
                                    bottom.add(cr)
                                    heappush(heap, (heap_key(comps[cr]), cr))
                        self._kill_rule(r)
            else:
                # Negative occurrences first (satisfaction decrements),
                # then positive ones (kills); the order fixes the close
                # trajectory, and with it the reasons a run records.
                for r in neg_occ_t[index]:
                    if rule_alive[r]:
                        if track:
                            cr = comp_of[n_atoms + r]
                            if cr != cu:
                                count = incross[cr] - 1
                                incross[cr] = count
                                if count == 0:
                                    bottom.add(cr)
                                    heappush(heap, (heap_key(comps[cr]), cr))
                        pending = rule_pending[r] - 1
                        rule_pending[r] = pending
                        if pending == 0:
                            self._fire(r)
                for r in pos_occ_t[index]:
                    pos_live[r] -= 1
                    if rule_alive[r]:
                        if track:
                            cr = comp_of[n_atoms + r]
                            if cr != cu:
                                count = incross[cr] - 1
                                incross[cr] = count
                                if count == 0:
                                    bottom.add(cr)
                                    heappush(heap, (heap_key(comps[cr]), cr))
                        self._kill_rule(r)
        self.phase_s["close_s"] += perf_counter() - t_close

    def _fire(self, r_index: int) -> None:
        """Rule node with no incoming edges: its head becomes true."""
        self._remove_rule(r_index)
        head = self._idx.head_of_t[r_index]
        self.atom_support[head] -= 1
        if self.status[head] == FALSE:
            raise CloseConflictError(
                head,
                f"rule instance #{r_index} fired but its head atom "
                f"{self.gp.atoms.atom(head)} is already false",
            )
        self._set(head, TRUE, _R_FIRED, r_index)

    def _kill_rule(self, r_index: int) -> None:
        """Rule node deleted because a body literal became false."""
        self._remove_rule(r_index)
        head = self._idx.head_of_t[r_index]
        support = self.atom_support[head] - 1
        self.atom_support[head] = support
        if self._unf_valid and self._src[head] == r_index:
            # The head's derivation rule died: queue it for the next
            # incremental unfounded query to re-derive or falsify.
            self._src[head] = -1
            self._unf_lost.append(head)
        if support == 0 and self.status[head] == UNDEF:
            self._set(head, FALSE, _R_NO_SUPPORT)

    def _remove_rule(self, r_index: int) -> None:
        """Mark a rule node dead; maintain compaction and the SCC cache.

        The rule's outgoing edge (to its head atom, if still live)
        disappears with it, so the head's component loses an incoming
        edge unless the rule is in the same component.
        """
        self.rule_alive[r_index] = 0
        slot = self._rule_slot[r_index]
        last = self._live_rules.pop()
        if last != r_index:
            self._live_rules[slot] = last
            self._rule_slot[last] = slot
        self._rule_slot[r_index] = -1
        comp_of = self._scc_comp_of
        if comp_of is not None:
            cr = comp_of[self.n_atoms + r_index]
            self._scc_dirty.add(cr)
            head = self._idx.head_of_t[r_index]
            if self.atom_alive[head]:
                ch = comp_of[head]
                if ch != cr:
                    count = self._scc_incross[ch] - 1
                    self._scc_incross[ch] = count
                    if count == 0:
                        self._scc_bottom.add(ch)
                        heappush(self._tie_heap, (self._heap_key(self._scc_comps[ch]), ch))

    # -- canonical atom order ------------------------------------------------

    def order_key(self, a: int) -> int:
        """Canonical rank of atom ``a`` (its fresh-grounding id).

        Identity unless the index carries a streaming-update
        ``atom_order`` overlay (ranks live atom ids exactly as a fresh
        grounding would assign them, built on the index's first read);
        interpreters compare ranks instead of raw ids wherever an
        order-sensitive choice must match a rebuild.  The order is read
        from the index the state is on, so a clone or a reopened state
        never carries another index's ranks.
        """
        order = self._idx.atom_order
        return a if order is None else order[a]

    def _heap_key(self, nodes: list[int]) -> int:
        """Tie-schedule key of a component: its first atom in canonical
        order (node lists are sorted, so without an overlay that is just
        the first node — atoms sort before shifted rule nodes)."""
        order = self._idx.atom_order
        if order is None:
            return nodes[0]
        n_atoms = self.n_atoms
        return min((order[n] for n in nodes if n < n_atoms), default=1 << 60)

    # -- global queries on the live graph -----------------------------------

    def live_atom_ids(self) -> list[int]:
        """Atoms still in the graph (no truth value yet), ascending."""
        return sorted(self._live_atoms)

    @property
    def live_atom_count(self) -> int:
        """Number of atoms still undefined/alive (O(1), maintained)."""
        return self._live_atom_count

    def unfounded_atoms(self, *, full_recompute: bool = False) -> list[int]:
        """The greatest unfounded set: ``Atoms[close(M, G+)]`` (§2).

        Graph-theoretically: run the positive firing cascade on the live
        graph restricted to positive edges; live atoms *not* derived form
        the largest set whose induced positive subgraph has no source.
        Must be called on a closed state.

        The default path is incremental: source pointers established by
        the previous query stay valid across rounds, and only the region
        whose sources were invalidated by ``close`` is re-derived — a
        round that killed no source rule answers without touching the
        graph.  ``full_recompute=True`` runs the read-only full cascade
        (the seed-era algorithm, used as the differential oracle).
        """
        self._require_closed()
        t0 = perf_counter()
        if full_recompute:
            result = sorted(self._unfounded_full_scan())
        else:
            self._unfounded_refresh()
            result = sorted(self._unf_sourceless)
        self.phase_s["unfounded_s"] += perf_counter() - t0
        return result

    def falsify_unfounded(self, *, numbered: bool = True, start: int = 1) -> int:
        """Fused well-founded cascade: falsify unfounded sets to fixpoint.

        Equivalent to the §2 loop ``while U := unfounded_atoms():
        assign_many(U, FALSE); close()`` but fused into the kernel: each
        round reuses the incrementally-maintained source pointers, writes
        the batch straight into the worklist, and re-closes — no sorted
        list or per-atom label tuple crosses the API per round.  Returns
        the number of nonempty rounds.  Provenance labels are
        ``("unfounded", k)`` with ``k`` counting from ``start``
        (``numbered=False`` records ``("unfounded", None)``, matching the
        tie-breaking interpreter's convention).  The round number is
        stored in the atom's reason slot, so no label is interned and a
        state that runs many cascades keeps a bounded label table.  Each
        round starts with :func:`~repro.errors.check_deadline`: an armed
        deadline raises between rounds, on a closed state.
        """
        self._require_closed()
        rounds = 0
        while True:
            check_deadline()
            t0 = perf_counter()
            self._unfounded_refresh()
            sourceless = self._unf_sourceless
            if not sourceless:
                self.phase_s["unfounded_s"] += perf_counter() - t0
                return rounds
            k = start + rounds if numbered else -1
            rounds += 1
            # Sorted order keeps the close trajectory (and hence
            # fired-rule provenance) identical to the step-by-step
            # unfounded_atoms()/assign_many() loop.
            self._assign_batch(sorted(sourceless), FALSE, _R_UNFOUNDED, k)
            self.phase_s["unfounded_s"] += perf_counter() - t0
            self.close()

    def _unfounded_full_scan(self) -> list[int]:
        """Read-only full positive cascade (the seed-era query).

        Touches only the live subgraph: the persistent ``pos_live``
        counters seed the cascade, and the scratch is epoch-marked instead
        of being reallocated or cleared.  Does not touch the incremental
        source-pointer state — this is the differential oracle for it.
        """
        idx = self._idx
        scratch = self._scratch
        scratch.grow(self.n_atoms, self.n_rules)
        scratch.epoch += 1
        epoch = scratch.epoch
        rule_mark = scratch.rule_mark
        rule_pend = scratch.rule_pend
        atom_mark = scratch.atom_mark
        pos_live = self.pos_live
        rule_alive = self.rule_alive
        atom_alive = self.atom_alive
        head_of = idx.head_of_t
        pos_occ_t = idx.pos_occ_t

        # Sourceless rule nodes of the live positive subgraph: every
        # positive body atom already left the graph (necessarily true).
        stack = [r for r in self._live_rules if not pos_live[r]]
        while stack:
            r = stack.pop()
            head = head_of[r]
            if atom_mark[head] == epoch or not atom_alive[head]:
                continue
            atom_mark[head] = epoch
            for r2 in pos_occ_t[head]:
                if rule_alive[r2]:
                    if rule_mark[r2] != epoch:
                        rule_mark[r2] = epoch
                        rule_pend[r2] = pos_live[r2]
                    pending = rule_pend[r2] - 1
                    rule_pend[r2] = pending
                    if pending == 0:
                        stack.append(r2)
        return [i for i in self._live_atoms if atom_mark[i] != epoch]

    def _unfounded_refresh(self) -> None:
        """Bring the source pointers up to date with the live graph."""
        if not self._unf_valid:
            self._unf_rebuild()
        elif self._unf_lost:
            self._unf_repair()

    def _unf_rebuild(self) -> None:
        """Full positive cascade installing fresh source pointers."""
        idx = self._idx
        scratch = self._scratch
        scratch.grow(self.n_atoms, self.n_rules)
        scratch.epoch += 1
        epoch = scratch.epoch
        rule_mark = scratch.rule_mark
        rule_pend = scratch.rule_pend
        atom_mark = scratch.atom_mark
        pos_live = self.pos_live
        rule_alive = self.rule_alive
        atom_alive = self.atom_alive
        head_of = idx.head_of_t
        pos_occ_t = idx.pos_occ_t
        src = self._src

        stack = [r for r in self._live_rules if not pos_live[r]]
        while stack:
            r = stack.pop()
            head = head_of[r]
            if atom_mark[head] == epoch or not atom_alive[head]:
                continue
            atom_mark[head] = epoch
            src[head] = r
            for r2 in pos_occ_t[head]:
                if rule_alive[r2]:
                    if rule_mark[r2] != epoch:
                        rule_mark[r2] = epoch
                        rule_pend[r2] = pos_live[r2]
                    pending = rule_pend[r2] - 1
                    rule_pend[r2] = pending
                    if pending == 0:
                        stack.append(r2)
        new_sourceless: set[int] = set()
        for i in self._live_atoms:
            if atom_mark[i] != epoch:
                new_sourceless.add(i)
                src[i] = -1
        self._unf_sourceless = new_sourceless
        self._unf_lost = []
        self._unf_valid = True

    def _unf_repair(self) -> None:
        """Re-derive only the region whose sources were invalidated.

        Phase 1 transitively withdraws sources that depended (through
        positive edges) on atoms that lost theirs; phase 2 re-establishes
        sources inside that affected region via rules whose live positive
        body atoms are all sourced (counters initialized lazily per
        touched rule, cascaded to fixpoint); whatever remains sourceless
        joins the unfounded set.  Soundness rests on deletion-only
        dynamics: anything derivable now was derivable before, so sources
        outside the affected region stay exact.
        """
        idx = self._idx
        atom_alive = self.atom_alive
        rule_alive = self.rule_alive
        head_of = idx.head_of_t
        pos_occ_t = idx.pos_occ_t
        src = self._src
        scratch = self._scratch
        scratch.grow(self.n_atoms, self.n_rules)
        scratch.epoch += 1
        epoch = scratch.epoch
        atom_mark = scratch.atom_mark
        rule_mark = scratch.rule_mark
        rule_pend = scratch.rule_pend

        stack = [a for a in self._unf_lost if atom_alive[a]]
        self._unf_lost = []
        affected: list[int] = []
        while stack:
            a = stack.pop()
            if atom_mark[a] == epoch:
                continue
            atom_mark[a] = epoch
            affected.append(a)
            for r in pos_occ_t[a]:
                if rule_alive[r]:
                    h = head_of[r]
                    if src[h] == r:
                        src[h] = -1
                        if atom_alive[h]:
                            stack.append(h)
        if not affected:
            return

        pos_off, pos_atoms = idx.pos_off, idx.pos_atoms
        rules_by_head_t = idx.rules_by_head_t
        ready: list[int] = []
        for a in affected:
            for r in rules_by_head_t[a]:
                if rule_alive[r] and rule_mark[r] != epoch:
                    rule_mark[r] = epoch
                    bad = 0
                    for b in pos_atoms[pos_off[r] : pos_off[r + 1]]:
                        if atom_alive[b] and src[b] == -1:
                            bad += 1
                    rule_pend[r] = bad
                    if bad == 0:
                        ready.append(r)
        while ready:
            r = ready.pop()
            h = head_of[r]
            if src[h] != -1 or not atom_alive[h] or atom_mark[h] != epoch:
                continue
            src[h] = r
            for r2 in pos_occ_t[h]:
                if rule_alive[r2] and rule_mark[r2] == epoch:
                    pending = rule_pend[r2] - 1
                    rule_pend[r2] = pending
                    if pending == 0:
                        ready.append(r2)
        sourceless = self._unf_sourceless
        for a in affected:
            if src[a] == -1 and atom_alive[a]:
                sourceless.add(a)

    def _require_closed(self) -> None:
        if self._dirty or self._initial:
            raise SemanticsError("graph queries require a closed state; call close() first")

    def _live_successors(self, node: int) -> Iterator[tuple[int, bool]]:
        """Signed out-edges of a live node (atoms: 0..n_atoms-1; rules shifted)."""
        idx = self._idx
        n_atoms = self.n_atoms
        if node < n_atoms:
            rule_alive = self.rule_alive
            for r in idx.pos_occ_t[node]:
                if rule_alive[r]:
                    yield n_atoms + r, True
            for r in idx.neg_occ_t[node]:
                if rule_alive[r]:
                    yield n_atoms + r, False
        else:
            head = idx.head_of_t[node - n_atoms]
            if self.atom_alive[head]:
                yield head, True

    def _rebuild_scc(self) -> None:
        """Full signed Tarjan over the live graph; installs a fresh
        condensation with its side bits and tie verdicts.

        Component ids continue from ``_scc_next_cid`` so ids are never
        reused across rebuilds.  Every component is new, so the schedule
        is replaced by one entry per bottom component.
        """
        n_atoms = self.n_atoms
        node_count = n_atoms + self.n_rules
        live_nodes = sorted(self._live_atoms)
        live_nodes.extend(sorted(n_atoms + r for r in self._live_rules))

        # Materialize live out-edges as plain lists up front, an edge to
        # ``v`` through a negative body literal as ``~v``: the signed
        # Tarjan and the edge sweep below then iterate them at C speed
        # instead of paying two generator frames per edge.  Dead slots
        # share one (never-mutated) empty list and are never visited.
        idx = self._idx
        rule_alive = self.rule_alive
        atom_alive = self.atom_alive
        pos_occ_t, neg_occ_t = idx.pos_occ_t, idx.neg_occ_t
        head_of = idx.head_of_t
        neg = ~n_atoms  # ~(n_atoms + r) == neg - r
        empty: list[int] = []
        adj: list[list[int]] = [empty] * node_count
        for u in self._live_atoms:
            adj[u] = [n_atoms + r for r in pos_occ_t[u] if rule_alive[r]] + [
                neg - r for r in neg_occ_t[u] if rule_alive[r]
            ]
        for r in self._live_rules:
            head = head_of[r]
            if atom_alive[head]:
                adj[n_atoms + r] = [head]

        bits = bytearray(node_count)
        components = signed_strongly_connected_components(node_count, adj, live_nodes, bits)
        if self._scc_comp_of is None:
            self._scc_comp_of = [-1] * node_count
        comp_of = self._scc_comp_of
        base = self._scc_next_cid
        comps: dict[int, list[int]] = {}
        for offset, component in enumerate(components):
            # Canonical node order inside each component: deterministic
            # regardless of whether it came from a full or a partial
            # (refinement) Tarjan run.
            component.sort()
            cid = base + offset
            comps[cid] = component
            for node in component:
                comp_of[node] = cid
        self._scc_comps = comps
        self._scc_next_cid = base + len(components)
        self._scc_bottom_obj = {}
        self._scc_dirty.clear()
        self._scc_bits = bits
        self._scc_bits_own = True

        # One sweep over the adjacency lists built above: an edge between
        # components counts as incoming for its target's, and an edge
        # inside one must join equal bits if positive and different bits
        # if negative, or its component is not a tie.
        incross = dict.fromkeys(comps, 0)
        odd: set[int] = set()
        for u in live_nodes:
            cu = comp_of[u]
            bu = bits[u]
            for t in adj[u]:
                if t >= 0:
                    cv = comp_of[t]
                    if cv != cu:
                        incross[cv] += 1
                    elif bits[t] != bu:
                        odd.add(cu)
                else:
                    cv = comp_of[~t]
                    if cv != cu:
                        incross[cv] += 1
                    elif bits[~t] == bu:
                        odd.add(cu)
        self._scc_incross = incross
        self._scc_odd = odd
        bottom = self._scc_bottom = {cid for cid, count in incross.items() if count == 0}
        heap = [(self._heap_key(comps[cid]), cid) for cid in bottom]
        heapify(heap)
        self._tie_heap = heap

    def _refine_scc(self) -> None:
        """Re-run the signed Tarjan only inside components that lost a node.

        Deletion-only dynamics make this sound: the live graph is a
        subgraph of the one the cache was built on, so every current SCC
        is contained in a cached component — components without deletions
        are still exactly SCCs, and dirty ones split into the SCCs of
        their surviving members.  Incoming-edge counts of surviving
        components are exact (close decrements them per vanished edge);
        only the new pieces are recounted, via the reverse adjacency.
        The pass rewrites the side bits of the surviving members, and
        the recount decides each piece's tie verdict: a piece of a tie
        is a tie (a valid partition stays valid on any subgraph), so only
        the pieces of a non-tie check their in-piece edges.
        """
        comps = self._scc_comps
        comp_of = self._scc_comp_of
        bits = self._scc_bits
        assert comps is not None and comp_of is not None and bits is not None
        dirty = self._scc_dirty
        n_atoms = self.n_atoms
        atom_alive = self.atom_alive
        rule_alive = self.rule_alive
        incross = self._scc_incross
        bottom = self._scc_bottom
        bottom_obj = self._scc_bottom_obj
        odd = self._scc_odd

        affected: list[int] = []
        odd_before: set[int] = set()
        for cid in dirty:
            for node in comps[cid]:
                alive = (
                    atom_alive[node]
                    if node < n_atoms
                    else rule_alive[node - n_atoms]
                )
                if alive:
                    affected.append(node)
            if cid in odd:
                odd.discard(cid)
                odd_before.add(cid)
            del comps[cid]
            del incross[cid]
            bottom.discard(cid)
            bottom_obj.pop(cid, None)
        dirty.clear()
        if not affected:
            return

        # Signed out-edges restricted to the same *old* component (comp_of
        # still holds the old ids for affected nodes): refinement never
        # crosses cached component boundaries.
        idx = self._idx
        pos_occ_t, neg_occ_t = idx.pos_occ_t, idx.neg_occ_t
        head_of = idx.head_of_t
        neg = ~n_atoms
        adj: dict[int, list[int]] = {}
        for u in affected:
            cu = comp_of[u]
            if u < n_atoms:
                adj[u] = [
                    n_atoms + r
                    for r in pos_occ_t[u]
                    if rule_alive[r] and comp_of[n_atoms + r] == cu
                ] + [
                    neg - r
                    for r in neg_occ_t[u]
                    if rule_alive[r] and comp_of[n_atoms + r] == cu
                ]
            else:
                h = head_of[u - n_atoms]
                adj[u] = [h] if atom_alive[h] and comp_of[h] == cu else []

        if not self._scc_bits_own:
            bits = self._scc_bits = bytearray(bits)
            self._scc_bits_own = True
        pieces = signed_strongly_connected_components(
            n_atoms + self.n_rules, adj, affected, bits
        )
        fresh: list[tuple[int, list[int], bool]] = []
        for piece in pieces:
            piece.sort()
            cid = self._scc_next_cid
            self._scc_next_cid += 1
            comps[cid] = piece
            # comp_of still holds the old cid here.
            fresh.append((cid, piece, comp_of[piece[0]] in odd_before))
        for cid, piece, _ in fresh:
            for node in piece:
                comp_of[node] = cid

        # Recount incoming cross edges of each new piece from its reverse
        # adjacency (edges from other pieces of the same old component
        # became cross edges; edges from other components stayed), and
        # check the in-piece edges of the pieces of a non-tie.
        rules_by_head_t = idx.rules_by_head_t
        pos_off, pos_atoms = idx.pos_off, idx.pos_atoms
        neg_off, neg_atoms = idx.neg_off, idx.neg_atoms
        heap = self._tie_heap
        for cid, piece, check in fresh:
            count = 0
            tie = True
            for node in piece:
                b = bits[node]
                if node < n_atoms:
                    for r in rules_by_head_t[node]:
                        if rule_alive[r]:
                            if comp_of[n_atoms + r] != cid:
                                count += 1
                            elif check and bits[n_atoms + r] != b:
                                tie = False
                else:
                    r = node - n_atoms
                    for a in pos_atoms[pos_off[r] : pos_off[r + 1]]:
                        if atom_alive[a]:
                            if comp_of[a] != cid:
                                count += 1
                            elif check and bits[a] != b:
                                tie = False
                    for a in neg_atoms[neg_off[r] : neg_off[r + 1]]:
                        if atom_alive[a]:
                            if comp_of[a] != cid:
                                count += 1
                            elif check and bits[a] == b:
                                tie = False
            incross[cid] = count
            if not tie:
                odd.add(cid)
            if count == 0:
                bottom.add(cid)
                heappush(heap, (self._heap_key(piece), cid))

    def _bottom_component(self, cid: int, *, fresh: bool = False) -> BottomComponent:
        """Memoized :class:`BottomComponent` (with analysis) for one cid.

        A tie's two side lists are read off the side bits; non-ties (and
        ``fresh=True``, the ``full_recompute`` oracle) run the one-shot
        :func:`analyze_component`, which also produces the odd-cycle
        witness.  Either way side 0 is the side of the component's first
        atom in canonical order (its smallest atom id without a rank
        overlay), so order-sensitive policies see the same orientation on
        a streamed index as on a fresh grounding.  The build is booked as
        ``tie_analysis_s`` (and to the overlap accumulator, so an
        enclosing select window does not double-count it).
        """
        obj = self._scc_bottom_obj.get(cid)
        if obj is None:
            t0 = perf_counter()
            comps = self._scc_comps
            assert comps is not None
            component = comps[cid]
            n_atoms = self.n_atoms
            # Component node lists are sorted, so the atom/rule halves are
            # contiguous slices.
            cut = bisect_left(component, n_atoms)
            atom_ids = component[:cut]
            rule_ids = [n - n_atoms for n in component[cut:]]
            idx = self._idx
            order = idx.atom_order
            root = atom_ids[0] if order is None else min(atom_ids, key=order.__getitem__)
            if fresh or cid in self._scc_odd:
                analysis = analyze_component(component, self._live_successors)
                if analysis.sides is not None and analysis.sides[root]:
                    analysis = TieAnalysis(
                        is_tie=True, sides={n: v ^ 1 for n, v in analysis.sides.items()}
                    )
                obj = BottomComponent(atom_ids, rule_ids, analysis, n_atoms)
            else:
                bits = self._scc_bits
                assert bits is not None
                flip = bits[root]
                sides: tuple[list[int], list[int]] = ([], [])
                for a in atom_ids:
                    sides[bits[a] ^ flip].append(a)
                obj = BottomComponent(atom_ids, rule_ids, None, n_atoms, sides, idx.head_of_t)
            self._scc_bottom_obj[cid] = obj
            dt = perf_counter() - t0
            self.phase_s["tie_analysis_s"] += dt
            self._ta_overlap += dt
        return obj

    def _current_scc(self, *, rebuild: bool = False) -> dict[int, list[int]]:
        """The cached condensation, brought up to date: a full Tarjan on
        first use (or ``rebuild``), else Tarjan inside the components that
        lost a node since the last query."""
        self._require_closed()
        if rebuild or self._scc_comps is None:
            self._rebuild_scc()
        elif self._scc_dirty:
            self._refine_scc()
        comps = self._scc_comps
        assert comps is not None
        return comps

    def bottom_components_live(
        self, *, full_recompute: bool = False
    ) -> list[BottomComponent]:
        """Bottom SCCs of the live graph with their tie analyses (§3).

        Singleton components cannot be bottom after ``close`` (a sourceless
        atom would have been falsified, a sourceless rule fired), so every
        returned component is a genuine cyclic component.

        Incremental: the condensation, the per-component incoming-edge
        counts, the side bits and tie verdicts, and the components built
        from them are all cached; only components touched by deletions
        since the last query cost work.  ``full_recompute=True`` rebuilds
        everything from scratch — the condensation via a full Tarjan and
        every analysis via a fresh :func:`analyze_component`, not read
        off the side bits (the differential oracle for them).
        """
        comps = self._current_scc(rebuild=full_recompute)
        result: list[BottomComponent] = []
        for cid in sorted(self._scc_bottom):
            if len(comps[cid]) == 1:
                # No self-loops exist in a bipartite graph; a singleton
                # bottom component would have been resolved by close().
                raise AssertionError(
                    "singleton bottom component survived close(); graph state corrupt"
                )
            result.append(self._bottom_component(cid, fresh=full_recompute))
        return result

    def select_ties(self) -> list[BottomComponent]:
        """Every bottom tie, in schedule order, popped off the schedule.

        Drains the min-keyed heap: the result lists each current bottom
        tie once, by its smallest atom in canonical order, and the stale
        entries (the component split or resolved) and the non-tie entries
        are discarded on the way.  Equivalent to scanning
        ``bottom_components_live()`` for its ties, at O(log n) per entry
        instead of O(components) per round.  Pops are permanent, so the
        caller orients every returned tie before the next :meth:`close`
        (bottom ties are disjoint and have no incoming cross edges, so
        orienting one leaves the others bottom ties with the same sides);
        a :meth:`clone` taken in between carries the rest of the round
        itself.  Components that become bottom later are pushed by
        ``close`` as usual.  A component is pushed once, when it becomes
        bottom, and component ids are never reused, so the heap never
        holds two entries for one component and a stale entry is never
        served.
        """
        t0 = perf_counter()
        self._ta_overlap = 0.0
        comps = self._current_scc()
        bottom = self._scc_bottom
        heap = self._tie_heap
        ties: list[BottomComponent] = []
        while heap:
            cid = heappop(heap)[1]
            if cid not in bottom:
                continue
            if len(comps[cid]) == 1:
                raise AssertionError(
                    "singleton bottom component survived close(); graph state corrupt"
                )
            obj = self._bottom_component(cid)
            if obj.is_tie:
                ties.append(obj)
        self.phase_s["tie_select_s"] += (perf_counter() - t0) - self._ta_overlap
        return ties

    # -- cloning ------------------------------------------------------------

    def clone(self) -> "GroundGraphState":
        """An independent copy of the evaluation state.

        The immutable structure (ground program and its compiled index) is
        shared; the mutable value/liveness/counter arrays are copied at
        C level.  The SCC cache and tie schedule are carried over
        (component node lists, analyses, and result objects are immutable
        and shared; the id map, edge counts, and bookkeeping sets are
        copied), as is the incremental unfounded-set state.  The query
        scratch is shared because the epoch discipline makes concurrent
        reuse safe.
        """
        other = object.__new__(GroundGraphState)
        other.gp = self.gp
        other._idx = self._idx
        other.n_atoms = self.n_atoms
        other.n_rules = self.n_rules
        other.status = bytearray(self.status)
        other.atom_alive = bytearray(self.atom_alive)
        other.rule_alive = bytearray(self.rule_alive)
        other.rule_pending = list(self.rule_pending)
        other.atom_support = list(self.atom_support)
        other.pos_live = list(self.pos_live)
        other._live_atoms = list(self._live_atoms)
        other._atom_slot = list(self._atom_slot)
        other._live_rules = list(self._live_rules)
        other._rule_slot = list(self._rule_slot)
        other._live_atom_count = self._live_atom_count
        other._reason_kind = bytearray(self._reason_kind)
        other._reason_arg = array("i", self._reason_arg)
        other._labels = list(self._labels)
        other._dirty = deque(self._dirty)
        other._initial = self._initial
        other._scratch = self._scratch
        other._src = list(self._src)
        other._unf_valid = self._unf_valid
        other._unf_lost = list(self._unf_lost)
        other._unf_sourceless = set(self._unf_sourceless)
        other._scc_comps = (
            dict(self._scc_comps) if self._scc_comps is not None else None
        )
        other._scc_comp_of = (
            list(self._scc_comp_of) if self._scc_comp_of is not None else None
        )
        other._scc_incross = dict(self._scc_incross)
        other._scc_bottom = set(self._scc_bottom)
        other._scc_bottom_obj = dict(self._scc_bottom_obj)
        other._scc_next_cid = self._scc_next_cid
        other._scc_dirty = set(self._scc_dirty)
        # The side bits are shared until either state rewrites them.
        other._scc_bits = self._scc_bits
        other._scc_bits_own = self._scc_bits_own = False
        other._scc_odd = set(self._scc_odd)
        other._ta_overlap = 0.0
        other._tie_heap = list(self._tie_heap)
        other.phase_s = dict(self.phase_s)
        return other

    def reopen(self, touched: Iterable[int]) -> "GroundGraphState":
        """Move this finished well-founded state onto the ground program's
        current index, in place, with the forward cone of ``touched``
        reset; return ``self``.

        ``self`` must be the end state of a well-founded run (``close``
        and :meth:`falsify_unfounded` to fixpoint) over an earlier index
        of the same ground program, and ``touched`` must hold every atom
        the streaming updates since then touched: atoms whose M₀, support
        or U\\* membership changed, new atoms, and the heads of added,
        enabled or disabled instances.  The well-founded model is
        relevant — an atom's value depends only on the rule instances in
        its backward cone — so only atoms in the forward closure of
        ``touched`` (through instances the current index keeps alive) can
        change value.  The arrays grow to the current index and the
        condensation is dropped.  Exactly the cone's atoms are reset to
        undefined and live with no reason and no source; liveness and
        counters of every instance whose head is in the cone are
        recomputed from the current values of its body; and the cone's
        M₀ values, the instances that fire at once and the unsupported
        atoms are queued for ``close``.  The cone is queued as the
        unfounded query's lost set, so the next query re-derives sources
        inside it only: no atom outside the cone depends on one inside it.

        The caller finishes the state with ``close()`` and
        ``falsify_unfounded()``, which then count only the cone's rounds.
        Reasons outside the cone carry over and stay valid derivations,
        since their backward cones did not change.  Only the flat arrays
        are patched, so a reopen costs the cone, not the state; a caller
        that must keep the finished state writes
        ``state.clone().reopen(touched)``.
        """
        self._require_closed()
        idx = self.gp.index
        n_atoms, n_rules = idx.n_atoms, idx.n_rules
        grow = n_atoms - self.n_atoms
        if grow:
            self.status.extend(bytes(grow))
            self.atom_alive.extend(bytes(grow))
            self._atom_slot.extend([-1] * grow)
            self._reason_kind.extend(bytes(grow))
            self._reason_arg.extend(array("i", [0]) * grow)
            self.atom_support.extend([0] * grow)
            self._src.extend([-1] * grow)
        if n_rules > self.n_rules:
            grow = n_rules - self.n_rules
            self.rule_alive.extend(bytes(grow))
            self._rule_slot.extend([-1] * grow)
            self.rule_pending.extend([0] * grow)
            self.pos_live.extend([0] * grow)
        self._idx = idx
        self.n_atoms = n_atoms
        self.n_rules = n_rules
        # Nothing here keeps the condensation: it is rebuilt on demand.
        self._scc_comps = None
        self._scc_comp_of = None
        self._scc_incross = {}
        self._scc_bottom = set()
        self._scc_bottom_obj = {}
        self._scc_dirty = set()
        self._scc_bits = None
        self._scc_bits_own = False
        self._scc_odd = set()
        self._tie_heap = []
        self.phase_s = dict.fromkeys(self.phase_s, 0.0)

        # The cone: forward closure of the touched atoms through every
        # instance the index keeps alive, fired or killed ones included.
        scratch = self._scratch
        scratch.grow(n_atoms, n_rules)
        scratch.epoch += 1
        epoch = scratch.epoch
        mark = scratch.atom_mark
        index_alive = idx.initial_rule_alive
        head_of = idx.head_of_t
        pos_occ_t, neg_occ_t = idx.pos_occ_t, idx.neg_occ_t
        cone: list[int] = []
        for a in touched:
            if mark[a] != epoch:
                mark[a] = epoch
                cone.append(a)
        for a in cone:  # grows while iterated: a breadth-first sweep
            for occ in (pos_occ_t[a], neg_occ_t[a]):
                for r in occ:
                    if index_alive is None or index_alive[r]:
                        h = head_of[r]
                        if mark[h] != epoch:
                            mark[h] = epoch
                            cone.append(h)

        status = self.status
        atom_alive = self.atom_alive
        live_atoms, atom_slot = self._live_atoms, self._atom_slot
        kind, src = self._reason_kind, self._src
        for a in cone:
            status[a] = UNDEF
            kind[a] = _R_NONE
            src[a] = -1
            if not atom_alive[a]:
                atom_alive[a] = 1
                atom_slot[a] = len(live_atoms)
                live_atoms.append(a)
                self._live_atom_count += 1

        # Every instance headed in the cone, from its body's current values
        # (live = undefined at this point: the base was closed).  Any
        # instance the index keeps alive with a cone atom in its body is
        # headed in the cone; the others are dead and never read.
        rule_alive = self.rule_alive
        live_rules, rule_slot = self._live_rules, self._rule_slot
        rule_pending, pos_live, support = self.rule_pending, self.pos_live, self.atom_support
        pos_off, pos_atoms = idx.pos_off, idx.pos_atoms
        neg_off, neg_atoms = idx.neg_off, idx.neg_atoms
        ready: list[int] = []
        for a in cone:
            count = 0
            for r in idx.rules_by_head_t[a]:
                dead = index_alive is not None and not index_alive[r]
                live_pos = 0
                for b in pos_atoms[pos_off[r] : pos_off[r + 1]]:
                    value = status[b]
                    if value == UNDEF:
                        live_pos += 1
                    elif value == FALSE:
                        dead = True
                pending = live_pos
                for b in neg_atoms[neg_off[r] : neg_off[r + 1]]:
                    value = status[b]
                    if value == UNDEF:
                        pending += 1
                    elif value == TRUE:
                        dead = True
                pos_live[r] = live_pos
                rule_pending[r] = pending
                if dead:
                    if rule_alive[r]:
                        rule_alive[r] = 0
                        slot = rule_slot[r]
                        last = live_rules.pop()
                        if last != r:
                            live_rules[slot] = last
                            rule_slot[last] = slot
                        rule_slot[r] = -1
                    continue
                if not rule_alive[r]:
                    rule_alive[r] = 1
                    rule_slot[r] = len(live_rules)
                    live_rules.append(r)
                count += 1
                if pending == 0:
                    ready.append(r)
            support[a] = count

        # The work close() would have found for the cone in a fresh run:
        # M₀ values, instances with every premise satisfied, atoms left
        # without a live instance.
        initial = idx.initial_status
        for a in cone:
            value = initial[a]
            if value != UNDEF:
                self._set(a, value, _R_DELTA if value == TRUE else _R_EDB_ABSENT)
        for r in ready:
            self._fire(r)
        for a in cone:
            if status[a] == UNDEF and support[a] == 0:
                self._set(a, FALSE, _R_NO_SUPPORT)
        self._unf_lost = cone
        return self

    # -- results -------------------------------------------------------------

    def snapshot(self, status: bytes) -> FinishedState:
        """A :class:`FinishedState` of this closed state that no later
        kernel call reaches: ``status`` (the model's bytes, shared, not
        copied) with copies of the reason buffers — a ``bytearray`` and
        an ``array('i')``, one memcpy each — labels and ``phase_s``.  The
        engine keeps the live state as the next well-founded base and
        reopens it in place; a solution keeps this."""
        self._require_closed()
        return FinishedState.of(
            self,
            status,
            bytearray(self._reason_kind),
            array("i", self._reason_arg),
            dict(self.phase_s),
        )

    def finish(self) -> None:
        """Drop the search machinery of a finished run, in place.

        Keeps :attr:`FinishedState.FIELDS` — the model and its reasons,
        all that :meth:`reason_of`, :meth:`interpretation` and
        :func:`~repro.ground.explain.explain` read — and frees the rest:
        the SCC cache and tie schedule, the unfounded-set sources, the
        counters and the live-slot arrays.  The state becomes a
        :class:`FinishedState`, which has no kernel methods, so any
        later ``close``, assignment, query or ``clone``
        raises ``AttributeError`` before it touches anything.
        """
        self._require_closed()
        fields = vars(self)
        kept = {name: fields[name] for name in FinishedState.FIELDS}
        fields.clear()
        fields.update(kept)
        self.__class__ = FinishedState

    def __repr__(self) -> str:
        return (
            f"GroundGraphState(atoms={self.n_atoms}, rules={self.n_rules}, "
            f"live_atoms={self.live_atom_count})"
        )
