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
  exactly when that count hits zero.  On top of the cache sits a
  **min-keyed tie schedule**: every component that becomes bottom is
  pushed onto a heap keyed by its smallest atom id, and
  :meth:`select_ties` drains the schedule for a batched round (discarding
  entries whose component split, resolved, or turned out not to be a
  tie) instead of rescanning all bottom components per round.
  ``bottom_components_live(full_recompute=True)`` bypasses the cache (the
  escape hatch the property suite pins against the incremental path);
* branching interpreters use a **trail-based undo log** instead of
  ``clone``: :meth:`trail_begin` starts recording, :meth:`trail_mark`
  marks a decision point, and :meth:`trail_undo` rewinds assignments,
  liveness, counters, and the SCC/unfounded/schedule caches to the mark —
  cost proportional to the work performed since the mark, not to the
  state size.  ``clone`` remains for callers that need an independent
  copy (trails are not cloned).

``close`` is confluent (the paper notes the result is independent of
operation order); a property test shuffles worklist order to confirm.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from heapq import heappop, heappush
from time import perf_counter
from typing import Iterable, Iterator

from repro.datalog.grounding import GroundProgram
from repro.errors import CloseConflictError, SemanticsError
from repro.graphs.scc import strongly_connected_components
from repro.graphs.ties import TieAnalysis, TieSides, analyze_component
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

# Trail entry tags (first element of each undo-log entry).
_T_SET = 0  # (tag, atom): status/reason were written
_T_ATOM = 1  # (tag, atom, slot): atom left the live set
_T_RULE = 2  # (tag, rule, slot): rule left the live set
_T_INCROSS = 3  # (tag, cid): incoming-cross-edge count decremented
_T_DIRTY = 4  # (tag, cid): cid newly added to the SCC dirty set
_T_REFINE = 5  # (tag, removed, fresh): a refinement replaced components
_T_REBUILD = 6  # (tag,): a full condensation rebuild ran
_T_SRC = 8  # (tag, atom, old): source pointer overwritten
_T_SL_ADD = 9  # (tag, atom): atom added to the sourceless set
_T_SL_DISCARD = 10  # (tag, atom): atom discarded from the sourceless set
_T_SL_REPLACE = 11  # (tag, old_set): sourceless set replaced wholesale
_T_LOST_CLEAR = 12  # (tag, old_list): lost queue consumed
_T_LOST_APPEND = 13  # (tag,): one entry appended to the lost queue
_T_UNF_VALID = 14  # (tag, old): validity flag overwritten


class BottomComponent:
    """One bottom SCC of the live graph, with its tie analysis.

    ``atom_ids`` / ``rule_ids`` split the component's nodes; for ties,
    ``side_of_atom`` maps atom id → 0/1 (the two Lemma-1 sides; which one
    plays K is the interpreter's choice).
    """

    def __init__(
        self,
        atom_ids: list[int],
        rule_ids: list[int],
        analysis: TieAnalysis | None,
        atom_count: int,
        sides_map: dict[int, int] | None = None,
    ):
        self.atom_ids = atom_ids
        self.rule_ids = rule_ids
        # Either a materialized analysis, or (hot path: served from the
        # incremental sides cache) just the canonical node → side dict;
        # the TieAnalysis view is then built on first ``.analysis`` touch.
        self._analysis = analysis
        self._sides_map = sides_map
        self._atom_count = atom_count
        self._side_of_atom: dict[int, int] | None = None

    @property
    def analysis(self) -> TieAnalysis:
        """The frozen Lemma-1 analysis (materialized lazily)."""
        a = self._analysis
        if a is None:
            a = TieAnalysis(is_tie=True, sides=self._sides_map)
            self._analysis = a
        return a

    @property
    def is_tie(self) -> bool:
        """True iff the component has no cycle with odd negative parity."""
        a = self._analysis
        return True if a is None else a.is_tie

    def side_of_atom(self) -> dict[int, int]:
        """Atom id → side (0/1) under the Lemma-1 partition (cached)."""
        cached = self._side_of_atom
        if cached is None:
            sides = self._sides_map
            if sides is None:
                sides = self.analysis.sides
            assert sides is not None
            atom_count = self._atom_count
            cached = {
                node: side for node, side in sides.items() if node < atom_count
            }
            self._side_of_atom = cached
        return cached

    def side_counts(self) -> tuple[int, int]:
        """Number of *atoms* on side 0 and side 1."""
        sides = self.side_of_atom()
        ones = sum(sides.values())
        return len(sides) - ones, ones


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
    in place.  It holds :attr:`FIELDS` only — the ground program, the
    status array and the flat reason buffers with their labels, plus the
    run's ``phase_s`` — which is what ``explain`` reads.  The live
    :class:`GroundGraphState` extends it with the search machinery.
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
        return Interpretation(self.gp, tuple(self.status))

    def __repr__(self) -> str:
        return f"FinishedState(atoms={self.n_atoms}, rules={self.n_rules})"


class GroundGraphState(FinishedState):
    """Mutable evaluation state over a :class:`GroundProgram`.

    The constructor installs the initial model M₀(Δ) — true for every atom
    of Δ, false for EDB atoms outside Δ, undefined for the remaining IDB
    atoms — but does **not** run ``close``; interpreters call
    :meth:`close` explicitly, mirroring the paper's pseudocode.

    All per-state storage is flat (lists, bytearrays, and parallel
    kind/argument buffers) and initialized by C-level copies from the
    shared :class:`~repro.datalog.grounding.GroundIndex`, so construction
    and :meth:`clone` cost O(n) memcpy rather than O(edges) Python loops.
    ``phase_s`` accumulates wall-clock seconds per kernel phase
    (``close_s`` / ``unfounded_s`` / ``tie_select_s`` / ``tie_apply_s`` /
    ``tie_analysis_s`` — the last carved out of tie selection so the
    Lemma-1 sides work is attributable on its own) for the solve-phase
    accounting surfaced in :class:`~repro.api.solution.Solution` timings.
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
        self.status: list[int] = list(idx.initial_status)
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
        self._reason_arg: list[int] = [0] * n_atoms
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

        # Canonical atom order installed by the streaming-update overlay:
        # ranks live atom ids exactly as a fresh grounding would assign
        # them, so order-sensitive choices (tie scheduling, side
        # comparisons) match a full rebuild.  None = ids are the order.
        self._order = idx.atom_order

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

        # Incremental Lemma-1 (K, L) sides per component (clean/tie
        # components only — non-ties fall back to analyze_component for
        # the odd-cycle witness).  Keyed by cid; because component node
        # lists are immutable, cids are never reused, and any component
        # that loses a member is replaced by _refine_scc before the next
        # query, an entry for a *current* cid can never be stale — the
        # sides are a pure function of the cid.  Refinement derives the
        # pieces' sides by restriction (a valid partition stays valid on
        # any subgraph); a full rebuild assigns new cids, so the dict is
        # simply reset there.
        self._tie_sides: dict[int, TieSides] = {}
        # tie_analysis_s seconds accrued inside the current select_ties
        # window, subtracted so the two phases never overlap.
        self._ta_overlap = 0.0

        # Min-keyed schedule of bottom components: (smallest node, cid)
        # heap entries pushed whenever a component becomes bottom; stale
        # entries (split, resolved, or non-tie components) are discarded
        # by select_ties().
        self._tie_heap: list[tuple[int, int]] = []

        # Undo trail (None = disabled).  See trail_begin/trail_mark/undo.
        self._trail: list[tuple] | None = None

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
        if self._trail is not None:
            self._trail.append((_T_SET, index))
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
        trail = self._trail
        for index in indices:
            current = status[index]
            if current == value:
                continue
            if current != UNDEF:
                raise CloseConflictError(index)
            status[index] = value
            kind[index] = reason
            reason_arg[index] = arg
            if trail is not None:
                trail.append((_T_SET, index))
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
        trail = self._trail
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
            if trail is not None:
                trail.append((_T_ATOM, index, slot))
            if sourceless and index in sourceless:
                sourceless.discard(index)
                if trail is not None:
                    trail.append((_T_SL_DISCARD, index))
            cu = -1
            if track:
                cu = comp_of[index]
                if cu not in scc_dirty:
                    scc_dirty.add(cu)
                    if trail is not None:
                        trail.append((_T_DIRTY, cu))
            value = status[index]
            if value == TRUE:
                # A true exit can only make *more* atoms derivable, which
                # is irrelevant while every live atom has a source — but
                # with standing unfounded atoms it could re-found them, so
                # the incremental machinery surrenders to a full rebuild.
                if self._unf_valid and sourceless:
                    self._unf_valid = False
                    if trail is not None:
                        trail.append((_T_UNF_VALID, True))
                # Positive occurrences are satisfied, negative ones violated.
                for r in pos_occ_t[index]:
                    pos_live[r] -= 1
                    if rule_alive[r]:
                        if track:
                            cr = comp_of[n_atoms + r]
                            if cr != cu:
                                count = incross[cr] - 1
                                incross[cr] = count
                                if trail is not None:
                                    trail.append((_T_INCROSS, cr))
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
                                if trail is not None:
                                    trail.append((_T_INCROSS, cr))
                                if count == 0:
                                    bottom.add(cr)
                                    heappush(heap, (heap_key(comps[cr]), cr))
                        self._kill_rule(r)
            else:
                # Negative occurrences first (satisfaction decrements),
                # then positive ones (kills): decrements strictly precede
                # same-atom kills, so the trail undo can replay the exact
                # inverse without recording per-edge entries.
                for r in neg_occ_t[index]:
                    if rule_alive[r]:
                        if track:
                            cr = comp_of[n_atoms + r]
                            if cr != cu:
                                count = incross[cr] - 1
                                incross[cr] = count
                                if trail is not None:
                                    trail.append((_T_INCROSS, cr))
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
                                if trail is not None:
                                    trail.append((_T_INCROSS, cr))
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
            if self._trail is not None:
                self._trail.append((_T_SRC, head, r_index))
                self._trail.append((_T_LOST_APPEND,))
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
        trail = self._trail
        if trail is not None:
            trail.append((_T_RULE, r_index, slot))
        comp_of = self._scc_comp_of
        if comp_of is not None:
            cr = comp_of[self.n_atoms + r_index]
            if cr not in self._scc_dirty:
                self._scc_dirty.add(cr)
                if trail is not None:
                    trail.append((_T_DIRTY, cr))
            head = self._idx.head_of_t[r_index]
            if self.atom_alive[head]:
                ch = comp_of[head]
                if ch != cr:
                    count = self._scc_incross[ch] - 1
                    self._scc_incross[ch] = count
                    if trail is not None:
                        trail.append((_T_INCROSS, ch))
                    if count == 0:
                        self._scc_bottom.add(ch)
                        heappush(self._tie_heap, (self._heap_key(self._scc_comps[ch]), ch))

    # -- canonical atom order ------------------------------------------------

    def order_key(self, a: int) -> int:
        """Canonical rank of atom ``a`` (its fresh-grounding id).

        Identity unless the index carries a streaming-update
        ``atom_order`` overlay; interpreters compare ranks instead of raw
        ids wherever an order-sensitive choice must match a rebuild.
        """
        order = self._order
        return a if order is None else order[a]

    def _heap_key(self, nodes: list[int]) -> int:
        """Tie-schedule key of a component: its first atom in canonical
        order (node lists are sorted, so without an overlay that is just
        the first node — atoms sort before shifted rule nodes)."""
        order = self._order
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
        state that runs many cascades keeps a bounded label table.
        """
        self._require_closed()
        rounds = 0
        while True:
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
        trail = self._trail

        stack = [r for r in self._live_rules if not pos_live[r]]
        while stack:
            r = stack.pop()
            head = head_of[r]
            if atom_mark[head] == epoch or not atom_alive[head]:
                continue
            atom_mark[head] = epoch
            if trail is not None:
                trail.append((_T_SRC, head, src[head]))
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
                if src[i] != -1:
                    if trail is not None:
                        trail.append((_T_SRC, i, src[i]))
                    src[i] = -1
        if trail is not None:
            trail.append((_T_SL_REPLACE, self._unf_sourceless))
            if self._unf_lost:
                trail.append((_T_LOST_CLEAR, self._unf_lost))
            trail.append((_T_UNF_VALID, self._unf_valid))
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
        trail = self._trail
        scratch = self._scratch
        scratch.grow(self.n_atoms, self.n_rules)
        scratch.epoch += 1
        epoch = scratch.epoch
        atom_mark = scratch.atom_mark
        rule_mark = scratch.rule_mark
        rule_pend = scratch.rule_pend

        stack = [a for a in self._unf_lost if atom_alive[a]]
        if trail is not None:
            trail.append((_T_LOST_CLEAR, self._unf_lost))
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
                        if trail is not None:
                            trail.append((_T_SRC, h, r))
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
            if trail is not None:
                trail.append((_T_SRC, h, -1))
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
                if trail is not None:
                    trail.append((_T_SL_ADD, a))

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
        """Full Tarjan over the live graph; installs a fresh condensation.

        Component ids continue from ``_scc_next_cid`` so ids are never
        reused across rebuilds — stale schedule entries and trail records
        referring to pre-rebuild components can be recognized as such.
        The sides cache is reset (its keys are pre-rebuild cids) and
        repopulated lazily per bottom query.
        """
        if self._trail is not None:
            self._trail.append((_T_REBUILD,))
        self._tie_sides = {}
        n_atoms = self.n_atoms
        node_count = n_atoms + self.n_rules
        live_nodes = sorted(self._live_atoms)
        live_nodes.extend(sorted(n_atoms + r for r in self._live_rules))

        # Materialize live out-edges as plain lists up front: Tarjan and
        # the incross sweep below then iterate them at C speed instead of
        # paying two generator frames per edge.  Dead slots share one
        # (never-mutated) empty list and are never visited.
        idx = self._idx
        rule_alive = self.rule_alive
        atom_alive = self.atom_alive
        pos_occ_t, neg_occ_t = idx.pos_occ_t, idx.neg_occ_t
        head_of = idx.head_of_t
        empty: list[int] = []
        adj: list[list[int]] = [empty] * node_count
        for u in self._live_atoms:
            adj[u] = [
                n_atoms + r for r in pos_occ_t[u] if rule_alive[r]
            ] + [n_atoms + r for r in neg_occ_t[u] if rule_alive[r]]
        for r in self._live_rules:
            head = head_of[r]
            if atom_alive[head]:
                adj[n_atoms + r] = [head]

        components = strongly_connected_components(
            node_count, adj.__getitem__, nodes=live_nodes
        )
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

        # Count incoming cross edges per component in one edge sweep
        # over the adjacency lists built above.
        incross = dict.fromkeys(comps, 0)
        for u in live_nodes:
            cu = comp_of[u]
            for v in adj[u]:
                cv = comp_of[v]
                if cv != cu:
                    incross[cv] += 1
        self._scc_incross = incross
        self._scc_bottom = {cid for cid, count in incross.items() if count == 0}
        heap = self._tie_heap
        for cid in self._scc_bottom:
            heappush(heap, (self._heap_key(comps[cid]), cid))

    def _refine_scc(self) -> None:
        """Re-run Tarjan only inside components that lost a node.

        Deletion-only dynamics make this sound: the live graph is a
        subgraph of the one the cache was built on, so every current SCC
        is contained in a cached component — components without deletions
        are still exactly SCCs, and dirty ones split into the SCCs of
        their surviving members.  Incoming-edge counts of surviving
        components are exact (close decrements them per vanished edge);
        only the new pieces are recounted, via the reverse adjacency.
        """
        comps = self._scc_comps
        comp_of = self._scc_comp_of
        assert comps is not None and comp_of is not None
        dirty = self._scc_dirty
        n_atoms = self.n_atoms
        atom_alive = self.atom_alive
        rule_alive = self.rule_alive
        incross = self._scc_incross
        bottom = self._scc_bottom
        bottom_obj = self._scc_bottom_obj
        trail = self._trail

        tie_sides = self._tie_sides
        popped_sides: dict[int, TieSides] = {}
        removed: list[tuple] = []
        affected: list[int] = []
        for cid in dirty:
            for node in comps[cid]:
                alive = (
                    atom_alive[node]
                    if node < n_atoms
                    else rule_alive[node - n_atoms]
                )
                if alive:
                    affected.append(node)
            sides = tie_sides.pop(cid, None)
            if sides is not None:
                popped_sides[cid] = sides
            if trail is not None:
                removed.append(
                    (
                        cid,
                        comps[cid],
                        incross[cid],
                        cid in bottom,
                        bottom_obj.get(cid),
                        sides,
                    )
                )
            del comps[cid]
            del incross[cid]
            bottom.discard(cid)
            bottom_obj.pop(cid, None)
        dirty.clear()
        if not affected:
            if trail is not None:
                trail.append((_T_REFINE, removed, []))
            return

        # Successors restricted to the same *old* component (comp_of still
        # holds the old ids for affected nodes): refinement never crosses
        # cached component boundaries.
        def succ_ids(u: int) -> Iterator[int]:
            cu = comp_of[u]
            return (v for v, _ in self._live_successors(u) if comp_of[v] == cu)

        pieces = strongly_connected_components(
            n_atoms + self.n_rules, succ_ids, nodes=affected
        )
        fresh: list[tuple[int, list[int]]] = []
        for piece in pieces:
            piece.sort()
            cid = self._scc_next_cid
            self._scc_next_cid += 1
            comps[cid] = piece
            fresh.append((cid, piece))
            if len(piece) > 1:
                # Derive the piece's (K, L) sides from its old component:
                # a clean partition restricted to any subgraph stays
                # clean, so the surviving piece inherits its labels with
                # no re-verification — the incremental reuse this cache
                # exists for.  comp_of still holds the old cid here.
                old = popped_sides.get(comp_of[piece[0]])
                if old is not None and old.is_tie:
                    tie_sides[cid] = old.restricted(piece)
        for cid, piece in fresh:
            for node in piece:
                comp_of[node] = cid
        if trail is not None:
            trail.append((_T_REFINE, removed, [cid for cid, _ in fresh]))

        # Recount incoming cross edges of each new piece from its reverse
        # adjacency (edges from other pieces of the same old component
        # became cross edges; edges from other components stayed).
        idx = self._idx
        rules_by_head_t = idx.rules_by_head_t
        pos_off, pos_atoms = idx.pos_off, idx.pos_atoms
        neg_off, neg_atoms = idx.neg_off, idx.neg_atoms
        heap = self._tie_heap
        for cid, piece in fresh:
            count = 0
            for node in piece:
                if node < n_atoms:
                    for r in rules_by_head_t[node]:
                        if rule_alive[r] and comp_of[n_atoms + r] != cid:
                            count += 1
                else:
                    r = node - n_atoms
                    for a in pos_atoms[pos_off[r] : pos_off[r + 1]]:
                        if atom_alive[a] and comp_of[a] != cid:
                            count += 1
                    for a in neg_atoms[neg_off[r] : neg_off[r + 1]]:
                        if atom_alive[a] and comp_of[a] != cid:
                            count += 1
            incross[cid] = count
            if count == 0:
                bottom.add(cid)
                heappush(heap, (self._heap_key(piece), cid))

    def _sides_scalar(self, component: list[int]) -> TieSides | None:
        """One CSR-direct Lemma-1 pass over a live component; ``None`` if
        the component is not a tie.

        Equivalent to the spanning-walk-plus-verify of
        :func:`analyze_component` (root ``component[0]``, side 0) but
        reads the compiled adjacency directly instead of going through
        the ``_live_successors`` generator.  Membership and liveness are
        one test: a node belongs to the component iff ``comp_of`` maps it
        to this cid — dead nodes keep their stale, never-reused cids, so
        they can never collide with a current one.
        """
        idx = self._idx
        n_atoms = self.n_atoms
        comp_of = self._scc_comp_of
        assert comp_of is not None
        cid = comp_of[component[0]]
        pos_occ_t, neg_occ_t = idx.pos_occ_t, idx.neg_occ_t
        head_of = idx.head_of_t
        root = component[0]
        side: dict[int, int] = {root: 0}
        stack = [root]
        while stack:
            u = stack.pop()
            su = side[u]
            if u < n_atoms:
                for r in pos_occ_t[u]:
                    v = n_atoms + r
                    if comp_of[v] == cid and v not in side:
                        side[v] = su
                        stack.append(v)
                for r in neg_occ_t[u]:
                    v = n_atoms + r
                    if comp_of[v] == cid and v not in side:
                        side[v] = su ^ 1
                        stack.append(v)
            else:
                h = head_of[u - n_atoms]
                if comp_of[h] == cid and h not in side:
                    side[h] = su
                    stack.append(h)
        for u in component:
            su = side[u]
            if u < n_atoms:
                for r in pos_occ_t[u]:
                    v = n_atoms + r
                    if comp_of[v] == cid and side[v] != su:
                        return None
                for r in neg_occ_t[u]:
                    v = n_atoms + r
                    if comp_of[v] == cid and side[v] == su:
                        return None
            else:
                h = head_of[u - n_atoms]
                if comp_of[h] == cid and side[h] != su:
                    return None
        return TieSides(set(component), side)

    def _cached_sides(self, cid: int, component: list[int]) -> TieSides | None:
        """Sides for ``cid`` from the incremental cache, computing (and
        installing) them on a miss; ``None`` marks a non-tie.

        Installs need no trail record: the sides are a pure function of
        the (never reused) cid, so an entry that survives a rewind — like
        a memoized ``_scc_bottom_obj`` — revalidates naturally, and a
        missing one is simply recomputed.  Time is attributed to
        ``tie_analysis_s`` (and to the overlap accumulator, so an
        enclosing select window does not double-count it).
        """
        sides = self._tie_sides.get(cid)
        if sides is None:
            t0 = perf_counter()
            sides = self._sides_scalar(component)
            if sides is not None:
                self._tie_sides[cid] = sides
            dt = perf_counter() - t0
            self.phase_s["tie_analysis_s"] += dt
            self._ta_overlap += dt
        return sides

    def _bottom_component(self, cid: int, *, fresh: bool = False) -> BottomComponent:
        """Memoized :class:`BottomComponent` (with analysis) for one cid.

        Serves the analysis from the incremental sides cache when it can;
        non-ties (and ``fresh=True``, the ``full_recompute`` oracle) run
        the one-shot :func:`analyze_component`, which also produces the
        odd-cycle witness.
        """
        obj = self._scc_bottom_obj.get(cid)
        if obj is None:
            comps = self._scc_comps
            assert comps is not None
            component = comps[cid]
            n_atoms = self.n_atoms
            # Side 0 is the side of the component's first atom in
            # canonical order, so order-sensitive policies see the same
            # orientation on a streamed index as on a fresh grounding.
            # Without an overlay that is the first node (atoms sort
            # before shifted rule nodes).
            order = self._order
            root = (
                component[0]
                if order is None
                else min((n for n in component if n < n_atoms), key=order.__getitem__)
            )
            analysis: TieAnalysis | None = None
            sides_map: dict[int, int] | None = None
            if not fresh:
                sides = self._cached_sides(cid, component)
                if sides is not None:
                    # Canonicalize without the TieAnalysis round trip;
                    # flip 0 shares the cached dict, which the kernel
                    # never mutates in place.
                    s = sides.side
                    sides_map = s if s[root] == 0 else {n: s[n] ^ 1 for n in component}
            if sides_map is None:
                analysis = analyze_component(component, self._live_successors)
                if analysis.sides is not None and analysis.sides[root]:
                    analysis = TieAnalysis(
                        is_tie=True, sides={n: v ^ 1 for n, v in analysis.sides.items()}
                    )
            # Component node lists are sorted, so the atom/rule halves are
            # contiguous slices.
            cut = bisect_left(component, n_atoms)
            atom_ids = component[:cut]
            rule_ids = [n - n_atoms for n in component[cut:]]
            obj = BottomComponent(atom_ids, rule_ids, analysis, n_atoms, sides_map)
            self._scc_bottom_obj[cid] = obj
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
        counts, and the (K, L) sides are all cached; only components
        touched by deletions since the last query cost work.
        ``full_recompute=True`` rebuilds everything from scratch — the
        condensation via a full Tarjan and every analysis via a fresh
        :func:`analyze_component`, bypassing the incremental sides cache
        (the differential oracle for it).
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
        entries (the component split, resolved, or belongs to a timeline
        a trail undo rewound) and the non-tie entries are discarded on
        the way.  Equivalent to scanning ``bottom_components_live()`` for
        its ties, at O(log n) per entry instead of O(components) per
        round.  Pops are permanent, so the caller orients every returned
        tie before the next :meth:`close` (bottom ties are disjoint and
        have no incoming cross edges, so orienting one leaves the others
        bottom ties with the same sides).  Components that become bottom
        later are pushed by ``close`` as usual, and a trail undo pushes
        again every bottom component whose removal by a refinement it
        rewinds; component ids are never reused, so a stale entry is
        never served.  A round's own entries are gone once popped: a
        caller that rewinds into the middle of a round carries the rest
        of the round itself.
        """
        t0 = perf_counter()
        self._ta_overlap = 0.0
        comps = self._current_scc()
        bottom = self._scc_bottom
        heap = self._tie_heap
        ties: list[BottomComponent] = []
        last = -1
        while heap:
            cid = heappop(heap)[1]
            # A trail undo may re-push an entry that is still queued;
            # equal entries pop back to back.
            if cid == last or cid not in bottom:
                continue
            last = cid
            if len(comps[cid]) == 1:
                raise AssertionError(
                    "singleton bottom component survived close(); graph state corrupt"
                )
            obj = self._bottom_component(cid)
            if obj.is_tie:
                ties.append(obj)
        self.phase_s["tie_select_s"] += (perf_counter() - t0) - self._ta_overlap
        return ties

    # -- trail-based undo ----------------------------------------------------

    def trail_begin(self) -> None:
        """Start recording an undo trail (idempotent).

        Every subsequent mutation — assignments, liveness changes,
        counter updates, SCC-cache and schedule maintenance, source
        pointer moves — appends an inverse record, so
        :meth:`trail_undo` can rewind to any :meth:`trail_mark` at cost
        proportional to the work performed since.  Clones never inherit
        an active trail.
        """
        if self._trail is None:
            self._trail = []

    def trail_mark(self):
        """An opaque mark for the current state (requires an active trail)."""
        trail = self._trail
        if trail is None:
            raise SemanticsError("trail_mark() requires trail_begin() first")
        return (len(trail), len(self._labels), self._initial, tuple(self._dirty))

    def trail_undo(self, mark) -> None:
        """Rewind the state to ``mark``, undoing everything since.

        Replays the trail in reverse: each record restores exactly the
        state its operation observed (liveness conditions at undo time
        equal those at do time because every later change has already
        been reverted).  Auxiliary caches are restored to a *consistent*
        view: component ids are never reused, so schedule entries and
        memoized analyses that were re-pushed or survive the rewind
        revalidate naturally.
        """
        trail = self._trail
        if trail is None:
            raise SemanticsError("trail_undo() requires trail_begin() first")
        length, labels_len, initial, dirty_snapshot = mark
        idx = self._idx
        status = self.status
        reason_kind = self._reason_kind
        atom_alive = self.atom_alive
        rule_alive = self.rule_alive
        rule_pending = self.rule_pending
        pos_live = self.pos_live
        pos_occ_t = idx.pos_occ_t
        neg_occ_t = idx.neg_occ_t
        head_of = idx.head_of_t
        live_atoms, atom_slot = self._live_atoms, self._atom_slot
        live_rules, rule_slot = self._live_rules, self._rule_slot
        for pos in range(len(trail) - 1, length - 1, -1):
            entry = trail[pos]
            tag = entry[0]
            if tag == _T_SET:
                a = entry[1]
                status[a] = UNDEF
                reason_kind[a] = _R_NONE
            elif tag == _T_ATOM:
                a, slot = entry[1], entry[2]
                if slot == len(live_atoms):
                    live_atoms.append(a)
                else:
                    moved = live_atoms[slot]
                    live_atoms.append(moved)
                    atom_slot[moved] = len(live_atoms) - 1
                    live_atoms[slot] = a
                atom_slot[a] = slot
                atom_alive[a] = 1
                self._live_atom_count += 1
                # The atom's value is still set (its _T_SET record is
                # earlier in the trail); replay the inverse edge updates
                # under the liveness the original operation observed.
                if status[a] == TRUE:
                    for r in pos_occ_t[a]:
                        pos_live[r] += 1
                        if rule_alive[r]:
                            rule_pending[r] += 1
                else:
                    for r in pos_occ_t[a]:
                        pos_live[r] += 1
                    for r in neg_occ_t[a]:
                        if rule_alive[r]:
                            rule_pending[r] += 1
            elif tag == _T_RULE:
                r, slot = entry[1], entry[2]
                if slot == len(live_rules):
                    live_rules.append(r)
                else:
                    moved = live_rules[slot]
                    live_rules.append(moved)
                    rule_slot[moved] = len(live_rules) - 1
                    live_rules[slot] = r
                rule_slot[r] = slot
                rule_alive[r] = 1
                self.atom_support[head_of[r]] += 1
            elif tag == _T_INCROSS:
                cid = entry[1]
                count = self._scc_incross.get(cid)
                if count is not None:
                    if count == 0:
                        self._scc_bottom.discard(cid)
                    self._scc_incross[cid] = count + 1
            elif tag == _T_DIRTY:
                self._scc_dirty.discard(entry[1])
            elif tag == _T_REFINE:
                comps = self._scc_comps
                if comps is not None:
                    for cid in entry[2]:
                        comps.pop(cid, None)
                        self._scc_incross.pop(cid, None)
                        self._scc_bottom.discard(cid)
                        self._scc_bottom_obj.pop(cid, None)
                        self._tie_sides.pop(cid, None)
                    comp_of = self._scc_comp_of
                    assert comp_of is not None
                    for cid, nodes, count, was_bottom, obj, sides in entry[1]:
                        comps[cid] = nodes
                        self._scc_incross[cid] = count
                        if was_bottom:
                            self._scc_bottom.add(cid)
                            # Its schedule entry may have been dropped as
                            # stale meanwhile; restore the invariant that
                            # every bottom component has a live entry.
                            heappush(self._tie_heap, (self._heap_key(nodes), cid))
                        if obj is not None:
                            self._scc_bottom_obj[cid] = obj
                        if sides is not None:
                            self._tie_sides[cid] = sides
                        for node in nodes:
                            comp_of[node] = cid
                        self._scc_dirty.add(cid)
            elif tag == _T_REBUILD:
                # Drop the whole condensation (rebuilt on next query).
                # comp_of must go too: close() keys its tracking off it,
                # and the counts it would maintain no longer exist.
                self._scc_comps = None
                self._scc_comp_of = None
                self._scc_incross = {}
                self._scc_bottom = set()
                self._scc_bottom_obj = {}
                self._scc_dirty = set()
                self._tie_sides = {}
            elif tag == _T_SRC:
                self._src[entry[1]] = entry[2]
            elif tag == _T_SL_ADD:
                self._unf_sourceless.discard(entry[1])
            elif tag == _T_SL_DISCARD:
                self._unf_sourceless.add(entry[1])
            elif tag == _T_SL_REPLACE:
                self._unf_sourceless = entry[1]
            elif tag == _T_LOST_CLEAR:
                self._unf_lost = entry[1]
            elif tag == _T_LOST_APPEND:
                self._unf_lost.pop()
            else:  # _T_UNF_VALID
                self._unf_valid = entry[1]
        del trail[length:]
        # Labels interned since the mark are unreferenced once the _T_SET
        # records are unwound; reclaim them so a long DFS on one state
        # stays bounded by its current depth, not its total history.
        del self._labels[labels_len:]
        self._initial = initial
        self._dirty.clear()
        self._dirty.extend(dirty_snapshot)

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
        reuse safe.  An active undo trail is *not* inherited — clones
        start with recording disabled.
        """
        other = object.__new__(GroundGraphState)
        other.gp = self.gp
        other._idx = self._idx
        other.n_atoms = self.n_atoms
        other.n_rules = self.n_rules
        other.status = list(self.status)
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
        other._order = self._order
        other._reason_kind = bytearray(self._reason_kind)
        other._reason_arg = list(self._reason_arg)
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
        other._tie_sides = dict(self._tie_sides)
        other._ta_overlap = 0.0
        other._tie_heap = list(self._tie_heap)
        other._trail = None
        other.phase_s = dict(self.phase_s)
        return other

    def reopened(self, touched: Iterable[int]) -> "GroundGraphState":
        """A copy of this finished well-founded state, moved onto the ground
        program's current index, with the forward cone of ``touched`` reset.

        ``self`` must be the end state of a well-founded run (``close``
        and :meth:`falsify_unfounded` to fixpoint) over an earlier index
        of the same ground program, and ``touched`` must hold every atom
        the streaming updates since then touched: atoms whose M₀, support
        or U\\* membership changed, new atoms, and the heads of added,
        enabled or disabled instances.  The well-founded model is
        relevant — an atom's value depends only on the rule instances in
        its backward cone — so only atoms in the forward closure of
        ``touched`` (through instances the current index keeps alive) can
        change value.  The copy resets exactly those atoms to undefined
        and live with no reason and no source, recomputes liveness and
        counters of every instance whose head is in the cone from the
        current values of its body, and queues the cone's M₀ values, the
        instances that fire at once and the unsupported atoms for
        ``close``.  The cone is queued as the unfounded query's lost set,
        so the next query re-derives sources inside it only: no atom
        outside the cone depends on one inside it.

        The caller finishes the copy with ``close()`` and
        ``falsify_unfounded()``, which then count only the cone's rounds.
        ``self`` is not mutated.  Reasons outside the cone carry over and
        stay valid derivations, since their backward cones did not change.
        """
        self._require_closed()
        other = self.clone()
        idx = self.gp.index
        n_atoms, n_rules = idx.n_atoms, idx.n_rules
        grow = n_atoms - self.n_atoms
        if grow:
            other.status.extend([UNDEF] * grow)
            other.atom_alive.extend(bytes(grow))
            other._atom_slot.extend([-1] * grow)
            other._reason_kind.extend(bytes(grow))
            other._reason_arg.extend([0] * grow)
            other.atom_support.extend([0] * grow)
            other._src.extend([-1] * grow)
        if n_rules > self.n_rules:
            grow = n_rules - self.n_rules
            other.rule_alive.extend(bytes(grow))
            other._rule_slot.extend([-1] * grow)
            other.rule_pending.extend([0] * grow)
            other.pos_live.extend([0] * grow)
        other._idx = idx
        other.n_atoms = n_atoms
        other.n_rules = n_rules
        other._order = idx.atom_order
        # Nothing here keeps the condensation: it is rebuilt on demand.
        other._scc_comps = None
        other._scc_comp_of = None
        other._scc_incross = {}
        other._scc_bottom = set()
        other._scc_bottom_obj = {}
        other._scc_dirty = set()
        other._tie_sides = {}
        other._tie_heap = []
        other.phase_s = dict.fromkeys(other.phase_s, 0.0)

        # The cone: forward closure of the touched atoms through every
        # instance the index keeps alive, fired or killed ones included.
        scratch = other._scratch
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

        status = other.status
        atom_alive = other.atom_alive
        live_atoms, atom_slot = other._live_atoms, other._atom_slot
        kind, src = other._reason_kind, other._src
        for a in cone:
            status[a] = UNDEF
            kind[a] = _R_NONE
            src[a] = -1
            if not atom_alive[a]:
                atom_alive[a] = 1
                atom_slot[a] = len(live_atoms)
                live_atoms.append(a)
                other._live_atom_count += 1

        # Every instance headed in the cone, from its body's current values
        # (live = undefined at this point: the base was closed).  Any
        # instance the index keeps alive with a cone atom in its body is
        # headed in the cone; the others are dead and never read.
        rule_alive = other.rule_alive
        live_rules, rule_slot = other._live_rules, other._rule_slot
        rule_pending, pos_live, support = other.rule_pending, other.pos_live, other.atom_support
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
                other._set(a, value, _R_DELTA if value == TRUE else _R_EDB_ABSENT)
        for r in ready:
            other._fire(r)
        for a in cone:
            if status[a] == UNDEF and support[a] == 0:
                other._set(a, FALSE, _R_NO_SUPPORT)
        other._unf_lost = cone
        return other

    # -- results -------------------------------------------------------------

    def finish(self) -> None:
        """Drop the search machinery of a finished run, in place.

        Keeps :attr:`FinishedState.FIELDS` — the model and its reasons,
        all that :meth:`reason_of`, :meth:`interpretation` and
        :func:`~repro.ground.explain.explain` read — and frees the rest:
        the SCC cache and tie schedule, the unfounded-set sources, the
        counters and the live-slot arrays.  The state becomes a
        :class:`FinishedState`, which has no kernel methods, so any
        later ``close``, assignment, query, trail call or ``clone``
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
