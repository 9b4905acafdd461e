"""The one result schema every semantics returns.

Every entrypoint of :class:`repro.api.Engine` — ``solve``, ``enumerate``,
``query_many`` — produces a :class:`Solution`: a three-valued model
partition, totality flags, the tie trail (with the policy that oriented
it), per-phase timings, and the evaluation state for ``explain``.  JSON
serialization lives in
:func:`repro.io.json_io.solution_to_json` (schema ``repro-solution/1``).

A solution has one representation: the
:class:`~repro.ground.model.Interpretation` its runner computed over the
engine's ground program — a status array over the program's dense atom
ids.  ``true_ids`` / ``false_ids`` / ``undefined_ids`` partition those ids
with one status scan; ``true_atoms`` / ``false_atoms`` /
``undefined_atoms`` decode the ids into
:class:`~repro.datalog.atoms.Atom` sets *once, on first touch* — callers
that only need membership (``value``, ``query_many``) never pay for the
eager sets at all.  Decode wall-clock is booked into
``timings["result_s"]``.  A solve the engine's tie table served holds
its model as the table and the trail flags
(:class:`~repro.semantics.tie_breaking.TableModel`) until ``model`` is
first read: ``value``, ``value_of_id`` and the model-list selection read
the table, so an atoms-only reply or a full one never builds the status
array.

``texts()`` — what the ``repro-solution/1`` encoder and the CLI print —
reads the atom table's :class:`~repro.datalog.grounding.LiteralTable`
(every atom's text, in string order, built once per table) and keeps
nothing on the solution: a cached solution holds no encode output.  A
closed-world solution (below) lists only its true and undefined atoms, so
it formats and sorts just those ids instead.

One flag changes how the false part is *reported*, never how it is
stored.  ``closed_world`` is set by the set-based semantics (stratified,
stable, completion, modular), whose answer is "these atoms are true (or
undefined), everything else is false": ``false_atoms``, ``false_ids`` and
the false count then read ``None``, and the wire form writes
``"false": null``.
"""

from __future__ import annotations

from itertools import compress
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from repro.datalog.atoms import Atom
from repro.ground.model import FALSE, TRUE, UNDEF, Interpretation

if TYPE_CHECKING:  # pragma: no cover - import cycles at type-check time only
    from repro.datalog.grounding import GroundProgram, LiteralTable
    from repro.ground.state import FinishedState
    from repro.semantics.tie_breaking import TableModel, TieChoice

__all__ = ["Solution"]

#: (true_ids, false_ids, undefined_ids) — one status scan, cached.
_IdPartition = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

_FIELDS = (
    "semantics",
    "found",
    "total",
    "model",
    "closed_world",
    "choices",
    "policy",
    "iterations",
    "timings",
    "state",
)
# Fields a deferred solution builds on first read (see Solution.defer and
# Solution.model).
_DEFERRED = ("model", "choices", "state")
# Fields equality compares as they are: ``state`` is left out, as the model
# and the trail determine it (comparing it would build a table-served
# solve's state), and ``timings`` are compared without ``result_s`` (see
# __eq__).
_COMPARED = tuple(name for name in _FIELDS if name not in ("state", "timings"))


def _solve_timings(timings: Mapping[str, float]) -> dict[str, float]:
    """``timings`` without ``result_s``, which each solution books for its
    own ``*_atoms`` reads: a cache hit equals its miss whichever views
    either has decoded."""
    return {name: value for name, value in timings.items() if name != "result_s"}


class Solution:
    """One semantics' answer for one (program, database) pair.

    Field semantics:

    * ``semantics`` — canonical registry name that produced the result
      (aliases are resolved before solving);
    * ``found`` — ``False`` only for search semantics that found no
      model (``stable``, ``completion``); deterministic semantics always
      produce their (possibly partial) model;
    * ``total`` — every atom is true or false, nothing undefined;
    * ``model`` — the :class:`~repro.ground.model.Interpretation` over the
      engine's ground program that every view below reads.  A solve the
      engine's tie table served is given a
      :class:`~repro.semantics.tie_breaking.TableModel` instead:
      :meth:`value`, :meth:`value_of_id` and :meth:`selection` read it
      from the table, and the ``Interpretation`` is built on first read
      of ``model``;
    * ``closed_world`` — set by the set-based semantics (stratified,
      stable, completion, modular): the false part is reported as
      ``None``, meaning "everything not listed true or undefined";
    * ``true_atoms`` / ``undefined_atoms`` / ``false_atoms`` — **lazy
      views**: nothing is decoded until a property is first read, then
      the decoded frozenset is cached on the instance (see the module
      docstring).  ``false_atoms`` is ``None`` when ``closed_world``;
    * ``true_ids`` / ``false_ids`` / ``undefined_ids`` — the id-native
      partition of the atom table backing the lazy views: sorted tuples
      of dense atom ids, computed with one status scan and no atom
      decode.  ``false_ids`` is ``None`` when ``closed_world``;
    * ``choices`` — the tie-orientation trail (one ``TieChoice`` per
      orientation, forced or free), empty for tie-free semantics;
    * ``policy`` — ``repr()`` of the policy that oriented the ties
      (self-describing: ``"RandomChoice(seed=7)"`` replays the run);
    * ``iterations`` — semantics-specific loop count (unfounded-set
      rounds for ``well_founded``, components for ``modular``), or
      ``None``;
    * ``grounding`` — the grounding mode of the ground program the
      model is over (read from the model);
    * ``timings`` — wall-clock seconds per pipeline phase (``parse_s``,
      ``ground_s``, ``compile_s``, ``solve_s``; ``artifact_load_s`` /
      ``artifact_save_s`` when binary artifacts are involved).  The
      ground-graph interpreters additionally break ``solve_s`` down into
      the kernel phases ``close_s`` / ``unfounded_s`` / ``tie_select_s``
      / ``tie_apply_s`` / ``tie_analysis_s`` (summing to ~``solve_s``);
      ``result_s`` accumulates the ``*_atoms`` decode wall clock as those
      views are touched (booked non-overlapping with ``solve_s``);
    * ``state`` — the retained evaluation state for ``explain``, or
      ``None``.  A tie-breaking solve keeps a
      :class:`~repro.ground.state.FinishedState`: the model and its
      reasons, without the kernel's search machinery.

    A tie-breaking solve is built by :meth:`defer`: a solve read from the
    engine's tie table decodes its choices from the table and rebuilds
    its state from the table on first read of each (a run's loaders hand
    back what the run built).  Equality compares every field but
    ``state``, and ``timings`` without ``result_s``, so comparing
    solutions never builds a state, and a solution equals its cache hit
    whichever atom views either decoded.

    Thread-safety of the lazy views: decode is idempotent (two racing
    readers build equal frozensets and one wins the cache slot), so
    concurrent reads are safe; only the ``result_s`` booking may
    undercount under a race.  The serving tier encodes a solution on
    the thread that solved it.
    """

    def __init__(
        self,
        semantics: str,
        found: bool,
        total: bool,
        model: "Interpretation | TableModel",
        closed_world: bool = False,
        choices: tuple["TieChoice", ...] = (),
        policy: str | None = None,
        iterations: int | None = None,
        timings: Mapping[str, float] | None = None,
        state: Optional["FinishedState"] = None,
    ) -> None:
        self.semantics = semantics
        self.found = found
        self.total = total
        # An Interpretation, or a TableModel until ``model`` is first read.
        self._model: Interpretation | TableModel = model
        self.closed_world = closed_world
        self._choices = choices
        self.policy = policy
        self.iterations = iterations
        self.timings = {} if timings is None else timings
        self._state = state
        # Loaders of choices / state for a deferred solution (see defer).
        self._load_choices: Callable[[], tuple["TieChoice", ...]] | None = None
        self._load_state: Callable[[], "FinishedState"] | None = None
        self._free: int | None = None
        self.trail: TableModel | None = None
        # Decoded views, filled on first read.
        self._true: frozenset[Atom] | None = None
        self._undefined: frozenset[Atom] | None = None
        self._false: frozenset[Atom] | None = None
        self._ids: _IdPartition | None = None
        self._result_s = 0.0

    # -- deferred trail and state -------------------------------------------

    def defer(
        self,
        *,
        choices: Callable[[], tuple["TieChoice", ...]],
        state: Callable[[], "FinishedState"],
        trail: "TableModel | None" = None,
    ) -> None:
        """Build ``choices`` and ``state`` on their first read, not now.

        ``choices()`` and ``state()`` are called at most once each, when
        the field is first read (an atoms-only reply reads neither).
        ``trail`` is the table and trail flags of a solve a tie table
        served, kept as :attr:`trail`: ``free_choice_count`` answers from
        the table without decoding, and the encoder writes the choices
        from the table's side texts.  Either loader may raise; the field
        is then left unbuilt.
        """
        self._load_choices = choices
        self._load_state = state
        if trail is not None:
            self._free = trail.table.free
        self.trail = trail

    @property
    def choices(self) -> tuple["TieChoice", ...]:
        """The tie-orientation trail (decoded on first read when deferred)."""
        if self._load_choices is not None:
            self._choices = self._load_choices()
            self._load_choices = None
        return self._choices

    @property
    def state(self) -> Optional["FinishedState"]:
        """The retained evaluation state (built on first read when deferred)."""
        if self._load_state is not None:
            self._state = self._load_state()
            self._load_state = None
        return self._state

    @property
    def model(self) -> Interpretation:
        """The three-valued model (built on first read from a table-served
        solve's :class:`~repro.semantics.tie_breaking.TableModel`)."""
        model = self._model
        if not isinstance(model, Interpretation):
            model = self._model = model.interpretation()
        return model

    @property
    def ground_program(self) -> "GroundProgram":
        """The ground program the model is over (builds no model)."""
        return self._model.ground_program

    @property
    def grounding(self) -> str:
        """The grounding mode of the ground program the model is over."""
        return self._model.ground_program.mode

    # -- lazy id partition and decoded views -------------------------------

    def _book_result(self, dt: float) -> None:
        """Accumulate ``*_atoms`` decode wall clock into ``timings["result_s"]``."""
        self._result_s += dt
        timings = self.timings
        if isinstance(timings, dict):
            timings["result_s"] = self._result_s

    def _id_partition(self) -> _IdPartition:
        ids = self._ids
        if ids is None:
            true_ids: list[int] = []
            false_ids: list[int] = []
            undef_ids: list[int] = []
            push = {
                TRUE: true_ids.append,
                FALSE: false_ids.append,
                UNDEF: undef_ids.append,
            }
            for index, status in enumerate(self._model.status):
                push[status](index)
            ids = (tuple(true_ids), tuple(false_ids), tuple(undef_ids))
            self._ids = ids
        return ids

    def _false_ids(self) -> tuple[int, ...]:
        """The false ids without the model's ghosts
        (:attr:`~repro.ground.model.Interpretation.ghost_ids`): left out
        only when the false atoms are read, so reading the true or
        undefined ones never looks for ghosts."""
        false_ids = self._id_partition()[1]
        ghosts = self._model.ghost_ids
        if ghosts:
            false_ids = tuple(a for a in false_ids if a not in ghosts)
        return false_ids

    def _decode(self, which: int) -> frozenset[Atom]:
        t0 = perf_counter()
        ids = self._false_ids() if which == 1 else self._id_partition()[which]
        table = self._model.ground_program.atoms
        decoded = frozenset(table.atom(i) for i in ids)
        self._book_result(perf_counter() - t0)
        return decoded

    def texts(self) -> tuple[list[str], list[str] | None, list[str]]:
        """The true / false / undefined atom texts, each in string order.

        The texts :meth:`selection` selects from the literal table, the
        table's own ``str`` objects; fresh lists on every call, nothing
        cached here and nothing booked.  A ``closed_world`` solution lists
        no false atoms (the false list is ``None``), so it formats and
        sorts only its true and undefined ids and never builds the literal
        table: on a full grounding that table is the whole Herbrand base,
        while the listed atoms are usually a small part of it.
        """
        atoms = self._model.ground_program.atoms
        if self.closed_world:
            true_ids, _, undefined_ids = self._id_partition()
            return (
                sorted([str(atoms.atom(i)) for i in true_ids]),
                None,
                sorted([str(atoms.atom(i)) for i in undefined_ids]),
            )
        table, (true, false, undefined) = self.selection()
        ordered = table.ordered
        return (
            list(compress(ordered, true)),
            list(compress(ordered, false)),
            list(compress(ordered, undefined)),
        )

    def selection(self) -> tuple["LiteralTable", tuple[bytes, bytes, bytes]]:
        """The atom table's literal table and the true, false and undefined
        masks over its string order
        (:meth:`~repro.datalog.grounding.LiteralTable.masks`), the model's
        ghosts selected by none: the one model-list selection, read by
        :meth:`texts` and by the ``repro-solution/1`` text encoder.  A
        table-served model is read in string order from its tie table's
        view (:meth:`~repro.semantics.tie_breaking.TableModel.masks`)."""
        model = self._model
        table = model.ground_program.atoms.literal_table()
        masks = model.masks(table)
        return table, (masks[TRUE], masks[FALSE], masks[UNDEF])

    @property
    def true_ids(self) -> tuple[int, ...]:
        """Atom-table ids with value true."""
        return self._id_partition()[0]

    @property
    def false_ids(self) -> tuple[int, ...] | None:
        """Atom-table ids with value false (``None`` when ``closed_world``)."""
        if self.closed_world:
            return None
        return self._false_ids()

    @property
    def undefined_ids(self) -> tuple[int, ...]:
        """Atom-table ids left undefined."""
        return self._id_partition()[2]

    @property
    def true_atoms(self) -> frozenset[Atom]:
        if self._true is None:
            self._true = self._decode(0)
        return self._true

    @property
    def undefined_atoms(self) -> frozenset[Atom]:
        if self._undefined is None:
            self._undefined = self._decode(2)
        return self._undefined

    @property
    def false_atoms(self) -> frozenset[Atom] | None:
        """Atoms with value false (``None`` when ``closed_world``)."""
        if self.closed_world:
            return None
        if self._false is None:
            self._false = self._decode(1)
        return self._false

    # -- derived views -----------------------------------------------------

    @property
    def is_total(self) -> bool:
        """Alias for ``total`` matching the run dataclasses."""
        return self.total

    @property
    def free_choice_count(self) -> int:
        """Number of genuinely nondeterministic tie orientations taken."""
        if self._free is None:
            self._free = sum(1 for c in self.choices if not c.forced)
        return self._free

    def counts(self) -> tuple[int, int | None, int]:
        """``(true, false, undefined)`` cardinalities without atom decode.

        Scans the status array once (cached) and never builds an atom
        set.  ``false`` is ``None`` when ``closed_world``.
        """
        true_ids, _, undef_ids = self._id_partition()
        false = None if self.closed_world else len(self._false_ids())
        return len(true_ids), false, len(undef_ids)

    def value(self, atom: Atom) -> bool | None:
        """Three-valued lookup: True / False / None (undefined).

        Answers straight from the interned atom id (O(1), no set
        construction; a table-served model reads the tie table).
        """
        return self._model.value(atom)

    def value_of_id(self, index: int) -> bool | None:
        """:meth:`value` of the materialized atom with id ``index``."""
        return self._model.value_of_id(index)

    def holds(self, atom: Atom) -> bool:
        """True iff the atom is *true* (undefined does not hold)."""
        return self.value(atom) is True

    def true_rows(self, predicate: str) -> frozenset[tuple]:
        """Constant tuples of the true atoms of one predicate."""
        return frozenset(a.args for a in self.true_atoms if a.predicate == predicate)

    def undefined_rows(self, predicate: str) -> frozenset[tuple]:
        """Constant tuples of the undefined atoms of one predicate."""
        return frozenset(a.args for a in self.undefined_atoms if a.predicate == predicate)

    def to_json_dict(self) -> dict:
        """The ``repro-solution/1`` JSON object (see :mod:`repro.io.json_io`)."""
        from repro.io.json_io import solution_to_obj

        return solution_to_obj(self)

    def to_json(self, *, indent: int | None = 2) -> str:
        """JSON text of :meth:`to_json_dict`."""
        from repro.io.json_io import solution_to_json

        return solution_to_json(self, indent=indent)

    # -- construction ------------------------------------------------------

    def replace(self, **changes: Any) -> "Solution":
        """A copy with ``changes`` applied (the ``dataclasses.replace`` of old).

        Lazy-view caches (the id partition, any already-decoded sets, the
        accumulated ``result_s``) carry over while the model is unchanged,
        so replacing ``timings`` or ``iterations`` never forces or repeats
        a decode; a deferred ``model``, ``choices`` and ``state`` stay
        deferred.
        """
        unknown = sorted(set(changes) - set(_FIELDS))
        if unknown:
            raise TypeError(f"unknown Solution field(s): {', '.join(unknown)}")
        kwargs = {name: getattr(self, name) for name in _FIELDS if name not in _DEFERRED}
        kwargs["model"], kwargs["choices"], kwargs["state"] = (
            self._model,
            self._choices,
            self._state,
        )
        kwargs.update(changes)
        new = Solution(**kwargs)
        if "choices" not in changes:
            new._load_choices, new._free = self._load_choices, self._free
            new.trail = self.trail
        if "state" not in changes:
            new._load_state = self._load_state
        if new._model is self._model:
            new._true = self._true
            new._undefined = self._undefined
            new._false = self._false
            new._ids = self._ids
            new._result_s = self._result_s
            if self._result_s and isinstance(new.timings, dict):
                new.timings.setdefault("result_s", self._result_s)
        return new

    @classmethod
    def from_interpretation(
        cls,
        semantics: str,
        model: Interpretation,
        **extra: Any,
    ) -> "Solution":
        """Wrap a runner's three-valued model over the engine's ground program.

        Purely id-native: no atom set is built here — the views decode
        lazily on first read.
        """
        return cls(
            semantics=semantics,
            found=True,
            total=model.is_total,
            model=model,
            **extra,
        )

    @classmethod
    def not_found(cls, semantics: str, model: Interpretation, **extra: Any) -> "Solution":
        """The empty answer of a search semantics with no model.

        ``model`` is ``Interpretation(gp, b"")`` over the ground program
        that was searched: no atom has a value.
        """
        return cls(
            semantics=semantics,
            found=False,
            total=False,
            model=model,
            closed_world=True,
            **extra,
        )

    # -- comparison and display --------------------------------------------

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Solution):
            return NotImplemented
        if _solve_timings(self.timings) != _solve_timings(other.timings):
            return False
        return all(getattr(self, name) == getattr(other, name) for name in _COMPARED)

    def summary(self) -> str:
        """One human line, for logs and the CLI (no atom decode)."""
        if not self.found:
            return f"Solution({self.semantics}: no model)"
        true, false, undef = self.counts()
        false_text = "closed-world" if false is None else str(false)
        return (
            f"Solution({self.semantics}: true={true}, "
            f"false={false_text}, undefined={undef}, total={self.total})"
        )

    def __repr__(self) -> str:
        return self.summary()
