"""The one result schema every semantics returns.

Every entrypoint of :class:`repro.api.Engine` — ``solve``, ``enumerate``,
``query_many`` — produces a :class:`Solution`: a three-valued model
partition, totality flags, the tie trail (with the policy that oriented
it), per-phase timings, and the legacy run object for backward
compatibility.  JSON serialization lives in
:func:`repro.io.json_io.solution_to_json` (schema ``repro-solution/1``).

Two model conventions coexist, mirroring the interpreters:

* **materialized** — ``false_atoms`` is a set: the ground program's atom
  table was walked and every materialized atom received a value (the
  ground-graph semantics);
* **closed-world** — ``false_atoms`` is ``None``: only the true (and
  possibly undefined) atoms are listed and everything else is false
  (the set-based semantics: stratified, stable, completion, modular).

Since PR 10 the materialized convention is **id-native and lazy**: a
model-backed solution stores only the kernel's
:class:`~repro.ground.model.Interpretation` (a status array over the
ground program's dense atom ids).  ``true_ids`` / ``false_ids`` /
``undefined_ids`` partition those ids with one status scan;
``true_atoms`` / ``false_atoms`` / ``undefined_atoms`` decode the ids
into :class:`~repro.datalog.atoms.Atom` sets *once, on first touch* —
callers that only need membership (``value``, ``query_many``) or the
``repro-solution/1`` encoder (which reads sorted atom strings decoded
straight from the ids) never pay for the eager sets at all.  Decode
wall-clock is booked into ``timings["result_s"]``.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.datalog.atoms import Atom
from repro.ground.model import FALSE, TRUE, UNDEF, Interpretation

if TYPE_CHECKING:  # pragma: no cover - import cycles at type-check time only
    from repro.ground.state import GroundGraphState
    from repro.semantics.tie_breaking import TieChoice

__all__ = ["Solution"]

_UNSET = object()

#: (true_ids, false_ids, undefined_ids) — one status scan, cached.
_IdPartition = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

_FIELDS = (
    "semantics",
    "found",
    "total",
    "true_atoms",
    "undefined_atoms",
    "false_atoms",
    "model",
    "choices",
    "policy",
    "iterations",
    "grounding",
    "timings",
    "state",
    "run",
)


class Solution:
    """One semantics' answer for one (program, database) pair.

    Field semantics:

    * ``semantics`` — canonical registry name that produced the result
      (aliases are resolved before solving);
    * ``found`` — ``False`` only for search semantics that found no
      model (``stable``, ``completion``); deterministic semantics always
      produce their (possibly partial) model;
    * ``total`` — every atom is true or false, nothing undefined;
    * ``true_atoms`` / ``undefined_atoms`` — frozensets of atoms.  For
      model-backed solutions these are **lazy views**: nothing is decoded
      until a property is first read, then the decoded frozenset is
      cached on the instance (see the module docstring);
    * ``false_atoms`` — a (lazy) set under the *materialized* convention,
      or ``None`` under the *closed-world* convention (everything not
      listed true or undefined is false);
    * ``true_ids`` / ``false_ids`` / ``undefined_ids`` — the id-native
      partition of the atom table backing the lazy views: sorted tuples
      of dense atom ids, computed with one status scan and no atom
      decode.  ``None`` for model-less (closed-world) solutions;
    * ``model`` — the full :class:`~repro.ground.model.Interpretation`
      for ground-graph semantics, ``None`` for set-based ones;
    * ``choices`` — the tie-orientation trail (one ``TieChoice`` per
      orientation, forced or free), empty for tie-free semantics;
    * ``policy`` — ``repr()`` of the policy that oriented the ties
      (self-describing: ``"RandomChoice(seed=7)"`` replays the run);
    * ``iterations`` — semantics-specific loop count (unfounded-set
      rounds for ``well_founded``, components for ``modular``), or
      ``None``;
    * ``grounding`` — the grounding mode actually used, ``None`` for
      semantics that never ground;
    * ``timings`` — wall-clock seconds per pipeline phase (``parse_s``,
      ``ground_s``, ``compile_s``, ``solve_s``; ``artifact_load_s`` /
      ``artifact_save_s`` when binary artifacts are involved).  The
      ground-graph interpreters additionally break ``solve_s`` down into
      the kernel phases ``close_s`` / ``unfounded_s`` / ``tie_select_s``
      / ``tie_apply_s`` / ``tie_analysis_s`` (summing to ~``solve_s``);
      ``result_s`` accumulates lazy-decode/encode wall clock as views
      are touched (booked non-overlapping with ``solve_s``);
    * ``state`` — the retained evaluation state for ``explain``, or
      ``None``;
    * ``run`` — the legacy result object (``WellFoundedRun``,
      ``TieBreakingRun``, ``Interpretation``, ``frozenset`` of true
      atoms, or ``None`` when nothing was found), kept so the deprecated
      free functions can delegate here without changing their return
      types.

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
        true_atoms: frozenset[Atom] | Any = _UNSET,
        undefined_atoms: frozenset[Atom] | Any = _UNSET,
        false_atoms: frozenset[Atom] | None | Any = _UNSET,
        model: Interpretation | None = None,
        choices: tuple["TieChoice", ...] = (),
        policy: str | None = None,
        iterations: int | None = None,
        grounding: str | None = None,
        timings: Mapping[str, float] | None = None,
        state: Optional["GroundGraphState"] = None,
        run: Any = None,
    ) -> None:
        self.semantics = semantics
        self.found = found
        self.total = total
        self.model = model
        self.choices = choices
        self.policy = policy
        self.iterations = iterations
        self.grounding = grounding
        self.timings = {} if timings is None else timings
        self.state = state
        self.run = run
        if model is None:
            # Set-based results are born eager; unset fields default to
            # the closed-world empty answer.
            self._true = frozenset() if true_atoms is _UNSET else frozenset(true_atoms)
            self._undefined = (
                frozenset() if undefined_atoms is _UNSET else frozenset(undefined_atoms)
            )
            self._false = (
                None
                if false_atoms is _UNSET or false_atoms is None
                else frozenset(false_atoms)
            )
            self._false_decoded = True
        else:
            # Model-backed: whatever was not passed eagerly stays an
            # undecoded lazy view over the status array.
            self._true = None if true_atoms is _UNSET else frozenset(true_atoms)
            self._undefined = (
                None if undefined_atoms is _UNSET else frozenset(undefined_atoms)
            )
            self._false = None if false_atoms is _UNSET else false_atoms
            self._false_decoded = false_atoms is not _UNSET
        self._ids: _IdPartition | None = None
        self._strs: list[list[str] | None] = [None, None, None]
        self._result_s = 0.0

    # -- lazy id partition and decoded views -------------------------------

    def _book_result(self, dt: float) -> None:
        """Accumulate decode/encode wall clock into ``timings["result_s"]``."""
        self._result_s += dt
        timings = self.timings
        if isinstance(timings, dict):
            timings["result_s"] = self._result_s

    def _id_partition(self) -> _IdPartition:
        ids = self._ids
        if ids is None:
            t0 = perf_counter()
            true_ids: list[int] = []
            false_ids: list[int] = []
            undef_ids: list[int] = []
            push = {
                TRUE: true_ids.append,
                FALSE: false_ids.append,
                UNDEF: undef_ids.append,
            }
            for index, status in enumerate(self.model.status):
                push[status](index)
            ids = (tuple(true_ids), tuple(false_ids), tuple(undef_ids))
            self._ids = ids
            self._book_result(perf_counter() - t0)
        return ids

    def _decode(self, which: int) -> frozenset[Atom]:
        t0 = perf_counter()
        ids = self._id_partition()[which]
        table = self.model.ground_program.atoms
        decoded = frozenset(table.atom(i) for i in ids)
        self._book_result(perf_counter() - t0)
        return decoded

    def _sorted_strings(self, which: int) -> list[str]:
        """Sorted atom strings of one partition (0=true, 1=false, 2=undefined).

        The ``repro-solution/1`` encoder's decode path: id → atom → str,
        sorted, with no intermediate frozenset.  Cached per partition (the
        cached list itself is returned: copy it before handing it out); the
        first compute books into ``result_s``.
        """
        strings = self._strs[which]
        if strings is None:
            t0 = perf_counter()
            if self.model is not None:
                ids = self._id_partition()[which]
                table = self.model.ground_program.atoms
                strings = sorted(str(table.atom(i)) for i in ids)
            else:
                atoms = (self._true, self._false or frozenset(), self._undefined)[which]
                strings = sorted(str(a) for a in atoms)
            self._strs[which] = strings
            self._book_result(perf_counter() - t0)
        return strings

    @property
    def true_ids(self) -> tuple[int, ...] | None:
        """Atom-table ids with value true (``None`` when model-less)."""
        if self.model is None:
            return None
        return self._id_partition()[0]

    @property
    def false_ids(self) -> tuple[int, ...] | None:
        """Atom-table ids with value false (``None`` when model-less)."""
        if self.model is None:
            return None
        return self._id_partition()[1]

    @property
    def undefined_ids(self) -> tuple[int, ...] | None:
        """Atom-table ids left undefined (``None`` when model-less)."""
        if self.model is None:
            return None
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
        if self.model is not None and not self._false_decoded:
            self._false = self._decode(1)
            self._false_decoded = True
        return self._false

    # -- derived views -----------------------------------------------------

    @property
    def is_total(self) -> bool:
        """Alias for ``total`` matching the legacy run dataclasses."""
        return self.total

    @property
    def free_choice_count(self) -> int:
        """Number of genuinely nondeterministic tie orientations taken."""
        return sum(1 for c in self.choices if not c.forced)

    def counts(self) -> tuple[int, int | None, int]:
        """``(true, false, undefined)`` cardinalities without atom decode.

        ``false`` is ``None`` under the closed-world convention.  For
        model-backed solutions this scans the status array once (cached)
        and never builds an atom set.
        """
        if self.model is not None:
            true_ids, false_ids, undef_ids = self._id_partition()
            return len(true_ids), len(false_ids), len(undef_ids)
        return (
            len(self._true),
            None if self._false is None else len(self._false),
            len(self._undefined),
        )

    def value(self, atom: Atom) -> bool | None:
        """Three-valued lookup: True / False / None (undefined).

        Model-backed solutions answer straight from the interned atom id
        (O(1), no set construction); set-based ones consult their sets.
        """
        if self.model is not None:
            return self.model.value(atom)
        if atom in self.true_atoms:
            return True
        if atom in self.undefined_atoms:
            return None
        if self.false_atoms is None:  # closed world
            return False
        return False if atom in self.false_atoms else None

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
        accumulated ``result_s``) carry over, so replacing ``timings`` or
        ``grounding`` never forces or repeats a decode.
        """
        unknown = sorted(set(changes) - set(_FIELDS))
        if unknown:
            raise TypeError(f"unknown Solution field(s): {', '.join(unknown)}")
        lazy_fields = ("true_atoms", "undefined_atoms", "false_atoms")
        # Read the raw slots, not the properties: touching the properties
        # here would defeat the laziness this class exists for.
        kwargs = {
            name: getattr(self, name)
            for name in _FIELDS
            if name not in changes and name not in lazy_fields
        }
        if self.model is None:
            kwargs["true_atoms"] = self._true
            kwargs["undefined_atoms"] = self._undefined
            kwargs["false_atoms"] = self._false
        kwargs.update(changes)
        new = Solution(**kwargs)
        if self.model is not None and new.model is self.model:
            if "true_atoms" not in changes:
                new._true = self._true
            if "undefined_atoms" not in changes:
                new._undefined = self._undefined
            if "false_atoms" not in changes and self._false_decoded:
                new._false = self._false
                new._false_decoded = True
            if new._ids is None:
                new._ids = self._ids
            new._strs = self._strs
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
        """Wrap a materialized three-valued model (the ground-graph result).

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
    def from_true_set(
        cls,
        semantics: str,
        true_atoms: frozenset[Atom],
        *,
        undefined_atoms: frozenset[Atom] = frozenset(),
        **extra: Any,
    ) -> "Solution":
        """Wrap a closed-world result (everything unlisted is false)."""
        return cls(
            semantics=semantics,
            found=True,
            total=not undefined_atoms,
            true_atoms=frozenset(true_atoms),
            undefined_atoms=frozenset(undefined_atoms),
            false_atoms=None,
            **extra,
        )

    @classmethod
    def not_found(cls, semantics: str, **extra: Any) -> "Solution":
        """The empty answer of a search semantics with no model."""
        return cls(
            semantics=semantics,
            found=False,
            total=False,
            true_atoms=frozenset(),
            undefined_atoms=frozenset(),
            false_atoms=None,
            **extra,
        )

    # -- comparison and display --------------------------------------------

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Solution):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in _FIELDS)

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
