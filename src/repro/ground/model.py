"""Truth values and interpretations (the paper's partial models).

A *partial model* maps ground atoms to true/false, leaving some undefined;
it is *total* when every atom has a value (§2).  :class:`Interpretation`
is the immutable result object returned by every interpreter: it wraps the
ground program's atom table plus a status array, and answers queries both
for materialized atoms and — under relevant grounding — for the
closed-world remainder (EDB atoms by Δ, unmaterialized IDB atoms false).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.grounding import GroundIndex, GroundProgram, LiteralTable

__all__ = ["UNDEF", "TRUE", "FALSE", "Interpretation"]

UNDEF = 0
TRUE = 1
FALSE = 2

_BOOL_OF = {TRUE: True, FALSE: False, UNDEF: None}
_NO_GHOSTS: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class Interpretation:
    """A (possibly partial) model of a ground program.

    ``status[i]`` is the truth value of atom ``i`` in the ground program's
    atom table, one byte per atom: ``status`` is always ``bytes`` (any
    other sequence of ints is converted once, on construction), so a
    snapshot is copied and freed as one buffer.  Atoms that were never
    materialized (possible only under relevant grounding) are resolved by
    the closed-world convention: EDB atoms by membership in Δ, IDB atoms
    false — this matches the paper's
    semantics because unmaterialized atoms always lie outside the
    upper-bound model U\\* and are false in every run of the well-founded
    (tie-breaking) interpreter.

    On a grounding that streaming updates changed, the snapshot keeps the
    index it was taken over: its :attr:`ghost_ids`, atoms a fresh
    grounding of the database would not hold, are false and left out of
    the false atoms.
    """

    ground_program: GroundProgram
    status: bytes
    index: GroundIndex | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.status, bytes):
            object.__setattr__(self, "status", bytes(self.status))
        index = self.index_of(self.ground_program)
        if index is not None:
            object.__setattr__(self, "index", index)

    @staticmethod
    def index_of(gp: GroundProgram) -> GroundIndex | None:
        """The index a snapshot of ``gp`` taken now keeps: ``gp``'s current
        one if streaming updates can change it, else ``None``."""
        return gp.index if getattr(gp, "_delta_session", None) is not None else None

    @classmethod
    def over(
        cls, gp: GroundProgram, status: bytes, index: GroundIndex | None
    ) -> "Interpretation":
        """A snapshot whose status was solved when ``gp`` had ``index``
        (:meth:`index_of` then), built later: its ghosts are that index's."""
        model = cls(gp, status)
        object.__setattr__(model, "index", index)
        return model

    @property
    def ghost_ids(self) -> frozenset[int]:
        """Materialized atoms a fresh grounding would not hold (see
        :meth:`~repro.datalog.grounding.GroundIndex.ghosts`): empty unless
        the grounding took streaming updates."""
        index = self.index
        return _NO_GHOSTS if index is None else index.ghost_ids

    def value(self, atom: Atom) -> Optional[bool]:
        """Truth value of a ground atom: True / False / None (undefined)."""
        index = self.ground_program.atoms.get(atom)
        if index is not None:
            return self.value_of_id(index)
        return self.unmaterialized_value(self.ground_program, atom)

    def value_of_id(self, index: int) -> Optional[bool]:
        """Truth value of the materialized atom with id ``index``.

        Streaming updates can append atoms to the shared table after this
        snapshot was taken.  Such an atom was not materialized when the
        snapshot was taken, and every Δ fact of a grounding is, so the
        snapshot reads it as false — never from the live database, which
        has moved on since.
        """
        return _BOOL_OF[self.status[index]] if index < len(self.status) else False

    def masks(self, literals: LiteralTable) -> tuple[bytes, ...]:
        """Per status value, the byte mask over the string order of
        ``literals`` (:meth:`~repro.datalog.grounding.LiteralTable.masks`),
        the ghosts selected by none."""
        return literals.masks(self.status, self.ghost_ids)

    @staticmethod
    def unmaterialized_value(gp: GroundProgram, atom: Atom) -> bool:
        """The closed-world value of an atom ``gp`` never materialized: an
        EDB atom's membership in Δ, false for an IDB atom."""
        if atom.predicate in gp.program.edb_predicates:
            return gp.database.contains_atom(atom)
        return False

    def __getitem__(self, atom: Atom) -> Optional[bool]:
        return self.value(atom)

    @property
    def is_total(self) -> bool:
        """True iff no materialized atom is undefined."""
        return UNDEF not in self.status

    @property
    def undefined_count(self) -> int:
        """Number of materialized atoms left undefined."""
        return self.status.count(UNDEF)

    def _atoms_with(self, wanted: int, skip: frozenset[int] = _NO_GHOSTS) -> Iterator[Atom]:
        table = self.ground_program.atoms
        for index, s in enumerate(self.status):
            if s == wanted and index not in skip:
                yield table.atom(index)

    def true_atoms(self) -> Iterator[Atom]:
        """Materialized atoms with value true."""
        return self._atoms_with(TRUE)

    def false_atoms(self) -> Iterator[Atom]:
        """Materialized atoms with value false, ghosts left out."""
        return self._atoms_with(FALSE, self.ghost_ids)

    def undefined_atoms(self) -> Iterator[Atom]:
        """Materialized atoms left without a truth value."""
        return self._atoms_with(UNDEF)

    def true_set(self) -> frozenset[Atom]:
        """The set of true atoms (the model's positive part)."""
        return frozenset(self.true_atoms())

    def true_rows(self, predicate: str) -> frozenset[tuple]:
        """Constant tuples of the true atoms of one predicate."""
        return frozenset(
            a.args for a in self.true_atoms() if a.predicate == predicate
        )

    def holds(self, atom: Atom) -> bool:
        """True iff the atom is *true* (undefined counts as not holding)."""
        return self.value(atom) is True

    def as_database(self) -> Database:
        """The true atoms as a :class:`Database` (the output instance)."""
        return Database.from_atoms(self.true_atoms())

    def agrees_with(self, other: "Interpretation") -> bool:
        """True iff both models give identical values on *shared* atoms.

        Used to compare runs under different groundings: atoms materialized
        in only one interpretation are compared through :meth:`value`, so a
        full-grounding FALSE matches a relevant-grounding closed-world
        default.
        """
        mine = {self.ground_program.atoms.atom(i): s for i, s in enumerate(self.status)}
        for atom, s in mine.items():
            if _BOOL_OF[s] != other.value(atom):
                return False
        theirs = {
            other.ground_program.atoms.atom(i): s for i, s in enumerate(other.status)
        }
        for atom, s in theirs.items():
            if _BOOL_OF[s] != self.value(atom):
                return False
        return True

    def summary(self) -> str:
        """Counts of true/false/undefined materialized atoms."""
        status = self.status
        false = status.count(FALSE) - sum(
            1 for g in self.ghost_ids if g < len(status) and status[g] == FALSE
        )
        return (
            f"Interpretation(true={status.count(TRUE)}, false={false}, "
            f"undefined={self.undefined_count}, total={self.is_total})"
        )

    def __repr__(self) -> str:
        return self.summary()
