"""Finite databases (instances) for Datalog programs.

A :class:`Database` stores, for each predicate name, a set of tuples of
:class:`~repro.datalog.terms.Constant`.  It represents the paper's initial
database Δ: a set of initial values for *all* predicates of the program —
EDB facts and (in the uniform setting) initial IDB facts alike.

The class is mutable while being built (``add``/``add_atom``) and hashable
snapshots can be taken with :meth:`frozen`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, Union

from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant
from repro.errors import ValidationError

__all__ = ["Database"]

_Value = Union[str, int, Constant]


def _to_constant(value: _Value) -> Constant:
    return value if isinstance(value, Constant) else Constant(value)


@dataclass
class Database:
    """A finite set of ground facts, grouped by predicate.

    >>> db = Database()
    >>> db.add("edge", 1, 2)
    >>> db.add("edge", 2, 3)
    >>> db.contains("edge", 1, 2)
    True
    >>> sorted(t[0].value for t in db["edge"])
    [1, 2]
    """

    _relations: dict[str, set[tuple[Constant, ...]]] = field(default_factory=dict)

    @classmethod
    def from_atoms(cls, atoms: Iterable[Atom]) -> "Database":
        """Build a database from ground atoms."""
        db = cls()
        for a in atoms:
            db.add_atom(a)
        return db

    @classmethod
    def from_dict(cls, relations: Mapping[str, Iterable[Sequence[_Value]]]) -> "Database":
        """Build a database from ``{predicate: [tuple, ...]}``.

        >>> db = Database.from_dict({"edge": [(1, 2), (2, 3)], "start": [(1,)]})
        >>> db.contains("start", 1)
        True
        """
        db = cls()
        for pred, tuples in relations.items():
            for t in tuples:
                db.add(pred, *t)
        return db

    def add(self, predicate: str, *values: _Value) -> None:
        """Insert the fact ``predicate(values...)``."""
        row = tuple(_to_constant(v) for v in values)
        existing = self._relations.setdefault(predicate, set())
        if existing and len(next(iter(existing))) != len(row):
            raise ValidationError(
                f"predicate {predicate!r} used with inconsistent arity in database"
            )
        existing.add(row)

    def add_atom(self, atom: Atom) -> None:
        """Insert a ground atom as a fact."""
        if not atom.is_ground:
            raise ValidationError(f"cannot add non-ground atom {atom} to database")
        self.add(atom.predicate, *[t for t in atom.args])

    def check_addable(self, atoms: Iterable[Atom]) -> None:
        """Raise the :class:`ValidationError` that adding ``atoms`` would, adding none.

        Checks groundness and arity — against the stored facts and among
        ``atoms`` themselves — so a batch can be validated before any of
        it is applied.
        """
        arity: dict[str, int] = {}
        for atom in atoms:
            if not atom.is_ground:
                raise ValidationError(f"cannot add non-ground atom {atom} to database")
            rows = self._relations.get(atom.predicate)
            expected = arity.setdefault(
                atom.predicate, len(next(iter(rows))) if rows else len(atom.args)
            )
            if expected != len(atom.args):
                raise ValidationError(
                    f"predicate {atom.predicate!r} used with inconsistent arity in database"
                )

    def discard(self, predicate: str, *values: _Value) -> bool:
        """Remove the fact ``predicate(values...)``; True iff it was present."""
        row = tuple(_to_constant(v) for v in values)
        rows = self._relations.get(predicate)
        if rows is None or row not in rows:
            return False
        rows.discard(row)
        return True

    def discard_atom(self, atom: Atom) -> bool:
        """Remove a ground atom; True iff it was present."""
        if not atom.is_ground:
            raise ValidationError(f"cannot discard non-ground atom {atom}")
        return self.discard(atom.predicate, *atom.args)

    def contains(self, predicate: str, *values: _Value) -> bool:
        """True iff the fact ``predicate(values...)`` is present."""
        row = tuple(_to_constant(v) for v in values)
        return row in self._relations.get(predicate, ())

    def contains_atom(self, atom: Atom) -> bool:
        """True iff the ground atom is present."""
        if not atom.is_ground:
            raise ValidationError(f"atom {atom} is not ground")
        return self.contains(atom.predicate, *atom.args)

    def __getitem__(self, predicate: str) -> frozenset[tuple[Constant, ...]]:
        return frozenset(self._relations.get(predicate, ()))

    def predicates(self) -> frozenset[str]:
        """Predicates with at least one fact."""
        return frozenset(p for p, rows in self._relations.items() if rows)

    def atoms(self) -> Iterator[Atom]:
        """Yield every fact as a ground atom, grouped by predicate."""
        for pred in sorted(self._relations):
            for row in sorted(self._relations[pred], key=str):
                yield Atom(pred, row)

    def constants(self) -> frozenset[Constant]:
        """All constants mentioned by any fact."""
        return frozenset(c for rows in self._relations.values() for row in rows for c in row)

    def restrict(self, predicates: Iterable[str]) -> "Database":
        """A copy containing only the facts of the given predicates."""
        keep = set(predicates)
        out = Database()
        for pred, rows in self._relations.items():
            if pred in keep:
                out._relations[pred] = set(rows)
        return out

    def copy(self) -> "Database":
        """A deep copy (relation sets are duplicated)."""
        out = Database()
        out._relations = {p: set(rows) for p, rows in self._relations.items()}
        return out

    def frozen(self) -> frozenset[tuple[str, tuple[Constant, ...]]]:
        """A hashable snapshot of the database contents."""
        return frozenset((p, row) for p, rows in self._relations.items() for row in rows)

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._relations.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.frozen() == other.frozen()

    def __str__(self) -> str:
        return "\n".join(f"{a}." for a in self.atoms())

    def __repr__(self) -> str:
        preds = ", ".join(f"{p}:{len(rows)}" for p, rows in sorted(self._relations.items()))
        return f"Database({preds})"
