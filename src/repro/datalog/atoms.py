"""Atoms and literals.

An *atom* is a predicate symbol applied to a tuple of terms, e.g.
``P(X, a)``; it is *ground* when every argument is a constant.  A *literal*
is an atom or the negation of an atom; negation is written ``not P(X)`` in
the concrete syntax and rendered ``¬P(X)`` by :func:`str`.

Atoms and literals are immutable; substitution produces new objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

from repro.datalog.terms import Constant, Term, Variable, term_from_value

__all__ = ["Atom", "Literal", "atom", "atom_text", "pos", "neg"]


def atom_text(predicate: str, args: Sequence[str]) -> str:
    """The text of an atom from its predicate and its arguments' texts.

    The one place the atom format is decided: ``str(Atom)`` and every
    atom table's literal texts go through it.

    >>> atom_text("edge", ["1", "X"])
    'edge(1, X)'
    >>> atom_text("p", [])
    'p'
    """
    return f"{predicate}({', '.join(args)})" if args else predicate


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate applied to terms: ``predicate(args[0], ..., args[n-1])``.

    Zero-ary (propositional) atoms are permitted and print without
    parentheses, matching the paper's propositional examples.

    >>> a = Atom("edge", (Constant(1), Variable("X")))
    >>> str(a)
    'edge(1, X)'
    >>> a.is_ground
    False
    """

    predicate: str
    args: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if not self.predicate:
            raise ValueError("predicate name must be non-empty")

    @property
    def arity(self) -> int:
        """Number of arguments of the atom."""
        return len(self.args)

    @property
    def is_ground(self) -> bool:
        """True iff every argument is a constant."""
        return all(isinstance(t, Constant) for t in self.args)

    def variables(self) -> Iterator[Variable]:
        """Yield the variables occurring in the atom, left to right (with repeats)."""
        for t in self.args:
            if isinstance(t, Variable):
                yield t

    def constants(self) -> Iterator[Constant]:
        """Yield the constants occurring in the atom, left to right (with repeats)."""
        for t in self.args:
            if isinstance(t, Constant):
                yield t

    def substitute(self, binding: Mapping[Variable, Constant]) -> "Atom":
        """Apply ``binding`` to the atom's variables, returning a new atom.

        Variables absent from ``binding`` are left in place, so partial
        substitution is allowed.
        """
        if not self.args:
            return self
        new_args = tuple(binding.get(t, t) if isinstance(t, Variable) else t for t in self.args)
        return Atom(self.predicate, new_args)

    def ground_key(self) -> tuple[str, tuple[object, ...]]:
        """A hashable key ``(predicate, constant values)`` for a ground atom."""
        if not self.is_ground:
            raise ValueError(f"atom {self} is not ground")
        return self.predicate, tuple(t.value for t in self.args)  # type: ignore[union-attr]

    def __str__(self) -> str:
        return atom_text(self.predicate, [str(t) for t in self.args])

    def __repr__(self) -> str:
        return f"Atom({self.predicate!r}, {self.args!r})"


@dataclass(frozen=True, slots=True)
class Literal:
    """A positive or negative occurrence of an atom in a rule body.

    >>> lit = Literal(Atom("p"), positive=False)
    >>> str(lit)
    '¬p'
    >>> str(lit.negated())
    'p'
    """

    atom: Atom
    positive: bool = True

    @property
    def predicate(self) -> str:
        """Predicate symbol of the underlying atom."""
        return self.atom.predicate

    @property
    def is_ground(self) -> bool:
        """True iff the underlying atom is ground."""
        return self.atom.is_ground

    def negated(self) -> "Literal":
        """The complementary literal over the same atom."""
        return Literal(self.atom, not self.positive)

    def substitute(self, binding: Mapping[Variable, Constant]) -> "Literal":
        """Apply ``binding`` to the underlying atom."""
        return Literal(self.atom.substitute(binding), self.positive)

    def variables(self) -> Iterator[Variable]:
        """Yield the variables of the underlying atom."""
        return self.atom.variables()

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"¬{self.atom}"

    def __repr__(self) -> str:
        sign = "+" if self.positive else "-"
        return f"Literal({sign}{self.atom})"


def atom(predicate: str, *args: Union[str, int, Term]) -> Atom:
    """Convenience constructor: ``atom("p", "X", "a", 3)`` → ``p(X, a, 3)``.

    String arguments starting with an uppercase letter or ``_`` become
    variables; all other values become constants (see
    :func:`repro.datalog.terms.term_from_value`).
    """
    return Atom(predicate, tuple(term_from_value(a) for a in args))


def pos(predicate: str, *args: Union[str, int, Term]) -> Literal:
    """A positive body literal: ``pos("p", "X")`` → ``p(X)``."""
    return Literal(atom(predicate, *args), True)


def neg(predicate: str, *args: Union[str, int, Term]) -> Literal:
    """A negative body literal: ``neg("p", "X")`` → ``¬p(X)``."""
    return Literal(atom(predicate, *args), False)
