"""Pretty-printing programs and databases back to parseable source text.

``str(program)`` already produces readable output using the ``¬`` glyph;
this module produces *round-trippable* ASCII source (``not`` for negation,
quoted strings where needed) plus optional alignment and comments, so
generated programs (e.g. theorem constructions) can be saved and re-parsed.
"""

from __future__ import annotations

from typing import Iterable

from repro.datalog.atoms import Atom, Literal
from repro.datalog.database import Database
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Term, Variable

__all__ = [
    "format_term",
    "format_atom",
    "format_literal",
    "format_rule",
    "format_program",
    "format_database",
]


def format_term(term: Term) -> str:
    """Render a term as parseable source text."""
    if isinstance(term, Variable):
        return term.name
    value = term.value
    if isinstance(value, int):
        return str(value)
    bare = value[:1].islower() and all(c.isalnum() or c == "_" for c in value)
    if bare and value != "not":  # ``not`` would re-parse as a negation
        return value
    return f'"{value}"'


def format_atom(atom: Atom) -> str:
    """Render an atom as parseable source text."""
    if not atom.args:
        return atom.predicate
    return f"{atom.predicate}({', '.join(format_term(t) for t in atom.args)})"


def format_literal(literal: Literal) -> str:
    """Render a literal, using ``not`` for negation."""
    text = format_atom(literal.atom)
    return text if literal.positive else f"not {text}"


def format_rule(rule: Rule) -> str:
    """Render one rule terminated by a dot."""
    if not rule.body:
        return f"{format_atom(rule.head)}."
    body = ", ".join(format_literal(lit) for lit in rule.body)
    return f"{format_atom(rule.head)} :- {body}."


def format_program(program: Program | Iterable[Rule], *, header: str | None = None) -> str:
    """Render a whole program, one rule per line.

    The output parses back to an equal program::

        parse_program(format_program(p)) == p

    ``header`` (if given) is emitted as a ``%`` comment block on top.
    """
    rules = program.rules if isinstance(program, Program) else tuple(program)
    lines: list[str] = []
    if header:
        lines.extend(f"% {line}" for line in header.splitlines())
    lines.extend(format_rule(r) for r in rules)
    return "\n".join(lines) + ("\n" if lines else "")


def format_database(database: Database, *, header: str | None = None) -> str:
    """Render a database as a list of facts, one per line."""
    lines: list[str] = []
    if header:
        lines.extend(f"% {line}" for line in header.splitlines())
    lines.extend(f"{format_atom(a)}." for a in database.atoms())
    return "\n".join(lines) + ("\n" if lines else "")
