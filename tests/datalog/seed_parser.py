"""The character-by-character Datalog¬ parser, preserved verbatim as an oracle.

This is the parser that ``repro.datalog.parser`` replaced with a single
compiled-regex scan.  ``tests/properties/test_parser_properties.py``
compares the two on printed programs and databases and on random token
soups: equal results, or the same ``ParseError`` message and location.
It keeps its known defects (non-ASCII digits, line numbers after a
multi-line string, database errors without a location), so the soups
avoid those inputs.  Do not "improve" this module; its value is being
frozen.

The original module docstring follows.

Parser for the concrete Datalog¬ syntax.

Grammar (EBNF)::

    program  := statement*
    statement:= rule | fact
    rule     := atom ":-" literal { "," literal } "."
    fact     := atom "."
    literal  := [ "not" | "!" | "¬" | "\\+" ] atom
    atom     := IDENT [ "(" term { "," term } ")" ]
    term     := VARIABLE | CONSTANT | INTEGER | STRING

Lexical rules:

* ``VARIABLE``  — identifier starting with an uppercase letter or ``_``;
* ``CONSTANT``  — identifier starting with a lowercase letter;
* ``INTEGER``   — optional ``-`` followed by digits;
* ``STRING``    — double-quoted, no escapes;
* comments run from ``%`` or ``#`` to end of line.

``parse_program`` returns a validated :class:`~repro.datalog.program.Program`;
``parse_database`` parses a list of ground facts into a
:class:`~repro.datalog.database.Database`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.datalog.atoms import Atom, Literal
from repro.datalog.database import Database
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Term, Variable
from repro.errors import ParseError

__all__ = ["parse_program", "parse_rules", "parse_database", "parse_atom"]

_PUNCT = {":-": "IMPLIES", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT"}
_NEGATION_WORDS = {"not"}
_NEGATION_SYMBOLS = {"!", "¬", "\\+"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # IDENT, VARIABLE, INTEGER, STRING, punctuation kinds, NEG, EOF
    text: str
    line: int
    column: int


def _tokenize(source: str) -> Iterator[_Token]:
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in "%#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith(":-", i):
            yield _Token("IMPLIES", ":-", line, col)
            i += 2
            col += 2
            continue
        if source.startswith("\\+", i):
            yield _Token("NEG", "\\+", line, col)
            i += 2
            col += 2
            continue
        if ch in "(),.":
            yield _Token(_PUNCT[ch], ch, line, col)
            i += 1
            col += 1
            continue
        if ch in "!¬":
            yield _Token("NEG", ch, line, col)
            i += 1
            col += 1
            continue
        if ch == '"':
            j = source.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string literal", line, col)
            text = source[i + 1 : j]
            yield _Token("STRING", text, line, col)
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and source[i + 1].isdigit()):
            j = i + 1
            while j < n and source[j].isdigit():
                j += 1
            yield _Token("INTEGER", source[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            if text in _NEGATION_WORDS:
                kind = "NEG"
            elif text[0].isupper() or text[0] == "_":
                kind = "VARIABLE"
            else:
                kind = "IDENT"
            yield _Token(kind, text, line, col)
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    yield _Token("EOF", "", line, col)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, source: str):
        self._tokens = list(_tokenize(source))
        self._pos = 0

    @property
    def _current(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._current
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, found {tok.kind} ({tok.text!r})", tok.line, tok.column
            )
        return self._advance()

    def parse_rules(self) -> list[Rule]:
        rules: list[Rule] = []
        while self._current.kind != "EOF":
            rules.append(self._rule())
        return rules

    def _rule(self) -> Rule:
        head = self._atom()
        body: tuple[Literal, ...] = ()
        if self._current.kind == "IMPLIES":
            self._advance()
            literals = [self._literal()]
            while self._current.kind == "COMMA":
                self._advance()
                literals.append(self._literal())
            body = tuple(literals)
        self._expect("DOT")
        return Rule(head, body)

    def _literal(self) -> Literal:
        positive = True
        if self._current.kind == "NEG":
            self._advance()
            positive = False
        return Literal(self._atom(), positive)

    def _atom(self) -> Atom:
        name = self._expect("IDENT")
        args: tuple[Term, ...] = ()
        if self._current.kind == "LPAREN":
            self._advance()
            terms = [self._term()]
            while self._current.kind == "COMMA":
                self._advance()
                terms.append(self._term())
            self._expect("RPAREN")
            args = tuple(terms)
        return Atom(name.text, args)

    def _term(self) -> Term:
        tok = self._current
        if tok.kind == "VARIABLE":
            self._advance()
            return Variable(tok.text)
        if tok.kind == "IDENT":
            self._advance()
            return Constant(tok.text)
        if tok.kind == "INTEGER":
            self._advance()
            return Constant(int(tok.text))
        if tok.kind == "STRING":
            self._advance()
            return Constant(tok.text)
        raise ParseError(f"expected a term, found {tok.kind} ({tok.text!r})", tok.line, tok.column)


def parse_rules(source: str) -> list[Rule]:
    """Parse source text into a list of rules without program validation."""
    return _Parser(source).parse_rules()


def parse_program(source: str) -> Program:
    """Parse source text into a validated :class:`Program`.

    >>> prog = parse_program('''
    ...     win(X) :- move(X, Y), not win(Y).
    ... ''')
    >>> sorted(prog.edb_predicates)
    ['move']
    """
    return Program(parse_rules(source))


def parse_database(source: str) -> Database:
    """Parse a list of ground facts (``p(a, 1). q.``) into a :class:`Database`.

    >>> db = parse_database("edge(1, 2). edge(2, 3). start(1).")
    >>> len(db)
    3
    """
    rules = parse_rules(source)
    db = Database()
    for r in rules:
        if r.body:
            raise ParseError(f"database may contain only facts, found rule {r}")
        if not r.head.is_ground:
            raise ParseError(f"database fact {r.head} is not ground")
        db.add_atom(r.head)
    return db


def parse_atom(source: str) -> Atom:
    """Parse a single atom (without trailing dot)."""
    parser = _Parser(source)
    result = parser._atom()
    parser._expect("EOF")
    return result
