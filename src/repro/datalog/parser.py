"""Parser for the concrete Datalog¬ syntax.

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
* ``INTEGER``   — optional ``-`` followed by ASCII digits ``0-9`` only;
* ``STRING``    — double-quoted, no escapes;
* comments run from ``%`` or ``#`` to end of line.

One ``findall`` of a compiled pattern splits the source into token texts,
which the recursive-descent parser walks by index; token kinds and line and
column numbers are only worked out for an error.  Each parse builds one term
per distinct token text and shares it.

``parse_program`` returns a validated :class:`~repro.datalog.program.Program`;
``parse_database`` parses a list of ground facts into a
:class:`~repro.datalog.database.Database`.
"""

from __future__ import annotations

import re
from collections import defaultdict

from repro.datalog.atoms import Atom, Literal
from repro.datalog.database import Database
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Term, Variable
from repro.errors import ParseError

__all__ = ["PLAIN_ATOM", "parse_program", "parse_rules", "parse_database", "parse_atom"]

# The lexer's INTEGER and identifier rules, shared by ``_TOKEN`` and
# ``PLAIN_ATOM`` so the two cannot drift apart.
_INTEGER = r"-?[0-9]+"
_NAME = r"[^\W\d]\w*"
# Group 1 is the token text: "" only at the end of the source (the EOF
# token), and a single character the grammar rejects falls to ``.``.
_TOKEN = re.compile(
    rf"""(?:\s|[%#][^\n]*)*
    ( :- | \\\+ | [(),.!¬] | "[^"]*" | {_INTEGER} | {_NAME} | . | \Z )""",
    re.VERBOSE,
)
_NEGATIONS = frozenset({"not", "!", "¬", "\\+"})

# A constant identifier: an identifier token the lexer reads as IDENT
# (neither ``_`` nor an uppercase letter first; see ``_kind``), here only
# from a lowercase ASCII letter, and no negation word.
_WORD_NEGATIONS = "|".join(sorted(n for n in _NEGATIONS if n.isidentifier()))
_PLAIN_NAME = rf"(?!(?:{_WORD_NEGATIONS})\b)(?=[a-z]){_NAME}"
_PLAIN_TERM = rf"(?:{_INTEGER}|{_PLAIN_NAME})"
#: The plain shape of an atom text: a constant identifier, then integer
#: and constant-identifier arguments, spaced as ``str(Atom)`` writes them
#: (built from the lexer's own token rules).  An atom whose text has this
#: shape and whose predicate is the text's leading identifier is what
#: :func:`parse_atom` reads from its text: an integer argument prints as
#: an INTEGER token and a string one only as itself or quoted
#: (``Constant.__str__``; ``tests/properties/test_tie_view.py`` pins that
#: agreement on generated constants).
#: :meth:`~repro.datalog.grounding.AtomTable.text_ids` answers such texts
#: without a parse.
PLAIN_ATOM = re.compile(
    rf"{_PLAIN_NAME}(?:\({_PLAIN_TERM}(?:, {_PLAIN_TERM})*\))?", re.ASCII
)
_KINDS = {":-": "IMPLIES", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT", "": "EOF"}
_KINDS.update(dict.fromkeys(_NEGATIONS, "NEG"))


def _kind(tok: str) -> str | None:
    """The kind of a token text, or None if the lexical rules reject it."""
    kind = _KINDS.get(tok)
    if kind is not None:
        return kind
    head = tok[0]
    if head == '"':
        return "STRING" if len(tok) > 1 else None
    if head == "-" or "0" <= head <= "9":
        return "INTEGER" if tok != "-" else None
    if head == "_" or head.isalpha():
        return "VARIABLE" if head == "_" or head.isupper() else "IDENT"
    return None


class _Parser:
    """Recursive-descent parser over the token texts of one source."""

    def __init__(self, source: str):
        self._source = source
        self._toks: list[str] = _TOKEN.findall(source)
        self._i = 0
        self._terms: dict[str, Term] = {}
        self._names: set[str] = set()
        self._saw_variable = False
        self._starts: list[int] = []  # token index of each rule

    def _error(self, index: int, message: str) -> ParseError:
        """A :class:`ParseError` at token ``index``.  A character the lexical
        rules reject comes first, wherever it is in the source."""
        source = self._source
        offset = len(source)
        for k, match in enumerate(_TOKEN.finditer(source)):
            tok = match.group(1)
            if tok and _kind(tok) is None:
                offset = match.start(1)
                bad = f"unexpected character {tok[0]!r}"
                message = "unterminated string literal" if tok == '"' else bad
                break
            if k == index:
                offset = match.start(1)
                if not tok:  # EOF sits before a comment that ends the source
                    start = max(match.start(), source.rfind("\n") + 1)
                    offset = len(source) - len(source[start:].lstrip())
        line = source.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - source.rfind("\n", 0, offset))

    def _unexpected(self, expected: str) -> ParseError:
        tok = self._toks[self._i]
        text = tok[1:-1] if tok[:1] == '"' else tok
        return self._error(self._i, f"expected {expected}, found {_kind(tok)} ({text!r})")

    def _expect(self, tok: str) -> None:
        if self._toks[self._i] != tok:
            raise self._unexpected(_KINDS[tok])
        self._i += 1

    def _rules(self) -> list[Rule]:
        rules: list[Rule] = []
        while self._toks[self._i]:
            self._starts.append(self._i)
            rules.append(self._rule())
        return rules

    def _rule(self) -> Rule:
        head = self._atom()
        body: list[Literal] = []
        separator = ":-"  # before the first body literal, then ","
        while self._toks[self._i] == separator:
            self._i += 1
            positive = self._toks[self._i] not in _NEGATIONS
            if not positive:
                self._i += 1
            body.append(Literal(self._atom(), positive))
            separator = ","
        self._expect(".")
        return Rule(head, tuple(body))

    def _atom(self) -> Atom:
        return Atom(self._name(), self._args())

    def _name(self) -> str:
        tok = self._toks[self._i]
        if tok not in self._names:
            if _kind(tok) != "IDENT":
                raise self._unexpected("IDENT")
            self._names.add(tok)
        self._i += 1
        return tok

    def _args(self) -> tuple[Term, ...]:
        toks, i = self._toks, self._i
        if toks[i] != "(":
            return ()
        terms = self._terms
        args: list[Term] = []
        while True:
            i += 1
            term = terms.get(toks[i])
            if term is None:
                self._i = i
                term = self._new_term()
            args.append(term)
            i += 1
            if toks[i] != ",":
                break
        self._i = i
        self._expect(")")
        return tuple(args)

    def _new_term(self) -> Term:
        tok = self._toks[self._i]
        kind = _kind(tok)
        if kind == "VARIABLE":
            term: Term = Variable(tok)
            self._saw_variable = True
        elif kind == "INTEGER":
            term = Constant(int(tok))
        elif kind in ("IDENT", "STRING"):
            term = Constant(tok.strip('"'))
        else:
            raise self._unexpected("a term")
        self._terms[tok] = term
        return term

    def _facts(self) -> dict[str, set[tuple[Constant, ...]]] | None:
        """Each statement's constant tuple, by predicate; None when some
        statement is a rule, is not ground, or changes a predicate's arity."""
        toks = self._toks
        relations: defaultdict[str, set] = defaultdict(set)
        arity: dict[str, int] = {}
        while toks[self._i]:
            name = self._name()
            row = self._args()
            if toks[self._i] != "." or arity.setdefault(name, len(row)) != len(row):
                return None
            self._i += 1
            relations[name].add(row)
        return None if self._saw_variable else dict(relations)


def parse_rules(source: str) -> list[Rule]:
    """Parse source text into a list of rules without program validation."""
    return _Parser(source)._rules()


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
    relations = _Parser(source)._facts()
    if relations is not None:
        return Database(relations)
    # Some statement is not a ground fact of a consistent arity.  Parse
    # again into rules to report the first such one, after any syntax error.
    parser = _Parser(source)
    rules = parser._rules()
    db = Database()
    for start, r in zip(parser._starts, rules):
        if r.body:
            raise parser._error(start, f"database may contain only facts, found rule {r}")
        if not r.head.is_ground:
            raise parser._error(start, f"database fact {r.head} is not ground")
        db.add_atom(r.head)
    return db


def parse_atom(source: str) -> Atom:
    """Parse a single atom (without trailing dot)."""
    parser = _Parser(source)
    result = parser._atom()
    parser._expect("")
    return result
