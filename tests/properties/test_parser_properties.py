"""Differential properties pinning the one-scan parser to the seed parser.

The production parser (:mod:`repro.datalog.parser`: one compiled-regex
``findall``, an index walk over the token texts, facts loaded straight
into the relation dict) is compared against the frozen
character-by-character parser (``tests/datalog/seed_parser.py``):

* printer round trips over random programs and databases: the new parse,
  the seed parse and the original objects are all equal;
* random ASCII token soups: both parsers return equal results, or both
  raise the same error with the same message and location.  The seed's
  two database errors carry no location; the new ones add the offending
  statement's.  Soups with a multi-line string are skipped, since the
  seed miscounts lines after one;
* the fifteen family instances of the ``cold_text`` benchmark workload,
  printed, parse identically.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.datalog import parser
from repro.datalog.database import Database
from repro.datalog.printer import format_database, format_program
from repro.errors import ReproError
from repro.workloads import families
from tests.datalog import seed_parser
from tests.properties.strategies import (
    propositional_cases,
    propositional_programs,
    small_predicate_cases,
    small_predicate_programs,
)

PARSERS = ("parse_program", "parse_rules", "parse_database", "parse_atom")

# -- printer round trips ------------------------------------------------------

_STRING_CHARS = st.sampled_from("abcXYZ_09 -.,:%#()!'\\\nté²٣")
_VALUES = st.one_of(
    st.integers(-(10**12), 10**12),
    st.sampled_from(["a", "b_1", "zeta", "not", "new york", "", "X", "_u", "é", "a٣"]),
    st.text(_STRING_CHARS, max_size=6),
)


@st.composite
def databases(draw):
    """Databases over a few predicates of fixed arity and mixed constants."""
    rows = {}
    for name in draw(st.lists(st.sampled_from(["e", "edge", "p0", "r_1"]), unique=True)):
        arity = draw(st.integers(0, 3))
        rows[name] = draw(st.lists(st.tuples(*[_VALUES] * arity), max_size=6))
    return Database.from_dict(rows)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_predicate_programs(), propositional_programs()))
def test_program_round_trip(program):
    text = format_program(program)
    rules = list(program.rules)
    assert parser.parse_rules(text) == seed_parser.parse_rules(text) == rules
    assert parser.parse_program(text) == seed_parser.parse_program(text) == program


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        databases(),
        small_predicate_cases().map(lambda case: case[1]),
        propositional_cases().map(lambda case: case[1]),
    )
)
def test_database_round_trip(database):
    text = format_database(database)
    assert parser.parse_database(text) == seed_parser.parse_database(text) == database


# -- token soups --------------------------------------------------------------

_PIECES = [
    *["p", "q", "win", "X", "Y", "_", "_z", "a", "b1", "not", "nota"],
    *["12", "-3", "-", "0", "(", ")", ",", ".", ":-", ":", "\\+", "\\", "!"],
    *['"s t"', '"', '""', '"%"', "% c\n", "#x", "%"],
    *[" ", "  ", "\n", "\t", "\r", "&", "'", "$"],
    *["p(a, X)", "q(1)", " :- ", "not q(Y)", ", ", ". ", ".\n", "r."],
]
_SOUPS = st.lists(st.sampled_from(_PIECES), max_size=16).map("".join)


def _outcome(parse, source):
    try:
        return ("ok", parse(source))
    except ReproError as error:
        return (type(error).__name__, str(error), getattr(error, "line", None))


def _has_multiline_string(source: str) -> bool:
    first, last = source.find('"'), source.rfind('"')
    return "\n" in source[first:last]


@settings(max_examples=600, deadline=None)
@given(_SOUPS)
def test_token_soups_agree(source):
    assume(not _has_multiline_string(source))
    for name in PARSERS:
        new = _outcome(getattr(parser, name), source)
        seed = _outcome(getattr(seed_parser, name), source)
        if name == "parse_database" and seed[0] == "ParseError" and seed[2] is None:
            # The seed reports rules and non-ground facts without a location.
            assert new[0] == "ParseError" and new[2] is not None, (source, new)
            assert new[1].startswith(f"{seed[1]} at line {new[2]}, column "), (source, new)
        else:
            assert new == seed, (name, source)


def test_soup_pieces_reach_every_outcome():
    """The soup alphabet spells successes and every kind of error."""
    cases = [
        ("parse_program", "p(a, X) :- q(1), not q(Y).", None),
        ("parse_program", "p(a, X) :- .", "expected IDENT, found DOT"),
        ("parse_atom", "q(1) :- r.", "expected EOF, found IMPLIES"),
        ("parse_program", 'p("s t" & ', "unexpected character '&'"),
        ("parse_program", 'q(1) "', "unterminated string literal"),
        ("parse_database", "r. p(a, X).", "is not ground"),
        ("parse_database", "r. q(1) :- r.", "may contain only facts"),
    ]
    for name, source, expected in cases:
        outcome = _outcome(getattr(parser, name), source)
        assert (outcome[0] == "ok") if expected is None else (expected in outcome[1])


# -- the cold_text workload's instances ---------------------------------------

#: The family sizes of the ``cold_text`` benchmark workload.
COLD_TEXT_INSTANCES = [
    (family, n)
    for family, sizes in (
        ("win_move_line", (500, 800, 1100, 1400)),
        ("grounded_argumentation", (300, 450, 600, 800)),
        ("committee", (400, 700, 1000, 1300)),
        ("negation_tower", (400, 800, 1200)),
    )
    for n in sizes
]


@pytest.mark.parametrize("family,n", COLD_TEXT_INSTANCES)
def test_cold_text_instances_parse_identically(family, n):
    program, database = getattr(families, family)(n)
    program_text, facts_text = format_program(program), format_database(database)
    rules = list(program.rules)
    assert parser.parse_rules(program_text) == seed_parser.parse_rules(program_text) == rules
    assert parser.parse_database(facts_text) == seed_parser.parse_database(facts_text) == database
