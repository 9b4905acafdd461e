"""Printer edge cases: quoting, headers, and exact round-trips."""


from repro.datalog.atoms import Atom, atom, neg
from repro.datalog.database import Database
from repro.datalog.parser import parse_database, parse_program
from repro.datalog.printer import format_database, format_program, format_rule, format_term
from repro.datalog.rules import rule
from repro.datalog.terms import Constant, Variable


class TestFormatTerm:
    def test_variable(self):
        assert format_term(Variable("X")) == "X"

    def test_plain_constant(self):
        assert format_term(Constant("abc_1")) == "abc_1"

    def test_integer(self):
        assert format_term(Constant(-3)) == "-3"

    def test_spaces_quoted(self):
        assert format_term(Constant("new york")) == '"new york"'

    def test_uppercase_start_quoted(self):
        # would otherwise re-parse as a variable
        assert format_term(Constant("NewYork")) == '"NewYork"'

    def test_empty_string_quoted(self):
        assert format_term(Constant("")) == '""'

    def test_negation_word_quoted(self):
        # a bare ``not`` would re-parse as a negation sign
        assert format_term(Constant("not")) == '"not"'
        db = Database.from_dict({"p": [("not",)]})
        assert parse_database(format_database(db)) == db


class TestFormatRuleAndProgram:
    def test_negation_spelled_not(self):
        r = rule(atom("p", "X"), neg("q", "X"))
        assert format_rule(r) == "p(X) :- not q(X)."

    def test_propositional(self):
        assert format_rule(rule(Atom("p"), Atom("q"))) == "p :- q."

    def test_header_comment(self):
        text = format_program(parse_program("p."), header="generated\nby test")
        assert text.startswith("% generated\n% by test\n")
        assert parse_program(text) == parse_program("p.")

    def test_empty_program(self):
        assert format_program(parse_program("")) == ""

    def test_roundtrip_with_quoted_constants(self):
        prog = parse_program('p("New York", X) :- e(X, -7).')
        assert parse_program(format_program(prog)) == prog


class TestFormatDatabase:
    def test_facts_and_header(self):
        db = Database.from_dict({"e": [(1, 2)], "z": [()]})
        text = format_database(db, header="facts")
        assert text.startswith("% facts\n")
        assert parse_database("\n".join(l for l in text.splitlines() if not l.startswith("%"))) == db

    def test_empty_database(self):
        assert format_database(Database()) == ""
