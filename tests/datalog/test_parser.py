"""Parser tests: grammar coverage, round-tripping, error reporting."""

import pytest

from repro.datalog.atoms import atom, neg
from repro.datalog.parser import parse_atom, parse_database, parse_program
from repro.datalog.printer import format_program
from repro.datalog.rules import rule
from repro.datalog.terms import Constant, Variable
from repro.errors import ParseError, ValidationError


class TestParseProgram:
    def test_simple_rule(self):
        prog = parse_program("win(X) :- move(X, Y), not win(Y).")
        assert len(prog) == 1
        r = prog.rules[0]
        assert r.head == atom("win", "X")
        assert r.body[0].atom == atom("move", "X", "Y") and r.body[0].positive
        assert str(r) == "win(X) :- move(X, Y), ¬win(Y)."

    def test_propositional_rules(self):
        prog = parse_program("p :- p, not q. q :- q, not p.")
        assert len(prog) == 2
        assert prog.is_propositional

    def test_fact(self):
        prog = parse_program("p(a).")
        assert prog.rules[0].is_fact

    def test_negation_spellings(self):
        for negation in ["not q", "!q", "¬q", "\\+ q"]:
            prog = parse_program(f"p :- {negation}.")
            assert not prog.rules[0].body[0].positive, negation

    def test_integer_and_string_constants(self):
        prog = parse_program('p(X) :- e(X, 42), f("new york").')
        e_atom = prog.rules[0].body[0].atom
        f_atom = prog.rules[0].body[1].atom
        assert e_atom.args[1] == Constant(42)
        assert f_atom.args[0] == Constant("new york")

    def test_negative_integer(self):
        prog = parse_program("p(-3).")
        assert prog.rules[0].head.args[0] == Constant(-3)

    def test_variables_uppercase_or_underscore(self):
        prog = parse_program("p(X, _y, abc).")
        args = prog.rules[0].head.args
        assert args[0] == Variable("X")
        assert args[1] == Variable("_y")
        assert args[2] == Constant("abc")

    def test_comments_ignored(self):
        prog = parse_program(
            """
            % a comment
            p(a).  # trailing comment
            q(b).
            """
        )
        assert len(prog) == 2

    def test_paper_program_1(self):
        """Program (1) of the paper: P(a) :- ¬P(x), E(b)."""
        prog = parse_program("p(a) :- not p(X), e(b).")
        assert prog.idb_predicates == {"p"}
        assert prog.edb_predicates == {"e"}

    def test_roundtrip_through_printer(self):
        source = """
        win(X) :- move(X, Y), not win(Y).
        p(a) :- not p(X), e(b).
        t :- not t.
        """
        prog = parse_program(source)
        assert parse_program(format_program(prog)) == prog


class TestParseErrors:
    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_program("p(a)")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_program("p(a.")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            parse_program('p("abc).')

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("p(a).\nq(b) :- .")
        assert excinfo.value.line == 2

    def test_head_cannot_be_negative(self):
        with pytest.raises(ParseError):
            parse_program("not p :- q.")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_program("p :- q & r.")

    @pytest.mark.parametrize("digit", ["²", "٣", "０", "½"])
    def test_non_ascii_digits_rejected_with_location(self, digit):
        # INTEGER is ASCII digits only: ``int("²")`` used to escape as a bare
        # ValueError and ``٣`` used to parse silently as Constant(3).
        for parse in (parse_program, parse_database):
            with pytest.raises(ParseError) as excinfo:
                parse(f"p(1).\nq(a, {digit}).")
            assert str(excinfo.value) == (
                f"unexpected character {digit!r} at line 2, column 6"
            )
        with pytest.raises(ParseError):
            parse_atom(f"p({digit})")
        with pytest.raises(ParseError):
            parse_program(f"p(-{digit}).")

    def test_non_ascii_digits_inside_identifiers_still_allowed(self):
        assert parse_atom("p(x٣, y²)") == atom("p", "x٣", "y²")

    def test_line_numbers_after_multiline_string(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program('p("a\nb").\nq(b) :- .')
        assert (excinfo.value.line, excinfo.value.column) == (3, 9)
        with pytest.raises(ParseError) as excinfo:
            parse_program('p("a\nbc", &).')
        assert (excinfo.value.line, excinfo.value.column) == (2, 6)

    def test_column_counts_from_line_start(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("p(a).\n\tq(b) :- r(,).")
        assert (excinfo.value.line, excinfo.value.column) == (2, 12)

    def test_end_of_input_sits_before_trailing_comment(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("p(a) % no dot")
        assert str(excinfo.value) == "expected DOT, found EOF ('') at line 1, column 6"

    def test_lexical_error_beats_earlier_syntax_error(self):
        # the whole source is tokenized before it is parsed
        with pytest.raises(ParseError) as excinfo:
            parse_program("p( . q & r.")
        assert str(excinfo.value) == "unexpected character '&' at line 1, column 8"


class TestParseDatabase:
    def test_facts(self):
        db = parse_database("edge(1, 2). edge(2, 3). start(1).")
        assert db.contains("edge", 1, 2)
        assert db.contains("start", 1)
        assert len(db) == 3

    def test_rejects_rules(self):
        with pytest.raises(ParseError):
            parse_database("p(X) :- q(X).")

    def test_rejects_nonground_facts(self):
        with pytest.raises(ParseError):
            parse_database("p(X).")

    def test_rule_error_carries_statement_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_database("p(a).\n  q(X) :- r(X).")
        assert str(excinfo.value) == (
            "database may contain only facts, found rule q(X) :- r(X). at line 2, column 3"
        )

    def test_nonground_error_carries_statement_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_database("p(a). p(b).\nq(a, _Y).")
        assert str(excinfo.value) == "database fact q(a, _Y) is not ground at line 2, column 1"

    def test_first_offending_statement_is_reported(self):
        with pytest.raises(ParseError) as excinfo:
            parse_database("p(a).\nq(X).\nr :- s.")
        assert "q(X) is not ground" in str(excinfo.value)
        assert excinfo.value.line == 2

    def test_syntax_error_beats_earlier_rule(self):
        with pytest.raises(ParseError) as excinfo:
            parse_database("p(X) :- q(X).\nr(")
        assert str(excinfo.value) == "expected a term, found EOF ('') at line 2, column 3"

    def test_inconsistent_arity(self):
        with pytest.raises(ValidationError, match="inconsistent arity"):
            parse_database("p(a). p(a, b).")

    def test_repeated_constants_are_shared(self):
        db = parse_database("e(1, a). e(a, 1).")
        first, second = db["e"]
        assert first[0] is second[1] and first[1] is second[0]

    def test_zero_ary_facts(self):
        db = parse_database("q. q. r(1).")
        assert db.contains("q") and len(db) == 2


class TestParseAtom:
    def test_atom(self):
        assert parse_atom("p(X, a)") == atom("p", "X", "a")

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("p(X) :-")
