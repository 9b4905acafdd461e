"""Tests for the exception hierarchy and error ergonomics."""

import pytest

from repro.errors import (
    ArityError,
    CloseConflictError,
    ConstructionError,
    GroundingError,
    NotATieError,
    ParseError,
    ReproError,
    SemanticsError,
    ValidationError,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in [
            ParseError,
            ValidationError,
            ArityError,
            GroundingError,
            CloseConflictError,
            NotATieError,
            SemanticsError,
            ConstructionError,
        ]:
            assert issubclass(exc_type, ReproError), exc_type

    def test_arity_error_is_validation_error(self):
        assert issubclass(ArityError, ValidationError)

    def test_catching_base_catches_all(self):
        with pytest.raises(ReproError):
            raise CloseConflictError(3)


class TestParseErrorLocations:
    def test_message_includes_location(self):
        error = ParseError("unexpected token", line=3, column=7)
        assert "line 3" in str(error) and "column 7" in str(error)
        assert error.line == 3 and error.column == 7

    def test_message_without_location(self):
        error = ParseError("bad database")
        assert error.line is None
        assert "line" not in str(error)


class TestCloseConflict:
    def test_carries_atom_id(self):
        error = CloseConflictError(42)
        assert error.atom_id == 42
        assert "42" in str(error)

    def test_custom_message(self):
        error = CloseConflictError(1, "head p fired against false")
        assert "head p fired" in str(error)


class TestLibraryRaisesOwnTypes:
    def test_parse(self):
        from repro.datalog.parser import parse_program

        with pytest.raises(ParseError):
            parse_program("p(.")

    def test_arity(self):
        from repro.datalog.parser import parse_program

        with pytest.raises(ArityError):
            parse_program("p(a). p(a, b).")

    def test_grounding_guard(self):
        from repro.datalog.grounding import ground
        from repro.datalog.parser import parse_database, parse_program

        with pytest.raises(GroundingError):
            ground(
                parse_program("p(A,B,C,D,E) :- e(A), e(B), e(C), e(D), e(E)."),
                parse_database("e(1). e(2). e(3). e(4). e(5). e(6). e(7). e(8)."),
                mode="full",
                max_instances=100,
            )

    def test_semantics_domain(self):
        from repro.datalog.parser import parse_program
        from repro.api import Engine
        from repro.datalog.database import Database

        with pytest.raises(SemanticsError):
            Engine(parse_program("p :- not p."), Database()).solve("stratified")

    def test_construction_domain(self):
        from repro.constructions.theorem2 import theorem2_variant
        from repro.datalog.parser import parse_program

        with pytest.raises(ConstructionError):
            theorem2_variant(parse_program("p :- q."))
