"""Tests for the Interpretation result API."""


from repro.datalog.atoms import Atom, atom
from repro.datalog.database import Database
from repro.datalog.grounding import ground
from repro.datalog.parser import parse_database, parse_program
from repro.ground.model import FALSE, TRUE, Interpretation
from repro.api import Engine


def model_for(source, db_source="", mode="full"):
    program = parse_program(source)
    db = parse_database(db_source) if db_source else Database()
    return Engine(program, db).solve("well_founded", grounding=mode).model


class TestValueLookup:
    def test_materialized_values(self):
        model = model_for("p :- not q.")
        assert model.value(Atom("p")) is True
        assert model.value(Atom("q")) is False
        assert model[Atom("p")] is True

    def test_undefined(self):
        model = model_for("p :- not p.")
        assert model.value(Atom("p")) is None
        assert not model.holds(Atom("p"))

    def test_unmaterialized_edb_resolved_from_delta(self):
        model = model_for("p(X) :- e(X), not q(X). q(X) :- f(X).", "e(1).", mode="relevant")
        assert model.value(atom("e", 1)) is True
        assert model.value(atom("f", 1)) is False  # EDB absent from Δ

    def test_unmaterialized_idb_false(self):
        model = model_for("p :- p. q :- e.", "e.", mode="relevant")
        # p is outside U*: not materialized under relevant grounding
        assert model.value(Atom("p")) is False

    def test_counts_and_totality(self):
        model = model_for("p :- not q. q :- not p. r.")
        assert not model.is_total
        assert model.undefined_count == 2
        assert "total=False" in model.summary()


class TestViews:
    def test_true_false_undefined_partition(self):
        model = model_for("a. b :- not a. c :- not c.")
        atoms = {str(a) for a in model.true_atoms()}
        assert atoms == {"a"}
        assert {str(a) for a in model.false_atoms()} == {"b"}
        assert {str(a) for a in model.undefined_atoms()} == {"c"}

    def test_true_rows(self):
        model = model_for("p(X) :- e(X).", "e(1). e(2).")
        values = {row[0].value for row in model.true_rows("p")}
        assert values == {1, 2}

    def test_as_database_roundtrip(self):
        model = model_for("p(X) :- e(X).", "e(1).")
        out = model.as_database()
        assert out.contains("p", 1) and out.contains("e", 1)

    def test_true_set_frozen(self):
        model = model_for("a.")
        assert model.true_set() == frozenset({Atom("a")})


class TestAgreesWith:
    def test_same_model_agrees(self):
        a = model_for("p :- not q.")
        b = model_for("p :- not q.")
        assert a.agrees_with(b)

    def test_across_groundings(self):
        source, db = "p :- p. q :- e, not p.", "e."
        full = model_for(source, db, mode="full")
        relevant = model_for(source, db, mode="relevant")
        assert full.agrees_with(relevant)
        assert relevant.agrees_with(full)

    def test_disagreement_detected(self):
        a = model_for("p.")
        b = model_for("p :- q.")
        assert not a.agrees_with(b)


class TestManualConstruction:
    def test_status_tuple_contract(self):
        prog = parse_program("p :- q.")
        gp = ground(prog, Database(), mode="full")
        interp = Interpretation(gp, (TRUE, FALSE))
        values = {str(gp.atoms.atom(i)): s for i, s in enumerate(interp.status)}
        assert len(values) == 2
        assert interp.is_total
