"""Tests for the bounded nontotality search (the §5 r.e. procedure)."""

import pytest

from repro.analysis.totality_search import candidate_databases, search_nontotality_witness
from repro.constructions.theorem2 import theorem2_variant
from repro.datalog.parser import parse_program
from repro.errors import SemanticsError
from repro.api import Engine


class TestCandidateDatabases:
    def test_propositional_nonuniform(self):
        prog = parse_program("p :- e, not p.")
        dbs = list(candidate_databases(prog, max_constants=0))
        # e present or absent
        assert len(dbs) == 2

    def test_uniform_includes_idb(self):
        prog = parse_program("p :- e, not p.")
        dbs = list(candidate_databases(prog, max_constants=0, nonuniform=False))
        assert len(dbs) == 4

    def test_symmetry_reduction(self):
        prog = parse_program("p(X) :- e(X), not p(X).")
        dbs = list(candidate_databases(prog, max_constants=2))
        # universes: 0 constants -> {} ; 1 -> e(u0) or not; 2 -> e-subsets
        # up to permutation: {}, {e(u0)}, {e(u0), e(u1)}  (plus size-0/1 dups
        # filtered per size).  No two yielded dbs may be permutations.
        raw = [frozenset((p, tuple(str(c) for c in row)) for p, row in db.frozen()) for db in dbs]
        assert len(raw) == len(set(raw))

    def test_blowup_guard(self):
        prog = parse_program("p(X, Y, Z) :- e(X, Y, Z), not p(X, X, X).")
        with pytest.raises(SemanticsError):
            list(candidate_databases(prog, max_constants=3))


class TestSearch:
    def test_program_2_witness_found(self):
        """Paper program (2): not total — any nonempty E kills all fixpoints."""
        prog = parse_program("p(X, Y) :- not p(Y, Y), e(X).")
        witness = search_nontotality_witness(prog, max_constants=1)
        assert witness is not None
        assert not Engine(prog, witness).solve("completion", grounding="edb").found

    def test_program_1_no_small_witness(self):
        """Paper program (1): total — no counterexample at any bound we try."""
        prog = parse_program("p(a) :- not p(X), e(b).")
        assert search_nontotality_witness(prog, max_constants=2) is None

    def test_propositional_odd_loop(self):
        prog = parse_program("p :- not p.")
        witness = search_nontotality_witness(prog, max_constants=0)
        assert witness is not None and len(witness) == 0  # the empty database

    def test_guarded_odd_loop_needs_edb_fact(self):
        prog = parse_program("p :- not p, e.")
        witness = search_nontotality_witness(prog, max_constants=0)
        assert witness is not None and witness.contains("e")

    def test_win_move_odd_board(self):
        """win-move is not total: a self-loop move is the smallest bad board."""
        prog = parse_program("win(X) :- move(X, Y), not win(Y).")
        witness = search_nontotality_witness(prog, max_constants=1)
        assert witness is not None
        assert witness.contains("move", "u0", "u0")

    def test_call_consistent_has_no_witness(self):
        prog = parse_program("p(X) :- e(X), not q(X). q(X) :- e(X), not p(X).")
        assert search_nontotality_witness(prog, max_constants=2) is None

    def test_uniform_search_catches_idb_seeding(self):
        """u :- u; p :- ¬p, u is nonuniformly total but NOT uniformly total:
        the witness must seed the IDB proposition u."""
        prog = parse_program("u :- u. p :- not p, u.")
        assert search_nontotality_witness(prog, max_constants=0, nonuniform=True) is None
        witness = search_nontotality_witness(prog, max_constants=0, nonuniform=False)
        assert witness is not None and witness.contains("u")

    def test_theorem2_variant_is_refuted_by_search(self):
        """The Theorem 2 database is a witness; the search finds one too
        (maybe a smaller one)."""
        program = parse_program("p :- e, not p.")
        variant, _delta = theorem2_variant(program)
        witness = search_nontotality_witness(variant, max_constants=2, nonuniform=False)
        assert witness is not None
