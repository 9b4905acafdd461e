"""GroundIndex: the compiled kernel view must agree with the ground rules.

Pins three invariants of :class:`repro.datalog.grounding.GroundIndex`:

* the flat CSR arrays and the tuple views describe the same adjacency
  (the occurrence CSR is built from the views on first read);
* every compiled quantity (heads, counters, occurrence lists, M₀ status,
  EDB mask, initial worklists) matches a direct recomputation from
  ``gp.rules`` / ``gp.atoms`` / Δ;
* the index is cached on the ground program and rebuilt only if the
  program grew after compilation.
"""

import pytest

from repro.datalog.database import Database
from repro.datalog.grounding import ground
from repro.datalog.parser import parse_database, parse_program
from repro.ground.model import FALSE, TRUE, UNDEF
from repro.workloads.random_programs import random_propositional_program


def _ground_for(source, db_source="", mode="full"):
    program = parse_program(source)
    database = parse_database(db_source) if db_source else Database()
    return ground(program, database, mode=mode)


def _csr_rows(offsets, values, count):
    return [tuple(values[offsets[i] : offsets[i + 1]]) for i in range(count)]


@pytest.mark.parametrize("mode", ["full", "relevant", "edb"])
def test_csr_and_views_agree_with_rules(mode):
    gp = _ground_for(
        "win(X) :- move(X, Y), not win(Y).", "move(1, 2). move(2, 1).", mode
    )
    idx = gp.index
    n_atoms, n_rules = gp.atom_count, gp.rule_count

    # Rule → body CSR mirrors the ground rules.
    assert _csr_rows(idx.pos_off, idx.pos_atoms, n_rules) == [
        gr.pos for gr in gp.rules
    ]
    assert _csr_rows(idx.neg_off, idx.neg_atoms, n_rules) == [
        gr.neg for gr in gp.rules
    ]
    assert tuple(idx.head_of) == idx.head_of_t == tuple(gr.head for gr in gp.rules)

    # Atom → rule CSR is exactly the tuple views (ascending rule order).
    assert tuple(_csr_rows(idx.pos_occ_off, idx.pos_occ, n_atoms)) == idx.pos_occ_t
    assert tuple(_csr_rows(idx.neg_occ_off, idx.neg_occ, n_atoms)) == idx.neg_occ_t
    for a in range(n_atoms):
        assert idx.pos_occ_t[a] == tuple(
            r for r, gr in enumerate(gp.rules) if a in gr.pos
        )
        assert idx.neg_occ_t[a] == tuple(
            r for r, gr in enumerate(gp.rules) if a in gr.neg
        )

    # Counters.
    assert list(idx.body_len) == [len(gr.pos) + len(gr.neg) for gr in gp.rules]
    assert list(idx.pos_len) == [len(gr.pos) for gr in gp.rules]
    assert list(idx.support) == [
        sum(1 for gr in gp.rules if gr.head == a) for a in range(n_atoms)
    ]
    assert idx.rules_by_head_t == tuple(
        tuple(r for r, gr in enumerate(gp.rules) if gr.head == a)
        for a in range(n_atoms)
    )


_OCC_CSR = ("pos_occ_off", "pos_occ", "neg_occ_off", "neg_occ")


@pytest.mark.parametrize("mode", ["full", "relevant"])
def test_a_fresh_index_builds_the_occurrence_csr_on_first_read(mode):
    """Only serialization reads the flat occurrence CSR, so a fresh index
    holds none of its four arrays until one is read; the first read
    builds all four, equal to the CSR of the tuple views."""
    gp = _ground_for(
        "win(X) :- move(X, Y), not win(Y).", "move(1, 2). move(2, 1). move(2, 3).", mode
    )
    idx = gp.index
    for name in _OCC_CSR:
        # object.__getattribute__ reads the slot without the lazy fallback.
        with pytest.raises(AttributeError):
            object.__getattribute__(idx, name)
    assert tuple(_csr_rows(idx.pos_occ_off, idx.pos_occ, gp.atom_count)) == idx.pos_occ_t
    for name in _OCC_CSR:
        object.__getattribute__(idx, name)
    assert tuple(_csr_rows(idx.neg_occ_off, idx.neg_occ, gp.atom_count)) == idx.neg_occ_t
    assert idx.pos_occ.typecode == idx.neg_occ_off.typecode == "i"


def test_initial_model_matches_paper_m0():
    gp = _ground_for(
        "p(X) :- e(X), not q(X). q(a).", "e(a). e(b).", mode="full"
    )
    idx = gp.index
    table = gp.atoms
    edb = gp.program.edb_predicates
    for a in range(gp.atom_count):
        atom_ = table.atom(a)
        assert idx.edb_mask[a] == (1 if atom_.predicate in edb else 0)
        if gp.database.contains_atom(atom_):
            expected = TRUE
        elif atom_.predicate in edb:
            expected = FALSE
        else:
            expected = UNDEF
        assert idx.initial_status[a] == expected
    assert list(idx.initial_valued) == [
        a for a in range(gp.atom_count) if idx.initial_status[a] != UNDEF
    ]
    assert list(idx.empty_body_rules) == [
        r for r, gr in enumerate(gp.rules) if not gr.pos and not gr.neg
    ]
    assert list(idx.zero_support_atoms) == [
        a for a in range(gp.atom_count) if idx.support[a] == 0
    ]


def test_index_cached_and_invalidated_on_growth():
    gp = _ground_for("p :- q. q.")
    idx = gp.index
    assert gp.index is idx  # cached
    # Growing the atom table (as the grounders do mid-build) invalidates.
    from repro.datalog.atoms import Atom

    gp.atoms.id_of(Atom("fresh"))
    idx2 = gp.index
    assert idx2 is not idx
    assert idx2.n_atoms == idx.n_atoms + 1


@pytest.mark.parametrize("seed", range(4))
def test_random_programs_round_trip(seed):
    program = random_propositional_program(
        n_predicates=6, n_rules=10, edb_predicates=1, seed=seed
    )
    gp = ground(program, Database(), mode="full")
    idx = gp.index
    assert tuple(_csr_rows(idx.pos_occ_off, idx.pos_occ, gp.atom_count)) == idx.pos_occ_t
    assert tuple(_csr_rows(idx.neg_occ_off, idx.neg_occ, gp.atom_count)) == idx.neg_occ_t
    assert _csr_rows(idx.pos_off, idx.pos_atoms, gp.rule_count) == [
        gr.pos for gr in gp.rules
    ]
    assert _csr_rows(idx.neg_off, idx.neg_atoms, gp.rule_count) == [
        gr.neg for gr in gp.rules
    ]
