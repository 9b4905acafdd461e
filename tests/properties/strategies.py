"""Hypothesis strategies for random Datalog¬ inputs.

Two program shapes:

* *propositional* — up to 8 zero-ary predicates, arbitrary signs (odd
  cycles likely): the adversarial distribution for semantics properties;
* *unary-binary* — small predicate programs over a universe of up to 3
  constants with a random database: exercises grounding and joins.

Programs are built from plain draws (no reliance on the library's own
random generators, so the generators themselves stay under test).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.datalog.atoms import Atom, Literal
from repro.datalog.database import Database
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable

PRED_NAMES = [f"p{i}" for i in range(8)]
EDB_NAMES = ["e0", "e1"]
CONSTANTS = [Constant(v) for v in ("a", "b", "c")]
VARIABLES = [Variable(v) for v in ("X", "Y")]


@st.composite
def propositional_programs(draw, max_rules: int = 10, max_body: int = 3):
    """Random propositional Datalog¬ programs (EDBs e0/e1 possible)."""
    names = PRED_NAMES + EDB_NAMES
    n_rules = draw(st.integers(1, max_rules))
    rules = []
    for _ in range(n_rules):
        head = Atom(draw(st.sampled_from(PRED_NAMES)))
        body_size = draw(st.integers(0, max_body))
        body = tuple(
            Literal(Atom(draw(st.sampled_from(names))), draw(st.booleans()))
            for _ in range(body_size)
        )
        rules.append(Rule(head, body))
    return Program(rules)


@st.composite
def propositional_databases(draw, program: Program):
    """A random database for a propositional program (uniform case: may
    include IDB propositions)."""
    db = Database()
    for predicate in sorted(program.predicates):
        if draw(st.booleans()):
            db.add(predicate)
    return db


@st.composite
def propositional_cases(draw, max_rules: int = 10):
    """(program, database) pairs, database EDB-only half the time."""
    program = draw(propositional_programs(max_rules=max_rules))
    if draw(st.booleans()):
        db = Database()
        for predicate in sorted(program.edb_predicates):
            if draw(st.booleans()):
                db.add(predicate)
        return program, db
    return program, draw(propositional_databases(program))


@st.composite
def small_predicate_programs(draw, max_rules: int = 5):
    """Random unary/binary-predicate programs over a tiny term vocabulary."""
    unary = ["q0", "q1", "q2"]
    binary = ["r0", "r1"]
    edb = ["eu", "eb"]

    def random_atom(names_unary, names_binary):
        if draw(st.booleans()):
            name = draw(st.sampled_from(names_unary))
            term = draw(st.sampled_from(CONSTANTS + VARIABLES))
            return Atom(name, (term,))
        name = draw(st.sampled_from(names_binary))
        args = (
            draw(st.sampled_from(CONSTANTS + VARIABLES)),
            draw(st.sampled_from(CONSTANTS + VARIABLES)),
        )
        return Atom(name, args)

    rules = []
    for _ in range(draw(st.integers(1, max_rules))):
        head = random_atom(unary, binary)
        body = tuple(
            Literal(random_atom(unary + ["eu"], binary + ["eb"]), draw(st.booleans()))
            for _ in range(draw(st.integers(0, 2)))
        )
        rules.append(Rule(head, body))
    return Program(rules)


# -- signed tie components -------------------------------------------------
#
# Generator for the Lemma-1 analysis
# (:func:`repro.graphs.ties.analyze_component`).  A component is built from a
# *planted* side assignment: signs are derived from it (positive inside a
# side, negative across), so the graph is 2-colorable by construction and
# the planted labelling is a ground-truth witness.  Strong connectivity
# comes from a random cycle cover (one directed cycle through all nodes);
# flipping the sign of any arc then introduces an odd cycle, because every
# arc lies on a cycle.


@st.composite
def signed_tie_components(draw, max_nodes: int = 10, flipped: bool | None = None):
    """A signed strongly connected component.

    Returns ``(nodes, arcs, planted, n_flipped)``: sorted node ids,
    signed arcs ``(u, v, positive)``, the planted node → side dict, and
    how many arc signs were flipped afterwards (0 ⟺ the component is a
    tie; > 0 ⟺ it has an odd cycle through each flipped arc).
    ``flipped`` forces (True) or forbids (False) sign flips; ``None``
    draws it.
    """
    n = draw(st.integers(2, max_nodes))
    nodes = list(range(n))
    planted = {u: draw(st.integers(0, 1)) for u in nodes}
    perm = draw(st.permutations(nodes))
    pairs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    extra = draw(
        st.lists(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
            max_size=2 * n,
        )
    )
    pairs.update(extra)
    arcs = [(u, v, planted[u] == planted[v]) for u, v in sorted(pairs)]
    if flipped is None:
        flipped = draw(st.booleans())
    n_flipped = 0
    if flipped:
        count = draw(st.integers(1, max(1, len(arcs) // 3)))
        indices = draw(
            st.lists(
                st.integers(0, len(arcs) - 1),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        for i in indices:
            u, v, positive = arcs[i]
            arcs[i] = (u, v, not positive)
        n_flipped = len(indices)
    return nodes, arcs, planted, n_flipped


@st.composite
def small_predicate_cases(draw):
    """(program, database) with random unary 'eu' and binary 'eb' facts."""
    program = draw(small_predicate_programs())
    db = Database()
    for constant in CONSTANTS:
        if draw(st.booleans()):
            db.add("eu", constant)
    for left in CONSTANTS[:2]:
        for right in CONSTANTS[:2]:
            if draw(st.booleans()):
                db.add("eb", left, right)
    return program, db
