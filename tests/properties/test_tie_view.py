"""A table-served model read from the tie table equals its status.

A solve the checkpoint's first-round tie table serves is given a
:class:`~repro.semantics.tie_breaking.TableModel`: the table and the trail
flags.  Its values are read per atom from the table's view by atom id
(``by_id``: tie planes, ``status0`` and ``status1``) and its model lists
from the same view in the literal table's string order (``view``); the
status by atom id is built only when ``model`` is read.  The oracles are that status, through
:meth:`~repro.ground.model.Interpretation.value` and
:meth:`~repro.datalog.grounding.LiteralTable.masks`, and a run on a fresh
engine.

``solve_one`` answers a values text it finds in the literal table
(:meth:`~repro.datalog.grounding.AtomTable.text_ids`) without a parse.
The oracle is the parse: the id found is ``atoms.get(parse_atom(text))``
for every atom, also on generated atoms whose constants print in every
way ``Constant.__str__`` can (which pins the agreement of
``parser.PLAIN_ATOM`` with the printer and the lexer), and a reply
equals the one an engine with no literal table gives, which parses
every text.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import Engine
from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.grounding import AtomTable
from repro.datalog.parser import parse_atom
from repro.datalog.terms import Constant
from repro.errors import ParseError
from repro.ground.model import FALSE, TRUE, UNDEF, Interpretation
from repro.semantics.choices import FewestTrue, FirstSideTrue, RandomChoice, SecondSideTrue
from repro.semantics.tie_breaking import TableModel
from repro.service.batch import BatchRequest, solve_one
from repro.workloads import families

from tests.properties.test_tie_checkpoint import FAMILIES, VARIANTS

POLICIES = [RandomChoice(seed) for seed in range(16)] + [
    FirstSideTrue(),
    SecondSideTrue(),
    FewestTrue(),
]

# Families whose first round settles every live atom: the table serves them.
TABLED = {"committee", "grounded_argumentation"}


def _selected(literals, model: Interpretation) -> tuple[bytes, bytes, bytes]:
    masks = literals.masks(model.status, model.ghost_ids)
    return masks[TRUE], masks[FALSE], masks[UNDEF]


def _assert_view_equals_status(solution, reference: Interpretation, label: str) -> None:
    """Every value and the model lists of ``solution``, read before its
    model is built, equal those of ``reference``; then its model does."""
    atoms = reference.ground_program.atoms
    ids = range(len(atoms))
    values = [solution.value_of_id(a) for a in ids]
    atom_values = [solution.value(atoms.atom(a)) for a in ids]
    literals, masks = solution.selection()
    assert isinstance(solution._model, TableModel), label  # nothing built yet
    expected = [reference.value_of_id(a) for a in ids]
    assert values == expected, f"{label}: values by id"
    assert atom_values == expected, f"{label}: values by atom"
    assert masks == _selected(literals, reference), f"{label}: model lists"
    assert solution.model == reference, f"{label}: model"
    assert solution.model.ghost_ids == reference.ghost_ids, f"{label}: ghosts"


def _table_solve(engine, semantics, grounding, policy):
    """A solve, with its model status taken from the table at once (the
    reference) when the table served it, without touching the solution."""
    solution = engine.solve(semantics, policy=policy, grounding=grounding)
    model = solution._model
    if not isinstance(model, TableModel):
        return solution, None
    gp = model.ground_program
    return solution, Interpretation(gp, tuple(model.table.status(model.flags)))


@pytest.mark.parametrize("semantics,grounding,well_founded", VARIANTS)
@pytest.mark.parametrize("name,build", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_view_values_and_masks_equal_the_status(name, build, semantics, grounding, well_founded):
    engine = Engine(*build())
    gp = engine.ground_for(grounding)
    fresh = Engine(engine.program, engine.database.copy())
    served = 0
    for round_ in ("miss", "hit"):
        for policy in POLICIES:
            label = f"{name} {semantics} {round_} {policy!r}"
            solution, reference = _table_solve(engine, semantics, grounding, policy)
            if reference is None:
                continue
            served += 1
            _assert_view_equals_status(solution, reference, label)
            run = fresh.solve(semantics, policy=policy, grounding=grounding)
            assert run.model.status == reference.status, f"{label}: fresh run"
            assert solution.total == run.total, f"{label}: total"
        if name in TABLED:
            assert served, f"{name} {semantics}: no solve was read from the table"
    assert engine.ground_for(grounding) is gp


def test_view_values_and_masks_after_updates_with_ghosts():
    """After an insert and a retraction, the new table's solves read the
    ghosts out of their model lists; a miss held across a later update
    reads atoms added after it as no value (false by id)."""
    engine = Engine(*families.grounded_argumentation(30), grounding="relevant")
    engine.ground_for("relevant")
    assert engine.insert_facts("arg(100)", "attacks(100, 5)")
    engine.solve("tie_breaking")  # grounds again: the next update streams
    assert engine.retract_facts("attacks(100, 5)")
    gp = engine.ground_for("relevant")
    ghosts = Interpretation(gp, ()).ghost_ids
    assert ghosts
    held = []
    for policy in POLICIES:
        solution, reference = _table_solve(engine, "tie_breaking", "relevant", policy)
        if reference is not None:
            assert reference.ghost_ids == ghosts
            _assert_view_equals_status(solution, reference, f"ghosts {policy!r}")
            again, _ = _table_solve(engine, "tie_breaking", "relevant", policy)
            held.append((again, reference))
    assert held, "no solve was read from the table"
    count = len(gp.atoms)
    assert engine.insert_facts("attacks(100, 3)", "attacks(4, 100)")
    assert len(gp.atoms) > count  # the held solves' atom table grew
    for solution, reference in held:
        assert solution.value_of_id(count) is False
        assert solution.value(gp.atoms.atom(count)) is False
        _assert_view_equals_status(solution, reference, "held across an update")


def test_views_built_before_a_fill_stay_in_step():
    """Both views are built while only side 1 is recorded; the run that
    then records side 0 writes it into them."""
    engine = Engine(*families.grounded_argumentation(40))
    gp = engine.ground_for()
    for _ in range(2):  # a run, then the table's first fill: side 1
        engine._tie_solve(gp, True, SecondSideTrue())
    solution, reference = _table_solve(engine, "tie_breaking", "relevant", SecondSideTrue())
    assert reference is not None
    _assert_view_equals_status(solution, reference, "side 1")
    (checkpoint,) = engine._checkpoints.values()
    assert checkpoint.table.by_id is not None and checkpoint.table.view is not None
    engine._tie_solve(gp, True, FirstSideTrue())  # a fallback: records side 0
    solution, reference = _table_solve(engine, "tie_breaking", "relevant", FirstSideTrue())
    assert reference is not None
    _assert_view_equals_status(solution, reference, "side 0, recorded after the views")


def test_more_than_255_ties_take_a_second_plane():
    engine = Engine(*families.grounded_argumentation(1100))
    gp = engine.ground_for()
    _warm(engine, range(16))
    (checkpoint,) = engine._checkpoints.values()
    assert len(checkpoint.table.template) > 255
    served = 0
    for seed in range(1000, 1008):
        solution, reference = _table_solve(engine, "tie_breaking", "relevant", RandomChoice(seed))
        if reference is not None:
            served += 1
            _assert_view_equals_status(solution, reference, f"seed {seed}")
    assert served
    assert len(checkpoint.table.by_id.ties) == len(checkpoint.table.view.ties) == 2
    assert engine.ground_for() is gp


def _request(atoms, seed=1, **fields):
    obj = {"id": "q", "semantics": "tie_breaking", "seed": seed, **fields}
    if atoms is not None:
        obj["atoms"] = atoms
    return BatchRequest.from_obj(obj)


def _warm(engine, seeds=range(24)):
    """Solve ``seeds`` and write one full reply: the table is warm and the
    literal table built."""
    for seed in seeds:
        engine.solve("tie_breaking", policy=RandomChoice(seed))
    assert solve_one(engine, _request(None, seed=seeds[0]))["ok"]
    gp = engine.ground_for()
    assert gp.atoms.current_literal_table() is not None
    return gp


ARGUMENTATION_TEXTS = [
    "accepted(7)",
    "accepted( 7)",  # a non-canonical spelling of the same atom
    "defeated(3)",
    "attacks(1, 2)",
    "arg(5)",
    "arg(999)",  # an EDB atom never materialized: not in the database
    "accepted(999)",  # an IDB atom never materialized
    "attacks(5,6)",
    "accepted(7)",
]


def test_values_replies_equal_the_parse_path():
    """A warm engine finds the texts it can in its literal table; its
    replies equal those of an engine that parses every text."""
    program, database = families.grounded_argumentation(40)
    engine = Engine(program, database)
    gp = _warm(engine)
    atoms = [str(gp.atoms.atom(i)) for i in range(0, len(gp.atoms), 7)]
    for seed in range(100, 140):
        texts = ARGUMENTATION_TEXTS + atoms[seed % 5 :: 5]
        cold = Engine(program, database.copy())  # no literal table: parses
        for round_ in ("miss", "hit"):
            expected = solve_one(cold, _request(texts, seed))
            got = solve_one(engine, _request(texts, seed))
            assert got["values"] == expected["values"], (seed, round_)
            assert list(got["values"]) == list(expected["values"]), (seed, round_)
        assert cold.ground_for().atoms.current_literal_table() is None
    assert engine.tie_table_solves > 0


def test_string_constants_are_answered_as_the_parse_answers():
    program = "q(X) :- p(X), not r(X). r(X) :- p(X), not q(X)."
    database = Database.from_atoms(
        [Atom("p", (Constant(value),)) for value in ("Hello World", "abc", 'say "hi"', 7)]
    )
    texts = [
        'q("Hello World")',
        "q(abc)",
        'q("abc")',  # the quoted spelling of q(abc)
        "q(7)",
        'q("7")',  # a string constant, not the integer
        'r("Hello World")',
        'p("nothing")',
    ]
    engine = Engine(program, database)
    _warm(engine)
    for seed in range(60):
        cold = Engine(program, database.copy())
        expected = solve_one(cold, _request(texts, seed))
        got = solve_one(engine, _request(texts, seed))
        assert got["ok"] and got["values"] == expected["values"], seed
    # The text of the constant with quotes does not parse back to it.
    texts = ['q("say "hi"")']
    quoted = solve_one(engine, _request(texts))
    assert not quoted["ok"], quoted
    assert quoted == solve_one(Engine(program, database.copy()), _request(texts))


@pytest.mark.parametrize("name,build", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_the_id_found_is_the_parsed_atoms(name, build):
    engine = Engine(*build())
    atoms = engine.ground_for().atoms
    literals = atoms.literal_table()
    for index, text in enumerate(literals.literals):
        assert literals.id_of(text) == index == atoms.get(parse_atom(text)), text
    assert atoms.text_ids(literals.literals) == list(range(len(atoms)))
    assert atoms.text_ids(["accepted( 1)", "no_such_atom(1)"]) == [None, None]


def test_texts_that_do_not_parse_back_are_not_found():
    """Atoms built in code can have texts ``parse_atom`` reads as another
    atom, or not at all: such a text is never found without a parse."""
    table = AtomTable()
    weird = [
        Atom("q", (Constant(1),)),
        Atom("q(1)", ()),  # its text is q(1)'s
        Atom("p(2)", ()),  # its text reads as p(2), which is not in the table
        Atom("q", (Constant('a", "b'),)),  # its text reads as two arguments
        Atom("q", (Constant('a"b'),)),  # its text does not parse
        Atom("q", (Constant("not"),)),
        Atom("q", (Constant("_x"),)),
        Atom("Q", (Constant(2),)),
        Atom("q", (Constant("Hello World"),)),
        Atom("é", (Constant("ü"),)),
    ]
    for atom in weird:
        table.id_of(atom)
    assert table.current_literal_table() is None
    assert table.text_ids(["q(1)"]) == [None]  # no literal table: nothing is found
    literals = table.literal_table()
    assert table.current_literal_table() is literals
    for index, atom in enumerate(weird):
        text = str(atom)
        (found,) = table.text_ids([text])
        try:
            parsed = table.get(parse_atom(text))
        except ParseError:
            assert found is None, text
            continue
        assert found is None or found == parsed, text
    assert table.text_ids(["q(1)"]) == [0]
    table.id_of(Atom("q", (Constant(3),)))
    assert table.current_literal_table() is None  # stale: it grew
    assert table.text_ids(["q(1)"]) == [None]


_NAMES = st.sampled_from(["q", "p_1", "not", "nota", "Q", "_q", "q(1)", "é", "a b", "x"])
_CONSTANTS = st.one_of(
    st.integers(-1000, 1000),
    st.booleans(),
    _NAMES,
    st.text(alphabet="ab1_ -\"(),é", max_size=5),
    st.integers(-99, 99).map(str),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_NAMES, st.lists(_CONSTANTS, max_size=3)), min_size=1, max_size=8))
def test_generated_texts_are_found_only_as_the_parse_reads_them(rows):
    """Atoms built in code with constants of every kind: a text found
    without a parse is found as the atom ``parse_atom`` reads from it."""
    table = AtomTable()
    for predicate, values in rows:
        table.id_of(Atom(predicate, tuple(map(Constant, values))))
    literals = table.literal_table()
    texts = literals.literals
    for text, found in zip(texts, table.text_ids(texts)):
        if found is None:
            continue
        assert table.get(parse_atom(text)) == found, text


def test_a_malformed_atom_fails_before_the_solve():
    engine = Engine(*families.grounded_argumentation(40))
    gp = _warm(engine)
    texts = [str(gp.atoms.atom(0)), "accepted((", str(gp.atoms.atom(1))]
    stats = engine.stats()
    cold = Engine(engine.program, engine.database.copy())
    for seed in (7, 1000, 1001):
        result = solve_one(engine, _request(texts, seed))
        assert not result["ok"] and "accepted((" not in str(result.get("values")), result
        assert result == solve_one(cold, _request(texts, seed))
    after = engine.stats()
    for key in ("tie_table_solves", "tie_table_fallbacks", "solution_cache_hits"):
        assert after[key] == stats[key], key
    assert after["cached_solutions"] == stats["cached_solutions"]
