"""A full reply's bytes equal ``json.dumps`` of the reply object.

``solve_one`` writes a full reply's ``repro-solution/1`` document as text
in the executor job (:func:`repro.io.json_io.solution_text`), carried in
a :class:`~repro.io.json_io.RawJSON`, and :func:`result_line` splices it
into the ``repro-batch/1`` line.  The oracle is the dict path: for every
case the encoder's text must equal ``json.dumps(solution_to_obj(s),
sort_keys=True)`` and the line must equal ``json.dumps(result,
sort_keys=True)`` over the decoded solution, byte for byte.  A tie
table's solve is also checked against the same policy's run on a fresh
engine, whose trail the table played no part in.
"""

import asyncio
import json
import pickle
import sys

import pytest

from repro.api.engine import Engine
from repro.datalog.database import Database
from repro.datalog.parser import parse_atom
from repro.errors import ReproError
from repro.io.artifact import dump_ground_program
from repro.io.json_io import RawJSON, solution_text, solution_to_obj
from repro.semantics.choices import RandomChoice
from repro.service import ReproServer
from repro.service.batch import BatchRequest, result_line, result_solution, solve_one
from repro.workloads import families

from tests.api.test_solution_golden import (
    ENGINE_GROUNDINGS,
    ENUMERATED,
    ENUMERATION_LIMIT,
    FAMILIES,
    GOLDEN,
    SEMANTICS,
)

GAME = "win(X) :- move(X, Y), not win(Y)."


def _dict_line(result) -> bytes:
    """The line the dict path writes for ``result``."""
    if isinstance(result.get("solution"), RawJSON):
        result = {**result, "solution": result_solution(result)}
    return (json.dumps(result, sort_keys=True) + "\n").encode()


def _check_text(solution, label) -> str:
    text = solution_text(solution)
    assert text == json.dumps(solution_to_obj(solution), sort_keys=True), label
    return text


def _check_reply(engine, request, label) -> dict:
    result = solve_one(engine, request)
    assert result["ok"], (label, result)
    assert result_line(result) == _dict_line(result), label
    return result


def _untimed(text: str) -> dict:
    document = json.loads(text)
    del document["timings"]
    return document


# -- the pinned documents -----------------------------------------------------

GOLDEN_DOCUMENTS = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_golden_case_writes_the_dumped_bytes(family):
    make = FAMILIES[family]
    for semantics in SEMANTICS:
        for grounding in ENGINE_GROUNDINGS:
            key = f"solve/{family}/{semantics}/{grounding or 'spec'}"
            label = (family, semantics, grounding)
            engine = Engine(*make(), grounding=grounding)
            try:
                solution = engine.solve(semantics)
            except ReproError:
                assert "error" in GOLDEN_DOCUMENTS[key], label
                continue
            assert _untimed(_check_text(solution, label)) == GOLDEN_DOCUMENTS[key], label
            _check_reply(engine, BatchRequest(semantics=semantics), label)
    for semantics in ENUMERATED:
        engine = Engine(*make())
        enumerated = list(engine.enumerate(semantics, limit=ENUMERATION_LIMIT))
        expected = GOLDEN_DOCUMENTS[f"enumerate/{family}/{semantics}"]
        texts = [_check_text(s, (family, semantics, "enumerated")) for s in enumerated]
        assert [_untimed(text) for text in texts] == expected


# -- warm_serve-shaped replies ------------------------------------------------


def _served_engine(n: int) -> Engine:
    """An engine warm-started from an artifact, as the server's is."""
    source = Engine(*families.grounded_argumentation(n))
    return Engine.from_artifact(dump_ground_program(source.ground_for("relevant")))


def _settled(text: str) -> tuple:
    """A document's ties, model lists and counts: all of it but timings."""
    document = json.loads(text)
    return document["ties"], document["model"], document["counts"]


def _fresh_text(engine: Engine, seed: int) -> str:
    """The same solve on a fresh engine over the same database: a run."""
    fresh = Engine(engine.program, engine.database.copy())
    return solution_text(fresh.solve("tie_breaking", policy=RandomChoice(seed)))


def _serve(engine: Engine, seeds, label: str, replies=None) -> dict[str, int]:
    """Full replies for ``seeds``, each checked, and each seed solved once
    more; counts those repeats by kind (a kernel run, or read from the tie
    table).  Each reply's document is kept in ``replies`` by seed, or, if
    the seed is there already, must equal the one kept but for timings."""
    kinds = dict.fromkeys(("run", "table"), 0)
    for seed in seeds:
        result = _check_reply(engine, BatchRequest(id=seed, seed=seed), (label, seed))
        document = _untimed(result["solution"].data.decode())
        if replies is not None:
            assert replies.setdefault(seed, document) == document, (label, seed)
        solution = engine.solve("tie_breaking", policy=RandomChoice(seed))  # the seed again
        tabled = solution.trail is not None
        kinds["table" if tabled else "run"] += 1
        text = _check_text(solution, (label, seed))
        assert _untimed(text) == document, (label, seed)
        if tabled:
            assert _settled(text) == _settled(_fresh_text(engine, seed)), (label, seed)
    return kinds


def test_warm_serve_shaped_replies_write_the_dumped_bytes():
    engine = _served_engine(60)
    replies: dict[int, dict] = {}
    # First solve, then the table's build and its fallbacks, then table
    # solves; each seed once more right after its reply.
    kinds = _serve(engine, range(12), "fresh", replies)
    assert kinds["run"] >= 1 and kinds["table"] >= 1, kinds
    # Repeats: the table holds every seed's sides by now, so each repeated
    # seed is read from it, with the reply its first solve wrote.
    served = engine.stats()["tie_table_solves"]
    kinds = _serve(engine, range(12), "repeats", replies)
    assert kinds == {"run": 0, "table": 12}, kinds
    assert engine.stats()["tie_table_solves"] == served + 24
    assert engine.stats()["tie_text_bytes"] > 0


def test_replies_after_updates_write_the_new_ties():
    """An update drops the checkpoint and its table's side texts; the new
    table's texts name the new ties.  Each insert below settles the first
    mutual-attack pair (attacked by an unattacked argument) and the
    retract restores it, so tie ``k`` is another tie after each update."""
    engine = _served_engine(60)
    _serve(engine, range(8), "before")
    assert engine.stats()["tie_text_bytes"] > 0
    texts = _side_text_bytes(engine)
    assert texts > 0
    for step, (insert, retract) in enumerate(
        [(["arg(100)", "attacks(100, 5)"], []), ([], ["attacks(100, 5)"])]
    ):
        engine.retract_facts(*retract)
        engine.insert_facts(*insert)
        assert engine.stats()["tie_text_bytes"] == 0  # dropped with the table
        kinds = _serve(engine, range(100, 110), f"update {step}")
        assert kinds["table"] >= 1, kinds
    # The side texts; tie_text_bytes also counts the table's views, which
    # grow with the atoms the updates added.
    assert _side_text_bytes(engine) == texts


def _side_text_bytes(engine: Engine) -> int:
    (checkpoint,) = engine._checkpoints.values()
    texts = checkpoint.table.texts
    return sys.getsizeof(texts) + sum(map(sys.getsizeof, texts))


def test_replies_after_a_retraction_list_what_a_fresh_engine_lists():
    """A live grounding keeps the atom of a retracted fact, false, where a
    fresh grounding of the database has none: the reply leaves it out of
    the false list and the counts, in every semantics that lists false
    atoms."""
    engine = _served_engine(60)
    engine.insert_facts("arg(100)", "attacks(100, 5)")
    engine.solve("tie_breaking", policy=RandomChoice(1))
    engine.retract_facts("attacks(100, 5)")
    ghost = parse_atom("attacks(100, 5)")
    assert engine.ground_for("relevant").atoms.get(ghost) is not None
    fresh = Engine(engine.program, engine.database.copy())
    assert fresh.ground_for("relevant").atoms.get(ghost) is None
    for semantics in ("well_founded", "tie_breaking", "fitting"):
        seeded = semantics == "tie_breaking"
        for seed in range(3 if seeded else 1):
            request = BatchRequest(id=seed, semantics=semantics, seed=seed if seeded else None)
            live = json.loads(_check_reply(engine, request, semantics)["solution"].data)
            expected = json.loads(_check_reply(fresh, request, semantics)["solution"].data)
            assert _settled(json.dumps(live)) == _settled(json.dumps(expected)), semantics
            if live["grounding"] == "relevant":  # a full grounding holds every atom
                assert str(ghost) not in live["model"]["false"], semantics
        options = {"policy": RandomChoice(1)} if seeded else {}
        solution = engine.solve(semantics, **options)
        assert solution.counts() == fresh.solve(semantics, **options).counts()
        assert solution.value(ghost) is False
        if solution.grounding == "relevant":
            assert ghost not in solution.false_atoms
            assert ghost not in set(solution.model.false_atoms())


def test_the_side_texts_are_counted_apart_from_the_table():
    engine = _served_engine(60)
    for seed in range(8):
        engine.solve("tie_breaking", policy=RandomChoice(seed))
    before = engine.stats()
    assert before["tie_table_bytes"] > 0 and before["tie_text_bytes"] == 0
    for seed in range(8, 60):
        solution = engine.solve("tie_breaking", policy=RandomChoice(seed))
        if solution.trail is not None:
            break
    else:
        pytest.fail("no solve came from the tie table")
    assert engine.stats()["tie_text_bytes"] == 0
    table = solution.trail.table
    status1 = sys.getsizeof(table.status1)
    solution_text(solution)
    after = engine.stats()
    assert after["tie_text_bytes"] > 0
    # The view by atom id (in tie_text_bytes) took over the table's side-1
    # outcomes: the table dropped its own.
    assert table.status1 is None and table.by_id is not None
    assert after["tie_table_bytes"] == before["tie_table_bytes"] - status1


# -- closed-world solutions and text that needs escaping -----------------------


@pytest.mark.parametrize("semantics", ["stable", "stratified", "completion", "modular"])
@pytest.mark.parametrize("grounding", ["relevant", "full"])
def test_closed_world_solutions_write_the_dumped_bytes(semantics, grounding):
    for make in (lambda: families.win_move_line(5), lambda: families.committee(3)):
        engine = Engine(*make(), grounding=grounding)
        try:
            solution = engine.solve(semantics)
        except ReproError:
            continue
        assert solution.closed_world
        _check_text(solution, (semantics, grounding))
        _check_reply(engine, BatchRequest(semantics=semantics), (semantics, grounding))


ESCAPED = Database.from_dict(
    {
        "move": [
            ("a b", "é"),
            ("é", "a b"),
            ('q"x', "a b"),
            ("back\\slash", "tab\tx"),
            ("tab\tx", "back\\slash"),
            ("日本", "z"),
        ]
    }
)


@pytest.mark.parametrize("semantics", ["tie_breaking", "well_founded", "stable"])
def test_texts_that_need_escaping_write_the_dumped_bytes(semantics):
    engine = Engine(GAME, ESCAPED.copy())
    for seed in range(6):  # runs, then table solves
        options = {"policy": RandomChoice(seed)} if semantics == "tie_breaking" else {}
        _check_text(engine.solve(semantics, **options), (semantics, seed))
        request = BatchRequest(semantics=semantics, seed=seed if options else None)
        result = _check_reply(engine, request, (semantics, seed))
        assert result["solution"].data.isascii()


def test_plain_texts_are_escaped_by_the_table_itself():
    """Without a text to escape, the JSON bodies are the table's own strs."""
    engine = Engine(*families.grounded_argumentation(20))
    table = engine.solve("tie_breaking").model.ground_program.atoms.literal_table()
    assert table.escaped is table.ordered
    escaped = Engine(GAME, ESCAPED.copy()).solve("well_founded")
    table = escaped.model.ground_program.atoms.literal_table()
    assert table.escaped is not table.ordered
    for text, body in zip(table.ordered, table.escaped):
        assert json.dumps(text) == f'"{body}"'
        if body == text:
            assert body is text


# -- the wire: the server's writer, the wrapper -------------------------------


class _Writer:
    def __init__(self) -> None:
        self.data = bytearray()

    def is_closing(self) -> bool:
        return False

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass


def test_the_server_writes_the_dumped_bytes(tmp_path):
    artifact = tmp_path / "served.repro-ground"
    Engine(*families.grounded_argumentation(40)).save_artifact(artifact)
    lines = [
        {"id": "full", "seed": 1},
        {"id": "values", "seed": 2, "atoms": ["arg(1)"]},
        {"id": "full-hit", "seed": 1},
        {"id": "wf", "semantics": "well_founded"},
        {"id": "bad", "semantics": "nope"},
        {"id": "s", "session": "a", "insert": ["attacks(1, 3)"], "seed": 4},
        {"op": "stats", "id": "stats"},
    ] + [{"id": f"more{seed}", "seed": seed} for seed in range(3, 9)]

    async def main():
        async with ReproServer(artifact) as server:
            for obj in lines:
                result = await server.handle_line(json.dumps(obj))
                writer = _Writer()
                await ReproServer._write(writer, asyncio.Lock(), result)
                assert bytes(writer.data) == _dict_line(result), obj
                if "seed" in obj and "atoms" not in obj:
                    assert isinstance(result["solution"], RawJSON)
            return server.solver.engine.stats()

    stats = asyncio.run(main())
    assert stats["tie_table_solves"] >= 1


def test_a_reply_with_the_wrapper_refuses_a_plain_dump():
    engine = Engine(*families.committee(3))
    result = solve_one(engine, BatchRequest(seed=1))
    assert isinstance(result["solution"], RawJSON)
    assert not isinstance(result["solution"], (str, bytes))
    with pytest.raises(TypeError):
        json.dumps(result, sort_keys=True)


def test_the_wrapper_survives_a_pickle_round_trip():
    engine = Engine(*families.committee(3))
    result = solve_one(engine, BatchRequest(seed=1))
    copied = pickle.loads(pickle.dumps(result))
    assert isinstance(copied["solution"], RawJSON)
    assert copied["solution"].data == result["solution"].data
    assert result_line(copied) == result_line(result) == _dict_line(result)


def test_a_line_without_fields_around_the_solution_still_splices():
    only = {"solution": RawJSON(b'{"a": 1}')}
    assert result_line(only) == b'{"solution": {"a": 1}}\n'
    head = {"id": 1, "solution": RawJSON(b"[]")}
    assert result_line(head) == b'{"id": 1, "solution": []}\n'
    tail = {"solution": RawJSON(b"null"), "timings": {"x": 1.5}}
    assert result_line(tail) == b'{"solution": null, "timings": {"x": 1.5}}\n'
