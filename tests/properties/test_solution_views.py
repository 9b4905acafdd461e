"""Lazy id-native :class:`Solution` views vs the eager decode oracle.

The PR-10 contract: a model-backed solution stores only the kernel's
status array; ``true_ids`` / ``false_ids`` / ``undefined_ids`` partition
it without decoding, and the ``*_atoms`` frozensets decode lazily on
first touch (booking wall clock into ``timings["result_s"]``).  Every
(family, semantics) combination here cross-checks:

* the id partition against a direct status-array scan;
* the lazy atom views against an eager oracle decoded straight from the
  :class:`~repro.ground.model.Interpretation`;
* ``counts()`` / ``value()`` / ``query_many`` answers that must never
  require a set to exist;
* every production ``repro-solution/1`` encode path (``solution_to_json``,
  ``solution_to_jsonl_chunks``, the ``solution`` of a ``solve_one``
  result) against a reference document built here from the decoded
  frozenset views, byte for byte across indent × sort_keys;
* ``replace()`` carrying the decode caches without forcing new work.
"""

import json
import re

import pytest

from repro.api.engine import Engine
from repro.errors import ReproError
from repro.ground.model import FALSE, TRUE, UNDEF
from repro.io import json_io
from repro.io.json_io import (
    SOLUTION_SCHEMA,
    solution_to_json,
    solution_to_jsonl_chunks,
    solution_to_obj,
)
from repro.service.batch import BatchRequest, result_solution, solve_one
from repro.workloads import families

FAMILY_CASES = [
    ("win_move_line", lambda: families.win_move_line(7)),
    ("win_move_cycle", lambda: families.win_move_cycle(8)),
    ("unfounded_tower", lambda: families.unfounded_tower(5)),
    ("tie_chain", lambda: families.tie_chain(4)),
    ("negation_tower", lambda: families.negation_tower(6)),
    ("layered_games", lambda: families.layered_games(3, 4)),
    ("committee", lambda: families.committee(5)),
    ("grounded_argumentation", lambda: families.grounded_argumentation(13)),
    ("adversarial_scc", lambda: families.adversarial_scc(8)),
]

SEMANTICS = [
    "alternating",
    "completion",
    "fitting",
    "modular",
    "perfect",
    "pure_tie_breaking",
    "stable",
    "stratified",
    "tie_breaking",
    "well_founded",
]


def _solutions(name, make):
    """Every solvable (semantics, engine, solution) triple of one family."""
    out = []
    for semantics in SEMANTICS:
        engine = Engine(*make())
        try:
            solution = engine.solve(semantics)
        except ReproError:
            continue  # semantics does not apply to this family
        out.append((semantics, engine, solution))
    return out


def _eager_oracle(model):
    """Decode the full partition straight from the Interpretation."""
    table = model.ground_program.atoms
    sets = {TRUE: set(), FALSE: set(), UNDEF: set()}
    for index, status in enumerate(model.status):
        sets[status].add(table.atom(index))
    return frozenset(sets[TRUE]), frozenset(sets[FALSE]), frozenset(sets[UNDEF])


@pytest.mark.parametrize("name,make", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_lazy_views_match_eager_oracle(name, make):
    solved = _solutions(name, make)
    assert solved, name
    for semantics, _engine, solution in solved:
        label = (name, semantics)
        # A closed-world solution reports no false part.
        closed = solution.closed_world
        # Nothing read yet: the solve itself must not have decoded.
        assert solution.timings.get("result_s", 0.0) == 0.0, label
        status = solution.model.status
        expect_true = tuple(i for i, s in enumerate(status) if s == TRUE)
        expect_false = tuple(i for i, s in enumerate(status) if s == FALSE)
        expect_undef = tuple(i for i, s in enumerate(status) if s == UNDEF)
        assert solution.true_ids == expect_true, label
        assert solution.false_ids == (None if closed else expect_false), label
        assert solution.undefined_ids == expect_undef, label
        assert solution.counts() == (
            len(expect_true),
            None if closed else len(expect_false),
            len(expect_undef),
        ), label
        oracle_true, oracle_false, oracle_undef = _eager_oracle(solution.model)
        # value() answers from the interned id before any set exists.
        for atom in list(oracle_true)[:5]:
            assert solution.value(atom) is True, label
        for atom in list(oracle_undef)[:5]:
            assert solution.value(atom) is None, label
        # First touch decodes; the decoded views must equal the oracle.
        assert solution.true_atoms == oracle_true, label
        assert solution.false_atoms == (None if closed else oracle_false), label
        assert solution.undefined_atoms == oracle_undef, label
        assert solution.timings["result_s"] > 0.0, label


def _sorted_atoms(atoms):
    return sorted(str(a) for a in atoms)


def _reference_obj(solution):
    """The ``repro-solution/1`` object built from the decoded frozenset
    views: the reference every production encode path must match."""
    ties = None
    if solution.choices or solution.policy is not None:
        ties = {
            "policy": solution.policy,
            "free_choices": solution.free_choice_count,
            "choices": [
                {
                    "made_true": _sorted_atoms(choice.made_true),
                    "made_false": _sorted_atoms(choice.made_false),
                    "forced": choice.forced,
                }
                for choice in solution.choices
            ],
        }
    false_atoms = None if solution.false_atoms is None else _sorted_atoms(solution.false_atoms)
    return {
        "schema": SOLUTION_SCHEMA,
        "semantics": solution.semantics,
        "found": solution.found,
        "total": solution.total,
        "grounding": solution.grounding,
        "model": {
            "true": _sorted_atoms(solution.true_atoms),
            "false": false_atoms,
            "undefined": _sorted_atoms(solution.undefined_atoms),
        },
        "counts": {
            "true": len(solution.true_atoms),
            "false": None if false_atoms is None else len(false_atoms),
            "undefined": len(solution.undefined_atoms),
        },
        "ties": ties,
        "iterations": solution.iterations,
        "timings": dict(solution.timings),
    }


# ``timings`` is a flat object of wall-clock floats: the one
# nondeterministic part of the document, blanked before comparing bytes.
_TIMINGS = re.compile(r'"timings": \{[^{}]*\}')


def _without_timings(text):
    return _TIMINGS.sub('"timings": {}', text)


@pytest.mark.parametrize("name,make", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_encoders_match_frozenset_reference_bytes(name, make):
    for semantics, engine, solution in _solutions(name, make):
        served = result_solution(solve_one(engine, BatchRequest(semantics=semantics)))
        reference = _reference_obj(solution)
        for indent in (None, 2):
            for sort_keys in (False, True):
                label = (name, semantics, indent, sort_keys)
                expect = _without_timings(
                    json.dumps(reference, indent=indent, sort_keys=sort_keys)
                )
                encodings = [
                    "".join(
                        solution_to_jsonl_chunks(solution, indent=indent, sort_keys=sort_keys)
                    ),
                ]
                if sort_keys:  # the served document is written with sorted keys
                    encodings.append(json.dumps(served, indent=indent, sort_keys=True))
                else:
                    encodings.append(solution_to_json(solution, indent=indent))
                for encoded in encodings:
                    assert _without_timings(encoded) == expect, label
                parsed = json.loads(encodings[0])
                assert parsed["counts"]["true"] == len(parsed["model"]["true"]), label


def test_mutating_an_encoded_model_list_leaves_the_next_encode_intact():
    solution = Engine(*families.committee(5)).solve("tie_breaking")
    first = solution_to_obj(solution)
    expect = list(first["model"]["true"])
    assert expect
    first["model"]["true"].append("bogus(1)")
    first["model"]["undefined"].clear()
    second = solution_to_obj(solution)
    assert second["model"]["true"] == expect
    assert second["model"]["true"] is not first["model"]["true"]
    assert second["model"] == _reference_obj(solution)["model"]


def test_one_encoder_remains():
    solution = Engine(*families.win_move_line(7)).solve("well_founded")
    chunks = list(solution_to_jsonl_chunks(solution, indent=2))
    assert len(chunks) == 1
    # The retired whole-result streaming encoder (its name spelt in two
    # pieces so a grep for it stays empty) is gone.
    assert not hasattr(json_io, "result_to_" + "json_chunks")


def test_query_many_answers_without_decoding():
    engine = Engine(*families.win_move_line(9))
    gp = engine.ground_for("relevant")
    table = gp.atoms
    atoms = [table.atom(i) for i in range(gp.atom_count)]
    answers = engine.query_many(atoms, semantics="well_founded")
    solution = engine.solve("well_founded")
    # The batch was answered from ids: no view was ever decoded.
    assert solution._true is None and solution._undefined is None
    assert solution.timings.get("result_s", 0.0) == 0.0
    oracle_true, oracle_false, oracle_undef = _eager_oracle(solution.model)
    for atom, value in answers.items():
        expect = True if atom in oracle_true else (None if atom in oracle_undef else False)
        assert value is expect, atom


def test_replace_carries_decode_caches():
    engine = Engine(*families.committee(5))
    solution = engine.solve("tie_breaking")
    # Replacing before any decode keeps the views undecoded.
    early = solution.replace(iterations=7)
    assert early._true is None and early._ids is None
    # After a decode, replace() reuses the cached objects outright.
    touched = solution.true_atoms
    booked = solution.timings["result_s"]
    later = solution.replace(iterations=99)
    assert later._true is solution._true
    assert later.true_atoms is touched
    assert later._ids is solution._ids
    assert later.timings["result_s"] == booked
    # The copy answers and encodes identically without booking any new
    # decode time.
    assert later.counts() == solution.counts()
    assert solution_to_obj(later)["model"] == solution_to_obj(solution)["model"]
    assert solution.timings["result_s"] == booked
    assert later.timings["result_s"] == booked


def test_enumerate_solutions_keep_lazy_views_consistent():
    engine = Engine(*families.committee(4))
    for solution in engine.enumerate("tie_breaking", limit=4):
        # Enumerated snapshots drop the live state but stay model-backed:
        # their lazy views must still decode against their own model.
        assert solution.state is None
        oracle_true, _false, oracle_undef = _eager_oracle(solution.model)
        assert solution.true_atoms == oracle_true
        assert solution.undefined_atoms == oracle_undef
        assert solution.total


def test_result_s_never_double_books():
    engine = Engine(*families.win_move_line(20))
    solution = engine.solve("well_founded")
    solution.true_atoms
    solution.false_atoms
    solution.undefined_atoms
    booked = solution.timings["result_s"]
    # Every further read is served from cache, and encoding decodes no
    # atom: nothing new is booked.
    solution.true_atoms
    solution.counts()
    solution_to_obj(solution)
    first = solution.timings["result_s"]
    solution_to_obj(solution)
    assert solution.timings["result_s"] == first
    assert first == booked


def test_a_miss_equals_its_hit_after_its_views_decode():
    """``result_s`` is booked per solution as its ``*_atoms`` views
    decode, so equality compares ``timings`` without it."""
    engine = Engine(*families.grounded_argumentation(40))
    miss = engine.solve("well_founded")
    hit = engine.solve("well_founded")
    assert engine.stats()["solution_cache_hits"] == 1
    assert miss == hit and hit == miss
    miss.true_atoms
    assert "result_s" in miss.timings and "result_s" not in hit.timings
    assert miss == hit and hit == miss
    hit.false_atoms
    assert miss == hit
    # Every other timing still counts.
    assert miss != hit.replace(timings={**hit.timings, "solve_s": -1.0})
