"""Pinned ``repro-solution/1`` bytes for every semantics × family × grounding.

``tests/golden/solutions_by_semantics.json`` holds one compact document
(timings dropped) per (family, semantics, engine default grounding), plus
the first few ``stable`` / ``completion`` enumerations of each family.
Each document is compared as the exact ``json.dumps`` text the encoder
writes, so a change in any model list, count, flag, key order or the
grounding a solution reports shows up here by name.  A semantics that
does not apply to a family pins its error instead.

To regenerate after an intentional change to the wire form::

    PYTHONPATH=src python tests/api/test_solution_golden.py

Review the diff before committing: every changed line is one document.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.api.engine import Engine
from repro.errors import ReproError
from repro.io.json_io import solution_to_obj
from repro.workloads import families

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "solutions_by_semantics.json"

FAMILIES = {
    "win_move_line": lambda: families.win_move_line(4),
    "win_move_cycle": lambda: families.win_move_cycle(4),
    "unfounded_tower": lambda: families.unfounded_tower(3),
    "tie_chain": lambda: families.tie_chain(3),
    "negation_tower": lambda: families.negation_tower(4),
    "layered_games": lambda: families.layered_games(2, 3),
    "committee": lambda: families.committee(3),
    "grounded_argumentation": lambda: families.grounded_argumentation(6),
    "adversarial_scc": lambda: families.adversarial_scc(4),
}

SEMANTICS = (
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
)

#: Engine-level default grounding: none (each spec's own default) or pinned.
ENGINE_GROUNDINGS = (None, "relevant", "full")

ENUMERATED = ("stable", "completion")
ENUMERATION_LIMIT = 4


def _document(solution):
    obj = solution_to_obj(solution)
    del obj["timings"]  # wall clock: the one nondeterministic field
    return obj


def _solve(make, grounding, semantics):
    try:
        return _document(Engine(*make(), grounding=grounding).solve(semantics))
    except ReproError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _enumerate(make, semantics):
    engine = Engine(*make())
    return [_document(s) for s in engine.enumerate(semantics, limit=ENUMERATION_LIMIT)]


def _cases():
    for family in FAMILIES:
        for grounding in ENGINE_GROUNDINGS:
            for semantics in SEMANTICS:
                key = f"solve/{family}/{semantics}/{grounding or 'spec'}"
                yield key, (_solve, family, grounding, semantics)
        for semantics in ENUMERATED:
            yield f"enumerate/{family}/{semantics}", (_enumerate, family, semantics)


CASES = dict(_cases())


def build(key):
    """The current document (or error, or enumeration list) of one case."""
    run, family, *args = CASES[key]
    return run(FAMILIES[family], *args)


@functools.cache
def _load():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert list(_load()) == list(CASES)


@pytest.mark.parametrize("key", list(CASES))
def test_solution_bytes_match_golden(key):
    assert json.dumps(build(key)) == json.dumps(_load()[key])


def regenerate():
    """Write one line per case, so a diff names the documents that moved."""
    lines = [f"{json.dumps(key)}: {json.dumps(build(key))}" for key in CASES]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes, {len(lines)} cases)")


if __name__ == "__main__":
    regenerate()
