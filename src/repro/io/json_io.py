"""JSON (de)serialization of programs, databases, and models.

The JSON shape is deliberately simple and stable:

* term: ``{"var": "X"}`` or ``{"const": "a"}`` / ``{"const": 3}``;
* atom: ``{"predicate": "p", "args": [term, ...]}``;
* literal: ``{"atom": atom, "positive": bool}``;
* rule: ``{"head": atom, "body": [literal, ...]}``;
* program: ``{"rules": [rule, ...]}``;
* database: ``{"facts": [atom, ...]}``;
* model: ``{"true": [atom...], "false": [atom...], "undefined": [atom...]}``;
* solution: the unified ``repro-solution/1`` schema every
  :class:`repro.api.Solution` serializes to (see :func:`solution_to_obj`).

Atom lists are sorted by their text form, so serializations are
deterministic and diffable (the CLI golden tests rely on this).

:func:`solution_to_obj` is the ``repro-solution/1`` object, for the CLI
and the library.  A served reply writes the same document as text:
:func:`solution_text` is ``json.dumps(solution_to_obj(s),
sort_keys=True)`` byte for byte, written from the atom table's
:class:`~repro.datalog.grounding.LiteralTable` (and, for a solve a tie
table served, from the table's side texts) without building the object.
It travels in a reply inside :class:`RawJSON`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterator

from repro.datalog.atoms import Atom, Literal
from repro.datalog.database import Database
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Term, Variable
from repro.errors import ValidationError
from repro.ground.model import Interpretation

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.api.solution import Solution
    from repro.datalog.grounding import LiteralTable
    from repro.ground.explain import Explanation

SOLUTION_SCHEMA = "repro-solution/1"

__all__ = [
    "SOLUTION_SCHEMA",
    "program_to_json",
    "program_from_json",
    "database_to_json",
    "database_from_json",
    "interpretation_to_json",
    "solution_to_obj",
    "solution_to_json",
    "solution_text",
    "RawJSON",
    "solution_to_jsonl_chunks",
    "explanation_to_obj",
]


def _term_to_obj(term: Term) -> dict[str, Any]:
    if isinstance(term, Variable):
        return {"var": term.name}
    return {"const": term.value}


def _term_from_obj(obj: dict[str, Any]) -> Term:
    if "var" in obj:
        return Variable(obj["var"])
    if "const" in obj:
        return Constant(obj["const"])
    raise ValidationError(f"not a term object: {obj!r}")


def _atom_to_obj(atom: Atom) -> dict[str, Any]:
    return {"predicate": atom.predicate, "args": [_term_to_obj(t) for t in atom.args]}


def _atom_from_obj(obj: dict[str, Any]) -> Atom:
    return Atom(obj["predicate"], tuple(_term_from_obj(t) for t in obj.get("args", ())))


def program_to_json(program: Program, *, indent: int | None = 2) -> str:
    """Serialize a program to a JSON string."""
    payload = {
        "rules": [
            {
                "head": _atom_to_obj(rule.head),
                "body": [
                    {"atom": _atom_to_obj(lit.atom), "positive": lit.positive}
                    for lit in rule.body
                ],
            }
            for rule in program.rules
        ]
    }
    return json.dumps(payload, indent=indent)


def program_from_json(text: str) -> Program:
    """Parse a program from its JSON serialization (round-trips exactly).

    Raises :class:`~repro.errors.ValidationError` for malformed term
    objects and ``json.JSONDecodeError`` for invalid JSON.

    >>> from repro.datalog.parser import parse_program
    >>> prog = parse_program("win(X) :- move(X, Y), not win(Y).")
    >>> program_from_json(program_to_json(prog)) == prog
    True
    """
    payload = json.loads(text)
    rules = []
    for obj in payload["rules"]:
        head = _atom_from_obj(obj["head"])
        body = tuple(
            Literal(_atom_from_obj(lit["atom"]), bool(lit["positive"]))
            for lit in obj.get("body", ())
        )
        rules.append(Rule(head, body))
    return Program(rules)


def database_to_json(database: Database, *, indent: int | None = 2) -> str:
    """Serialize a database to a JSON string."""
    payload = {"facts": [_atom_to_obj(a) for a in database.atoms()]}
    return json.dumps(payload, indent=indent)


def database_from_json(text: str) -> Database:
    """Parse a database from its JSON serialization.

    Raises :class:`~repro.errors.ValidationError` for malformed term
    objects or non-ground facts, ``json.JSONDecodeError`` for invalid
    JSON.
    """
    payload = json.loads(text)
    db = Database()
    for obj in payload["facts"]:
        db.add_atom(_atom_from_obj(obj))
    return db


def interpretation_to_json(model: Interpretation, *, indent: int | None = 2) -> str:
    """Serialize a (possibly partial) model's three value classes."""
    payload = {
        "true": [_atom_to_obj(a) for a in model.true_atoms()],
        "false": [_atom_to_obj(a) for a in model.false_atoms()],
        "undefined": [_atom_to_obj(a) for a in model.undefined_atoms()],
        "total": model.is_total,
    }
    return json.dumps(payload, indent=indent)


def solution_to_obj(solution: "Solution") -> dict[str, Any]:
    """The ``repro-solution/1`` JSON object of one :class:`repro.api.Solution`.

    ``model.false`` is ``null`` when ``solution.closed_world`` is set
    (stratified / stable / completion / modular): everything not listed
    true or undefined is false.  ``timings`` are wall-clock seconds and
    therefore the only nondeterministic part of the payload.

    The atom lists come in string order from the atom table's
    :class:`~repro.datalog.grounding.LiteralTable`: the model lists by
    :meth:`~repro.api.Solution.texts` (a closed-world solution sorts only
    its listed atoms instead), each tie choice's ids sorted by their
    string-order rank.  Nothing is cached on the solution, so each call
    returns fresh lists.
    """
    ties = None
    if solution.policy is not None or solution.choices:
        texts = solution.ground_program.atoms.literal_table().texts
        ties = {
            "policy": solution.policy,
            "free_choices": solution.free_choice_count,
            "choices": [
                {
                    "made_true": texts(choice.true_ids),
                    "made_false": texts(choice.false_ids),
                    "forced": choice.forced,
                }
                for choice in solution.choices
            ],
        }
    true, false, undefined = solution.texts()
    return {
        "schema": SOLUTION_SCHEMA,
        "semantics": solution.semantics,
        "found": solution.found,
        "total": solution.total,
        "grounding": solution.grounding,
        "model": {"true": true, "false": false, "undefined": undefined},
        "counts": {
            "true": len(true),
            "false": None if false is None else len(false),
            "undefined": len(undefined),
        },
        "ties": ties,
        "iterations": solution.iterations,
        "timings": dict(solution.timings),
    }


def solution_text(solution: "Solution") -> str:
    """``json.dumps(solution_to_obj(solution), sort_keys=True)``, written
    without building the object.

    The model lists are one selection over the literal table's string
    order (:meth:`~repro.datalog.grounding.LiteralTable.masks`, as
    :meth:`~repro.api.Solution.texts` makes it), each joined once from the
    table's own texts; a closed-world solution dumps its
    :meth:`~repro.api.Solution.texts`.  The tie choices of a solve a
    :class:`~repro.semantics.tie_breaking.TieTable` served (its
    :attr:`~repro.api.Solution.trail` is the table and the trail flags)
    are two of the table's side texts each, picked by the flag's side bit;
    any other trail is written from its ``choices``.
    """
    dumps = json.dumps
    literals = None
    if solution.closed_world:
        true, _, undefined = solution.texts()
        model = {"true": dumps(true), "false": "null", "undefined": dumps(undefined)}
        counts = {"true": str(len(true)), "false": "null", "undefined": str(len(undefined))}
    else:
        literals, masks = solution.selection()
        model = dict(zip(_LISTS, map(literals.json_selection, masks)))
        counts = {key: str(mask.count(1)) for key, mask in zip(_LISTS, masks)}
    ties = "null"
    if solution.policy is not None or solution.choices:
        literals = literals or solution.ground_program.atoms.literal_table()
        choices = ", ".join(_choice_texts(solution, literals))
        ties = _raw_object(
            {
                "policy": dumps(solution.policy),
                "free_choices": str(solution.free_choice_count),
                "choices": f"[{choices}]",
            }
        )
    return _raw_object(
        {
            "schema": dumps(SOLUTION_SCHEMA),
            "semantics": dumps(solution.semantics),
            "found": dumps(solution.found),
            "total": dumps(solution.total),
            "grounding": dumps(solution.grounding),
            "model": _raw_object(model),
            "counts": _raw_object(counts),
            "ties": ties,
            "iterations": dumps(solution.iterations),
            "timings": dumps(dict(solution.timings), sort_keys=True),
        }
    )


_LISTS = ("true", "false", "undefined")


def _raw_object(fields: dict[str, str]) -> str:
    """The JSON object of ``fields``' already written values, its keys
    sorted and spaced as ``json.dumps(..., sort_keys=True)`` writes them."""
    parts = []
    for key, value in sorted(fields.items()):
        parts += (", ", json.dumps(key), ": ", value)
    parts[0] = "{"
    parts.append("}")
    return "".join(parts)


_CHOICE_HEAD = ('{"forced": false, "made_false": ', '{"forced": true, "made_false": ')


def _choice_texts(solution: "Solution", literals: "LiteralTable") -> Iterator[str]:
    """The JSON object of each tie choice of ``solution``."""
    trail = solution.trail
    if trail is not None:
        sides = trail.table.side_texts(literals)
        for k, flag in enumerate(trail.flags):
            true = 2 * k + (flag & 1)
            false = true ^ 1
            yield f'{_CHOICE_HEAD[flag >> 1]}{sides[false]}, "made_true": {sides[true]}}}'
        return
    json_list = literals.json_list
    for choice in solution.choices:
        made_false, made_true = json_list(choice.false_ids), json_list(choice.true_ids)
        yield f'{_CHOICE_HEAD[choice.forced]}{made_false}, "made_true": {made_true}}}'


class RawJSON:
    """One JSON value as UTF-8 ``data``, already written.

    A reply carries its solution in one (:func:`solution_text`, encoded
    once).  It is neither ``str`` nor ``bytes``, so ``json.dumps`` of a
    reply holding it raises instead of writing it as a JSON string:
    :func:`repro.service.batch.result_line` splices it in.  It pickles as
    its bytes.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


def solution_to_json(solution: "Solution", *, indent: int | None = 2) -> str:
    """JSON text of :func:`solution_to_obj`."""
    return json.dumps(solution_to_obj(solution), indent=indent)


def solution_to_jsonl_chunks(
    solution: "Solution", *, indent: int | None = None, sort_keys: bool = False
) -> Iterator[str]:
    """One solution's ``repro-solution/1`` JSON as an iterator of one chunk.

    The chunk is exactly ``json.dumps(solution_to_obj(solution),
    indent=indent, sort_keys=sort_keys)``.  No trailing newline is
    emitted; JSONL writers append their own.
    """
    return iter((json.dumps(solution_to_obj(solution), indent=indent, sort_keys=sort_keys),))


def explanation_to_obj(explanation: "Explanation") -> dict[str, Any]:
    """A provenance tree (:func:`repro.ground.explain.explain`) as JSON."""
    obj: dict[str, Any] = {
        "atom": str(explanation.atom),
        "value": explanation.value,
        "kind": explanation.kind,
    }
    if explanation.detail:
        obj["detail"] = explanation.detail
    if explanation.rule is not None:
        obj["rule"] = explanation.rule
    if explanation.premises:
        obj["premises"] = [explanation_to_obj(p) for p in explanation.premises]
    return obj
