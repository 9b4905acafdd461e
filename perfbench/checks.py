"""Answer checks, run outside every timed region.

Each check returns ``None`` for a correct answer or a one-line reason.
The rules:

* a ``well_founded`` answer must equal the frozen seed-kernel oracle
  (:mod:`repro.bench.seed_kernel`) exactly;
* a ``tie_breaking`` answer must be total (every family the benchmark
  uses is total), must be a fixpoint, and must agree with the
  well-founded model on every atom that model decides.  The model a
  given seed yields is never pinned: batched tie rounds may change it;
* encoded and served JSON is parsed back and its ``counts`` compared
  with the lists it carries.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Mapping

from repro.bench.seed_kernel import SeedGroundGraphState
from repro.datalog.grounding import GroundProgram
from repro.ground.model import FALSE, TRUE
from repro.semantics.fixpoint import is_fixpoint

__all__ = [
    "Oracle",
    "check_counts",
    "check_tie_breaking_model",
    "check_values",
    "GroundFixpoint",
    "fixpoint_error",
    "model_digest",
]


class Oracle:
    """The seed kernel's well-founded model of one ground program.

    ``values`` maps every atom string of the atom table to ``True``,
    ``False`` or ``None`` (undefined); atoms outside the table are false.
    The ground program itself is not kept, so oracles are cheap to cache.
    """

    def __init__(self, gp: GroundProgram) -> None:
        state = SeedGroundGraphState(gp)
        state.close()
        while True:
            unfounded = state.unfounded_atoms()
            if not unfounded:
                break
            state.assign_many(unfounded, FALSE)
            state.close()
        table = gp.atoms
        self.values: dict[str, bool | None] = {}
        for index, status in enumerate(state.status):
            self.values[str(table.atom(index))] = (
                True if status == TRUE else False if status == FALSE else None
            )

    def value(self, atom: str) -> bool | None:
        return self.values.get(atom, False)

    def digest(self) -> bytes:
        """:func:`model_digest` of this model's true and undefined atoms."""
        return model_digest(
            (a for a, v in self.values.items() if v is True),
            (a for a, v in self.values.items() if v is None),
        )


def model_digest(true_atoms: Iterable[str], undefined: Iterable[str]) -> bytes:
    """A fingerprint of a three-valued model given as atom strings.

    Two models have the same digest exactly when they agree on which atoms
    are true and which undefined (all others are false); a ``well_founded``
    answer is checked by comparing its digest with the oracle's.
    """
    text = "\n".join(sorted(true_atoms)) + "\n\x00\n" + "\n".join(sorted(undefined))
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def check_counts(doc: Mapping[str, Any], expected: tuple[int, int | None, int] | None = None):
    """A parsed ``repro-solution/1`` document's counts match its lists.

    ``expected`` is the live solution's ``counts()`` when the document
    was encoded in this process.
    """
    model, counts = doc["model"], doc["counts"]
    listed = (
        len(model["true"]),
        None if model["false"] is None else len(model["false"]),
        len(model["undefined"]),
    )
    stated = (counts["true"], counts["false"], counts["undefined"])
    if stated != listed:
        return f"counts {stated} disagree with the model lists {listed}"
    if expected is not None and tuple(expected) != stated:
        return f"counts {stated} disagree with the solution's counts {tuple(expected)}"
    return None


def check_tie_breaking_model(doc: Mapping[str, Any], oracle: Oracle):
    """Totality and agreement with the well-founded model, on a document."""
    if doc.get("semantics") != "tie_breaking" or not doc.get("found"):
        return f"not a found tie_breaking model: {doc.get('semantics')!r}"
    model = doc["model"]
    if not doc["total"] or model["undefined"]:
        return f"model not total ({len(model['undefined'])} undefined atoms)"
    true_atoms, false_atoms = model["true"], model["false"] or []
    if len(true_atoms) + len(false_atoms) != len(oracle.values):
        return (
            f"model covers {len(true_atoms) + len(false_atoms)} atoms, "
            f"the ground program has {len(oracle.values)}"
        )
    for atoms, value in ((true_atoms, True), (false_atoms, False)):
        for atom in atoms:
            decided = oracle.values.get(atom, "absent")
            if decided == "absent":
                return f"{atom} is not an atom of the ground program"
            if decided is not None and decided is not value:
                return f"{atom} is {value} but well-founded {decided}"
    return None


def check_values(values: Mapping[str, Any], oracle: Oracle):
    """Served tie_breaking values: none undefined, all agreeing with the
    well-founded model wherever it decides."""
    for atom, value in values.items():
        expected = oracle.value(atom)
        if value is None:
            return f"{atom} left undefined by a total semantics"
        if expected is not None and value is not expected:
            return f"{atom} is {value} but well-founded {expected}"
    return None


def fixpoint_error(gp: GroundProgram, true_atoms: list[str]):
    """The paper's fixpoint test (:func:`repro.semantics.fixpoint.is_fixpoint`)
    on a model given by the strings of its true atoms, all from ``gp``."""
    table = {str(gp.atoms.atom(i)): gp.atoms.atom(i) for i in range(gp.atom_count)}
    if not is_fixpoint(gp.program, gp.database, [table[a] for a in true_atoms]):
        return "model is not a fixpoint (semantics.fixpoint.is_fixpoint)"
    return None


class GroundFixpoint:
    """The fixpoint conditions checked on a relevant ground program.

    Equivalent to :func:`fixpoint_error` for candidates drawn from the
    ground program's atoms: every true atom outside the database is the
    head of an instance whose body is true, every instance whose body is
    true has a true head, and the EDB part equals the database.  Instances
    a relevant grounding leaves out have a positive body atom that no
    supported model makes true, so they cannot be violated.  The check is
    linear in the ground program, where ``is_fixpoint`` joins against the
    candidate and turns quadratic on argumentation frameworks.
    """

    def __init__(self, gp: GroundProgram) -> None:
        table = gp.atoms
        self.gp = gp
        self.ids = {str(table.atom(i)): i for i in range(len(table))}
        edb = gp.program.edb_predicates
        self.in_database = bytearray(len(table))
        self.is_edb = bytearray(len(table))
        for index in range(len(table)):
            atom = table.atom(index)
            self.in_database[index] = gp.database.contains_atom(atom)
            self.is_edb[index] = atom.predicate in edb
        self.rules = [(rule.head, rule.pos, rule.neg) for rule in gp.rules]

    def error(self, true_atoms: list[str]):
        table = self.gp.atoms
        truth = bytearray(len(self.ids))
        for atom in true_atoms:
            index = self.ids.get(atom)
            if index is None:
                return f"{atom} is not an atom of the ground program"
            truth[index] = 1
        for index, edb in enumerate(self.is_edb):
            if edb and truth[index] != self.in_database[index]:
                return f"EDB atom {table.atom(index)} does not match the database"
        supported = bytearray(len(truth))
        for head, pos, neg in self.rules:
            if all(truth[a] for a in pos) and not any(truth[a] for a in neg):
                if not truth[head]:
                    return f"{table.atom(head)} is false but a rule instance derives it"
                supported[head] = 1
        for index, value in enumerate(truth):
            if value and not self.in_database[index] and not supported[index]:
                return f"{table.atom(index)} is true but unsupported"
        return None
