"""Clark completion: exact fixpoint enumeration via SAT.

The fixpoints (supported models) of Π, Δ are exactly the models of the
*Clark completion* of the ground program: every atom outside Δ is made
equivalent to the disjunction of its rule bodies ("models of the Clark
extension", §1).  Deciding existence is NP-complete even propositionally
(§2, [KP]), so the exact engine is the DPLL solver of :mod:`repro.sat`.

Used throughout §4-5 verification: the Theorem 2/3/6 constructions claim
*no fixpoint exists* — here that is a single UNSAT call.

Grounding note: encoding defaults to the paper-exact ``full`` grounding.
Under ``relevant`` grounding, atoms outside the upper-bound model U\\* are
not materialized; models found are still genuine fixpoints (unmaterialized
atoms read as false satisfy every dropped instance), but fixpoints whose
true atoms are *self-supported outside U\\** are missed.  UNSAT therefore
implies "no fixpoint" under relevant grounding only when no positive cycle
escapes U\\* — the Theorem 6 tests document this argument; when in doubt,
use full grounding.

>>> from repro.api import Engine
>>> engine = Engine("p :- not q. q :- not p.")
>>> sorted(sorted(str(a) for a in s.true_atoms) for s in engine.enumerate("completion"))
[['p'], ['q']]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.grounding import GroundingMode, GroundProgram, ground
from repro.datalog.program import Program
from repro.sat.cnf import CNF
from repro.sat.solver import enumerate_models

__all__ = [
    "CompletionEncoding",
    "clark_completion",
]


@dataclass
class CompletionEncoding:
    """The CNF of a ground program's Clark completion.

    ``atom_var[i]`` is the SAT variable of ground atom ``i``; ``free_vars``
    lists the variables of atoms whose value is not fixed by Δ (the
    projection set for model enumeration).
    """

    ground_program: GroundProgram
    cnf: CNF
    atom_var: list[int]
    free_vars: list[int]

    def model_to_atoms(self, projection: dict[int, bool]) -> frozenset[Atom]:
        """Translate a projected SAT model into the fixpoint's true set."""
        gp = self.ground_program
        true_atoms: set[Atom] = set(gp.database.atoms())
        for index, var in enumerate(self.atom_var):
            if projection.get(var):
                true_atoms.add(gp.atoms.atom(index))
        return frozenset(true_atoms)


def clark_completion(ground_program: GroundProgram) -> CompletionEncoding:
    """Encode the fixpoint conditions of a ground program as CNF."""
    gp = ground_program
    cnf = CNF()
    atom_var = cnf.new_vars(gp.atom_count)
    edb = gp.program.edb_predicates

    # Group rule instances by head.
    by_head: dict[int, list[int]] = {}
    for r_index, gr in enumerate(gp.rules):
        by_head.setdefault(gr.head, []).append(r_index)

    free_vars: list[int] = []
    for index in range(gp.atom_count):
        atom = gp.atoms.atom(index)
        var = atom_var[index]
        if gp.database.contains_atom(atom):
            cnf.add_unit(var)  # in Δ: true, unconditionally supported
            continue
        if atom.predicate in edb:
            cnf.add_unit(-var)  # EDB outside Δ: false
            continue
        instances = by_head.get(index, ())
        if not instances:
            cnf.add_unit(-var)  # no possible support
            continue
        free_vars.append(var)
        body_vars: list[int] = []
        for r_index in instances:
            gr = gp.rules[r_index]
            b = cnf.new_var()
            body_vars.append(b)
            reverse = [b]
            for p in gr.pos:
                cnf.add_clause([-b, atom_var[p]])
                reverse.append(-atom_var[p])
            for n in gr.neg:
                cnf.add_clause([-b, -atom_var[n]])
                reverse.append(atom_var[n])
            cnf.add_clause(reverse)  # body true ⇒ b
            cnf.add_clause([-b, var])  # b ⇒ atom (closure direction)
        cnf.add_clause([-var] + body_vars)  # atom ⇒ some body (support direction)
    return CompletionEncoding(gp, cnf, atom_var, free_vars)


def _encoding_for(
    program: Program,
    database: Database | None,
    grounding: GroundingMode,
    ground_program: GroundProgram | None,
    max_instances: int,
) -> CompletionEncoding:
    gp = ground_program or ground(
        program, database or Database(), mode=grounding, max_instances=max_instances
    )
    return clark_completion(gp)


def _enumerate_fixpoints(
    program: Program,
    database: Database | None = None,
    *,
    grounding: GroundingMode = "full",
    ground_program: GroundProgram | None = None,
    limit: int | None = None,
    max_instances: int = 2_000_000,
) -> Iterator[frozenset[Atom]]:
    """Implementation behind the ``completion`` registry entry."""
    encoding = _encoding_for(program, database, grounding, ground_program, max_instances)
    for projection in enumerate_models(encoding.cnf, encoding.free_vars, limit=limit):
        yield encoding.model_to_atoms(projection)
