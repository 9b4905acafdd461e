"""The alternating-fixpoint characterization of the well-founded model.

Van Gelder's classic construction (cited in the paper via [VRS]): let
Γ(S) be the least model of the Gelfond-Lifschitz reduct of the ground
program w.r.t. the true-set S.  Γ is antimonotone, so Γ² is monotone; the
well-founded model is

* true  atoms:  lfp(Γ²)  — the limit of Γ²(∅) ⊆ Γ⁴(∅) ⊆ ...
* false atoms:  complement of gfp(Γ²) = complement of Γ(lfp(Γ²))
* undefined:    the gap between the two.

This is a *second, independent implementation* of the §2 semantics — it
never touches the ground-graph machinery (no close(), no unfounded sets) —
used by the test suite to cross-validate Algorithm Well-Founded, and by the
stable-model theory: S is stable iff Γ(S) = S.

>>> from repro.api import Engine
>>> from repro.datalog.atoms import Atom
>>> solution = Engine("p :- not q. q :- not p. r :- r.").solve("alternating")
>>> solution.value(Atom("r")), solution.value(Atom("p"))
(False, None)
"""

from __future__ import annotations

from collections import deque

from repro.datalog.database import Database
from repro.datalog.grounding import GroundingMode, GroundProgram, ground
from repro.datalog.program import Program
from repro.ground.model import FALSE, TRUE, UNDEF, Interpretation

__all__ = ["gamma_operator", "is_stable_via_gamma"]


def _gamma(gp: GroundProgram, true_set: set[int], edb_true: set[int]) -> set[int]:
    """Γ(S): least model of the reduct w.r.t. S, over the ground program.

    Instances with a negative body atom in S are deleted; remaining
    negative literals are dropped; the positive cascade then runs with
    counters (EDB atoms of Δ seed it).
    """
    pending: list[int] = []
    pos_occ: dict[int, list[int]] = {}
    queue: deque[int] = deque()
    for r_index, gr in enumerate(gp.rules):
        if any(a in true_set for a in gr.neg):
            pending.append(-1)  # deleted by the reduct
            continue
        live_pos = [a for a in gr.pos if a not in edb_true]
        pending.append(len(live_pos))
        for a in live_pos:
            pos_occ.setdefault(a, []).append(r_index)
        if not live_pos:
            queue.append(r_index)

    derived: set[int] = set(edb_true)
    result: set[int] = set(edb_true)
    while queue:
        r_index = queue.popleft()
        head = gp.rules[r_index].head
        if head in derived:
            continue
        derived.add(head)
        result.add(head)
        for waiting in pos_occ.get(head, ()):
            pending[waiting] -= 1
            if pending[waiting] == 0:
                queue.append(waiting)
    return result


def gamma_operator(gp: GroundProgram) -> "callable":
    """A Γ closure over a ground program: ``gamma(true_ids) -> true_ids``.

    ``true_ids`` are atom-table ids; Δ's atoms (EDB facts and initial IDB
    facts — the uniform case) are always included in the output, since they
    are true unconditionally.
    """
    delta_true = {
        index
        for index in range(gp.atom_count)
        if gp.database.contains_atom(gp.atoms.atom(index))
    }

    def gamma(true_set: set[int]) -> set[int]:
        return _gamma(gp, true_set, delta_true)

    return gamma


def _alternating_fixpoint_model(
    program: Program,
    database: Database | None = None,
    *,
    grounding: GroundingMode = "relevant",
    ground_program: GroundProgram | None = None,
) -> Interpretation:
    """Implementation behind the ``alternating`` registry entry.

    Iterates ``under ← Γ(over)``, ``over ← Γ(under)`` from ``under = ∅``
    until both stabilize; atoms in ``under`` are true, atoms outside
    ``over`` are false, the gap is undefined.  Agrees with
    the ``well_founded`` registry entry on every input
    (property-tested).
    """
    gp = ground_program or ground(program, database or Database(), mode=grounding)
    gamma = gamma_operator(gp)

    under: set[int] = set()
    over = gamma(under)
    while True:
        new_under = gamma(over)
        new_over = gamma(new_under)
        if new_under == under and new_over == over:
            break
        under, over = new_under, new_over

    status = []
    for index in range(gp.atom_count):
        if index in under:
            status.append(TRUE)
        elif index not in over:
            status.append(FALSE)
        else:
            status.append(UNDEF)
    return Interpretation(gp, tuple(status))


def is_stable_via_gamma(
    program: Program,
    database: Database,
    candidate_true: frozenset,
    *,
    grounding: GroundingMode = "edb",
) -> bool:
    """Third stable-model checker: S is stable iff Γ(S) = S.

    Uses the ``edb`` grounding, which materializes every atom that can be
    true in any fixpoint (and hence in any stable model); candidates with
    unmaterialized true atoms are rejected.
    """
    gp = ground(program, database, mode=grounding)
    table = gp.atoms
    true_ids: set[int] = set()
    for atom in candidate_true:
        index = table.get(atom)
        if index is None:
            if database.contains_atom(atom):
                continue  # Δ atoms are implicit
            return False
        true_ids.add(index)
    # Δ atoms must be in the candidate's id set (they are true in S).
    for index in range(gp.atom_count):
        if gp.database.contains_atom(table.atom(index)):
            true_ids.add(index)
            if table.atom(index) not in candidate_true:
                return False
    gamma = gamma_operator(gp)
    return gamma(true_ids) == true_ids
