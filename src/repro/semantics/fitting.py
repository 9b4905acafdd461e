"""The Fitting (Kripke-Kleene) three-valued semantics.

Not part of the paper's toolbox, but the natural lower bound to compare
against: the Fitting model is the least fixpoint of the three-valued
immediate-consequence operator, and the well-founded model always extends
it (WF additionally falsifies unfounded *sets*, e.g. ``p :- p`` is false
under WF but undefined under Fitting).  The test suite uses this
containment as a cross-check on both implementations, and the examples use
it to show where the tie-breaking ladder starts.

Requires full grounding: relevant grounding prunes instances whose bodies
Fitting regards as *undefined*, not false.

>>> from repro.api import Engine
>>> from repro.datalog.atoms import Atom
>>> solution = Engine("p :- p.").solve("fitting")
>>> solution.value(Atom("p")) is None   # undefined: Fitting does not falsify loops
True
"""

from __future__ import annotations

from repro.datalog.grounding import GroundProgram
from repro.errors import SemanticsError
from repro.ground.model import FALSE, TRUE, UNDEF, Interpretation

__all__: list[str] = []


def _fitting_model(gp: GroundProgram) -> Interpretation:
    """Implementation behind the ``fitting`` registry entry.

    Iterates the three-valued consequence operator to its least fixpoint:
    an atom becomes true when some instance body is (all) true, false when
    every instance body contains a false literal.
    """
    if gp.mode != "full":
        raise SemanticsError(
            "the fitting semantics requires full grounding (relevant pruning "
            "treats undefined bodies as false)"
        )
    database = gp.database
    n_atoms = gp.atom_count
    status = bytearray([UNDEF]) * n_atoms
    edb = gp.program.edb_predicates

    by_head: dict[int, list[int]] = {}
    for r_index, gr in enumerate(gp.rules):
        by_head.setdefault(gr.head, []).append(r_index)

    for index in range(n_atoms):
        atom = gp.atoms.atom(index)
        if database.contains_atom(atom):
            status[index] = TRUE
        elif atom.predicate in edb:
            status[index] = FALSE

    def body_value(r_index: int) -> int:
        """Three-valued conjunction of the instance's body."""
        gr = gp.rules[r_index]
        value = TRUE
        for a in gr.pos:
            s = status[a]
            if s == FALSE:
                return FALSE
            if s == UNDEF:
                value = UNDEF
        for a in gr.neg:
            s = status[a]
            if s == TRUE:
                return FALSE
            if s == UNDEF:
                value = UNDEF
        return value

    changed = True
    while changed:
        changed = False
        for index in range(n_atoms):
            if status[index] != UNDEF:
                continue
            atom = gp.atoms.atom(index)
            instances = by_head.get(index, ())
            if not instances:
                status[index] = FALSE
                changed = True
                continue
            values = [body_value(r) for r in instances]
            if any(v == TRUE for v in values):
                status[index] = TRUE
                changed = True
            elif all(v == FALSE for v in values):
                status[index] = FALSE
                changed = True
    return Interpretation(gp, status)
