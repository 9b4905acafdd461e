"""Local stratification and the perfect model [Pr] — referenced in §3.

A program is *locally stratified* for Δ iff no strongly connected component
of the ground graph contains a negative edge.  Przymusinski showed every
such Π, Δ has a fixpoint, the *perfect model*, minimizing positive literals
at lower levels; the paper notes that such components are trivial ties
(one empty side) and both tie-breaking interpreters compute exactly the
perfect model on them.

The evaluator here is independent of the interpreters: it processes the
ground graph's SCC condensation dependency-first, running a positive
derivation cascade inside each component with all lower components fixed.
Cross-validated against the tie-breaking interpreters in the test suite.
"""

from __future__ import annotations

from collections import deque

from repro.datalog.database import Database
from repro.datalog.grounding import GroundingMode, GroundProgram, ground
from repro.datalog.program import Program
from repro.errors import SemanticsError
from repro.graphs.scc import strongly_connected_components
from repro.ground.model import FALSE, TRUE, UNDEF, Interpretation

__all__ = ["is_locally_stratified"]


def _static_components(gp: GroundProgram) -> tuple[list[list[int]], list[int]]:
    """SCCs of the *static* ground graph (atoms 0.., rules shifted by atom count)."""
    n_atoms = gp.atom_count
    n_nodes = n_atoms + gp.rule_count
    succ: list[list[int]] = [[] for _ in range(n_nodes)]
    for r_index, gr in enumerate(gp.rules):
        node = n_atoms + r_index
        succ[node].append(gr.head)
        for a in gr.pos:
            succ[a].append(node)
        for a in gr.neg:
            succ[a].append(node)
    components = strongly_connected_components(n_nodes, lambda u: succ[u])
    comp_id = [0] * n_nodes
    for cid, comp in enumerate(components):
        for node in comp:
            comp_id[node] = cid
    return components, comp_id


def is_locally_stratified(
    program: Program,
    database: Database | None = None,
    *,
    grounding: GroundingMode = "full",
    ground_program: GroundProgram | None = None,
) -> bool:
    """True iff no SCC of G(Π, Δ) contains a negative edge."""
    gp = ground_program or ground(program, database or Database(), mode=grounding)
    _, comp_id = _static_components(gp)
    n_atoms = gp.atom_count
    for r_index, gr in enumerate(gp.rules):
        rule_comp = comp_id[n_atoms + r_index]
        for a in gr.neg:
            if comp_id[a] == rule_comp:
                return False
    return True


def _perfect_model(gp: GroundProgram) -> Interpretation:
    """Implementation behind the ``perfect`` registry entry.

    Raises :class:`SemanticsError` when some ground SCC contains a negative
    edge (the program is not locally stratified for this database).
    """
    database = gp.database
    components, comp_id = _static_components(gp)
    n_atoms = gp.atom_count

    # Local stratification check inline (comp structure already built).
    for r_index, gr in enumerate(gp.rules):
        rule_comp = comp_id[n_atoms + r_index]
        for a in gr.neg:
            if comp_id[a] == rule_comp:
                raise SemanticsError(
                    "program is not locally stratified for this database: ground "
                    f"SCC of {gp.atoms.atom(gr.head)} contains a negative edge"
                )

    status = bytearray([UNDEF]) * n_atoms
    edb = gp.program.edb_predicates
    pending = [len(gr.pos) + len(gr.neg) for gr in gp.rules]
    dead = [False] * gp.rule_count
    pos_occ: list[list[int]] = [[] for _ in range(n_atoms)]
    neg_occ: list[list[int]] = [[] for _ in range(n_atoms)]
    ready_rules: list[deque[int]] = [deque() for _ in range(len(components))]
    for r_index, gr in enumerate(gp.rules):
        for a in gr.pos:
            pos_occ[a].append(r_index)
        for a in gr.neg:
            neg_occ[a].append(r_index)
        if pending[r_index] == 0:
            ready_rules[comp_id[gr.head]].append(r_index)

    def settle(atom_id: int, value: int) -> None:
        """Give an atom its final value and update rule counters."""
        status[atom_id] = value
        satisfied, violated = (
            (pos_occ[atom_id], neg_occ[atom_id])
            if value == TRUE
            else (neg_occ[atom_id], pos_occ[atom_id])
        )
        for r in violated:
            dead[r] = True
        for r in satisfied:
            pending[r] -= 1
            if pending[r] == 0 and not dead[r]:
                ready_rules[comp_id[gp.rules[r].head]].append(r)

    # Dependency-first order is the reversed Tarjan output.
    for cid in reversed(range(len(components))):
        component_atoms = [n for n in components[cid] if n < n_atoms]
        # EDB atoms and Δ atoms are fixed a priori.
        cascade: deque[int] = ready_rules[cid]
        for a in component_atoms:
            atom = gp.atoms.atom(a)
            if database.contains_atom(atom):
                settle(a, TRUE)
            elif atom.predicate in edb:
                settle(a, FALSE)
        while cascade:
            r = cascade.popleft()
            if dead[r]:
                continue
            head = gp.rules[r].head
            if status[head] == UNDEF:
                settle(head, TRUE)
        for a in component_atoms:
            if status[a] == UNDEF:
                settle(a, FALSE)
    return Interpretation(gp, status)
