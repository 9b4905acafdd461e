"""Provenance: why did an atom get its truth value?

Every value assigned during an interpreter run carries a reason recorded by
:class:`~repro.ground.state.GroundGraphState` (stored in flat kind/argument
buffers, reconstituted per atom by ``reason_of``):

* ``delta`` — the atom is in the initial database Δ;
* ``edb-absent`` — an EDB atom outside Δ (closed world);
* ``fired`` — head of a rule instance whose body became all-true (the
  instance and its premises are part of the explanation);
* ``no-support`` — every rule instance with this head was deleted because
  a body literal failed;
* ``unfounded`` — falsified as part of a greatest unfounded set (with the
  well-founded iteration number when available);
* ``tie`` — assigned while breaking a tie (with the Lemma-1 side);
* ``stuck`` — never assigned: the atom sits in a bottom component that is
  not a tie (the interpreter's only failure mode, §3).

:func:`explain` builds a finite explanation tree: ``fired`` nodes recurse
into their premises (each premise was valued strictly earlier, so the
recursion terminates; a visited-set guards re-visits), other kinds are
leaves.  :func:`format_explanation` renders it for humans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.datalog.atoms import Atom
from repro.errors import SemanticsError
from repro.ground.model import FALSE, TRUE, UNDEF
from repro.ground.state import FinishedState

__all__ = ["Explanation", "explain", "format_explanation"]


@dataclass(frozen=True)
class Explanation:
    """One node of an explanation tree."""

    atom: Atom
    value: Optional[bool]
    kind: str
    detail: str = ""
    rule: Optional[str] = None
    premises: tuple["Explanation", ...] = ()

    def leaf_kinds(self) -> set[str]:
        """All reason kinds appearing at the leaves (handy for tests)."""
        if not self.premises:
            return {self.kind}
        kinds: set[str] = set()
        for premise in self.premises:
            kinds |= premise.leaf_kinds()
        return kinds


def _value_of(status: int) -> Optional[bool]:
    return {TRUE: True, FALSE: False, UNDEF: None}[status]


def explain(state: FinishedState, atom: Atom, *, max_depth: int = 12) -> Explanation:
    """Explain the value of ``atom`` in a finished interpreter state.

    Pass the ``state`` of a ground-graph :class:`~repro.api.Solution`
    (``well_founded``, ``tie_breaking`` or ``pure_tie_breaking``), or a
    state :func:`~repro.semantics.well_founded.finish_well_founded` ran on.
    """
    gp = state.gp
    index = gp.atoms.get(atom)
    if index is None:
        if atom.predicate in gp.program.edb_predicates:
            present = gp.database.contains_atom(atom)
            return Explanation(
                atom, present, "delta" if present else "edb-absent"
            )
        return Explanation(
            atom,
            False,
            "not-materialized",
            detail="outside the upper-bound model: false in every run",
        )
    return _explain_index(state, index, set(), max_depth)


def _explain_index(
    state: FinishedState, index: int, visited: set[int], depth: int
) -> Explanation:
    gp = state.gp
    atom = gp.atoms.atom(index)
    value = _value_of(state.status[index])
    reason = state.reason_of(index)

    if reason is None:
        return Explanation(
            atom,
            value,
            "stuck",
            detail="in a bottom component that is not a tie (no odd-cycle-free resolution)",
        )
    kind = reason[0]
    if kind == "fired":
        r_index = reason[1]
        gr = gp.rules[r_index]
        rule_text = str(gp.instantiated_rule(gr))
        if index in visited or depth <= 0:
            return Explanation(atom, value, "fired", rule=rule_text)
        premises = []
        for premise in (*gr.pos, *gr.neg):
            if premise == index:
                continue
            premises.append(
                _explain_index(state, premise, visited | {index}, depth - 1)
            )
        return Explanation(atom, value, "fired", rule=rule_text, premises=tuple(premises))
    if kind == "assigned":
        label = reason[1]
        if label and label[0] == "unfounded":
            detail = "member of a greatest unfounded set"
            if label[1] is not None:
                detail += f" (well-founded iteration {label[1]})"
            return Explanation(atom, value, "unfounded", detail=detail)
        if label and label[0] == "tie":
            side = "K (true side)" if value else "L (false side)"
            return Explanation(
                atom, value, "tie", detail=f"assigned on side {side} of a broken tie"
            )
        return Explanation(atom, value, "assigned", detail=str(label))
    if kind == "delta":
        return Explanation(atom, value, "delta", detail="fact of the initial database Δ")
    if kind == "edb-absent":
        return Explanation(atom, value, "edb-absent", detail="EDB atom not in Δ")
    if kind == "no-support":
        return Explanation(
            atom, value, "no-support", detail="every rule instance for it was refuted"
        )
    raise SemanticsError(f"unknown provenance record {reason!r}")


def format_explanation(explanation: Explanation, *, indent: int = 0) -> str:
    """Render an explanation tree as indented text."""
    value = {True: "true", False: "false", None: "undefined"}[explanation.value]
    pad = "  " * indent
    line = f"{pad}{explanation.atom} = {value}"
    if explanation.kind == "fired":
        line += f"  [derived by {explanation.rule}]"
    elif explanation.detail:
        line += f"  [{explanation.detail}]"
    lines = [line]
    for premise in explanation.premises:
        lines.append(format_explanation(premise, indent=indent + 1))
    return "\n".join(lines)
