"""The pre-compilation evaluation kernel, preserved verbatim as an oracle.

This is the original :class:`~repro.ground.state.GroundGraphState`
implementation from before the compiled CSR kernel landed: per-state
occurrence lists built with Python loops, an ``unfounded_atoms`` that
rebuilds an O(rules) counter array on every call, and a
``bottom_components_live`` that re-runs Tarjan over the whole live graph
on every query.

It is kept as the well-founded oracle, in two places:

* the property suite (``tests/properties/test_kernel_properties.py``)
  drives it in lockstep with the production kernel as a differential
  oracle for the incremental unfounded-set and cached bottom-SCC paths;
* the repository benchmark (``perfbench/checks.py``) checks every
  well-founded answer it times against this kernel's model.

Do not "improve" this module; its value is being frozen.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from repro.datalog.grounding import GroundProgram
from repro.errors import CloseConflictError, SemanticsError
from repro.graphs.condensation import bottom_components
from repro.graphs.scc import strongly_connected_components
from repro.graphs.ties import analyze_component
from repro.ground.model import FALSE, TRUE, UNDEF, Interpretation
from repro.ground.state import BottomComponent

__all__ = ["SeedGroundGraphState"]


class SeedGroundGraphState:
    """The seed-era evaluation state (see module docstring).

    API-compatible with :class:`~repro.ground.state.GroundGraphState` for
    everything the interpreters use: ``close``, ``assign``/``assign_many``,
    ``unfounded_atoms``, ``bottom_components_live``, ``live_atom_count``,
    ``clone``, ``interpretation``.
    """

    def __init__(self, ground_program: GroundProgram):
        gp = ground_program
        self.gp = gp
        n_atoms = gp.atom_count
        n_rules = gp.rule_count
        self.n_atoms = n_atoms
        self.n_rules = n_rules

        self.status = [UNDEF] * n_atoms
        self.atom_alive = [True] * n_atoms
        self.rule_alive = [True] * n_rules
        self.reason: list[tuple | None] = [None] * n_atoms
        self._assign_label: tuple | None = None
        # Occurrence lists: atom id -> rule indices where it occurs in body.
        self.pos_occ: list[list[int]] = [[] for _ in range(n_atoms)]
        self.neg_occ: list[list[int]] = [[] for _ in range(n_atoms)]
        self.rule_pending = [0] * n_rules
        self.atom_support = [0] * n_atoms
        self.head_of = [0] * n_rules

        for r_index, gr in enumerate(gp.rules):
            self.head_of[r_index] = gr.head
            self.atom_support[gr.head] += 1
            self.rule_pending[r_index] = len(gr.pos) + len(gr.neg)
            for a in gr.pos:
                self.pos_occ[a].append(r_index)
            for a in gr.neg:
                self.neg_occ[a].append(r_index)

        self._dirty: deque[int] = deque()

        edb = gp.program.edb_predicates
        table = gp.atoms
        for index in range(n_atoms):
            atom = table.atom(index)
            if gp.database.contains_atom(atom):
                self._set(index, TRUE, ("delta",))
            elif atom.predicate in edb:
                self._set(index, FALSE, ("edb-absent",))

        self._initial = True

    # -- assignment and closure --------------------------------------------

    def _set(self, index: int, value: int, reason: tuple | None = None) -> None:
        current = self.status[index]
        if current == value:
            return
        if current != UNDEF:
            raise CloseConflictError(index)
        self.status[index] = value
        self.reason[index] = reason
        self._dirty.append(index)

    def assign(self, index: int, value: int, label: tuple | None = None) -> None:
        if value not in (TRUE, FALSE):
            raise SemanticsError("assign() takes TRUE or FALSE")
        self._set(index, value, ("assigned", label))

    def assign_many(self, indices: Iterable[int], value: int, label: tuple | None = None) -> None:
        for index in indices:
            self.assign(index, value, label)

    def close(self) -> None:
        if self._initial:
            self._initial = False
            for r_index in range(self.n_rules):
                if self.rule_pending[r_index] == 0:
                    self._fire(r_index)
            for index in range(self.n_atoms):
                if (
                    self.atom_alive[index]
                    and self.status[index] == UNDEF
                    and self.atom_support[index] == 0
                ):
                    self._set(index, FALSE, ("no-support",))

        dirty = self._dirty
        while dirty:
            index = dirty.popleft()
            if not self.atom_alive[index]:
                continue
            self.atom_alive[index] = False
            value = self.status[index]
            if value == TRUE:
                satisfied, violated = self.pos_occ[index], self.neg_occ[index]
            else:
                satisfied, violated = self.neg_occ[index], self.pos_occ[index]
            for r_index in violated:
                if self.rule_alive[r_index]:
                    self._kill_rule(r_index)
            for r_index in satisfied:
                if self.rule_alive[r_index]:
                    self.rule_pending[r_index] -= 1
                    if self.rule_pending[r_index] == 0:
                        self._fire(r_index)

    def _fire(self, r_index: int) -> None:
        self.rule_alive[r_index] = False
        head = self.head_of[r_index]
        self.atom_support[head] -= 1
        if self.status[head] == FALSE:
            raise CloseConflictError(
                head,
                f"rule instance #{r_index} fired but its head atom "
                f"{self.gp.atoms.atom(head)} is already false",
            )
        self._set(head, TRUE, ("fired", r_index))

    def _kill_rule(self, r_index: int) -> None:
        self.rule_alive[r_index] = False
        head = self.head_of[r_index]
        self.atom_support[head] -= 1
        if self.atom_support[head] == 0 and self.atom_alive[head] and self.status[head] == UNDEF:
            self._set(head, FALSE, ("no-support",))

    # -- global queries on the live graph -----------------------------------

    def live_atom_ids(self) -> list[int]:
        return [i for i in range(self.n_atoms) if self.atom_alive[i]]

    @property
    def live_atom_count(self) -> int:
        return sum(self.atom_alive)

    def unfounded_atoms(self) -> list[int]:
        self._require_closed()
        pos_pending = [0] * self.n_rules
        queue: deque[int] = deque()
        for r_index, gr in enumerate(self.gp.rules):
            if not self.rule_alive[r_index]:
                continue
            count = sum(1 for a in gr.pos if self.atom_alive[a])
            pos_pending[r_index] = count
            if count == 0:
                queue.append(r_index)
        derived = [False] * self.n_atoms
        while queue:
            r_index = queue.popleft()
            head = self.head_of[r_index]
            if derived[head] or not self.atom_alive[head]:
                continue
            derived[head] = True
            for r2 in self.pos_occ[head]:
                if self.rule_alive[r2]:
                    pos_pending[r2] -= 1
                    if pos_pending[r2] == 0:
                        queue.append(r2)
        return [i for i in range(self.n_atoms) if self.atom_alive[i] and not derived[i]]

    def _require_closed(self) -> None:
        if self._dirty or self._initial:
            raise SemanticsError("graph queries require a closed state; call close() first")

    def _live_successors(self, node: int) -> Iterator[tuple[int, bool]]:
        n_atoms = self.n_atoms
        if node < n_atoms:
            for r_index in self.pos_occ[node]:
                if self.rule_alive[r_index]:
                    yield n_atoms + r_index, True
            for r_index in self.neg_occ[node]:
                if self.rule_alive[r_index]:
                    yield n_atoms + r_index, False
        else:
            head = self.head_of[node - n_atoms]
            if self.atom_alive[head]:
                yield head, True

    def bottom_components_live(self, *, full_recompute: bool = False) -> list[BottomComponent]:
        self._require_closed()
        n_atoms = self.n_atoms
        live_nodes = [i for i in range(n_atoms) if self.atom_alive[i]]
        live_nodes += [n_atoms + r for r in range(self.n_rules) if self.rule_alive[r]]

        def succ_ids(u: int) -> Iterator[int]:
            return (v for v, _ in self._live_successors(u))

        components = strongly_connected_components(
            n_atoms + self.n_rules, succ_ids, nodes=live_nodes
        )
        bottoms = bottom_components(components, succ_ids, n_atoms + self.n_rules)
        result: list[BottomComponent] = []
        for comp_id in bottoms:
            component = components[comp_id]
            if len(component) == 1:
                raise AssertionError(
                    "singleton bottom component survived close(); graph state corrupt"
                )
            analysis = analyze_component(component, self._live_successors)
            atom_ids = [n for n in component if n < n_atoms]
            rule_ids = [n - n_atoms for n in component if n >= n_atoms]
            result.append(BottomComponent(atom_ids, rule_ids, analysis, n_atoms))
        return result

    # -- cloning ------------------------------------------------------------

    def clone(self) -> "SeedGroundGraphState":
        other = object.__new__(SeedGroundGraphState)
        other.gp = self.gp
        other.n_atoms = self.n_atoms
        other.n_rules = self.n_rules
        other.status = list(self.status)
        other.atom_alive = list(self.atom_alive)
        other.rule_alive = list(self.rule_alive)
        other.pos_occ = self.pos_occ
        other.neg_occ = self.neg_occ
        other.rule_pending = list(self.rule_pending)
        other.atom_support = list(self.atom_support)
        other.head_of = self.head_of
        other.reason = list(self.reason)
        other._assign_label = self._assign_label
        other._dirty = deque(self._dirty)
        other._initial = self._initial
        return other

    # -- results -------------------------------------------------------------

    def interpretation(self) -> Interpretation:
        return Interpretation(self.gp, tuple(self.status))

    def __repr__(self) -> str:
        return (
            f"SeedGroundGraphState(atoms={self.n_atoms}, rules={self.n_rules}, "
            f"live_atoms={self.live_atom_count})"
        )
