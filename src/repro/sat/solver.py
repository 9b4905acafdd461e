"""A small, correct DPLL SAT solver with two-watched-literal propagation.

Built from scratch (the reproduction allows no solver dependencies).
Design: iterative DPLL with chronological backtracking, unit propagation
via the classic two-watched-literals scheme, a static variable order by
occurrence count, and negative-polarity-first decisions (which makes the
*first* model of a Clark-completion formula lean minimal — handy when the
caller only needs one fixpoint).

This is deliberately not a CDCL solver: the instances produced by the
paper's constructions are small (hundreds to a few thousand variables) and
the priority is auditability.  Every decision, and every enumerated model,
checks the armed solve deadline (:func:`repro.errors.check_deadline`).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.errors import check_deadline
from repro.sat.cnf import CNF

__all__ = ["Solver", "solve", "enumerate_models"]

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


class Solver:
    """One-shot solver over a CNF (create a new instance per ``solve``)."""

    def __init__(self, cnf: CNF, assumptions: Sequence[int] = ()):
        self.num_vars = cnf.num_vars
        self.clauses: list[list[int]] = []
        self.value = [_UNASSIGNED] * (self.num_vars + 1)
        self.trail: list[int] = []  # assigned literals, in order
        # decision stack: (trail_length_before, literal, flipped)
        self.decisions: list[tuple[int, int, bool]] = []
        self.trivially_unsat = False

        # watches[encoded literal] = clause indices watching that literal
        self.watches: list[list[int]] = [[] for _ in range(2 * (self.num_vars + 1))]
        self._units: list[int] = list(assumptions)

        for clause in cnf.clauses:
            lits = list(clause)
            if not lits:
                self.trivially_unsat = True
                return
            if len(lits) == 1:
                self._units.append(lits[0])
                continue
            index = len(self.clauses)
            self.clauses.append(lits)
            self.watches[self._encode(lits[0])].append(index)
            self.watches[self._encode(lits[1])].append(index)

        # Static decision order: most frequent variables first.
        counts = [0] * (self.num_vars + 1)
        for clause in cnf.clauses:
            for lit in clause:
                counts[abs(lit)] += 1
        self.order = sorted(range(1, self.num_vars + 1), key=lambda v: -counts[v])

    @staticmethod
    def _encode(lit: int) -> int:
        return 2 * lit if lit > 0 else -2 * lit + 1

    def _lit_value(self, lit: int) -> int:
        v = self.value[abs(lit)]
        return v if lit > 0 else -v

    def _assign(self, lit: int) -> bool:
        """Assign ``lit`` true; False on immediate contradiction."""
        current = self._lit_value(lit)
        if current == _TRUE:
            return True
        if current == _FALSE:
            return False
        self.value[abs(lit)] = _TRUE if lit > 0 else _FALSE
        self.trail.append(lit)
        return True

    def _propagate(self, start: int) -> bool:
        """Watched-literal unit propagation from trail position ``start``."""
        i = start
        while i < len(self.trail):
            falsified = -self.trail[i]
            i += 1
            watch_list = self.watches[self._encode(falsified)]
            j = 0
            while j < len(watch_list):
                c_index = watch_list[j]
                clause = self.clauses[c_index]
                # Normalize: watched literals are clause[0], clause[1].
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                # clause[1] == falsified now.
                if self._lit_value(clause[0]) == _TRUE:
                    j += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != _FALSE:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches[self._encode(clause[1])].append(c_index)
                        watch_list[j] = watch_list[-1]
                        watch_list.pop()
                        moved = True
                        break
                if moved:
                    continue
                # No new watch: clause is unit (clause[0]) or conflicting.
                if not self._assign(clause[0]):
                    return False
                j += 1
        return True

    def _backtrack(self) -> bool:
        """Undo to the most recent unflipped decision; flip it."""
        while self.decisions:
            trail_length, lit, flipped = self.decisions.pop()
            while len(self.trail) > trail_length:
                undone = self.trail.pop()
                self.value[abs(undone)] = _UNASSIGNED
            if flipped:
                continue
            self.decisions.append((trail_length, -lit, True))
            if self._assign(-lit) and self._propagate(len(self.trail) - 1):
                return True
            # Immediate conflict on the flip: continue unwinding.
        return False

    def solve(self) -> Optional[list[bool]]:
        """A satisfying assignment indexed by variable (index 0 unused), or None."""
        if self.trivially_unsat:
            return None
        position = len(self.trail)
        for lit in self._units:
            if not self._assign(lit):
                return None
        if not self._propagate(position):
            if not self._backtrack():
                return None
        while True:
            check_deadline()
            decision_var = next(
                (v for v in self.order if self.value[v] == _UNASSIGNED), None
            )
            if decision_var is None:
                return [False] + [self.value[v] == _TRUE for v in range(1, self.num_vars + 1)]
            lit = -decision_var  # negative polarity first: lean-minimal models
            self.decisions.append((len(self.trail), lit, False))
            if self._assign(lit) and self._propagate(len(self.trail) - 1):
                continue
            if not self._backtrack():
                return None


def solve(cnf: CNF, assumptions: Sequence[int] = ()) -> Optional[list[bool]]:
    """Solve ``cnf`` (with optional assumed literals); see :class:`Solver`."""
    return Solver(cnf, assumptions).solve()


def enumerate_models(
    cnf: CNF,
    project: Sequence[int],
    *,
    limit: int | None = None,
) -> Iterator[dict[int, bool]]:
    """All satisfying assignments *projected* onto the ``project`` variables.

    Models agreeing on ``project`` are yielded once.  Implemented by
    blocking clauses over the projection and re-solving — quadratic in the
    number of projected models, which is fine at reproduction scale.
    """
    working = cnf.copy()
    seen = 0
    while limit is None or seen < limit:
        check_deadline()
        model = solve(working)
        if model is None:
            return
        projection = {v: model[v] for v in project}
        yield projection
        seen += 1
        if not project:
            return
        working.add_clause([(-v if model[v] else v) for v in project])
