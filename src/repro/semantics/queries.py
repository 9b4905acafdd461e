"""Query results: one predicate's rows under a chosen semantics.

:meth:`repro.api.Engine.query` returns a :class:`QueryResult`.  To ground
and evaluate only a predicate's support cone, restrict the program first
(a sound cut — see :func:`repro.analysis.dependencies.relevant_subprogram`):

>>> from repro.analysis.dependencies import relevant_subprogram
>>> from repro.api import Engine
>>> from repro.datalog.parser import parse_program
>>> prog = parse_program("win(X) :- move(X, Y), not win(Y). junk :- not junk.")
>>> result = Engine(relevant_subprogram(prog, ["win"]), "move(1, 2).").query("win")
>>> result.holds(1), result.total
(True, True)
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QueryResult"]


@dataclass(frozen=True)
class QueryResult:
    """Rows of one queried predicate, three-valued.

    ``true_rows`` / ``undefined_rows`` are sets of constant-value tuples;
    everything else over the universe is false (closed world).
    """

    predicate: str
    true_rows: frozenset[tuple]
    undefined_rows: frozenset[tuple]
    total: bool

    def holds(self, *values) -> bool:
        """True iff the row is true (undefined rows do not hold)."""
        return tuple(values) in self.true_rows

    def __len__(self) -> int:
        return len(self.true_rows)
