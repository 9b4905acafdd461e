"""The well-founded semantics — Algorithm Well-Founded of §2.

The interpreter alternates ``close(M, G)`` with falsifying the greatest
unfounded set ``Atoms[close(M, G+)]`` until the unfounded set is empty.
The result is the (unique) well-founded partial model; when it is total it
is a fixpoint and in fact the unique stable model [VRS].

Runs in polynomial time: each iteration falsifies at least one atom, and
each iteration is linear in the ground graph.  Relevant grounding (the
registry default) is exact for this semantics: atoms outside the
upper-bound model form an unfounded set and are false in the well-founded
model either way (property-tested against ``'full'``).

>>> from repro.api import Engine
>>> engine = Engine("win(X) :- move(X, Y), not win(Y).", "move(1, 2). move(2, 3).")
>>> solution = engine.solve("well_founded")
>>> solution.is_total, sorted(t[0].value for t in solution.true_rows("win"))
(True, [2])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.datalog.database import Database
from repro.datalog.grounding import GroundingMode, GroundProgram, ground
from repro.datalog.program import Program
from repro.ground.model import Interpretation
from repro.ground.state import GroundGraphState

__all__ = ["well_founded_state", "WellFoundedRun"]


@dataclass(frozen=True)
class WellFoundedRun:
    """A completed well-founded computation.

    ``iterations`` counts executions of the unfounded-set loop body; the
    model is total iff ``model.is_total``.  ``state`` retains the final
    evaluation state for provenance queries
    (:func:`repro.ground.explain.explain`); ``timings`` carries the
    kernel's per-phase solve accounting (``close_s`` / ``unfounded_s`` /
    ``tie_select_s`` / ``tie_apply_s`` / ``tie_analysis_s`` — the tie
    phases are zero here).
    """

    model: Interpretation
    iterations: int
    state: GroundGraphState | None = None
    timings: Mapping[str, float] | None = field(default=None, compare=False)

    @property
    def is_total(self) -> bool:
        """True iff every materialized atom received a value."""
        return self.model.is_total


def well_founded_state(ground_program: GroundProgram) -> tuple[GroundGraphState, int]:
    """Run the well-founded interpreter, returning the live state.

    Exposed separately so callers that need the final evaluation state
    (provenance, tie-breaking continuations) can share one computation.
    The unfounded loop is the kernel's fused
    :meth:`~repro.ground.state.GroundGraphState.falsify_unfounded`
    cascade — each round reuses the source pointers maintained by
    ``close`` instead of re-deriving the whole live graph.
    """
    state = GroundGraphState(ground_program)
    state.close()
    iterations = state.falsify_unfounded(numbered=True)
    return state, iterations


def _well_founded_model(
    program: Program,
    database: Database | None = None,
    *,
    grounding: GroundingMode = "relevant",
    ground_program: GroundProgram | None = None,
) -> WellFoundedRun:
    """Implementation behind the ``well_founded`` registry entry."""
    gp = ground_program or ground(program, database or Database(), mode=grounding)
    state, iterations = well_founded_state(gp)
    return WellFoundedRun(state.interpretation(), iterations, state, dict(state.phase_s))
