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

from repro.datalog.grounding import GroundProgram
from repro.ground.state import GroundGraphState

__all__ = ["well_founded_state"]


def well_founded_state(ground_program: GroundProgram) -> tuple[GroundGraphState, int]:
    """Run the well-founded interpreter: the final state and its iterations.

    ``state.interpretation()`` is the well-founded model (total iff
    ``is_total``); the state itself serves provenance queries
    (:func:`repro.ground.explain.explain`) and ``state.phase_s`` carries
    the kernel's per-phase solve accounting.  ``iterations`` counts
    executions of the unfounded-set loop body.  The unfounded loop is the kernel's fused
    :meth:`~repro.ground.state.GroundGraphState.falsify_unfounded`
    cascade — each round reuses the source pointers maintained by
    ``close`` instead of re-deriving the whole live graph.
    """
    state = GroundGraphState(ground_program)
    state.close()
    iterations = state.falsify_unfounded(numbered=True)
    return state, iterations

