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

The well-founded model is also *relevant* in the other direction: an
atom's value depends only on the rule instances in its backward
dependency cone.  A live :class:`~repro.api.Engine` uses that across
streaming updates.  It keeps the end state of its last well-founded solve
per grounding mode, and the next solve runs the same cascade
(:func:`finish_well_founded`) on that state after
:meth:`~repro.ground.state.GroundGraphState.reopen`, which resets, in
place, only the forward cone of the atoms the updates touched.  The
solution's ``iterations`` then counts the unfounded rounds that solve
ran, inside the cone only, and its ``state`` is a finished snapshot
(:meth:`~repro.ground.state.GroundGraphState.snapshot`), so the next
reopen leaves it as it was.

>>> from repro.api import Engine
>>> engine = Engine("win(X) :- move(X, Y), not win(Y).", "move(1, 2). move(2, 3).")
>>> solution = engine.solve("well_founded")
>>> solution.is_total, sorted(t[0].value for t in solution.true_rows("win"))
(True, [2])
"""

from __future__ import annotations

from repro.ground.state import GroundGraphState

__all__ = ["finish_well_founded"]


def finish_well_founded(state: GroundGraphState) -> int:
    """Run Algorithm Well-Founded on ``state`` to its end; return the rounds.

    Afterwards ``state.interpretation()`` is the well-founded model (total
    iff ``is_total``); the state itself serves provenance queries
    (:func:`repro.ground.explain.explain`) and ``state.phase_s`` carries
    the kernel's per-phase solve accounting.  The loop is ``close`` and
    then the kernel's fused
    :meth:`~repro.ground.state.GroundGraphState.falsify_unfounded`
    cascade: each round reuses the source pointers maintained by
    ``close`` instead of re-deriving the whole live graph.  The return
    value counts the nonempty unfounded rounds *this* call ran, so a
    reopened state reports the rounds its cone needed.
    """
    state.close()
    return state.falsify_unfounded(numbered=True)

