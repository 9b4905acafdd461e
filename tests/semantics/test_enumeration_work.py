"""The tie-breaking enumerator redoes only the ties a leaf re-orients.

The enumerator branches over a round's free ties depth first, one state
copy per free tie.  The state is closed before each copy, so a leaf that
re-orients a tie starts from that tie's copy and redoes the ``close`` of
that tie and the ties after it in the round, never the ``close`` of the
whole round.  On committee(n) the first round is n free ties with
disjoint cones, and orienting one of them removes the same number of
rules whichever side it takes; a depth-first search over the n binary
choices orients ``2 ** (n + 1) - 2`` ties in all.  So the rules the
whole enumeration removes are exactly that many ties' worth.  Were each
leaf to redo its whole round, it would remove n ties' worth per leaf.
"""

from __future__ import annotations

import pytest

from repro.api.engine import Engine
from repro.ground.state import GroundGraphState
from repro.semantics.choices import FirstSideTrue
from repro.semantics.tie_breaking import _run
from repro.workloads import families


def _counting_removals(monkeypatch) -> list[int]:
    removals = [0]
    remove = GroundGraphState._remove_rule

    def counted(state, r_index):
        removals[0] += 1
        return remove(state, r_index)

    monkeypatch.setattr(GroundGraphState, "_remove_rule", counted)
    return removals


@pytest.mark.parametrize(
    "semantics,well_founded", [("tie_breaking", True), ("pure_tie_breaking", False)]
)
def test_committee_enumeration_removes_each_oriented_ties_rules_once(
    semantics, well_founded, monkeypatch
):
    n = 12
    engine = Engine(*families.committee(n))
    grounding = "relevant" if well_founded else "full"
    state = engine._tie_state(engine.ground_for(grounding), well_founded)  # the checkpoint
    removals = _counting_removals(monkeypatch)
    choices = _run(state, FirstSideTrue(), well_founded=well_founded)
    assert len(choices) == n and not any(choice.forced for choice in choices)
    assert removals[0] % n == 0
    per_tie = removals[0] // n
    assert per_tie > 0

    removals[0] = 0
    sequences = sum(1 for _ in engine.enumerate(semantics, grounding=grounding))
    assert sequences == 2**n
    assert removals[0] == per_tie * (2 ** (n + 1) - 2)
