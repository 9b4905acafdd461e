"""A solve deadline that expires at any kernel round leaves the engine reusable.

The per-request deadline is cooperative: :func:`repro.errors.solve_deadline`
arms it and the kernel calls :func:`repro.errors.check_deadline` once per
interpreter round, unfounded round, DPLL decision and enumerated model.
Here the clock is replaced by one that expires exactly at the k-th check,
with k drawn by hypothesis over every check the operation makes, so the
raise lands at each kind of round boundary in turn.  After the raise, the
same engine's next solve (or enumeration) must equal a fresh engine's:
nothing a timed-out solve touched may be stored.
"""

from __future__ import annotations

import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.api.engine import Engine
from repro.errors import SolveTimeoutError, solve_deadline
from repro.semantics.choices import RandomChoice
from repro.workloads import families

from tests.properties.test_delta_index import _candidates, _trace

TIE_FAMILIES = [
    ("committee", lambda: families.committee(5)),
    ("tie_chain", lambda: families.tie_chain(5)),
    ("win_move_cycle", lambda: families.win_move_cycle(8)),
    ("grounded_argumentation", lambda: families.grounded_argumentation(13)),
    ("adversarial_scc", lambda: families.adversarial_scc(8)),
]

UPDATE_FAMILIES = [
    ("win_move_line", lambda: families.win_move_line(7)),
    ("win_move_cycle", lambda: families.win_move_cycle(8)),
    ("committee", lambda: families.committee(6)),
    ("grounded_argumentation", lambda: families.grounded_argumentation(17)),
]


class _Clock:
    """A monotonic clock for :mod:`repro.errors`: call 1 arms a deadline of
    1.0 at time 0.0; check k (call k + 1) is the first past it."""

    def __init__(self, expire_at: int | None) -> None:
        self.expire_at = expire_at
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        if self.expire_at is not None and self.calls > self.expire_at:
            return 2.0
        return 0.0


def _count_checks(operation, engine: Engine) -> int:
    """The number of deadline checks ``operation(engine)`` makes."""
    clock = _Clock(None)
    with patch.object(errors, "monotonic", clock), solve_deadline(1.0):
        operation(engine)
    return clock.calls - 1


def _interrupt(operation, engine: Engine, k: int) -> None:
    """Run ``operation(engine)`` with the deadline expiring at check k."""
    with patch.object(errors, "monotonic", _Clock(k)), solve_deadline(1.0):
        with pytest.raises(SolveTimeoutError):
            operation(engine)


def _summary(solution) -> tuple:
    """A solution in atoms, not ids, so engines with other id histories
    compare equal."""
    choices = solution.choices or ()
    return (
        solution.semantics,
        solution.found,
        solution.total,
        sorted(map(str, solution.true_atoms)),
        sorted(map(str, solution.undefined_atoms)),
        [
            (sorted(map(str, c.made_true)), sorted(map(str, c.made_false)), c.forced)
            for c in choices
        ],
    )


def _runs(solutions) -> list[tuple]:
    return [_summary(s) for s in solutions]


@settings(max_examples=40, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(TIE_FAMILIES) - 1),
    semantics=st.sampled_from(["tie_breaking", "pure_tie_breaking"]),
    seed=st.integers(min_value=0, max_value=1000),
    warm=st.booleans(),
    data=st.data(),
)
def test_tie_breaking_solve_after_a_deadline_equals_a_fresh_engines(
    case, semantics, seed, warm, data
):
    """``warm`` builds the checkpoint first, so the raise lands in the
    interpreter's rounds; otherwise it may land in the checkpoint build."""
    name, build = TIE_FAMILIES[case]

    def make() -> Engine:
        engine = Engine(*build())
        if warm:
            engine.solve(semantics, policy=RandomChoice(seed + 1))
        return engine

    def operation(engine: Engine):
        return engine.solve(semantics, policy=RandomChoice(seed))

    k = data.draw(st.integers(1, _count_checks(operation, make())), label="k")
    engine = make()
    _interrupt(operation, engine, k)
    assert _summary(operation(engine)) == _summary(operation(Engine(*build()))), name
    # The tie table is the only cache of tie-breaking solves.
    assert engine.stats()["cached_solutions"] == 0


@settings(max_examples=40, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(UPDATE_FAMILIES) - 1),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_well_founded_solve_after_updates_and_a_deadline_equals_a_fresh_engines(
    case, seed, steps, data
):
    """The raise lands in the reopened state's unfounded rounds; the engine
    has taken the base out to reopen it in place, so the aborted solve
    drops it: the next solve starts fresh, and the one after the next
    update patches again."""
    name, build = UPDATE_FAMILIES[case]
    program, database = build()
    rng = random.Random(seed)
    updates = list(_trace(database, _candidates(program, database, rng, 1), rng, steps))

    def make() -> Engine:
        engine = Engine(*build())
        engine.solve("well_founded")
        for inserted, retracted in updates:
            engine.retract_facts(*retracted)
            engine.insert_facts(*inserted)
        return engine

    def operation(engine: Engine):
        return engine.solve("well_founded")

    k = data.draw(st.integers(1, _count_checks(operation, make())), label="k")
    engine = make()
    _interrupt(operation, engine, k)
    assert "relevant" not in engine._wf_bases, f"{name}: the aborted solve kept its base"
    patches = engine.wf_patches
    fresh = Engine(engine.program, engine.database.copy())
    assert _summary(operation(engine)) == _summary(operation(fresh)), name
    assert engine.wf_patches == patches, f"{name}: the solve after the abort patched"
    # And once more: the solve that succeeded became the next base.
    calls, rebuilds = engine.update_calls, engine.delta_rebuilds
    engine.insert_facts(*updates[0][1])
    engine.retract_facts(*updates[0][0])
    fresh = Engine(engine.program, engine.database.copy())
    assert _summary(operation(engine)) == _summary(operation(fresh)), name
    patched = engine.update_calls > calls and engine.delta_rebuilds == rebuilds
    assert engine.wf_patches == patches + patched, f"{name}: the next update did not patch"


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    semantics=st.sampled_from(["stable", "completion"]),
    data=st.data(),
)
def test_stable_solve_after_a_deadline_equals_a_fresh_engines(n, semantics, data):
    """The raise lands on a DPLL decision or between enumerated models."""

    def operation(engine: Engine):
        return engine.solve(semantics)

    k = data.draw(st.integers(1, _count_checks(operation, Engine(*families.committee(n)))))
    engine = Engine(*families.committee(n))
    _interrupt(operation, engine, k)
    fresh = Engine(*families.committee(n))
    assert _summary(operation(engine)) == _summary(operation(fresh))


@settings(max_examples=30, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=2),
    semantics=st.sampled_from(["tie_breaking", "pure_tie_breaking", "stable"]),
    data=st.data(),
)
def test_enumeration_after_a_deadline_equals_a_fresh_engines(case, semantics, data):
    """The raise lands on an enumerator round or leaf; the engine's next
    enumeration and solve equal a fresh engine's."""
    build = [
        lambda: families.committee(3),
        lambda: families.tie_chain(4),
        lambda: families.grounded_argumentation(7),
    ][case]

    def operation(engine: Engine):
        return list(engine.enumerate(semantics))

    k = data.draw(st.integers(1, _count_checks(operation, Engine(*build()))), label="k")
    engine = Engine(*build())
    _interrupt(operation, engine, k)
    fresh = Engine(*build())
    assert _runs(operation(engine)) == _runs(operation(fresh))
    assert _summary(engine.solve(semantics)) == _summary(fresh.solve(semantics))

