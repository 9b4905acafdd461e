"""Tests of the benchmark itself: tiny runs, corrupted answers, rescaling."""

from __future__ import annotations

import math

import pytest

from perfbench import workloads
from perfbench.checks import GroundFixpoint, Oracle, check_tie_breaking_model, check_values
from perfbench.drift import REF_NOMINAL_S, Yardstick, percentile
from perfbench.harness import run
from perfbench.spans import NullTracer
from repro.api import Engine
from repro.io.json_io import solution_to_obj
from repro.workloads import families

TINY_TEXT = (
    ("win_move_line", (20,)),
    ("grounded_argumentation", (16,)),
    ("committee", (10,)),
    ("negation_tower", (10,)),
)

TINY = {
    "cold_text": lambda cache: workloads.ColdText(5, cache, sizes=TINY_TEXT),
    "warm_serve": lambda cache: workloads.WarmServe(5, cache, n=40, lap_requests=8),
    "live_updates": lambda cache: workloads.LiveUpdates(5, cache, n=40, steps=4),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_has_no_failures(name, trace):
    cache: dict = {}
    outcome = run(lambda: TINY[name](cache), seconds=0, trace=trace, import_s=0.0)
    assert outcome.errors == []
    assert outcome.failed == 0 and outcome.attempted > 0
    assert all(v > 0 for v in outcome.end_to_end.values())
    if trace:
        assert outcome.per_layer["latency.samples"] > 0
        assert "residual_ms" in outcome.per_layer
        assert "trace.overhead_pct" in outcome.per_layer


def test_corrupted_encoding_counts_as_failed(monkeypatch):
    encode = workloads.solution_to_jsonl_chunks

    def corrupted(solution):
        # Report one true atom as false: counts still add up, the model lies.
        text = "".join(encode(solution))
        return text.replace('"true": ["', '"true": ["x', 1)

    monkeypatch.setattr(workloads, "solution_to_jsonl_chunks", corrupted)
    workload = TINY["cold_text"]({})
    workload.setup(Yardstick(REF_NOMINAL_S))
    lap = workload.lap(0, NullTracer(), Yardstick(REF_NOMINAL_S))
    assert lap.latencies and all(math.isinf(x) for x in lap.latencies)
    assert len(lap.errors) == len(lap.latencies)


def test_corrupted_served_answers_are_caught():
    engine = Engine(*families.grounded_argumentation(40))
    gp = engine.ground_for("relevant")
    oracle = Oracle(gp)
    decided = next(a for a, v in oracle.values.items() if v is True)
    assert check_values({decided: True}, oracle) is None
    assert check_values({decided: False}, oracle) is not None
    assert check_values({decided: None}, oracle) is not None

    doc = solution_to_obj(engine.solve("tie_breaking"))
    assert check_tie_breaking_model(doc, oracle) is None
    assert GroundFixpoint(gp).error(doc["model"]["true"]) is None
    doc["model"]["true"].remove(decided)
    doc["model"]["false"].append(decided)
    assert check_tie_breaking_model(doc, oracle) is not None
    assert GroundFixpoint(gp).error(doc["model"]["true"]) is not None


def test_corrupted_update_answers_are_caught():
    workload = TINY["live_updates"]({})
    workload.setup(Yardstick(REF_NOMINAL_S))
    fact, atoms = workload.steps[0]
    engine = workload.engine
    engine.insert_facts(fact)
    inserted = engine.solve("well_founded")
    answers = engine.query_many(atoms)
    engine.retract_facts(fact)
    restored = engine.solve("well_founded")
    assert workload._check(0, fact, atoms, inserted, answers, restored) is None
    flipped = dict(answers)
    flipped[atoms[0]] = not flipped[atoms[0]]
    assert workload._check(0, fact, atoms, inserted, flipped, restored) is not None
    # The restored model checked against the inserted state's oracle.
    assert workload._check(0, fact, atoms, restored, answers, restored) is not None


def test_rescaling_is_identity_at_the_nominal_reference_time():
    assert Yardstick(REF_NOMINAL_S).close(REF_NOMINAL_S) == 1.0
    assert Yardstick(0.5 * REF_NOMINAL_S).close(1.5 * REF_NOMINAL_S) == 1.0
    assert Yardstick(2 * REF_NOMINAL_S).close(2 * REF_NOMINAL_S) == 0.5


def test_percentile_is_a_window_mean_that_keeps_failures_visible():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.5) == sum(range(46, 56)) / 10
    assert percentile(values, 0.9) == sum(range(86, 96)) / 10
    assert percentile(values[:98] + [math.inf] * 2, 0.5) == percentile(values, 0.5)
    assert percentile(values[:90] + [math.inf] * 10, 0.9) == math.inf
