"""E17 — ablation: modular (split) vs monolithic well-founded evaluation.

The well-founded semantics splits along the program-graph condensation;
this bench quantifies what splitting buys on a layered workload.  Expected
(and honestly reported) shape at reproduction scale: the *relevant*
grounder already confines each rule to its own layer's facts, so the
monolithic evaluation is not paying for cross-layer products and the
modular pass mostly adds per-component grounding overhead — the split is
an organizational win (provenance, incremental re-evaluation of single
components), not a raw-speed one, until layers grow much larger.
"""

import pytest

from repro.api import Engine
from repro.workloads.families import layered_games


@pytest.mark.bench
@pytest.mark.parametrize("layers", [4, 8, 16])
def test_monolithic_layered(benchmark, layers):
    program, db = layered_games(layers, 10)

    result = benchmark(
        lambda: Engine(program, db).solve("well_founded", grounding="relevant")
    )
    assert result.is_total
    benchmark.extra_info["implementation"] = "monolithic"
    benchmark.extra_info["layers"] = layers


@pytest.mark.bench
@pytest.mark.parametrize("layers", [4, 8, 16])
def test_modular_layered(benchmark, layers):
    program, db = layered_games(layers, 10)
    monolithic = Engine(program, db).solve("well_founded", grounding="relevant")

    result = benchmark(
        lambda: Engine(program, db).solve("modular", grounding="relevant")
    )
    # differential check while timing
    assert result.is_total == monolithic.is_total
    for atom in monolithic.model.true_atoms():
        assert result.value(atom) is True
    benchmark.extra_info["implementation"] = "modular"
    benchmark.extra_info["components"] = result.iterations
