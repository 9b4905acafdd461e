"""Engine facade tests: compile-once caching, batching, uniform results."""

import pytest

import repro.api.engine as engine_module
from repro.api import Engine, Solution, available_semantics, solve
from repro.datalog.atoms import Atom
from repro.datalog.grounding import GroundIndex, ground
from repro.datalog.terms import Constant
from repro.datalog.parser import parse_database, parse_program
from repro.errors import SemanticsError
from repro.workloads import families

WIN_MOVE = "win(X) :- move(X, Y), not win(Y)."
DRAW_DB = "move(1, 2). move(2, 1)."


class TestGroundOnce:
    """Regression: N solves + M queries trigger exactly one grounding."""

    def test_single_ground_and_compile_across_solves_and_queries(self, monkeypatch):
        ground_calls = []
        index_builds = []

        real_ground = engine_module.ground

        def counting_ground(*args, **kwargs):
            ground_calls.append(kwargs.get("mode"))
            return real_ground(*args, **kwargs)

        real_index_build = GroundIndex._build

        def counting_index_build(self, *args, **kwargs):
            index_builds.append(id(self))
            real_index_build(self, *args, **kwargs)

        monkeypatch.setattr(engine_module, "ground", counting_ground)
        monkeypatch.setattr(GroundIndex, "_build", counting_index_build)

        engine = Engine(WIN_MOVE, DRAW_DB, grounding="relevant")
        for _ in range(4):  # N solves ...
            engine.solve("well_founded")
            engine.solve("tie_breaking")
        for _ in range(3):  # ... + M batched queries
            engine.query_many(["win(1)", "win(2)"], semantics="tie_breaking")
            engine.query("win", semantics="well_founded")

        assert ground_calls == ["relevant"]
        assert len(index_builds) == 1
        assert engine.ground_calls == 1
        assert engine.index_builds == 1

    def test_modes_ground_independently_but_once_each(self):
        engine = Engine(WIN_MOVE, DRAW_DB)
        engine.solve("well_founded")      # relevant (spec default)
        engine.solve("pure_tie_breaking")  # full (spec default)
        engine.solve("fitting")            # full, cached
        engine.solve("completion")         # full, cached
        assert engine.ground_calls == 2
        assert engine.stats()["cached_modes"] == ["full", "relevant"]

    def test_shared_index_object_identity(self):
        engine = Engine(WIN_MOVE, DRAW_DB, grounding="full")
        first = engine.ground_for("full").index
        engine.solve("tie_breaking")
        engine.solve("fitting")
        assert engine.ground_for("full").index is first

    def test_pinned_ground_program_is_never_reground(self):
        program = parse_program(WIN_MOVE)
        database = parse_database(DRAW_DB)
        gp = ground(program, database, mode="full")
        engine = Engine(program, database, ground_program=gp)
        engine.solve("well_founded")
        engine.solve("pure_tie_breaking")
        assert engine.ground_calls == 0
        assert engine.ground_for("relevant") is gp  # pinned wins


class TestSolve:
    def test_every_registered_semantics_returns_a_solution(self):
        # Stratified program: every registered semantics is defined on it
        # and they all agree that t(1) is true.
        engine = Engine("t(X) :- e(X), not f(X).", "e(1).")
        target = Atom("t", (Constant(1),))
        for name in available_semantics():
            solution = engine.solve(name)
            assert isinstance(solution, Solution)
            assert solution.semantics == name
            assert solution.found and solution.total
            assert solution.value(target) is True

    def test_draw_cycle_semantics_ladder(self):
        engine = Engine(WIN_MOVE, DRAW_DB, grounding="full")
        assert not engine.solve("fitting").total
        assert not engine.solve("well_founded").total
        assert engine.solve("tie_breaking").total
        assert engine.solve("stable").found

    def test_solution_timings_and_grounding_metadata(self):
        engine = Engine(WIN_MOVE, DRAW_DB)
        solution = engine.solve("well_founded")
        assert solution.grounding == "relevant"
        for key in ("parse_s", "ground_s", "compile_s", "solve_s"):
            assert solution.timings[key] >= 0.0

    @pytest.mark.parametrize(
        "semantics,generator",
        [("tie_breaking", families.committee), ("well_founded", families.unfounded_tower)],
        ids=["tie_breaking", "well_founded"],
    )
    def test_kernel_phases_stay_inside_the_solve(self, semantics, generator):
        # The kernel's per-phase breakdown is non-overlapping, so it sums
        # to at most the solve; the solution is id-native, so no decode
        # (result_s) is booked until an atom view is read.
        engine = Engine(*generator(20), grounding="relevant")
        timings = engine.solve(semantics).timings
        phases = ("close_s", "unfounded_s", "tie_select_s", "tie_apply_s", "tie_analysis_s")
        assert all(timings[key] >= 0.0 for key in phases)
        assert sum(timings[key] for key in phases) <= timings["solve_s"] + 1e-6
        assert timings.get("result_s", 0.0) == 0.0
        assert (timings["tie_select_s"] > 0.0) == (semantics == "tie_breaking")

    def test_unknown_semantics_lists_available(self):
        engine = Engine(WIN_MOVE)
        with pytest.raises(SemanticsError, match="well_founded"):
            engine.solve("nope")

    def test_unknown_option_rejected(self):
        engine = Engine(WIN_MOVE)
        with pytest.raises(SemanticsError, match="does not accept"):
            engine.solve("well_founded", policy=object())

    def test_aliases_resolve_to_canonical_name(self):
        engine = Engine(WIN_MOVE, DRAW_DB)
        assert engine.solve("wf").semantics == "well_founded"
        assert engine.solve("wf-tb").semantics == "tie_breaking"
        assert engine.solve("fixpoints").semantics == "completion"

    def test_not_found_solution(self):
        solution = Engine("p :- not p.").solve("completion")
        assert not solution.found and not solution.total
        assert not solution.true_atoms and solution.false_atoms is None

    def test_tie_solution_records_policy_and_choices(self):
        from repro.semantics.choices import RandomChoice

        engine = Engine(WIN_MOVE, DRAW_DB)
        solution = engine.solve("tie_breaking", policy=RandomChoice(7))
        assert solution.policy == "RandomChoice(seed=7)"
        assert solution.free_choice_count == 1
        assert [choice.forced for choice in solution.choices] == [False]

    def test_enumerate_deterministic_semantics_yields_single_solution(self):
        engine = Engine(WIN_MOVE, DRAW_DB)
        solutions = list(engine.enumerate("well_founded"))
        assert len(solutions) == 1

    def test_enumerate_stable_models(self):
        engine = Engine("in(X) :- e(X), not out(X). out(X) :- e(X), not in(X).", "e(a). e(b).")
        models = {frozenset(map(str, s.true_atoms)) for s in engine.enumerate("stable")}
        assert len(models) == 4
        limited = list(engine.enumerate("stable", limit=2))
        assert len(limited) == 2

    # Models of the draw game: two fixpoints, two stable models, two tie
    # orientations per tie-breaking variant, one well-founded model.
    DRAW_MODELS = {
        "completion": 2,
        "stable": 2,
        "tie_breaking": 2,
        "pure_tie_breaking": 2,
        "well_founded": 1,
    }

    @pytest.mark.parametrize("limit", [0, 1, None, -1])
    @pytest.mark.parametrize("semantics", sorted(DRAW_MODELS))
    def test_enumerate_limit_is_uniform(self, semantics, limit):
        engine = Engine(WIN_MOVE, DRAW_DB)
        expected = self.DRAW_MODELS[semantics]
        if limit is not None:
            expected = min(expected, max(limit, 0))
        assert len(list(engine.enumerate(semantics, limit=limit))) == expected


class TestModularSemantics:
    """``modular`` is the well-founded model, Δ's facts included."""

    @pytest.mark.parametrize(
        "family, args",
        [
            ("win_move_line", (6,)),
            ("win_move_cycle", (4,)),
            ("unfounded_tower", (3,)),
            ("tie_chain", (3,)),
            ("negation_tower", (4,)),
            ("layered_games", (2, 3)),
            ("committee", (3,)),
            ("grounded_argumentation", (30,)),
        ],
        ids=lambda value: value if isinstance(value, str) else "-".join(map(str, value)),
    )
    def test_modular_equals_well_founded(self, family, args):
        engine = Engine(*getattr(families, family)(*args))
        modular = engine.solve("modular")
        well_founded = engine.solve("well_founded")
        assert modular.true_atoms == well_founded.true_atoms
        assert modular.undefined_atoms == well_founded.undefined_atoms
        facts = list(engine.database.atoms())
        assert engine.query_many(facts, semantics="modular") == dict.fromkeys(facts, True)

    def test_query_many_of_a_fact_is_true(self):
        engine = Engine(WIN_MOVE, "move(1, 2). move(2, 3).")
        fact = Atom("move", (Constant(1), Constant(2)))
        for semantics in ("modular", "well_founded"):
            assert engine.query_many(["move(1, 2)"], semantics=semantics) == {fact: True}


class TestGroundingSafety:
    """Engine-level defaults must not silently change semantics results."""

    def test_engine_default_does_not_override_pure_tie_breaking(self):
        # Pure tie-breaking may assign unfounded atoms true; relevant
        # grounding would prune them and change the outcome.
        engine = Engine("p :- p, not q. q :- q, not p.", grounding="relevant")
        solution = engine.solve("pure_tie_breaking")
        assert solution.grounding == "full"
        assert {str(a) for a in solution.true_atoms} == {"p"}

    def test_engine_default_does_not_override_completion(self):
        engine = Engine("p :- p.", grounding="relevant")
        models = [sorted(map(str, s.true_atoms)) for s in engine.enumerate("completion")]
        assert sorted(models) == [[], ["p"]]

    def test_explicit_grounding_still_wins_on_locked_specs(self):
        engine = Engine("p :- p, not q. q :- q, not p.", grounding="relevant")
        solution = engine.solve("pure_tie_breaking", grounding="relevant")
        assert solution.grounding == "relevant"

    def test_cached_grounding_refuses_smaller_max_instances(self):
        from repro.errors import GroundingError

        engine = Engine(WIN_MOVE, "move(1, 2). move(2, 3).")
        engine.solve("well_founded")  # grounds uncapped
        with pytest.raises(GroundingError, match="max_instances"):
            engine.ground_for("relevant", max_instances=1)

    def test_satisfied_cap_served_from_cache(self):
        engine = Engine(WIN_MOVE, "move(1, 2).")
        gp = engine.ground_for("relevant")
        assert engine.ground_for("relevant", max_instances=10_000) is gp


class TestSolutionCache:
    """Repeated solves (and the helpers on top) reuse the first computation."""

    def test_repeated_solve_is_cached(self):
        engine = Engine(WIN_MOVE, DRAW_DB)
        first = engine.solve("well_founded")
        assert engine.solve("well_founded") is first
        assert engine.stats()["solution_cache_hits"] == 1

    def test_queries_and_explain_share_one_solve(self):
        engine = Engine(WIN_MOVE, DRAW_DB)
        engine.query("win", semantics="tie_breaking")
        engine.query_many(["win(1)"], semantics="tie_breaking")
        engine.explain("win(1)", semantics="tie_breaking")
        engine.explain("win(2)", semantics="tie_breaking")
        assert engine.stats()["cached_solutions"] == 1
        assert engine.stats()["solution_cache_hits"] == 3

    def test_distinct_options_get_distinct_entries(self):
        from repro.semantics.choices import RandomChoice

        engine = Engine(WIN_MOVE, DRAW_DB)
        a = engine.solve("tie_breaking", policy=RandomChoice(1))
        b = engine.solve("tie_breaking", policy=RandomChoice(2))
        assert a is not b
        # Same self-describing policy spec -> cache hit.
        assert engine.solve("tie_breaking", policy=RandomChoice(1)) is a

    def test_identity_repr_options_are_not_cached(self):
        class OpaquePolicy:
            def choose_true_side(self, side0, side1):
                return 0

        engine = Engine(WIN_MOVE, DRAW_DB)
        a = engine.solve("tie_breaking", policy=OpaquePolicy())
        b = engine.solve("tie_breaking", policy=OpaquePolicy())
        assert a is not b
        assert engine.stats()["solution_cache_hits"] == 0


class TestOptionStrictness:
    def test_solve_rejects_limit(self):
        with pytest.raises(SemanticsError, match="limit"):
            Engine(WIN_MOVE).solve("well_founded", limit=5)

    def test_enumerate_limit_zero_yields_nothing_even_without_enumerator(self):
        assert list(Engine(WIN_MOVE, DRAW_DB).enumerate("well_founded", limit=0)) == []


class TestQueries:
    def test_query_many_shares_one_solve_per_call_site(self):
        engine = Engine(WIN_MOVE, "move(1, 2). move(2, 3).")
        values = engine.query_many(["win(1)", "win(2)", "win(3)"])
        assert [values[a] for a in sorted(values, key=str)] == [False, True, False]
        assert engine.ground_calls == 1

    def test_query_rows(self):
        engine = Engine(WIN_MOVE, "move(1, 2). move(2, 3).")
        result = engine.query("win")
        assert result.holds(1) is False and result.holds(2) is True
        assert result.total

    def test_query_unknown_predicate(self):
        with pytest.raises(SemanticsError, match="unknown predicate"):
            Engine(WIN_MOVE).query("nothere")


class TestAnalysisSurface:
    def test_analyze(self):
        classification, report = Engine(WIN_MOVE).analyze()
        assert not classification.is_structurally_total
        assert not report.structurally_total

    def test_witness_search(self):
        witness = Engine(WIN_MOVE).witness_search(max_constants=1)
        assert witness is not None

    def test_explain(self):
        tree = Engine(WIN_MOVE, DRAW_DB).explain("win(1)")
        assert str(tree.atom) == "win(1)"

    def test_from_files(self, tmp_path):
        prog = tmp_path / "p.dl"
        prog.write_text(WIN_MOVE)
        db = tmp_path / "d.dl"
        db.write_text(DRAW_DB)
        engine = Engine.from_files(prog, db)
        assert engine.solve("tie_breaking").total


class TestRemovedBackendOption:
    """The kernel ``backend`` option is gone from every entry point; a
    caller that still passes it fails loudly instead of being ignored."""

    def test_constructor_rejects_backend(self):
        with pytest.raises(TypeError, match="backend"):
            Engine(WIN_MOVE, DRAW_DB, backend="python")

    def test_from_artifact_rejects_backend(self, tmp_path):
        path = tmp_path / "game.repro-ground"
        Engine(WIN_MOVE, DRAW_DB).save_artifact(path)
        with pytest.raises(TypeError, match="backend"):
            Engine.from_artifact(path, backend="python")

    @pytest.mark.parametrize("semantics", ["well_founded", "tie_breaking", "pure_tie_breaking"])
    def test_solve_rejects_backend_option(self, semantics):
        engine = Engine(WIN_MOVE, DRAW_DB)
        with pytest.raises(SemanticsError, match="does not accept option.*backend"):
            engine.solve(semantics, backend="python")

    def test_stats_have_no_backend_entry(self):
        assert "backend" not in Engine(WIN_MOVE, DRAW_DB).stats()


class TestModuleLevelHelpers:
    def test_solve_helper(self):
        assert solve("tie_breaking", WIN_MOVE, DRAW_DB).total

    def test_solution_json_roundtrip(self):
        import json

        solution = solve("tie_breaking", WIN_MOVE, DRAW_DB)
        payload = json.loads(solution.to_json())
        assert payload["schema"] == "repro-solution/1"
        assert payload["semantics"] == "tie_breaking"
        assert payload["total"] is True
        assert payload["ties"]["free_choices"] == 1
        assert payload["counts"]["true"] == len(payload["model"]["true"])
