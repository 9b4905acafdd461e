"""Engine facade tests: compile-once caching, batching, uniform results."""

import pytest

import repro.api.engine as engine_module
from repro.api import Engine, Solution, available_semantics, get_spec, solve
from repro.datalog.atoms import Atom
from repro.datalog.grounding import GroundIndex, ground
from repro.datalog.terms import Constant, Variable
from repro.datalog.parser import parse_database, parse_program
from repro.errors import SemanticsError, ValidationError
from repro.workloads import families

WIN_MOVE = "win(X) :- move(X, Y), not win(Y)."
DRAW_DB = "move(1, 2). move(2, 1)."
# Stratified (so every registry semantics, stratified and perfect
# included, has an answer) with a relevant grounding smaller than full.
STRATIFIED = "t(X) :- e(X), not f(X). f(X) :- g(X). r(X) :- r(X)."
STRATIFIED_DB = "e(1). e(2). g(2)."


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

    def test_engine_default_does_not_override_pure_tb(self):
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

    @pytest.mark.parametrize("pinned", [None, "relevant", "full"])
    @pytest.mark.parametrize("semantics", available_semantics())
    def test_solution_reports_the_grounding_it_ran_on(self, semantics, pinned):
        program = parse_program(STRATIFIED)
        database = parse_database(STRATIFIED_DB)
        gp = ground(program, database, mode=pinned) if pinned else None
        engine = Engine(program, database, ground_program=gp)
        if semantics == "fitting" and pinned == "relevant":
            with pytest.raises(SemanticsError, match="full grounding"):
                engine.solve(semantics)
            return
        solution = engine.solve(semantics)
        expected = pinned or get_spec(semantics).default_grounding
        assert solution.grounding == expected
        assert solution.model.ground_program.mode == expected
        if pinned is not None:
            assert engine.ground_calls == 0

    def test_unknown_grounding_mode_is_rejected(self):
        gp = ground(parse_program(WIN_MOVE), parse_database(DRAW_DB), mode="relevant")
        unpinned = Engine(WIN_MOVE, DRAW_DB)
        pinned = Engine(WIN_MOVE, DRAW_DB, ground_program=gp)
        allowed = "allowed: full, relevant, edb"
        for engine in (unpinned, pinned):
            with pytest.raises(SemanticsError, match=allowed):
                engine.solve("well_founded", grounding="bogus")
            with pytest.raises(SemanticsError, match=allowed):
                list(engine.enumerate("tie_breaking", grounding="bogus"))
        with pytest.raises(SemanticsError, match=allowed):
            Engine(WIN_MOVE, DRAW_DB, grounding="bogus")
        with pytest.raises(ValueError, match="unknown grounding mode"):
            ground(parse_program(WIN_MOVE), parse_database(DRAW_DB), mode="bogus")

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


class TestTieCheckpoint:
    """Tie-breaking solves share one prefix checkpoint per engine state."""

    def test_many_seeds_build_one_checkpoint(self):
        from repro.semantics.choices import RandomChoice

        engine = Engine(*families.grounded_argumentation(40))
        assert engine.stats()["checkpoint_builds"] == 0
        for seed in range(10):
            engine.solve("tie_breaking", policy=RandomChoice(seed))
        stats = engine.stats()
        assert stats["checkpoint_builds"] == 1
        assert stats["cached_solutions"] == 10
        assert engine.timings["checkpoint_s"] > 0
        assert "checkpoint_s" in stats

    def test_enumeration_shares_the_checkpoint_with_solve(self):
        engine = Engine(*families.committee(6))
        runs = list(engine.enumerate("tie_breaking"))
        assert len(runs) == 2**6
        assert engine.stats()["checkpoint_builds"] == 1
        solution = engine.solve("tie_breaking")
        assert engine.stats()["checkpoint_builds"] == 1
        assert solution.true_atoms in {run.true_atoms for run in runs}
        assert len(list(engine.enumerate("tie_breaking", limit=3))) == 3
        assert engine.stats()["checkpoint_builds"] == 1

    @pytest.mark.parametrize("semantics", ["tie_breaking", "pure_tie_breaking"])
    def test_enumeration_after_updates_equals_a_fresh_engines(self, semantics):
        engine = Engine(*families.grounded_argumentation(13))

        def runs(e):
            # Atom ids differ after updates; compare decoded trails.
            return [
                (s.true_atoms, [(c.made_true, c.made_false, c.forced) for c in s.choices])
                for s in e.enumerate(semantics)
            ]

        runs(engine)
        engine.insert_facts("attacks(0, 12)", "attacks(12, 3)")
        engine.retract_facts("attacks(0, 12)")
        fresh = Engine(engine.program, engine.database.copy())
        assert runs(engine) == runs(fresh)
        assert engine.stats()["checkpoint_builds"] == 2

    def test_an_update_drops_the_checkpoint(self):
        engine = Engine(*families.grounded_argumentation(40))
        engine.solve("tie_breaking")
        engine.insert_facts("attacks(0, 39)")
        engine.solve("tie_breaking")
        assert engine.stats()["checkpoint_builds"] == 2

    def test_well_founded_solves_build_none(self):
        engine = Engine(*families.grounded_argumentation(40))
        engine.solve("well_founded")
        engine.solve("well_founded", grounding="full")
        assert engine.stats()["checkpoint_builds"] == 0
        assert "checkpoint_s" not in engine.timings

    def test_first_solve_books_the_build_inside_solve_s(self):
        engine = Engine(*families.grounded_argumentation(40))
        first = engine.solve("tie_breaking")
        assert first.timings["solve_s"] >= engine.timings["checkpoint_s"]


class TestWellFoundedPatch:
    """A well_founded solve after an update reopens the last end state."""

    # Retracting e(2) kills b(2)'s only support: the fresh solve over the
    # new database still runs the a(1)/b(1) unfounded round; the patched
    # solve re-solves the cone of e(2) only, which needs none.
    CONE = "a(X) :- b(X), e(X). b(X) :- a(X). c(X) :- e(X), not a(X)."
    CONE_DB = "e(1). e(2). k(2)."

    def test_solves_after_updates_are_patches(self):
        engine = Engine(*families.grounded_argumentation(40))
        engine.solve("well_founded")
        assert engine.stats()["wf_patches"] == 0
        engine.insert_facts("attacks(0, 39)")
        engine.retract_facts("attacks(0, 39)")
        engine.solve("well_founded")
        engine.solve("well_founded")  # a cache hit, not a patch
        assert engine.stats()["wf_patches"] == 1

    def test_iterations_count_the_rounds_of_this_solve(self):
        engine = Engine(self.CONE, self.CONE_DB, grounding="full")
        assert engine.solve("well_founded").iterations == 1
        engine.retract_facts("e(2)")
        patched = engine.solve("well_founded")
        fresh = Engine(self.CONE, engine.database.copy(), grounding="full").solve("well_founded")
        assert (patched.iterations, fresh.iterations) == (0, 1)
        assert patched.true_atoms == fresh.true_atoms
        assert patched.undefined_atoms == fresh.undefined_atoms
        assert engine.wf_patches == 1

    def test_a_solution_keeps_its_model_after_a_patch(self):
        engine = Engine(WIN_MOVE, "move(1, 2). move(2, 3).")
        before = engine.solve("well_founded")
        engine.insert_facts("move(3, 1)")
        after = engine.solve("well_founded")
        assert {str(a) for a in before.true_atoms} == {"move(1, 2)", "move(2, 3)", "win(2)"}
        assert {str(a) for a in after.undefined_atoms} == {"win(1)", "win(2)", "win(3)"}
        assert after.state is not before.state

    def test_a_snapshot_does_not_read_facts_inserted_after_it(self):
        """Regression: an atom id created by a later update was answered
        from the live database, against the snapshot's own partitions."""
        from repro.datalog.parser import parse_atom

        engine = Engine(WIN_MOVE, "move(1, 2). move(2, 1). move(2, 3). move(3, 4).")
        old = engine.solve("well_founded")
        engine.insert_facts("move(4, 1)")
        atom = parse_atom("move(4, 1)")
        assert old.value(atom) is False
        assert atom not in old.true_atoms
        assert engine.solve("well_founded").value(atom) is True


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


def _model(engine: Engine) -> tuple[frozenset, frozenset]:
    solution = engine.solve("well_founded")
    return (
        frozenset(str(a) for a in solution.true_atoms),
        frozenset(str(a) for a in solution.undefined_atoms),
    )


class TestRejectedUpdates:
    """A rejected update raises and leaves the engine exactly as it was."""

    GAME_DB = "move(1, 2). move(2, 1). move(2, 3)."

    def test_arity_clash_applies_no_fact(self):
        engine = Engine(WIN_MOVE, self.GAME_DB)
        before = engine.database.copy()
        _model(engine)  # cache a solution the rejected update must not strand
        with pytest.raises(ValidationError, match="inconsistent arity"):
            engine.insert_facts("move(3, 1)", "move(1)")
        assert engine.database == before
        assert engine.update_calls == 0
        assert _model(engine) == _model(Engine(engine.program, engine.database.copy()))
        # The engine still streams the valid half on its own.
        assert engine.insert_facts("move(3, 1)") == [Atom("move", (Constant(3), Constant(1)))]
        assert _model(engine) == _model(Engine(engine.program, engine.database.copy()))

    def test_non_ground_fact_applies_no_fact(self):
        engine = Engine(WIN_MOVE, self.GAME_DB)
        before = engine.database.copy()
        with pytest.raises(ValidationError, match="non-ground"):
            engine.insert_facts("move(3, 1)", Atom("move", (Constant(3), Variable("X"))))
        assert engine.database == before

    @pytest.mark.parametrize("mode", ["relevant", "full"])
    @pytest.mark.parametrize(
        "op,fact",
        [("insert_facts", "move(3, 4)"), ("retract_facts", "move(2, 3)")],
        ids=["new-constant", "last-occurrence"],
    )
    def test_pinned_out_of_envelope_rolls_back(self, mode, op, fact):
        program, database = parse_program(WIN_MOVE), parse_database(self.GAME_DB)
        gp = ground(program, database, mode=mode)
        engine = Engine(program, database.copy(), ground_program=gp)
        before = engine.database.copy()
        _model(engine)
        with pytest.raises(SemanticsError, match="incremental envelope"):
            getattr(engine, op)(fact)
        assert engine.database == before
        assert gp.database == before
        assert engine.update_calls == 0
        assert _model(engine) == _model(Engine(engine.program, engine.database.copy()))
        # The refcounts were rolled back too: an in-envelope update still
        # streams and matches a fresh engine.
        assert engine.insert_facts("move(3, 1)")
        assert engine.delta_applied == 1
        assert _model(engine) == _model(Engine(engine.program, engine.database.copy()))
        assert engine.retract_facts("move(2, 1)")
        assert _model(engine) == _model(Engine(engine.program, engine.database.copy()))


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
