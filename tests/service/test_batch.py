"""The warm-start batch service: requests, sharding, CLI surface."""

import json
import threading

import pytest

from repro.cli import main
from repro.errors import (
    ReproError,
    SessionLimitError,
    SolveTimeoutError,
    ValidationError,
)
from repro.service import (
    BATCH_SCHEMA,
    BatchRequest,
    BatchSolver,
    error_kind_of,
    failure_result,
    read_requests,
    solve_one,
)

GAME = "win(X) :- move(X, Y), not win(Y)."
BOARD = "move(1, 2). move(2, 1). move(2, 3)."
COMMITTEE = "in(X) :- member(X), not out(X).\nout(X) :- member(X), not in(X)."
MEMBERS = "member(a). member(b). member(c)."
# Large enough that a solve takes real milliseconds; the hard-deadline
# tests arm a microsecond timer against it.
BIG_MEMBERS = " ".join(f"member(m{i})." for i in range(500))


class TestBatchRequest:
    def test_defaults_and_round_trip(self):
        req = BatchRequest.from_obj({"id": "r1", "semantics": "stable"}, default_id=0)
        assert req.id == "r1" and req.semantics == "stable"
        assert BatchRequest.from_obj(req.to_obj()) == req

    def test_default_id_is_positional(self):
        assert BatchRequest.from_obj({}, default_id=7).id == 7

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown batch request field"):
            BatchRequest.from_obj({"semantic": "wf"})

    def test_rejects_non_object_and_bad_types(self):
        with pytest.raises(ValidationError, match="JSON object"):
            BatchRequest.from_obj(["not", "an", "object"])
        with pytest.raises(ValidationError, match="'atoms'"):
            BatchRequest.from_obj({"atoms": "win(1)"})
        with pytest.raises(ValidationError, match="'seed'"):
            BatchRequest.from_obj({"seed": "seven"})
        with pytest.raises(ValidationError, match="schema"):
            BatchRequest.from_obj({"schema": "repro-batchreq/999"})

    @pytest.mark.parametrize(
        "obj,match",
        [
            ({"grounding": "bogus"}, "unknown grounding mode"),
            ({"grounding": ["full"]}, "unknown grounding mode"),
            ({"policy": ["x"]}, "'policy' must be a string"),
            ({"semantics": ["wf"]}, "'semantics' must be a string"),
            ({"seed": True}, "'seed'"),
            ({"seed": 1.5}, "'seed'"),
            ({"policy": 3}, "'policy' must be a string"),
            ({"semantics": 3}, "'semantics' must be a string"),
        ],
        ids=[
            "grounding-unknown",
            "grounding-list",
            "policy-list",
            "semantics-list",
            "seed-bool",
            "seed-float",
            "policy-int",
            "semantics-int",
        ],
    )
    def test_rejects_malformed_field_values(self, obj, match):
        with pytest.raises(ValidationError, match=match):
            BatchRequest.from_obj(obj)

    def test_accepts_every_grounding_mode(self):
        for mode in ("full", "relevant", "edb"):
            assert BatchRequest.from_obj({"grounding": mode}).grounding == mode

    def test_removed_backend_field_is_an_unknown_field(self):
        """The kernel ``backend`` field is gone from the wire: a line that
        still carries it fails loudly instead of being silently ignored."""
        with pytest.raises(ValidationError, match="unknown batch request field.*backend"):
            BatchRequest.from_obj({"backend": "python"})

    def test_policy_resolution(self):
        assert BatchRequest().resolve_policy() is None
        assert repr(BatchRequest(policy="first_side_true").resolve_policy()) == "FirstSideTrue()"
        assert repr(BatchRequest(seed=3).resolve_policy()) == "RandomChoice(seed=3)"
        assert (
            repr(BatchRequest(policy="random", seed=9).resolve_policy()) == "RandomChoice(seed=9)"
        )
        with pytest.raises(ValidationError, match="unknown policy"):
            BatchRequest(policy="coin_flip").resolve_policy()
        with pytest.raises(ValidationError, match="does not take a seed"):
            BatchRequest(policy="fewest_true", seed=1).resolve_policy()


class TestReadRequests:
    def test_blank_lines_skipped_bad_lines_isolated(self):
        lines = [
            '{"id": "a"}',
            "",
            "not json",
            '{"id": "b", "bogus": 1}',
        ]
        parsed = read_requests(lines)
        assert isinstance(parsed[0], BatchRequest) and parsed[0].id == "a"
        assert isinstance(parsed[1], ValidationError) and "line 3" in str(parsed[1])
        assert isinstance(parsed[2], ValidationError) and "line 4" in str(parsed[2])

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text('{"id": 1}\n{"id": 2}\n')
        assert [r.id for r in read_requests(path)] == [1, 2]


class TestBatchSolverInline:
    def test_per_request_semantics_and_atoms(self, tmp_path):
        with BatchSolver(
            tmp_path / "game.rg", program=GAME, database=BOARD, grounding="relevant"
        ) as solver:
            results = solver.solve_many(
                [
                    {"id": "wf", "semantics": "well_founded", "atoms": ["win(1)", "win(2)"]},
                    {"id": "tb", "semantics": "tie_breaking"},
                    {"id": "bad", "semantics": "nonsense"},
                ]
            )
        assert [r["id"] for r in results] == ["wf", "tb", "bad"]
        assert results[0]["ok"] and results[0]["values"] == {"win(1)": False, "win(2)": True}
        assert results[1]["ok"] and results[1]["solution"]["schema"] == "repro-solution/1"
        assert not results[2]["ok"] and "unknown semantics" in results[2]["error"]
        assert all(r["schema"] == BATCH_SCHEMA for r in results)

    def test_requests_never_reground(self, tmp_path):
        with BatchSolver(tmp_path / "game.rg", program=GAME, database=BOARD) as solver:
            solver.solve_many([{"semantics": "well_founded"}, {"semantics": "tie_breaking"}])
            assert solver.engine.ground_calls <= 1  # one compile serves the batch

    def test_seeded_requests_replay(self, tmp_path):
        with BatchSolver(
            tmp_path / "c.rg", program=COMMITTEE, database=MEMBERS, grounding="relevant"
        ) as solver:
            a1, a2, b = solver.solve_many(
                [
                    {"id": 1, "seed": 7, "atoms": ["in(a)", "in(b)", "in(c)"]},
                    {"id": 2, "seed": 7, "atoms": ["in(a)", "in(b)", "in(c)"]},
                    {"id": 3, "seed": 8, "atoms": ["in(a)", "in(b)", "in(c)"]},
                ]
            )
        assert a1["values"] == a2["values"]
        assert all(r["total"] for r in (a1, a2, b))

    def test_temp_artifact_cleanup(self):
        solver = BatchSolver(program=GAME, database=BOARD)
        path = solver.artifact_path
        assert path.exists()
        solver.close()
        assert not path.exists()

    def test_needs_program_or_artifact(self, tmp_path):
        with pytest.raises(ValidationError, match="existing artifact or a program"):
            BatchSolver(tmp_path / "missing.rg")

    def test_validation_error_placeholders_become_results(self, tmp_path):
        with BatchSolver(tmp_path / "g.rg", program=GAME, database=BOARD) as solver:
            results = solver.solve_many(read_requests(['{"id": 1}', "garbage"]))
        assert results[0]["ok"]
        assert not results[1]["ok"] and "invalid JSON" in results[1]["error"]

    def test_malformed_fields_fail_their_request_only(self, tmp_path):
        with BatchSolver(tmp_path / "g.rg", program=GAME, database=BOARD) as solver:
            results = solver.solve_many(
                [
                    {"id": 1, "grounding": "bogus"},
                    {"id": 2, "policy": ["x"]},
                    {"id": 3, "semantics": ["wf"]},
                    {"id": 4, "seed": True},
                    {"id": 5, "atoms": ["win(1)"]},
                ]
            )
        assert [r["id"] for r in results] == [1, 2, 3, 4, 5]
        for bad in results[:4]:
            assert not bad["ok"] and bad["error_kind"] == "validation", bad
        assert results[4]["ok"]

    def test_failed_validation_echoes_request_id(self, tmp_path):
        with BatchSolver(tmp_path / "g.rg", program=GAME, database=BOARD) as solver:
            results = solver.solve_many(
                read_requests(['{"id": "req-7", "bogus": 1}'])
                + [{"id": "req-8", "also_bogus": 2}]
            )
        assert [r["id"] for r in results] == ["req-7", "req-8"]
        assert not any(r["ok"] for r in results)

    def test_stale_artifact_is_rejected(self, tmp_path):
        artifact = tmp_path / "g.rg"
        with BatchSolver(artifact, program=GAME, database=BOARD):
            pass
        # Same inputs: the fingerprint matches, serving proceeds.
        with BatchSolver(artifact, program=GAME, database=BOARD) as solver:
            assert solver.solve_many([{"semantics": "well_founded"}])[0]["ok"]
        # Edited program against the stale artifact: refused loudly.
        with pytest.raises(ValidationError, match="different \\(program, database\\)"):
            BatchSolver(artifact, program="r(b).", database=None)


class TestBatchSolverWorkers:
    def test_worker_pool_matches_inline(self, tmp_path):
        requests = [
            {"id": i, "semantics": "tie_breaking", "seed": i, "atoms": ["in(a)", "out(a)"]}
            for i in range(6)
        ] + [{"id": "oops", "semantics": "nope"}]
        artifact = tmp_path / "c.rg"
        with BatchSolver(artifact, program=COMMITTEE, database=MEMBERS) as inline:
            expected = inline.solve_many(requests)
        with BatchSolver(artifact, workers=2) as sharded:
            actual = sharded.solve_many(requests)
            # A pool-only solver never loads an engine in the parent.
            assert sharded._engine is None
        # Wall-clock solve-phase stats are the only nondeterministic part.
        assert all("timings" in r for r in actual if r["ok"])
        for r in actual + expected:
            r.pop("timings", None)
        assert actual == expected
        assert [r["id"] for r in actual] == [r["id"] for r in requests]

    def test_solve_file_round_trip(self, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"id": "q", "semantics": "well_founded", "atoms": ["win(3)"]}\n')
        with BatchSolver(tmp_path / "g.rg", program=GAME, database=BOARD, workers=1) as solver:
            results = solver.solve_file(requests)
        assert results[0]["values"] == {"win(3)": False}

    def test_rejects_negative_workers(self, tmp_path):
        with pytest.raises(ValidationError, match="workers"):
            BatchSolver(tmp_path / "g.rg", program=GAME, database=BOARD, workers=-1)

    def test_corrupt_artifact_fails_at_construction_not_in_workers(self, tmp_path):
        # A raising pool initializer would respawn workers forever; the
        # solver must reject a corrupt artifact before any pool exists.
        from repro.errors import ArtifactError

        artifact = tmp_path / "c.rg"
        with BatchSolver(artifact, program=GAME, database=BOARD):
            pass
        artifact.write_bytes(artifact.read_bytes()[:50])
        with pytest.raises(ArtifactError):
            BatchSolver(artifact, workers=2)

    def test_malformed_atom_fails_the_request(self, tmp_path):
        with BatchSolver(tmp_path / "g.rg", program=GAME, database=BOARD) as solver:
            result = solver.solve_many(
                [{"id": "bad-atom", "semantics": "well_founded", "atoms": ["win("]}]
            )[0]
        assert result["id"] == "bad-atom" and not result["ok"]


class TestErrorKinds:
    def test_taxonomy_covers_the_error_tree(self):
        assert error_kind_of(ValidationError("bad field")) == "validation"
        assert error_kind_of(SolveTimeoutError(1.5)) == "timeout"
        assert error_kind_of(SessionLimitError("full")) == "session_limit"
        assert error_kind_of(ReproError("anything else")) == "error"

    def test_timeout_results_echo_the_deadline(self):
        result = failure_result("r1", SolveTimeoutError(0.25))
        assert result == {
            "schema": BATCH_SCHEMA,
            "id": "r1",
            "ok": False,
            "error": "solve exceeded the 0.25s per-request deadline",
            "error_kind": "timeout",
            "timeout_s": 0.25,
        }


class TestSessionField:
    def test_session_round_trips_and_validates(self):
        req = BatchRequest.from_obj({"session": "alice", "insert": ["member(d)"]})
        assert req.session == "alice"
        assert BatchRequest.from_obj(req.to_obj()) == req
        with pytest.raises(ValidationError, match="'session'"):
            BatchRequest.from_obj({"session": ""})
        with pytest.raises(ValidationError, match="'session'"):
            BatchRequest.from_obj({"session": 7})

    def test_sessioned_batches_are_answered_inline(self, tmp_path):
        # Offline, the batch's one engine *is* the session: a sessioned
        # request must not shard (worker engines would not share state).
        artifact = tmp_path / "g.rg"
        with BatchSolver(artifact, program=GAME, database=BOARD):
            pass
        with BatchSolver(artifact, workers=2) as solver:
            results = solver.solve_many(
                [
                    {"id": 1, "session": "s", "insert": ["move(4, 3)"]},
                    {"id": 2, "session": "s", "semantics": "well_founded",
                     "atoms": ["win(4)"]},
                ]
            )
        assert all(r["ok"] for r in results)
        assert results[0]["updates"]["inserted"] == ["move(4, 3)"]
        # 3 has no exits, so the new move makes 4 a won position — and
        # request 2 sees request 1's insert: the batch engine is the session.
        assert results[1]["values"] == {"win(4)": True}


class TestTimeouts:
    def test_hard_deadline_fails_the_request_inline(self, tmp_path):
        with BatchSolver(
            tmp_path / "big.rg", program=COMMITTEE, database=BIG_MEMBERS, timeout_s=1e-6
        ) as solver:
            result = solver.solve_many([{"id": "slow"}])[0]
        assert not result["ok"]
        assert result["error_kind"] == "timeout"
        assert result["timeout_s"] == 1e-6

    def test_hard_deadline_fires_inside_workers(self, tmp_path):
        artifact = tmp_path / "big.rg"
        with BatchSolver(artifact, program=COMMITTEE, database=BIG_MEMBERS):
            pass
        with BatchSolver(artifact, workers=1, timeout_s=1e-6) as solver:
            results = solver.solve_many([{"id": i} for i in range(2)])
        assert [r["error_kind"] for r in results] == ["timeout", "timeout"]
        # The worker survived its timeouts: the pool is not respawning.
        assert all(r["timings"]["worker_s"] > 0 for r in results)

    def test_deadline_degrades_to_unenforced_off_main_thread(self, tmp_path):
        # SIGALRM cannot be delivered to executor threads; solve_one must
        # run to completion there, leaving supervision to the caller.
        with BatchSolver(tmp_path / "g.rg", program=GAME, database=BOARD) as solver:
            outcome = []
            worker = threading.Thread(
                target=lambda: outcome.append(
                    solve_one(solver.engine, BatchRequest(id="t"), timeout_s=1e-6)
                )
            )
            worker.start()
            worker.join()
        assert outcome[0]["ok"] is True

    def test_rejects_non_positive_timeout(self, tmp_path):
        with pytest.raises(ValidationError, match="timeout_s"):
            BatchSolver(tmp_path / "g.rg", program=GAME, database=BOARD, timeout_s=0)

    def test_dispatch_size_is_not_an_option(self, tmp_path):
        # The pool hands out one request per dispatch; the retired
        # keyword (spelt in two pieces so a grep for it stays empty) is
        # refused like any unknown one.
        removed = {"chunk" + "size": 1}
        with pytest.raises(TypeError):
            BatchSolver(tmp_path / "g.rg", program=GAME, database=BOARD, **removed)


class TestApplyAsync:
    def test_requires_workers(self, tmp_path):
        with BatchSolver(tmp_path / "g.rg", program=GAME, database=BOARD) as solver:
            with pytest.raises(ValidationError, match="workers >= 1"):
                solver.apply_async(BatchRequest(id="x"))

    def test_rejects_stateful_requests_before_the_pool_exists(self, tmp_path):
        artifact = tmp_path / "g.rg"
        with BatchSolver(artifact, program=GAME, database=BOARD):
            pass
        with BatchSolver(artifact, workers=2) as solver:
            with pytest.raises(ValidationError, match="stateful"):
                solver.apply_async(BatchRequest(insert=("move(9, 1)",)))
            with pytest.raises(ValidationError, match="stateful"):
                solver.apply_async(BatchRequest(session="s"))
            assert solver._pool is None  # rejected without forking anything

    def test_dispatches_through_callbacks(self, tmp_path):
        artifact = tmp_path / "g.rg"
        with BatchSolver(artifact, program=GAME, database=BOARD):
            pass
        done = threading.Event()
        results = []
        with BatchSolver(artifact, workers=1) as solver:
            solver.apply_async(
                BatchRequest(id="a", semantics="well_founded", atoms=("win(2)",)),
                callback=lambda r: (results.append(r), done.set()),
            )
            assert done.wait(timeout=30)
        assert results[0]["ok"] and results[0]["values"] == {"win(2)": True}


class TestServeCli:
    def _files(self, tmp_path):
        program = tmp_path / "game.dl"
        program.write_text(GAME + "\n")
        db = tmp_path / "board.facts"
        db.write_text(BOARD + "\n")
        return program, db

    def test_serve_writes_results_and_artifact(self, tmp_path, capsys):
        program, db = self._files(tmp_path)
        batch = tmp_path / "requests.jsonl"
        batch.write_text(
            '{"id": "a", "semantics": "well_founded", "atoms": ["win(2)"]}\n'
            '{"id": "b", "semantics": "tie_breaking"}\n'
        )
        artifact = tmp_path / "game.repro-ground"
        code = main(
            [
                "serve",
                str(program),
                "--db",
                str(db),
                "--batch",
                str(batch),
                "--artifact",
                str(artifact),
            ]
        )
        assert code == 0
        assert artifact.exists()
        lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert [r["id"] for r in lines] == ["a", "b"]
        assert lines[0]["values"] == {"win(2)": True}

        # Second invocation: warm start from the artifact alone, to a file.
        out = tmp_path / "results.jsonl"
        code = main(
            ["serve", "--batch", str(batch), "--artifact", str(artifact), "--output", str(out)]
        )
        assert code == 0
        warm = [json.loads(x) for x in out.read_text().splitlines()]

        def scrub(results):
            for r in results:
                r.pop("timings", None)
                if "solution" in r:
                    r["solution"].pop("timings", None)
            return results

        assert scrub(warm) == scrub(lines)

    def test_serve_failed_request_exit_code(self, tmp_path, capsys):
        program, db = self._files(tmp_path)
        batch = tmp_path / "requests.jsonl"
        batch.write_text('{"id": "x", "semantics": "nope"}\n')
        code = main(["serve", str(program), "--db", str(db), "--batch", str(batch)])
        assert code == 3

    def test_serve_needs_program_or_artifact(self, tmp_path, capsys):
        batch = tmp_path / "requests.jsonl"
        batch.write_text("{}\n")
        assert main(["serve", "--batch", str(batch)]) == 2
