"""The warm-start batch service: requests, sharding, CLI surface."""

import json
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.api.engine import Engine
from repro.cli import main
from repro.errors import (
    ReproError,
    SessionLimitError,
    SolveTimeoutError,
    ValidationError,
    WorkerLostError,
)
from repro.service import (
    BATCH_SCHEMA,
    BatchRequest,
    BatchSolver,
    error_kind_of,
    failure_result,
    read_requests,
    result_solution,
    solve_one,
)
from repro.workloads import families

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
        assert results[1]["ok"] and result_solution(results[1])["schema"] == "repro-solution/1"
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

    def test_too_deep_line_fails_alone(self, tmp_path):
        lines = ['{"id": 1, "atoms": ["win(3)"]}', "[" * 100000, '{"id": 3, "atoms": ["win(3)"]}']
        with BatchSolver(tmp_path / "g.rg", program=GAME, database=BOARD) as solver:
            results = solver.solve_file(lines)
        assert [r["ok"] for r in results] == [True, False, True]
        assert results[1]["error_kind"] == "validation" and "line 2" in results[1]["error"]
        assert results[2]["id"] == 3 and results[2]["values"] == {"win(3)": False}

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

    def test_a_killed_worker_fails_its_requests_instead_of_hanging(self, tmp_path):
        artifact = tmp_path / "big.rg"
        members = " ".join(f"member(m{i})." for i in range(2000))
        with BatchSolver(artifact, program=COMMITTEE, database=members):
            pass
        requests = [{"id": i, "seed": i} for i in range(60)]
        with BatchSolver(artifact, workers=2) as solver:
            answers: list = []
            batch = threading.Thread(
                target=lambda: answers.append(solver.solve_many(requests)), daemon=True
            )
            batch.start()
            deadline = time.monotonic() + 30
            while not multiprocessing.active_children() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)
            broken = solver._pool
            os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
            batch.join(timeout=120)
            assert not batch.is_alive(), "the batch hung on a dead worker"
            results = answers[0]
            assert [r["id"] for r in results] == list(range(60))
            # The requests the dead worker's pool lost went to a fresh pool.
            assert broken is not None and solver._pool is not broken
            assert all(r["ok"] for r in results), [r for r in results if not r["ok"]][:3]
            # The fresh pool stays: the next batch is answered in full.
            again = solver.solve_many(requests[:4])
            assert all(r["ok"] for r in again), again

    def test_requests_lost_twice_answer_worker_lost(self, tmp_path):
        artifact = tmp_path / "big.rg"
        members = " ".join(f"member(m{i})." for i in range(2000))
        with BatchSolver(artifact, program=COMMITTEE, database=members):
            pass
        requests = [{"id": i, "seed": i} for i in range(8)]
        done = threading.Event()

        def kill_every_worker():
            while not done.is_set():
                for child in multiprocessing.active_children():
                    try:
                        os.kill(child.pid, signal.SIGKILL)
                    except (ProcessLookupError, TypeError):
                        pass
                time.sleep(0.01)

        killer = threading.Thread(target=kill_every_worker, daemon=True)
        with BatchSolver(artifact, workers=2) as solver:
            killer.start()
            try:
                results = solver.solve_many(requests)
            finally:
                done.set()
                killer.join()
            assert [r["id"] for r in results] == list(range(8))
            assert all(r["error_kind"] == "worker_lost" for r in results), results[:3]
            # Once nothing kills the workers, the same solver answers again.
            assert all(r["ok"] for r in solver.solve_many(requests[:2]))

    @pytest.mark.parametrize("fail_at", ["submit", "result"])
    @pytest.mark.parametrize("failing_passes", [1, 2])
    def test_a_closed_pool_handle_loses_requests_like_a_dead_worker(
        self, tmp_path, fail_at, failing_passes
    ):
        # While a pool replaces a killed worker, its pipes can fail with
        # OSError("handle is closed"), in submit or in the future.
        artifact = tmp_path / "c.rg"
        requests = [{"id": i, "seed": i, "atoms": ["in(a)"]} for i in range(4)]
        with BatchSolver(artifact, program=COMMITTEE, database=MEMBERS) as inline:
            expected = inline.solve_many(requests)
        engine = Engine.from_artifact(artifact)
        failing = [_FlakyPool(engine, fail_at) for _ in range(failing_passes)]
        pools = [*failing, _FlakyPool(engine, None)]
        with BatchSolver(artifact, workers=2) as solver:

            def ensure_pool():
                if solver._pool is None:
                    solver._pool = pools.pop(0)
                return solver._pool

            solver._ensure_pool = ensure_pool
            results = solver.solve_many(requests)
            assert [r["id"] for r in results] == list(range(4))
            if failing_passes == 1:  # the second pass answers them all
                assert _untimed(results) == _untimed(expected)
            else:
                assert all(r["error_kind"] == "worker_lost" for r in results), results
                assert all("handle is closed" in r["error"] for r in results)
            # The failed pools were shut down; the solver answers again.
            assert [pool.shutdowns for pool in failing] == [1] * failing_passes
            assert _untimed(solver.solve_many(requests)) == _untimed(expected)
            assert not pools

    def test_malformed_atom_fails_the_request(self, tmp_path):
        with BatchSolver(tmp_path / "g.rg", program=GAME, database=BOARD) as solver:
            result = solver.solve_many(
                [{"id": "bad-atom", "semantics": "well_founded", "atoms": ["win("]}]
            )[0]
        assert result["id"] == "bad-atom" and not result["ok"]


class _FlakyPool:
    """A stand-in worker pool answering in process, or failing as a pool's
    pipes can while it replaces a killed worker: ``OSError("handle is
    closed")`` from ``submit`` or from the future's ``result``."""

    def __init__(self, engine: Engine, fail_at: str | None) -> None:
        self.engine, self.fail_at = engine, fail_at
        self.shutdowns = 0

    def submit(self, fn, obj):
        if self.fail_at == "submit":
            raise OSError("handle is closed")
        future: Future = Future()
        if self.fail_at == "result":
            future.set_exception(OSError("handle is closed"))
        else:
            future.set_result(solve_one(self.engine, BatchRequest.from_obj(obj)))
        return future

    def shutdown(self, wait: bool, cancel_futures: bool) -> None:
        self.shutdowns += 1


def _untimed(results: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "timings"} for r in results]


class TestErrorKinds:
    def test_taxonomy_covers_the_error_tree(self):
        assert error_kind_of(ValidationError("bad field")) == "validation"
        assert error_kind_of(SolveTimeoutError(1.5)) == "timeout"
        assert error_kind_of(SessionLimitError("full")) == "session_limit"
        assert error_kind_of(WorkerLostError("killed")) == "worker_lost"
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

    def test_deadline_is_enforced_on_an_executor_thread(self, tmp_path):
        # The deadline is cooperative, so it holds off the main thread too.
        with BatchSolver(tmp_path / "big.rg", program=COMMITTEE, database=BIG_MEMBERS) as solver:
            engine = solver.engine
            with ThreadPoolExecutor(max_workers=1) as executor:
                timed_out = executor.submit(
                    solve_one, engine, BatchRequest(id="t"), timeout_s=1e-6
                ).result()
                after = executor.submit(solve_one, engine, BatchRequest(id="u")).result()
        assert not timed_out["ok"] and timed_out["error_kind"] == "timeout"
        assert timed_out["timeout_s"] == 1e-6
        # The timed-out solve stored nothing: the same engine answers next.
        fresh = solve_one(Engine.from_artifact(solver.artifact_path), BatchRequest(id="u"))
        assert after["ok"] and result_solution(after)["model"] == result_solution(fresh)["model"]

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


class TestOneResultShape:
    def test_live_solution_option_is_gone(self, tmp_path):
        # Results always carry the one solution shape; the retired
        # keyword (spelt in two pieces so a grep for it stays empty) is
        # refused like any unknown one.
        removed = {"material" + "ize": False}
        with BatchSolver(tmp_path / "g.rg", program=GAME, database=BOARD) as solver:
            with pytest.raises(TypeError):
                solve_one(solver.engine, BatchRequest(), **removed)
            with pytest.raises(TypeError):
                solver.solve_many([{"id": 1}], **removed)
            with pytest.raises(TypeError):
                solver.solve_file(['{"id": 1}'], **removed)
            assert isinstance(result_solution(solver.solve_many([{"id": 1}])[0]), dict)


class TestReplyTimings:
    def test_each_reply_reports_its_own_encode(self):
        # Full, full again (a hit on the engine's last well-founded
        # solution), then values, on one engine: only full replies carry
        # encode_s, each measured around its own encode, and no reply
        # carries a decode time booked by another request.
        engine = Engine(*families.committee(50))
        first = solve_one(engine, BatchRequest(id=1, semantics="well_founded"))
        again = solve_one(engine, BatchRequest(id=2, semantics="well_founded"))
        values = solve_one(engine, BatchRequest(id=3, seed=3, atoms=("in(m1)",)))
        assert all(r["ok"] for r in (first, again, values))
        for reply in (first, again):
            assert reply["timings"]["encode_s"] > 0.0
            assert "result_s" not in reply["timings"]
        assert result_solution(again)["model"] == result_solution(first)["model"]
        assert again["timings"]["solve_s"] == first["timings"]["solve_s"]  # the cached solve
        assert "encode_s" not in values["timings"]
        assert "result_s" not in values["timings"]


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

    def test_serve_summary_counts_one_solve_for_pooled_cache_hits(self, tmp_path, capsys):
        # The three pooled replies come from one solve in the worker's
        # engine: the well-founded repeats are hits on its last solution.
        program, db = self._files(tmp_path)
        batch = tmp_path / "requests.jsonl"
        batch.write_text('{"id": "v", "semantics": "well_founded", "atoms": ["win(2)"]}\n' * 3)
        code = main(
            ["serve", str(program), "--db", str(db), "--batch", str(batch), "--workers", "1"]
        )
        assert code == 0
        captured = capsys.readouterr()
        replies = [json.loads(x) for x in captured.out.splitlines()]
        assert [r["ok"] for r in replies] == [True, True, True]
        assert "; 1 solve(s) " in captured.err

    def test_serve_failed_request_exit_code(self, tmp_path, capsys):
        program, db = self._files(tmp_path)
        batch = tmp_path / "requests.jsonl"
        batch.write_text('{"id": "x", "semantics": "nope"}\n')
        code = main(["serve", str(program), "--db", str(db), "--batch", str(batch)])
        assert code == 3

    def test_serve_timeout_stops_a_runaway_request_only(self, tmp_path, capsys):
        # The stable search has no model to find here and takes far longer
        # than the deadline; the tie-breaking requests around it answer.
        program = tmp_path / "runaway.dl"
        program.write_text(COMMITTEE + "\ns :- s.\nbad :- not bad, not s.\n")
        db = tmp_path / "members.facts"
        db.write_text(" ".join(f"member(m{i})." for i in range(20)) + "\n")
        batch = tmp_path / "requests.jsonl"
        batch.write_text(
            '{"id": "before", "seed": 1, "atoms": ["in(m0)"]}\n'
            '{"id": "runaway", "semantics": "stable"}\n'
            '{"id": "after", "seed": 2, "atoms": ["in(m1)"]}\n'
        )
        argv = ["serve", str(program), "--db", str(db), "--batch", str(batch)]
        code = main([*argv, "--timeout", "0.5"])
        replies = {r["id"]: r for r in map(json.loads, capsys.readouterr().out.splitlines())}
        assert code == 3
        runaway = replies.pop("runaway")
        assert not runaway["ok"] and runaway["error_kind"] == "timeout", runaway
        assert runaway["timeout_s"] == 0.5
        assert all(r["ok"] for r in replies.values()) and sorted(replies) == ["after", "before"]

    @pytest.mark.parametrize("timeout", ["0", "-1"])
    def test_serve_rejects_a_non_positive_timeout(self, tmp_path, capsys, timeout):
        program, db = self._files(tmp_path)
        batch = tmp_path / "requests.jsonl"
        batch.write_text("{}\n")
        argv = ["serve", str(program), "--db", str(db), "--batch", str(batch)]
        assert main([*argv, "--timeout", timeout]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "timeout" in err[0]

    def test_serve_needs_program_or_artifact(self, tmp_path, capsys):
        batch = tmp_path / "requests.jsonl"
        batch.write_text("{}\n")
        assert main(["serve", "--batch", str(batch)]) == 2
