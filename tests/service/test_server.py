"""The asyncio serving tier: admission, sessions, timeouts, drain."""

import asyncio
import io
import json
import os
import signal
import socket
import threading
import time

import pytest

import repro.service.server as server_module
from repro import Engine
from repro.cli import main
from repro.service import ReproServer, run_server, solve_one
from repro.service.batch import BatchRequest

GAME = "win(X) :- move(X, Y), not win(Y)."
BOARD = "move(1, 2). move(2, 1). move(2, 3)."
COMMITTEE = "in(X) :- member(X), not out(X).\nout(X) :- member(X), not in(X)."
MEMBERS = "member(a). member(b). member(c)."
# A committee big enough that one tie-breaking solve takes ~100ms+; the
# timeout tests arm a sub-millisecond deadline against it.
BIG_MEMBERS = " ".join(f"member(m{i})." for i in range(2000))
# Every fixpoint keeps the self-supported ``s`` true (without it ``bad``
# would have to equal its own negation), so no fixpoint is stable: a
# ``stable`` solve checks all 2^20 committee fixpoints before it answers
# "none".  Tie-breaking answers at once (``s`` is unfounded, ``bad``
# stays undefined).
RUNAWAY = COMMITTEE + "\ns :- s.\nbad :- not bad, not s."
RUNAWAY_MEMBERS = " ".join(f"member(m{i})." for i in range(20))

PROBE = ["in(a)", "in(b)", "in(c)"]


@pytest.fixture
def artifact(tmp_path):
    path = tmp_path / "committee.repro-ground"
    Engine(COMMITTEE, MEMBERS).save_artifact(path)
    return path


async def send_requests(address, requests):
    """One JSONL client connection: send all lines, read all responses."""
    reader, writer = await asyncio.open_connection(*address)
    for obj in requests:
        writer.write((json.dumps(obj) + "\n").encode())
    await writer.drain()
    responses = []
    for _ in requests:
        line = await asyncio.wait_for(reader.readline(), timeout=30)
        responses.append(json.loads(line))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass
    return responses


class TestConcurrentServing:
    def test_concurrent_clients_match_inline_oracle(self, artifact):
        """8 connections x 4 seeded requests, answers keyed back by id."""
        oracle_engine = Engine.from_artifact(artifact)
        expected = {
            seed: solve_one(oracle_engine, BatchRequest(seed=seed, atoms=tuple(PROBE)))["values"]
            for seed in range(4)
        }

        async def main():
            async with ReproServer(artifact) as server:
                batches = [
                    [
                        {"id": f"c{client}-r{i}", "seed": i % 4, "atoms": PROBE}
                        for i in range(4)
                    ]
                    for client in range(8)
                ]
                return await asyncio.gather(
                    *(send_requests(server.address, batch) for batch in batches)
                )

        for batch in asyncio.run(main()):
            for response in batch:
                assert response["ok"], response
                seed = int(response["id"].rsplit("r", 1)[1]) % 4
                assert response["values"] == expected[seed]
                # Every admitted result documents the pressure it saw.
                assert response["timings"]["queue_wait_s"] >= 0
                assert response["timings"]["queue_depth"] >= 1
                assert response["server"]["max_pending"] == 256

    def test_invalid_json_line_fails_that_line_only(self, artifact):
        async def main():
            async with ReproServer(artifact) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(b"this is not json\n")
                writer.write(json.dumps({"id": "ok", "atoms": PROBE}).encode() + b"\n")
                await writer.drain()
                responses = [
                    json.loads(await asyncio.wait_for(reader.readline(), timeout=30))
                    for _ in range(2)
                ]
                writer.close()
                return responses

        responses = {r["id"]: r for r in asyncio.run(main())}
        assert not responses[None]["ok"]
        assert responses[None]["error_kind"] == "validation"
        assert responses["ok"]["ok"]

    def test_undecodable_and_too_deep_lines_get_validation_replies(self, artifact):
        """A line that is not UTF-8 and one nested past the recursion
        limit are each answered and counted; the connection keeps serving."""
        bad = [b'\xff\xfe{"id": 1}', b"[" * 100000]

        async def main():
            async with ReproServer(artifact) as server:
                direct = [await server.handle_line(line) for line in bad]
                failed = server.stats()["failed"]
                reader, writer = await asyncio.open_connection(*server.address)
                for line in bad:
                    writer.write(line + b"\n")
                writer.write(json.dumps({"id": "ok", "atoms": PROBE}).encode() + b"\n")
                await writer.drain()
                over_socket = [
                    json.loads(await asyncio.wait_for(reader.readline(), timeout=30))
                    for _ in range(3)
                ]
                writer.close()
                return direct, failed, over_socket

        direct, failed, over_socket = asyncio.run(main())
        for response in direct:
            assert not response["ok"] and response["error_kind"] == "validation", response
        assert failed == 2
        answered = [r for r in over_socket if r["id"] == "ok"]
        rejected = [r for r in over_socket if r["id"] is None]
        assert len(answered) == 1 and answered[0]["ok"]
        assert len(rejected) == 2
        assert all(r["error_kind"] == "validation" for r in rejected), rejected

    def test_malformed_fields_fail_that_line_only(self, artifact):
        """Malformed field values and the removed ``backend`` field are
        answered with a validation error; the connection keeps serving."""
        bad = [
            {"id": 1, "grounding": "bogus"},
            {"id": 2, "policy": ["x"]},
            {"id": 3, "semantics": ["wf"]},
            {"id": 4, "backend": "python"},
        ]

        async def main():
            async with ReproServer(artifact) as server:
                return await send_requests(server.address, bad + [{"id": "ok", "atoms": PROBE}])

        responses = {r["id"]: r for r in asyncio.run(main())}
        for request in bad:
            response = responses[request["id"]]
            assert not response["ok"], response
            assert response["error_kind"] == "validation", response
        assert responses["ok"]["ok"]


class TestAdmissionControl:
    def test_overload_sheds_with_structured_result(self, artifact):
        """max_pending=1 and 4 simultaneous requests: 1 answered, 3 shed.

        ``handle_line``'s admission check runs before its first await, so
        once the first request is in flight the rest shed synchronously —
        the count is deterministic, not a race.
        """

        async def main():
            async with ReproServer(artifact, max_pending=1) as server:
                line = json.dumps({"id": "x", "atoms": PROBE})
                return await asyncio.gather(
                    *(asyncio.create_task(server.handle_line(line)) for _ in range(4))
                ), server.stats()

        results, stats = asyncio.run(main())
        ok = [r for r in results if r["ok"]]
        shed = [r for r in results if not r["ok"]]
        assert len(ok) == 1 and len(shed) == 3
        for r in shed:
            assert r["error_kind"] == "overloaded"
            assert "retry with backoff" in r["error"]
            assert r["timings"]["queue_wait_s"] == 0.0
            assert r["timings"]["queue_depth"] == 1
            assert r["server"]["max_pending"] == 1
        assert stats["served"] == 1 and stats["shed"] == 3

    def test_draining_server_sheds_new_requests(self, artifact):
        async def main():
            server = ReproServer(artifact)
            await server.start()
            await server.drain()
            return await server.handle_line(json.dumps({"id": "late"}))

        result = asyncio.run(main())
        assert not result["ok"]
        assert result["error_kind"] == "draining"

    def test_updates_without_session_are_rejected(self, artifact):
        async def main():
            async with ReproServer(artifact) as server:
                return await server.handle_line(
                    json.dumps({"id": "u", "insert": ["member(z)"]})
                )

        result = asyncio.run(main())
        assert not result["ok"]
        assert result["error_kind"] == "validation"
        assert "session" in result["error"]


class TestServerSessions:
    def test_session_updates_serialize_across_connections(self, tmp_path):
        artifact = tmp_path / "game.repro-ground"
        Engine(GAME, BOARD).save_artifact(artifact)
        inserts = [f"move({10 + i}, 1)" for i in range(6)]

        async def main():
            async with ReproServer(artifact) as server:
                # Six connections race inserts into ONE session...
                batches = await asyncio.gather(
                    *(
                        send_requests(
                            server.address,
                            [{"id": i, "session": "shared", "insert": [fact],
                              "semantics": "well_founded"}],
                        )
                        for i, fact in enumerate(inserts)
                    )
                )
                # ... then one final read sees every update applied.
                final = await send_requests(
                    server.address,
                    [{"id": "final", "session": "shared", "semantics": "well_founded",
                      "atoms": [f"win({10 + i})" for i in range(6)]}],
                )
                return [b[0] for b in batches], final[0]

        updates, final = asyncio.run(main())
        assert all(r["ok"] for r in updates), updates
        # The apply-loop stamped each operation with its position in the
        # session's total order: a permutation of 1..6, no slot reused.
        seqs = sorted(r["session"]["seq"] for r in updates)
        assert seqs == list(range(1, 7))
        assert final["ok"]
        assert final["session"]["seq"] == 7
        assert final["session"]["updates"] == 6
        # Replay the six inserts single-threaded: models must agree.
        replay = Engine.from_artifact(artifact)
        for fact in inserts:
            replay.insert_facts(fact)
        expected = solve_one(
            replay,
            BatchRequest(
                semantics="well_founded",
                atoms=tuple(f"win({10 + i})" for i in range(6)),
            ),
        )["values"]
        assert final["values"] == expected

    def test_independent_sessions_and_close_on_drain(self, tmp_path):
        artifact = tmp_path / "game.repro-ground"
        Engine(GAME, BOARD).save_artifact(artifact)

        async def main():
            async with ReproServer(artifact) as server:
                responses = await send_requests(
                    server.address,
                    [
                        {"id": "a", "session": "a", "insert": ["move(3, 1)"]},
                        {"id": "b", "session": "b", "semantics": "well_founded"},
                    ],
                )
            return {r["id"]: r for r in responses}, server

        responses, server = asyncio.run(main())
        assert responses["a"]["ok"] and responses["b"]["ok"]
        assert responses["a"]["session"]["name"] == "a"
        assert server.sessions.stats()["created"] == 2
        # Drain closed both sessions and wrote nothing next to the artifact.
        assert len(server.sessions) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [artifact.name]

    def test_session_limit_is_a_structured_error(self, artifact):
        async def main():
            async with ReproServer(artifact, max_sessions=1) as server:
                await server.handle_line(json.dumps({"session": "one"}))
                return await server.handle_line(json.dumps({"session": "two"}))

        result = asyncio.run(main())
        assert not result["ok"]
        assert result["error_kind"] == "session_limit"
        assert "session table full" in result["error"]

    def test_inline_solves_run_on_the_loop_thread_and_sessions_off_it(self, artifact, monkeypatch):
        """The shared inline engine solves on the event loop's own thread
        (no executor hop); a session's engine solves on a session thread."""
        seen = []

        def recording(engine, request, **options):
            seen.append((request.session, threading.get_ident(), threading.current_thread().name))
            return solve_one(engine, request, **options)

        monkeypatch.setattr(server_module, "solve_one", recording)
        requests = [{"id": i, "seed": i, "atoms": PROBE} for i in range(4)]
        requests += [{"id": "s", "session": "s", "semantics": "well_founded", "atoms": PROBE}]

        async def main():
            async with ReproServer(artifact) as server:
                responses = await send_requests(server.address, requests)
                return threading.get_ident(), responses

        loop_thread, responses = asyncio.run(main())
        assert all(r["ok"] for r in responses), responses
        inline = [ident for session, ident, _ in seen if session is None]
        sessions = [(ident, name) for session, ident, name in seen if session is not None]
        assert inline == [loop_thread] * 4
        assert len(sessions) == 1
        ident, name = sessions[0]
        assert ident != loop_thread and name.startswith("repro-session")


class TestTimeouts:
    def test_soft_timeout_answers_inline_requests(self, tmp_path):
        artifact = tmp_path / "big.repro-ground"
        Engine(COMMITTEE, BIG_MEMBERS).save_artifact(artifact)

        async def main():
            async with ReproServer(artifact, timeout_s=1e-4) as server:
                return await server.handle_line(json.dumps({"id": "slow"}))

        result = asyncio.run(main())
        assert not result["ok"]
        assert result["error_kind"] == "timeout"
        assert result["timeout_s"] == 1e-4
        # Even a timed-out answer documents the pressure it saw.
        assert result["timings"]["queue_depth"] == 1

    def test_soft_timeout_never_tears_a_session_apply(self, tmp_path):
        artifact = tmp_path / "big.repro-ground"
        Engine(COMMITTEE, BIG_MEMBERS).save_artifact(artifact)

        async def main():
            async with ReproServer(artifact, timeout_s=1e-4) as server:
                timed_out = await server.handle_line(
                    json.dumps({"id": "u", "session": "s", "insert": ["member(zz)"]})
                )
                # The deadline covers the solve only: the apply ran to
                # completion first.  Wait for the lock, then read the state.
                session = server.sessions.get("s")
                while session.lock.locked() or session.pending:
                    await asyncio.sleep(0.01)
                return timed_out, session.engine.update_calls

        timed_out, update_calls = asyncio.run(main())
        assert not timed_out["ok"] and timed_out["error_kind"] == "timeout"
        assert update_calls == 1

    def test_a_runaway_solve_times_out_and_frees_the_inline_engine(self, tmp_path):
        """One runaway plus 8 pipelined requests on one connection: the
        runaway answers ``timeout`` and every request queued behind it on
        the event loop is answered, each against its own deadline."""
        artifact = tmp_path / "runaway.repro-ground"
        Engine(RUNAWAY, RUNAWAY_MEMBERS).save_artifact(artifact)
        probe = ["in(m0)", "in(m1)", "bad"]
        oracle = Engine.from_artifact(artifact)
        expected = {
            i: solve_one(oracle, BatchRequest(seed=i, atoms=tuple(probe)))["values"]
            for i in range(8)
        }
        requests = [{"id": "runaway", "semantics": "stable"}]
        requests += [{"id": i, "seed": i, "atoms": probe} for i in range(8)]

        async def main():
            async with ReproServer(artifact, timeout_s=0.5) as server:
                return await send_requests(server.address, requests)

        responses = {r["id"]: r for r in asyncio.run(main())}
        runaway = responses.pop("runaway")
        assert not runaway["ok"] and runaway["error_kind"] == "timeout", runaway
        assert runaway["timeout_s"] == 0.5
        assert sorted(responses) == list(range(8))
        for i, response in responses.items():
            assert response["ok"], response
            assert response["values"] == expected[i]

    def test_a_control_op_waits_at_most_the_deadline_behind_a_runaway(self, tmp_path):
        """An inline solve holds the event loop, so a ``stats`` op sent on a
        second connection while the runaway solves is answered once the
        runaway's ``timeout_s`` frees the loop: no later than the deadline
        plus slack after it was sent, with counts that agree with the
        replies."""
        artifact = tmp_path / "runaway.repro-ground"
        Engine(RUNAWAY, RUNAWAY_MEMBERS).save_artifact(artifact)

        def client(address):
            # Blocking sockets on a worker thread, so the stats op is sent
            # while the server's loop is busy with the runaway.
            with socket.create_connection(address, timeout=30) as first:
                with socket.create_connection(address, timeout=30) as second:
                    first.sendall(b'{"id": "runaway", "semantics": "stable"}\n')
                    time.sleep(0.1)
                    sent = time.perf_counter()
                    second.sendall(b'{"op": "stats", "id": "stats"}\n')
                    stats = json.loads(second.makefile("rb").readline())
                    waited = time.perf_counter() - sent
                runaway = json.loads(first.makefile("rb").readline())
            return runaway, stats, waited

        async def main():
            async with ReproServer(artifact, timeout_s=0.5) as server:
                return await asyncio.to_thread(client, server.address)

        runaway, stats, waited = asyncio.run(main())
        assert not runaway["ok"] and runaway["error_kind"] == "timeout", runaway
        assert stats["ok"] and stats["id"] == "stats", stats
        assert waited < 0.5 + 1.0
        counts = stats["stats"]
        assert counts["served"] == 0 and counts["shed"] == 0
        # The runaway is either still in flight or already counted failed.
        assert counts["failed"] + counts["inflight"] == 1


class TestControlPlane:
    def test_ping_stats_and_unknown_op(self, artifact):
        async def main():
            async with ReproServer(artifact) as server:
                await server.handle_line(json.dumps({"id": "warm", "atoms": PROBE}))
                return await asyncio.gather(
                    server.handle_line(json.dumps({"op": "ping", "id": 1})),
                    server.handle_line(json.dumps({"op": "stats"})),
                    server.handle_line(json.dumps({"op": "reboot"})),
                )

        ping, stats, unknown = asyncio.run(main())
        assert ping == {"schema": "repro-batch/1", "op": "ping", "ok": True, "id": 1}
        assert stats["ok"] and stats["stats"]["served"] == 1
        assert stats["stats"]["sessions"]["live"] == 0
        assert not unknown["ok"] and "unknown control op" in unknown["error"]

    def test_stats_report_the_inline_solution_cache(self, artifact):
        async def main():
            async with ReproServer(artifact) as server:
                requests = [{"seed": seed, "atoms": PROBE} for seed in (1, 2, 1)]
                requests += [{"semantics": "well_founded", "atoms": PROBE}] * 2
                for request in requests:  # one tie repeat, one well-founded repeat
                    reply = await server.handle_line(json.dumps(request))
                    assert reply["ok"], reply
                return await server.handle_line(json.dumps({"op": "stats"}))

        cache = asyncio.run(main())["stats"]["cache"]
        assert set(cache) == {
            "entries",
            "hits",
            "tie_table_solves",
            "tie_table_fallbacks",
            "tie_table_bytes",
            "tie_text_bytes",
        }
        # Only the well-founded repeat is a hit: the tie table is the
        # tie-breaking cache, built on the second tie solve and used by the
        # second and third.
        assert cache["entries"] == 1 and cache["hits"] == 1
        assert cache["tie_table_solves"] + cache["tie_table_fallbacks"] == 2
        assert cache["tie_table_bytes"] > 0

    def test_stats_report_the_inline_tie_table(self, artifact):
        async def main():
            async with ReproServer(artifact) as server:
                for seed in range(1, 7):
                    reply = await server.handle_line(json.dumps({"seed": seed, "atoms": PROBE}))
                    assert reply["ok"], reply
                stats = await server.handle_line(json.dumps({"op": "stats"}))
                return stats, server.solver.engine.stats()

        stats, engine = asyncio.run(main())
        cache = stats["stats"]["cache"]
        assert (cache["tie_table_solves"], cache["tie_table_fallbacks"]) == (1, 4)
        assert cache["tie_table_bytes"] == engine["tie_table_bytes"] > 0


class TestLifecycle:
    def test_run_server_drains_on_sigterm(self, artifact):
        ready = io.StringIO()

        async def main():
            server = ReproServer(artifact)
            task = asyncio.create_task(run_server(server, ready_stream=ready))
            while server.address is None:
                await asyncio.sleep(0.01)
            responses = await send_requests(
                server.address, [{"id": "before-term", "atoms": PROBE}]
            )
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.wait_for(task, timeout=30)
            return responses, server

        responses, server = asyncio.run(main())
        assert responses[0]["ok"]
        assert server.stats()["draining"] is True
        output = ready.getvalue()
        assert "repro server listening on 127.0.0.1:" in output
        assert "repro server draining" in output

    def test_cli_server_needs_program_or_artifact(self, capsys):
        assert main(["server"]) == 2
        assert "needs a program file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--session-ttl", "-5"], "ttl_s must be positive"),
            (["--session-ttl", "0"], "ttl_s must be positive"),
            (["--max-sessions", "0"], "max_sessions must be >= 1"),
            (["--timeout", "0"], "timeout_s must be positive"),
        ],
        ids=["ttl-negative", "ttl-zero", "max-sessions-zero", "timeout-zero"],
    )
    def test_cli_server_rejects_bad_bounds(self, tmp_path, capsys, flags, message):
        program = tmp_path / "committee.dl"
        program.write_text(COMMITTEE)
        artifact = tmp_path / "committee.repro-ground"
        argv = ["server", str(program), "--artifact", str(artifact), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        # Bounds are checked before anything is compiled or saved.
        assert not artifact.exists()

    @pytest.mark.parametrize("workers", ["-1", "2"])
    def test_cli_server_workers_flag_accepts_only_zero(self, tmp_path, capsys, workers):
        program = tmp_path / "committee.dl"
        program.write_text(COMMITTEE)
        artifact = tmp_path / "committee.repro-ground"
        argv = ["server", str(program), "--artifact", str(artifact), "--workers", workers]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "repro serve --workers" in err[0]
        assert not artifact.exists()

    def test_cli_server_hides_the_workers_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["server", "--help"])
        assert "--workers" not in capsys.readouterr().out

