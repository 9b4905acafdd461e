"""Session manager: serialized apply, parallel sessions, expiry, bounds."""

import asyncio

import pytest

from repro import Engine
from repro.errors import SessionLimitError, ValidationError
from repro.service import SessionManager

GAME = "win(X) :- move(X, Y), not win(Y)."
BOARD = "move(1, 2). move(2, 1). move(2, 3)."


@pytest.fixture
def artifact(tmp_path):
    path = tmp_path / "game.repro-ground"
    Engine(GAME, BOARD).save_artifact(path)
    return path


def true_set(engine, semantics="well_founded"):
    return frozenset(str(a) for a in engine.solve(semantics).true_atoms)


class TestSerializedApply:
    def test_interleaved_updates_match_single_threaded_replay(self, artifact):
        """Concurrent ops on one session apply in a total order.

        Each op yields mid-critical-section (the await inside the lock);
        without serialization the order log would interleave.  The final
        model must equal replaying the logged order on a fresh engine.
        """
        order: list[int] = []

        async def main():
            manager = SessionManager(lambda: Engine.from_artifact(artifact))

            async def op(i):
                async def work(session):
                    order.append(i)
                    await asyncio.sleep(0.001)  # give rivals a chance to barge in
                    session.engine.insert_facts(f"move({10 + i}, 1)")
                    assert order[-1] == i, "another op ran inside the critical section"
                    return session.seq

                return await manager.run("s", work)

            seqs = await asyncio.gather(*(op(i) for i in range(8)))
            assert sorted(seqs) == list(range(1, 9))
            session = manager.get("s")
            assert session is not None and session.engine.update_calls == 8
            return true_set(session.engine)

        live_true = asyncio.run(main())
        assert len(order) == 8
        replay = Engine.from_artifact(artifact)
        for i in order:
            replay.insert_facts(f"move({10 + i}, 1)")
        assert live_true == true_set(replay)

    def test_independent_sessions_proceed_in_parallel(self, artifact):
        """Session "a" blocks on an event only session "b" can set."""

        async def main():
            manager = SessionManager(lambda: Engine.from_artifact(artifact))
            gate = asyncio.Event()

            async def work_a(session):
                await asyncio.wait_for(gate.wait(), timeout=2)
                return "a"

            async def work_b(session):
                gate.set()
                return "b"

            return await asyncio.gather(manager.run("a", work_a), manager.run("b", work_b))

        assert asyncio.run(main()) == ["a", "b"]
        # The converse — both ops on ONE session — would deadlock (work_a
        # holds the lock work_b needs), which is exactly the serialization
        # the manager promises; covered by the interleaving test above.


class TestBounds:
    @pytest.mark.parametrize(
        "bounds,message",
        [
            ({"ttl_s": 0}, "ttl_s"),
            ({"ttl_s": -5.0}, "ttl_s"),
            ({"max_sessions": 0}, "max_sessions"),
        ],
        ids=["ttl-zero", "ttl-negative", "max-sessions-zero"],
    )
    def test_non_positive_bounds_are_validation_errors(self, artifact, bounds, message):
        with pytest.raises(ValidationError, match=message):
            SessionManager(lambda: Engine.from_artifact(artifact), **bounds)


class TestClose:
    def test_close_all_closes_every_session(self, artifact):
        async def main():
            manager = SessionManager(lambda: Engine.from_artifact(artifact))

            async def mutate(session):
                session.engine.insert_facts(f"move({session.name}, 1)")
                return session

            async def read(session):
                true_set(session.engine)
                return session

            sessions = [
                await manager.run("7", mutate),
                await manager.run("8", mutate),
                await manager.run("reader", read),
            ]
            assert sorted(manager.close_all()) == ["7", "8", "reader"]
            assert len(manager) == 0
            assert all(session.closed for session in sessions)
            assert manager.close_all() == []
            # A closed name opens a fresh session from the factory.
            reopened = await manager.run("7", read)
            assert reopened.engine.update_calls == 0
            assert manager.stats()["created"] == 4

        asyncio.run(main())


class TestExpiry:
    def test_idle_sessions_expire_after_ttl(self, artifact):
        clock = [0.0]

        async def main():
            manager = SessionManager(
                lambda: Engine.from_artifact(artifact),
                ttl_s=10.0,
                clock=lambda: clock[0],
            )

            async def work(session):
                return session.name

            await manager.run("s", work)
            assert manager.expire_idle() == []  # still fresh
            clock[0] = 9.0
            assert manager.expire_idle() == []
            clock[0] = 10.0
            assert manager.expire_idle() == ["s"]
            assert len(manager) == 0
            assert manager.stats()["expired"] == 1

        asyncio.run(main())

    def test_expired_mutated_session_restarts_from_the_factory(self, artifact):
        clock = [0.0]

        async def main():
            manager = SessionManager(
                lambda: Engine.from_artifact(artifact),
                ttl_s=10.0,
                clock=lambda: clock[0],
            )

            async def mutate(session):
                session.engine.insert_facts("move(3, 1)")
                return true_set(session.engine)

            async def read(session):
                return session.engine.update_calls, true_set(session.engine)

            mutated = await manager.run("s", mutate)
            clock[0] = 20.0
            assert manager.expire_idle() == ["s"]
            return mutated, await manager.run("s", read)

        mutated, (updates, restarted) = asyncio.run(main())
        # Expiry drops the session's updates: the name comes back with the
        # artifact's state, not the mutated one.
        assert updates == 0
        assert restarted == true_set(Engine.from_artifact(artifact))
        assert restarted != mutated

    def test_sessions_with_queued_work_never_expire(self, artifact):
        clock = [0.0]

        async def main():
            manager = SessionManager(
                lambda: Engine.from_artifact(artifact),
                ttl_s=10.0,
                clock=lambda: clock[0],
            )
            release = asyncio.Event()

            async def slow(session):
                await release.wait()
                return "done"

            task = asyncio.create_task(manager.run("s", slow))
            await asyncio.sleep(0)  # let the op take the lock
            clock[0] = 100.0
            assert manager.expire_idle() == []  # busy, despite the stale clock
            release.set()
            assert await task == "done"
            assert manager.expire_idle() == []  # last_active refreshed on exit
            clock[0] = 200.0
            assert manager.expire_idle() == ["s"]

        asyncio.run(main())

    def test_session_limit_is_enforced(self, artifact):
        async def main():
            manager = SessionManager(
                lambda: Engine.from_artifact(artifact), max_sessions=1
            )

            async def work(session):
                return session.name

            await manager.run("only", work)
            with pytest.raises(SessionLimitError, match="session table full"):
                await manager.run("overflow", work)
            # Reusing the existing session is still fine.
            assert await manager.run("only", work) == "only"

        asyncio.run(main())
