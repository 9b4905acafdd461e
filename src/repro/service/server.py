"""The concurrent serving tier: an asyncio TCP/JSONL server.

`repro serve` answers one batch and exits; this module is the long-lived
front-end over the same warm-start machinery.  One
:class:`~repro.service.batch.BatchSolver` (and its worker pool, with
``workers=N``) is shared by every connection; requests and results use
the exact ``repro-batchreq/1`` / ``repro-batch/1`` line schemas the
offline batch path uses, so a client can replay a batch file against a
live server unchanged.

Three concerns live here, layered over :mod:`repro.service.batch` and
:mod:`repro.service.sessions`:

* **Connection handling** — newline-delimited JSON over TCP.  Requests
  on one connection run concurrently (pipelining); responses carry the
  request ``id`` and may arrive out of order.
* **Admission control** — at most ``max_pending`` requests may be
  in flight server-wide.  Excess requests are not queued without bound:
  they are **shed** immediately with a structured
  ``"error_kind": "overloaded"`` result (the JSONL analogue of HTTP
  429), and every admitted result's ``timings`` records the queue depth
  at admission plus the wait before its solve started, so clients can
  see pressure building *before* sheds begin.
* **Sessions** — a request carrying ``"session": name`` runs on that
  session's private engine under the
  :class:`~repro.service.sessions.SessionManager` serialized apply-loop;
  this is the only way to use ``insert`` / ``retract`` on the server
  (the shared serving engines are read-only).  Idle sessions expire and
  snapshot their compiled state back to the artifact cache.

Dispatch by request shape:

===================  ==================================================
request              execution
===================  ==================================================
stateless, workers=0 serialized on the warm inline engine (one solve
                     thread — the engine is not thread-safe)
stateless, workers=N fanned out to the worker pool via ``apply_async``
with ``session``     serialized per session, parallel across sessions
updates, no session  rejected (``validation`` error)
===================  ==================================================

Timeouts are layered: pool workers arm a hard ``SIGALRM`` deadline
around each solve (see :func:`repro.service.batch.solve_one`), while the
inline and session paths — whose solves run on executor threads, where
signals cannot be delivered — get a soft deadline: the dispatcher stops
waiting and answers with a structured ``timeout`` result.  A soft-timed-
out session operation still runs to completion under its session lock,
so a session's engine is never torn mid-update.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter
from typing import Any, TextIO

from repro.api.engine import Engine
from repro.datalog.database import Database
from repro.datalog.grounding import GroundingMode
from repro.datalog.program import Program
from repro.errors import ReproError, SolveTimeoutError, ValidationError
from repro.io.artifact import ArtifactCache
from repro.io.json_io import result_to_json_chunks
from repro.service.batch import (
    BATCH_SCHEMA,
    BatchRequest,
    BatchSolver,
    failure_result,
    solve_one,
)
from repro.service.sessions import Session, SessionManager

__all__ = ["ReproServer", "run_server"]

#: Stream-reader line cap: a request inserting many facts is one long
#: JSON line, so the default 64 KiB limit is far too small.
_READER_LIMIT = 8 * 2**20


class ReproServer:
    """Asyncio TCP/JSONL server over one warm :class:`BatchSolver`.

    Parameters mirror :class:`~repro.service.batch.BatchSolver` (an
    existing ``artifact`` *or* ``program`` + ``database`` text to
    compile), plus the serving knobs:

    ``host`` / ``port``
        Bind address; port ``0`` binds an ephemeral port (read it back
        from :attr:`address` after :meth:`start`).
    ``workers``
        ``0`` answers stateless requests serialized on one warm inline
        engine; ``N >= 1`` fans them out to a pool of ``N`` warm worker
        processes.
    ``max_pending``
        Admission bound: requests admitted but unfinished, server-wide.
        Above it, requests are shed with ``error_kind: "overloaded"``.
    ``timeout_s``
        Per-request solve deadline (hard in pool workers, soft on the
        inline/session paths).
    ``session_ttl_s`` / ``max_sessions`` / ``session_cache``
        Session expiry, table bound, and the artifact cache expired
        sessions snapshot into (see :mod:`repro.service.sessions`).

    Use :meth:`start` / :meth:`drain` directly, or as an async context
    manager::

        async with ReproServer("game.repro-ground") as server:
            host, port = server.address
            ...
    """

    def __init__(
        self,
        artifact: str | Path | None = None,
        *,
        program: Program | str | None = None,
        database: Database | str | None = None,
        grounding: GroundingMode | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        max_pending: int = 256,
        timeout_s: float | None = None,
        session_ttl_s: float = 600.0,
        max_sessions: int = 64,
        session_cache: ArtifactCache | str | Path | None = None,
        session_threads: int = 4,
        drain_timeout_s: float = 30.0,
    ) -> None:
        if max_pending < 1:
            raise ValidationError(f"max_pending must be >= 1, got {max_pending}")
        # Sessions validate their bounds before the solver compiles or
        # saves an artifact; the factory reads the solver only when called.
        if session_cache is not None and not isinstance(session_cache, ArtifactCache):
            session_cache = ArtifactCache(session_cache)
        self.sessions = SessionManager(
            lambda: Engine.from_artifact(self.solver.artifact_path),
            ttl_s=session_ttl_s,
            max_sessions=max_sessions,
            cache=session_cache,
        )
        self.solver = BatchSolver(
            artifact,
            program=program,
            database=database,
            grounding=grounding,
            workers=workers,
            timeout_s=timeout_s,
        )
        self.host = host
        self.port = port
        self.workers = workers
        self.max_pending = max_pending
        self.timeout_s = timeout_s
        self.drain_timeout_s = drain_timeout_s
        # One solve thread for the shared inline engine (it is not
        # thread-safe); a small pool for session engines, which are
        # private per session and already serialized by the session lock.
        self._inline_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-inline"
        )
        self._session_executor = ThreadPoolExecutor(
            max_workers=max(1, session_threads), thread_name_prefix="repro-session"
        )
        self._server: asyncio.AbstractServer | None = None
        self._reaper: asyncio.Task[None] | None = None
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._inflight = 0
        self._draining = False
        self.address: tuple[str, int] | None = None
        self.connections = 0
        self.served = 0
        self.failed = 0
        self.shed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        With ``workers=N`` the pool is forked *before* the listener (and
        its executor threads) exists — fork-before-threads hygiene — so
        startup, not the first request, pays the workers' artifact loads.
        """
        if self.workers:
            self.solver.warm_pool()
        else:
            self.solver.engine  # warm the inline engine before traffic
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_READER_LIMIT
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self._reaper = asyncio.create_task(self._reap_idle_sessions())
        return self.address

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, finish in-flight, snapshot.

        New requests (and new connections) are shed with
        ``error_kind: "draining"``; requests already admitted get up to
        ``drain_timeout_s`` seconds to finish; live sessions snapshot to
        the artifact cache on the way down.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = perf_counter() + self.drain_timeout_s
        while self._inflight and perf_counter() < deadline:
            await asyncio.sleep(0.02)
        # Hang up the remaining connections (readline sees EOF) and wait
        # for their handler tasks, so nothing is mid-write when the
        # executors and pool go away — and no task outlives the loop.
        for writer in list(self._conn_writers):
            try:
                writer.close()
            except (ConnectionResetError, OSError):  # pragma: no cover - racing peer
                pass
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        if self._reaper is not None:
            self._reaper.cancel()
            self._reaper = None
        self.sessions.close_all(snapshot=True)
        self._inline_executor.shutdown(wait=False)
        self._session_executor.shutdown(wait=False)
        self.solver.close()

    async def __aenter__(self) -> "ReproServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.drain()

    async def _reap_idle_sessions(self) -> None:
        interval = max(0.05, min(self.sessions.ttl_s / 4.0, 30.0))
        while True:
            await asyncio.sleep(interval)
            self.sessions.expire_idle()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task[None]] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(
                        writer,
                        write_lock,
                        failure_result(
                            None,
                            ValidationError(f"request line exceeds {_READER_LIMIT} bytes"),
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Pipelining: each line is served on its own task, so a
                # slow solve does not head-of-line block the connection.
                task = asyncio.create_task(self._serve_line(line, writer, write_lock))
                pending.add(task)
                task.add_done_callback(pending.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            self._conn_writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            if task is not None:
                self._conn_tasks.discard(task)
            self.connections -= 1

    async def _serve_line(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        result = await self.handle_line(line)
        await self._write(writer, write_lock, result)

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter, write_lock: asyncio.Lock, result: dict[str, Any]
    ) -> None:
        # Inline- and session-served results carry the live Solution;
        # result_to_json_chunks decodes it from kernel ids to wire bytes
        # here, at write time (byte-identical to json.dumps of the
        # materialized dict).  Pool results are already plain dicts.
        data = "".join(result_to_json_chunks(result, sort_keys=True)).encode("utf-8") + b"\n"
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    async def handle_line(self, line: bytes | str) -> dict[str, Any]:
        """Serve one request line; always returns a ``repro-batch/1`` dict.

        Public so tests and in-process clients can exercise the full
        admission + dispatch path without a socket.
        """
        t_recv = perf_counter()
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as error:
            self.failed += 1
            return failure_result(None, ValidationError(f"invalid JSON: {error}"))
        if isinstance(obj, dict) and "op" in obj:
            return self._control(obj)

        request_id = obj.get("id") if isinstance(obj, dict) else None
        if self._draining:
            return self._shed(request_id, "draining", "server is draining; reconnect later")
        if self._inflight >= self.max_pending:
            return self._shed(
                request_id,
                "overloaded",
                f"admission queue full ({self._inflight}/{self.max_pending} in flight); "
                "retry with backoff",
            )

        self._inflight += 1
        depth = self._inflight
        try:
            result, started = await self._dispatch(obj, request_id)
        finally:
            self._inflight -= 1

        now = perf_counter()
        timings = result.setdefault("timings", {})
        if started is not None:
            timings["queue_wait_s"] = max(0.0, started - t_recv)
        elif "worker_s" in timings:
            # Pool path: worker clocks are not comparable across
            # processes, so the wait is everything the worker did not do.
            timings["queue_wait_s"] = max(0.0, (now - t_recv) - timings["worker_s"])
        else:
            timings.setdefault("queue_wait_s", now - t_recv)
        timings["queue_depth"] = depth
        timings["server_s"] = now - t_recv
        result["server"] = {
            "queue_depth": depth,
            "max_pending": self.max_pending,
            "workers": self.workers,
        }
        if result.get("ok"):
            self.served += 1
        else:
            self.failed += 1
        return result

    def _shed(self, request_id: Any, kind: str, message: str) -> dict[str, Any]:
        """A 429-style structured shed result (never raises)."""
        self.shed += 1
        return {
            "schema": BATCH_SCHEMA,
            "id": request_id,
            "ok": False,
            "error": message,
            "error_kind": kind,
            "timings": {"queue_wait_s": 0.0, "queue_depth": self._inflight},
            "server": {
                "queue_depth": self._inflight,
                "max_pending": self.max_pending,
                "workers": self.workers,
            },
        }

    async def _dispatch(
        self, obj: Any, request_id: Any
    ) -> tuple[dict[str, Any], float | None]:
        """Route one admitted request; returns ``(result, solve_start)``.

        ``solve_start`` is the ``perf_counter`` instant the solve left
        the queue (``None`` when the path cannot observe it, e.g. a
        timed-out wait or the worker pool, which reports ``worker_s``
        instead).
        """
        try:
            request = BatchRequest.from_obj(obj)
        except ValidationError as error:
            return failure_result(request_id, error), None
        try:
            if request.session is not None:
                return await self._solve_session(request)
            if request.has_updates:
                raise ValidationError(
                    "stateful insert/retract requires a 'session' field on the "
                    "server — the shared serving engines are read-only"
                )
            if self.workers:
                return await self._solve_pooled(request), None
            return await self._solve_inline(request)
        except ReproError as error:
            return failure_result(request.id, error), None

    # -- stateless, workers=0 ------------------------------------------

    async def _solve_inline(self, request: BatchRequest) -> tuple[dict[str, Any], float | None]:
        loop = asyncio.get_running_loop()
        started: list[float] = []

        def job() -> dict[str, Any]:
            started.append(perf_counter())
            return solve_one(self.solver.engine, request, materialize=False)

        future = loop.run_in_executor(self._inline_executor, job)
        result = await self._supervised(future, request.id)
        return result, (started[0] if started else None)

    # -- stateless, workers=N ------------------------------------------

    async def _solve_pooled(self, request: BatchRequest) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        future: asyncio.Future[dict[str, Any]] = loop.create_future()

        def done(result: dict[str, Any]) -> None:
            loop.call_soon_threadsafe(
                lambda: future.done() or future.set_result(result)
            )

        def failed(error: BaseException) -> None:
            loop.call_soon_threadsafe(
                lambda: future.done() or future.set_exception(error)
            )

        self.solver.apply_async(request, callback=done, error_callback=failed)
        try:
            return await future
        except ReproError:
            raise
        except BaseException as error:  # worker crash / pool teardown
            raise ReproError(f"worker dispatch failed: {error}") from error

    # -- sessions -------------------------------------------------------

    async def _solve_session(self, request: BatchRequest) -> tuple[dict[str, Any], float | None]:
        loop = asyncio.get_running_loop()
        started: list[float] = []
        name = request.session
        assert name is not None

        async def work(session: Session) -> dict[str, Any]:
            seq = session.seq

            def job() -> dict[str, Any]:
                started.append(perf_counter())
                # No hard deadline here: the apply section must never be
                # torn.  The dispatcher's soft deadline answers the
                # client; the operation itself runs to completion.
                return solve_one(session.engine, request, materialize=False)

            result = await loop.run_in_executor(self._session_executor, job)
            result["session"] = {
                "name": session.name,
                "seq": seq,
                "updates": session.engine.update_calls,
            }
            return result

        future = asyncio.ensure_future(self.sessions.run(name, work))
        result = await self._supervised(future, request.id)
        return result, (started[0] if started else None)

    async def _supervised(
        self, future: "asyncio.Future[dict[str, Any]]", request_id: Any
    ) -> dict[str, Any]:
        """Await a solve under the soft per-request deadline.

        On timeout the underlying work is *not* cancelled (a session
        apply must finish; the inline engine thread cannot be
        interrupted anyway) — the client just gets its structured
        ``timeout`` answer now instead of never.
        """
        if self.timeout_s is None:
            return await future
        try:
            return await asyncio.wait_for(asyncio.shield(future), self.timeout_s)
        except asyncio.TimeoutError:
            # Swallow the orphaned result/exception when it eventually lands.
            future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None
            )
            return failure_result(request_id, SolveTimeoutError(self.timeout_s))

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def _control(self, obj: dict[str, Any]) -> dict[str, Any]:
        op = obj.get("op")
        if op == "ping":
            return {"schema": BATCH_SCHEMA, "op": "ping", "ok": True, "id": obj.get("id")}
        if op == "stats":
            return {
                "schema": BATCH_SCHEMA,
                "op": "stats",
                "ok": True,
                "id": obj.get("id"),
                "stats": self.stats(),
            }
        return failure_result(
            obj.get("id"), ValidationError(f"unknown control op {op!r} (try ping, stats)")
        )

    def stats(self) -> dict[str, Any]:
        return {
            "served": self.served,
            "failed": self.failed,
            "shed": self.shed,
            "inflight": self._inflight,
            "connections": self.connections,
            "workers": self.workers,
            "max_pending": self.max_pending,
            "draining": self._draining,
            "sessions": self.sessions.stats(),
        }


async def run_server(server: ReproServer, *, ready_stream: TextIO | None = None) -> None:
    """Start ``server`` and serve until SIGTERM/SIGINT, then drain.

    Prints a parseable ``listening on HOST:PORT`` line to
    ``ready_stream`` once the socket is bound (the CI smoke test and any
    supervisor watch for it), and a drain line on the way down.
    """
    import signal as _signal

    await server.start()
    assert server.address is not None
    host, port = server.address
    if ready_stream is not None:
        print(
            f"repro server listening on {host}:{port} "
            f"(workers={server.workers}, max_pending={server.max_pending})",
            file=ready_stream,
            flush=True,
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    hooked: list[Any] = []
    for sig in (_signal.SIGTERM, _signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            hooked.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
            pass
    try:
        await stop.wait()
    finally:
        for sig in hooked:
            loop.remove_signal_handler(sig)
        if ready_stream is not None:
            print("repro server draining ...", file=ready_stream, flush=True)
        await server.drain()
