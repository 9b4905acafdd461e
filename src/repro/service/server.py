"""The concurrent serving tier: an asyncio TCP/JSONL server.

`repro serve` answers one batch and exits; this module is the long-lived
front-end over the same warm-start machinery.  One
:class:`~repro.service.batch.BatchSolver` and its warm inline engine are
shared by every connection; requests and results use the exact
``repro-batchreq/1`` / ``repro-batch/1`` line schemas the offline batch
path uses, so a client can replay a batch file against a live server
unchanged.

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
  are discarded with their engines.

Dispatch by request shape:

===================  ==================================================
request              execution
===================  ==================================================
stateless            on the event loop's own thread, one at a time, on
                     the warm inline engine (it is not thread-safe)
with ``session``     on a ``repro-session`` thread, serialized per
                     session, parallel across sessions
updates, no session  rejected (``validation`` error)
===================  ==================================================

There is no process pool and no inline solve thread here: on the
benchmark's warm traffic a pool's IPC, or a thread's hop before and
after each solve, cost more than it gave back under the GIL
(``docs/serving.md``, "Where solves run").  The offline
``repro serve --workers N`` keeps a pool.

One deadline serves both paths: ``timeout_s`` is armed around each
solve by :func:`repro.service.batch.solve_one`, counted from the start
of that solve, and the kernel checks it between rounds.  The deadline
is a context variable, so it holds on the loop thread as on a session
thread.  An inline solve holds the loop while it runs: control ops,
sheds and session dispatch wait for it, at most ``timeout_s`` when a
deadline is set, and a runaway solve answers ``timeout`` and frees the
loop for the requests behind it.  A session's ``insert`` / ``retract``
section is never under the deadline, so its engine is never torn
mid-update.
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
from repro.errors import ReproError, ValidationError
from repro.service.batch import (
    BATCH_SCHEMA,
    BatchRequest,
    BatchSolver,
    failure_result,
    result_line,
    solve_one,
)
from repro.service.sessions import Session, SessionManager

__all__ = ["ReproServer", "run_server"]

#: Stream-reader line cap: a request inserting many facts is one long
#: JSON line, so the default 64 KiB limit is far too small.
_READER_LIMIT = 8 * 2**20

#: Threads for session engines, which are private per session and already
#: serialized by the session lock.
_SESSION_THREADS = 4

#: Seconds :meth:`ReproServer.drain` gives admitted requests to finish.
_DRAIN_TIMEOUT_S = 30.0


class ReproServer:
    """Asyncio TCP/JSONL server over one warm :class:`BatchSolver`.

    Parameters mirror :class:`~repro.service.batch.BatchSolver` (an
    existing ``artifact`` *or* ``program`` + ``database`` text to
    compile), plus the serving knobs:

    ``host`` / ``port``
        Bind address; port ``0`` binds an ephemeral port (read it back
        from :attr:`address` after :meth:`start`).
    ``max_pending``
        Admission bound: requests admitted but unfinished, server-wide.
        Above it, requests are shed with ``error_kind: "overloaded"``.
    ``timeout_s``
        Per-request solve deadline, counted from the start of the solve
        (see :func:`~repro.service.batch.solve_one`).
    ``session_ttl_s`` / ``max_sessions``
        Session expiry and table bound (see :mod:`repro.service.sessions`).

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
        max_pending: int = 256,
        timeout_s: float | None = None,
        session_ttl_s: float = 600.0,
        max_sessions: int = 64,
    ) -> None:
        if max_pending < 1:
            raise ValidationError(f"max_pending must be >= 1, got {max_pending}")
        # Sessions validate their bounds before the solver compiles or
        # saves an artifact; the factory reads the solver only when called.
        self.sessions = SessionManager(
            lambda: Engine.from_artifact(self.solver.artifact_path),
            ttl_s=session_ttl_s,
            max_sessions=max_sessions,
        )
        self.solver = BatchSolver(
            artifact,
            program=program,
            database=database,
            grounding=grounding,
            timeout_s=timeout_s,
        )
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.timeout_s = timeout_s
        # The shared inline engine solves on the loop's own thread (it is
        # not thread-safe); a small pool runs the private session engines.
        self._session_executor = ThreadPoolExecutor(
            max_workers=_SESSION_THREADS, thread_name_prefix="repro-session"
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

        The inline engine is loaded first, so startup, not the first
        request, pays the artifact load.
        """
        self.solver.engine  # warm the inline engine before traffic
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_READER_LIMIT
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self._reaper = asyncio.create_task(self._reap_idle_sessions())
        return self.address

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, finish in-flight, close sessions.

        New requests (and new connections) are shed with
        ``error_kind: "draining"``; requests already admitted get up to
        ``_DRAIN_TIMEOUT_S`` seconds to finish; live sessions are closed
        on the way down.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = perf_counter() + _DRAIN_TIMEOUT_S
        while self._inflight and perf_counter() < deadline:
            await asyncio.sleep(0.02)
        # Hang up the remaining connections (readline sees EOF) and wait
        # for their handler tasks, so nothing is mid-write when the
        # session executor goes away — and no task outlives the loop.
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
        self.sessions.close_all()
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
                # Pipelining: each line is served on its own task, so the
                # next line is read and admitted while this one waits.
                # Inline solves still run one at a time on the loop (a
                # slow one delays the rest by at most ``timeout_s``);
                # session solves run on their own threads.
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
        data = result_line(result)
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
        except (ValueError, RecursionError) as error:
            # Invalid JSON, a line that is not UTF-8, or nesting deeper
            # than the recursion limit: each is one malformed request.
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
        timings["queue_wait_s"] = now - t_recv if started is None else max(0.0, started - t_recv)
        timings["queue_depth"] = depth
        timings["server_s"] = now - t_recv
        result["server"] = {"queue_depth": depth, "max_pending": self.max_pending}
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
            "server": {"queue_depth": self._inflight, "max_pending": self.max_pending},
        }

    async def _dispatch(
        self, obj: Any, request_id: Any
    ) -> tuple[dict[str, Any], float | None]:
        """Route one admitted request; returns ``(result, solve_start)``.

        ``solve_start`` is the ``perf_counter`` instant the solve left
        the queue (``None`` for a request that failed before it was
        queued).
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
            return await self._solve_inline(request)
        except ReproError as error:
            return failure_result(request.id, error), None

    # -- stateless -------------------------------------------------------

    async def _solve_inline(self, request: BatchRequest) -> tuple[dict[str, Any], float]:
        # Yield once before solving on the loop: the requests that arrived
        # in the same loop turn are admitted first and see this one in
        # flight, so admission and shedding stay as if the solve ran
        # elsewhere.
        await asyncio.sleep(0)
        started = perf_counter()
        return solve_one(self.solver.engine, request, timeout_s=self.timeout_s), started

    # -- sessions -------------------------------------------------------

    async def _solve_session(self, request: BatchRequest) -> tuple[dict[str, Any], float]:
        loop = asyncio.get_running_loop()
        started: list[float] = []
        name = request.session
        assert name is not None

        async def work(session: Session) -> dict[str, Any]:
            seq = session.seq

            def job() -> dict[str, Any]:
                started.append(perf_counter())
                # solve_one arms the deadline around the solve only: the
                # apply section runs to completion and is never torn.
                return solve_one(session.engine, request, timeout_s=self.timeout_s)

            result = await loop.run_in_executor(self._session_executor, job)
            result["session"] = {
                "name": session.name,
                "seq": seq,
                "updates": session.engine.update_calls,
            }
            return result

        result = await self.sessions.run(name, work)
        return result, started[0]

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
        engine = self.solver.engine.stats()
        return {
            "served": self.served,
            "failed": self.failed,
            "shed": self.shed,
            "inflight": self._inflight,
            "connections": self.connections,
            "max_pending": self.max_pending,
            "draining": self._draining,
            "sessions": self.sessions.stats(),
            # The inline engine's last deterministic solutions and its
            # first-round tie tables, the tie-breaking cache (session
            # engines keep their own, private ones).
            "cache": {
                "entries": engine["cached_solutions"],
                "hits": engine["solution_cache_hits"],
                "tie_table_solves": engine["tie_table_solves"],
                "tie_table_fallbacks": engine["tie_table_fallbacks"],
                "tie_table_bytes": engine["tie_table_bytes"],
                "tie_text_bytes": engine["tie_text_bytes"],
            },
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
            f"repro server listening on {host}:{port} (max_pending={server.max_pending})",
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
