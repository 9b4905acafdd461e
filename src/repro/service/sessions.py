"""Stateful session management for the concurrent serving tier.

PR 6 gave :class:`~repro.api.engine.Engine` streaming updates
(``insert_facts`` / ``retract_facts``), but those mutate a single live
engine — they have no concurrency story.  This module provides one: a
:class:`SessionManager` maps client-chosen session names to private
warm-started engines and runs every operation on a session through a
**serialized apply-loop** (an ``asyncio.Lock`` per session, FIFO), so
interleaved inserts, retracts, and solves from many connections apply in
a single total order per session while *independent* sessions proceed in
parallel.

Sessions are bounded in two dimensions:

* **count** — at most ``max_sessions`` live engines; a request naming a
  new session past the bound raises
  :class:`~repro.errors.SessionLimitError` (the server answers it with a
  structured ``session_limit`` error).
* **time** — a session idle for ``ttl_s`` seconds is expired by
  :meth:`SessionManager.expire_idle` (the server runs it periodically).

A closed session — expired, or dropped on graceful server drain — is
discarded with its engine: session state lives only as long as the
server process.  A caller that wants a mutated grounding to outlive it
saves one explicitly with :meth:`~repro.api.engine.Engine.save_artifact`.

The manager is an asyncio-native object: all bookkeeping runs on the
event loop thread, so its dict/counter mutations need no locks of their
own.  Only the caller-supplied ``work`` coroutine may block (it
typically hops to an executor for the actual solve).
"""

from __future__ import annotations

import asyncio
from time import monotonic
from typing import Any, Awaitable, Callable, TypeVar

from repro.api.engine import Engine
from repro.errors import SessionLimitError, ValidationError

__all__ = ["Session", "SessionManager"]

T = TypeVar("T")


class Session:
    """One live stateful session: a private engine plus its apply lock.

    All requests naming this session run under :attr:`lock` — acquired
    FIFO by ``asyncio.Lock`` — so the engine only ever sees one
    operation at a time, in admission order.
    """

    __slots__ = (
        "name",
        "engine",
        "lock",
        "seq",
        "pending",
        "requests",
        "created_s",
        "last_active_s",
        "closed",
    )

    def __init__(self, name: str, engine: Engine, now: float):
        self.name = name
        self.engine = engine
        self.lock = asyncio.Lock()
        #: monotone per-session sequence number: the position of the
        #: *currently applying* operation in the session's total order.
        self.seq = 0
        #: operations admitted but not yet finished (queued + running);
        #: a session with pending work is never expired.
        self.pending = 0
        self.requests = 0
        self.created_s = now
        self.last_active_s = now
        self.closed = False

    def stats(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "pending": self.pending,
            "requests": self.requests,
            "updates": self.engine.update_calls,
        }


class SessionManager:
    """Bounded table of live sessions with serialized per-session apply.

    Parameters
    ----------
    factory:
        Zero-argument callable producing a fresh warm engine for a new
        session (typically ``lambda: Engine.from_artifact(path)``).
    ttl_s:
        Idle seconds after which :meth:`expire_idle` closes a session.
    max_sessions:
        Bound on simultaneously live sessions.
    clock:
        Injectable monotonic clock (tests freeze it to drive expiry).
    """

    def __init__(
        self,
        factory: Callable[[], Engine],
        *,
        ttl_s: float = 600.0,
        max_sessions: int = 256,
        clock: Callable[[], float] = monotonic,
    ):
        if ttl_s <= 0:
            raise ValidationError(f"ttl_s must be positive, got {ttl_s!r}")
        if max_sessions < 1:
            raise ValidationError(f"max_sessions must be >= 1, got {max_sessions!r}")
        self.factory = factory
        self.ttl_s = ttl_s
        self.max_sessions = max_sessions
        self.clock = clock
        self._sessions: dict[str, Session] = {}
        self.created = 0
        self.expired = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    @property
    def names(self) -> list[str]:
        return sorted(self._sessions)

    def get(self, name: str) -> Session | None:
        return self._sessions.get(name)

    def _get_or_create(self, name: str) -> Session:
        session = self._sessions.get(name)
        if session is not None and not session.closed:
            return session
        if len(self._sessions) >= self.max_sessions:
            raise SessionLimitError(
                f"session table full ({self.max_sessions} live sessions); "
                f"cannot open session {name!r}"
            )
        session = Session(name, self.factory(), self.clock())
        self._sessions[name] = session
        self.created += 1
        return session

    async def run(self, name: str, work: Callable[[Session], Awaitable[T]]) -> T:
        """Run ``work`` on session ``name``, serialized with its peers.

        Creates the session on first use.  Operations queue FIFO on the
        session lock, so concurrent callers apply in admission order —
        the serialization guarantee the wire protocol documents.  The
        (lookup, ``pending`` increment) pair is a single synchronous
        block on the event loop, so the expiry reaper can never retire a
        session between admission and lock acquisition.
        """
        while True:
            session = self._get_or_create(name)
            session.pending += 1
            try:
                async with session.lock:
                    if session.closed:
                        # Expired between queueing and acquisition (only
                        # possible if expiry raced a long queue); retry
                        # against a fresh session.
                        continue
                    session.seq += 1
                    session.requests += 1
                    try:
                        return await work(session)
                    finally:
                        session.last_active_s = self.clock()
            finally:
                session.pending -= 1

    def expire_idle(self, now: float | None = None) -> list[str]:
        """Close every session idle for ``ttl_s`` seconds.

        Sessions with queued or running operations are never expired.
        Returns the names closed, for logging.
        """
        now = self.clock() if now is None else now
        closed: list[str] = []
        for name, session in list(self._sessions.items()):
            if session.pending or session.lock.locked():
                continue
            if now - session.last_active_s >= self.ttl_s:
                self._close(session)
                self.expired += 1
                closed.append(name)
        return closed

    def close_all(self) -> list[str]:
        """Close every session (server drain).  Returns the names closed."""
        closed = []
        for session in list(self._sessions.values()):
            self._close(session)
            closed.append(session.name)
        return closed

    def _close(self, session: Session) -> None:
        session.closed = True
        self._sessions.pop(session.name, None)

    def stats(self) -> dict[str, Any]:
        return {
            "live": len(self._sessions),
            "created": self.created,
            "expired": self.expired,
            "max_sessions": self.max_sessions,
            "ttl_s": self.ttl_s,
        }
