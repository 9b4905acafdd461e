"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch everything the library may raise with a single ``except`` clause while
still being able to discriminate the precise failure mode.

The per-request solve deadline lives here too, beside
:class:`SolveTimeoutError`: this module imports nothing from the library,
so the kernel can call :func:`check_deadline` between its rounds.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import monotonic
from typing import Iterator

__all__ = [
    "ReproError",
    "ParseError",
    "ValidationError",
    "ArityError",
    "GroundingError",
    "ArtifactError",
    "SolveTimeoutError",
    "WorkerLostError",
    "SessionLimitError",
    "CloseConflictError",
    "NotStronglyConnectedError",
    "NotATieError",
    "SemanticsError",
    "ConstructionError",
    "check_deadline",
    "solve_deadline",
]


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class ParseError(ReproError):
    """Raised when Datalog source text cannot be parsed.

    Carries the 1-based ``line`` and ``column`` of the offending token so
    error messages can point at the exact location.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class ValidationError(ReproError):
    """Raised when a program, rule, or database violates a structural rule."""


class ArityError(ValidationError):
    """Raised when a predicate is used with inconsistent arities."""


class GroundingError(ReproError):
    """Raised when a program cannot be grounded (e.g. empty universe)."""


class ArtifactError(ReproError):
    """Raised when a binary ground artifact cannot be read or verified.

    Covers every failure mode of the ``repro-ground/1`` container
    (:mod:`repro.io.artifact`): bad magic, unsupported format version,
    truncated files (short reads), checksum mismatches, and payloads
    whose section table disagrees with the bytes on disk.
    """


class SolveTimeoutError(ReproError):
    """Raised when a solve exceeds its per-request deadline.

    The serving layer (:mod:`repro.service`) arms a wall-clock deadline
    around each request's solve (:func:`solve_deadline`) so one
    pathological program cannot wedge a worker; the kernel raises this at
    its next round boundary (:func:`check_deadline`), and the request is
    answered with a structured timeout error instead of propagating it.
    """

    def __init__(self, timeout_s: float, message: str | None = None):
        super().__init__(message or f"solve exceeded the {timeout_s:g}s per-request deadline")
        self.timeout_s = timeout_s


#: The current solve's ``(expiry on the monotonic clock, timeout_s)``, or
#: ``None``.  A context variable, so each thread (and each asyncio task)
#: sees only the deadline its own caller armed.
_DEADLINE: ContextVar[tuple[float, float] | None] = ContextVar("repro_deadline", default=None)


@contextmanager
def solve_deadline(timeout_s: float | None) -> Iterator[None]:
    """Arm a wall-clock deadline of ``timeout_s`` seconds for the block.

    ``None`` arms nothing.  The deadline is cooperative: nothing
    interrupts the block, but every :func:`check_deadline` inside it
    raises :class:`SolveTimeoutError` once the time is up.  It works on
    any thread, and the previous deadline is restored on exit.
    """
    if timeout_s is None:
        yield
        return
    token = _DEADLINE.set((monotonic() + timeout_s, timeout_s))
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_deadline() -> None:
    """Raise :class:`SolveTimeoutError` if the armed deadline has passed.

    The kernel calls this once per interpreter round, unfounded round,
    DPLL decision and enumerated model — points where its state is
    consistent — and never inside ``close`` or a propagation loop.
    Without an armed deadline it costs one context-variable read.
    """
    deadline = _DEADLINE.get()
    if deadline is not None and monotonic() > deadline[0]:
        raise SolveTimeoutError(deadline[1])


class WorkerLostError(ReproError):
    """Raised for a request left unanswered when a pool worker died.

    When a worker of the offline batch pool
    (:class:`repro.service.batch.BatchSolver` with ``workers=N``) dies,
    every request of the batch not answered by then gets a structured
    ``worker_lost`` error instead of hanging the batch.
    """


class SessionLimitError(ReproError):
    """Raised when the serving tier's session table is full.

    The concurrent server bounds live stateful sessions
    (:class:`repro.service.sessions.SessionManager`); a request naming a
    new session past the bound is answered with a structured
    ``session_limit`` error instead of growing memory without limit.
    """


class CloseConflictError(ReproError):
    """Raised when ``close(M, G)`` derives an atom that is already false.

    This cannot happen during the well-founded or tie-breaking interpreters
    (Lemma 2 of the paper); it is used as a signal by the close-based
    stable-model test, where a conflict means the candidate is not stable.
    """

    def __init__(self, atom_id: int, message: str | None = None):
        super().__init__(message or f"close() derived atom #{atom_id} which is already false")
        self.atom_id = atom_id


class NotStronglyConnectedError(ReproError):
    """Raised when a tie test is requested on a non-strongly-connected graph."""


class NotATieError(ReproError):
    """Raised when a (K, L) partition is requested for a component with an odd cycle."""


class SemanticsError(ReproError):
    """Raised when an interpreter is used outside its documented domain."""


class ConstructionError(ReproError):
    """Raised when a theorem construction receives unusable input."""
