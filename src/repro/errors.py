"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch everything the library may raise with a single ``except`` clause while
still being able to discriminate the precise failure mode.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ParseError",
    "ValidationError",
    "ArityError",
    "GroundingError",
    "ArtifactError",
    "SolveTimeoutError",
    "SessionLimitError",
    "CloseConflictError",
    "NotStronglyConnectedError",
    "NotATieError",
    "SemanticsError",
    "ConstructionError",
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
    around each request's solve so one pathological program cannot wedge
    a worker; the request is answered with a structured timeout error
    instead of propagating this exception.
    """

    def __init__(self, timeout_s: float, message: str | None = None):
        super().__init__(message or f"solve exceeded the {timeout_s:g}s per-request deadline")
        self.timeout_s = timeout_s


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
