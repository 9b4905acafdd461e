"""repro.api — the unified evaluation surface.

One :class:`Engine` per (program, database): parse once, ground once,
compile the kernel index once, then serve every semantics through one
result schema (:class:`Solution`).  The semantics themselves are
declarative :class:`~repro.api.registry.SemanticsSpec` entries — see
:func:`available_semantics` — so new semantics plug in without new module
exports.  This package is the only way to evaluate a program: the
:mod:`repro.semantics` modules keep the private implementations behind
the registry entries plus the model checkers.
"""

from __future__ import annotations

from repro.api.engine import Engine, enumerate_solutions, solve
from repro.api.registry import (
    SemanticsSpec,
    SolveRequest,
    available_semantics,
    describe_registry,
    get_spec,
    register,
)
from repro.api.solution import Solution

__all__ = [
    "Engine",
    "SemanticsSpec",
    "SolveRequest",
    "Solution",
    "available_semantics",
    "describe_registry",
    "enumerate_solutions",
    "get_spec",
    "register",
    "solve",
]
