"""Declarative semantics registry: one spec per semantics, one result schema.

Every semantics the library implements is described by a
:class:`SemanticsSpec` — its canonical name, aliases, grounding
requirements, accepted options, and the runner (plus optional enumerator)
that produces :class:`~repro.api.solution.Solution` objects.  The
:class:`~repro.api.engine.Engine` resolves names through this table, so a
new semantics plugs in with one :func:`register` call instead of another
hand-written module export.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, Mapping

from repro.datalog.database import Database
from repro.datalog.grounding import GroundingMode, GroundProgram
from repro.datalog.program import Program
from repro.errors import SemanticsError
from repro.ground.model import Interpretation
from repro.ground.state import GroundGraphState
from repro.api.solution import Solution

__all__ = [
    "SemanticsSpec",
    "SolveRequest",
    "register",
    "get_spec",
    "available_semantics",
    "describe_registry",
]


@dataclass(frozen=True)
class SolveRequest:
    """Everything a semantics runner may need, resolved by the engine.

    ``gp`` is a zero-argument callable returning the (cached) ground
    program for the resolved grounding mode — runners that never call it
    never trigger a grounding.  ``tie_state(well_founded)`` returns a
    private kernel state over that ground program, already past the
    tie-breaking prefix every run shares (``close``, the unfounded step
    when ``well_founded``, and the analysis of the first round's bottom
    components), with zeroed ``phase_s``.  ``wf_state()`` returns the
    private, not yet closed state a ``well_founded`` solve runs its
    cascade on: fresh, or the engine's last well-founded end state
    reopened on the forward cone of what updates touched since.
    """

    program: Program
    database: Database
    grounding: GroundingMode
    gp: Callable[[], GroundProgram]
    options: Mapping[str, Any]
    tie_state: Callable[[bool], GroundGraphState]
    wf_state: Callable[[], GroundGraphState]


@dataclass(frozen=True)
class SemanticsSpec:
    """One semantics, declaratively.

    * ``default_grounding`` — mode used when neither the engine nor the
      call site picks one;
    * ``grounding_locked`` — the semantics' *results* depend on its
      grounding mode (e.g. Fitting requires full grounding; pure
      tie-breaking, completion, and stable enumeration are sound only on
      their defaults), so an engine-level default grounding must not
      override the spec default — only an explicit per-call
      ``grounding=`` does;
    * ``options`` — keyword options the runner understands; anything else
      is rejected up front with the available choices;
    * ``solver`` / ``enumerator`` — produce one :class:`Solution` /
      lazily yield every :class:`Solution`.
    """

    name: str
    summary: str
    solver: Callable[[SolveRequest], Solution]
    enumerator: Callable[[SolveRequest], Iterator[Solution]] | None = None
    aliases: tuple[str, ...] = ()
    default_grounding: GroundingMode = "relevant"
    grounding_locked: bool = False
    options: tuple[str, ...] = ()


_REGISTRY: dict[str, SemanticsSpec] = {}
_ALIASES: dict[str, str] = {}


def register(spec: SemanticsSpec) -> SemanticsSpec:
    """Install a semantics spec; its name and aliases become solvable.

    Returns the spec (so it can be used as a decorator-style one-liner);
    raises :class:`~repro.errors.SemanticsError` when a name or alias is
    already registered for a *different* semantics.  Re-registering the
    same name overwrites it — the plug-in path for replacing a built-in.
    """
    for name in (spec.name, *spec.aliases):
        taken = _ALIASES.get(name)
        if taken is not None and taken != spec.name:
            raise SemanticsError(f"semantics name {name!r} already registered for {taken!r}")
    _REGISTRY[spec.name] = spec
    for name in (spec.name, *spec.aliases):
        _ALIASES[name] = spec.name
    return spec


def get_spec(name: str) -> SemanticsSpec:
    """Resolve a semantics name or alias to its spec.

    Raises :class:`~repro.errors.SemanticsError` for unknown names,
    listing the available canonical names.
    """
    canonical = _ALIASES.get(name)
    if canonical is None:
        raise SemanticsError(
            f"unknown semantics {name!r}; available: {', '.join(available_semantics())}"
        )
    return _REGISTRY[canonical]


def available_semantics() -> tuple[str, ...]:
    """Canonical names of every registered semantics, sorted."""
    return tuple(sorted(_REGISTRY))


def describe_registry() -> str:
    """Human-readable table of the registry (CLI ``run --semantics help``)."""
    lines = []
    for name in available_semantics():
        spec = _REGISTRY[name]
        aka = f" (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
        lines.append(f"{name:<18} {spec.summary}{aka}")
    return "\n".join(lines)


def _check_options(spec: SemanticsSpec, options: Mapping[str, Any]) -> None:
    unknown = sorted(set(options) - set(spec.options))
    if unknown:
        allowed = ", ".join(spec.options) if spec.options else "(none)"
        raise SemanticsError(
            f"semantics {spec.name!r} does not accept option(s) "
            f"{', '.join(unknown)}; allowed: {allowed}"
        )


# ---------------------------------------------------------------------------
# Built-in semantics runners.  Each hands the engine's ground program to
# the private implementation in its repro.semantics module and wraps the
# model it returns over that program — this is the one place a Solution is
# built.  The set-based semantics (stratified, modular, completion, stable)
# mark their solutions closed_world.
# ---------------------------------------------------------------------------


def _solve_well_founded(req: SolveRequest) -> Solution:
    from repro.semantics.well_founded import finish_well_founded

    state = req.wf_state()
    iterations = finish_well_founded(state)
    return Solution.from_interpretation(
        "well_founded",
        state.interpretation(),
        iterations=iterations,
        state=state,
        timings=dict(state.phase_s),
    )


def _solve_ties(req: SolveRequest, name: str, well_founded: bool) -> Solution:
    from repro.semantics.choices import FirstSideTrue
    from repro.semantics.tie_breaking import _run

    state = req.tie_state(well_founded)
    policy = req.options.get("policy") or FirstSideTrue()
    # Run on a copy: a stateful policy must replay from its reported
    # description on every solve, not continue where the caller's
    # instance stands (a copy of a RandomChoice restarts from its seed).
    choices = _run(state, copy.deepcopy(policy), well_founded=well_founded)
    # A cached solution keeps its state only for explain.
    state.finish()
    return Solution.from_interpretation(
        name,
        state.interpretation(),
        choices=tuple(choices),
        policy=repr(policy),
        state=state,
        timings=dict(state.phase_s),
    )


def _enumerate_ties(req: SolveRequest, name: str, well_founded: bool) -> Iterator[Solution]:
    from repro.semantics.tie_breaking import _enumerate_tie_breaking_models

    for model, choices in _enumerate_tie_breaking_models(
        req.tie_state(well_founded), well_founded=well_founded, limit=req.options.get("limit")
    ):
        yield Solution.from_interpretation(name, model, choices=choices, policy="enumerated")


def _solve_fitting(req: SolveRequest) -> Solution:
    from repro.semantics.fitting import _fitting_model

    return Solution.from_interpretation("fitting", _fitting_model(req.gp()))


def _solve_perfect(req: SolveRequest) -> Solution:
    from repro.semantics.perfect import _perfect_model

    return Solution.from_interpretation("perfect", _perfect_model(req.gp()))


def _solve_alternating(req: SolveRequest) -> Solution:
    from repro.semantics.alternating import _alternating_fixpoint_model

    return Solution.from_interpretation("alternating", _alternating_fixpoint_model(req.gp()))


def _solve_stratified(req: SolveRequest) -> Solution:
    # On a stratified program the well-founded model is total and equals
    # the stratified model (Van Gelder, Ross and Schlipf).
    from repro.semantics.stratified import stratification

    if stratification(req.program) is None:
        raise SemanticsError("program is not stratified")
    return _solve_well_founded(req).replace(
        semantics="stratified", iterations=None, closed_world=True
    )


def _solve_modular(req: SolveRequest) -> Solution:
    from repro.semantics.modular import _modular_model

    model, components = _modular_model(req.gp())
    return Solution.from_interpretation("modular", model, iterations=components, closed_world=True)


def _enumerate_completion(req: SolveRequest) -> Iterator[Solution]:
    from repro.semantics.completion import _enumerate_fixpoints

    for model in _enumerate_fixpoints(req.gp(), limit=req.options.get("limit")):
        yield Solution.from_interpretation("completion", model, closed_world=True)


def _solve_completion(req: SolveRequest) -> Solution:
    for solution in _enumerate_completion(req):
        return solution
    return Solution.not_found("completion", Interpretation(req.gp(), ()))


def _enumerate_stable(req: SolveRequest) -> Iterator[Solution]:
    from repro.semantics.stable import _enumerate_stable_models

    for model in _enumerate_stable_models(req.gp(), limit=req.options.get("limit")):
        yield Solution.from_interpretation("stable", model, closed_world=True)


def _solve_stable(req: SolveRequest) -> Solution:
    for solution in _enumerate_stable(req):
        return solution
    return Solution.not_found("stable", Interpretation(req.gp(), ()))


register(
    SemanticsSpec(
        name="well_founded",
        summary="Algorithm Well-Founded (§2): the unique partial model",
        solver=_solve_well_founded,
        aliases=("wf", "well-founded"),
        default_grounding="relevant",
    )
)

register(
    SemanticsSpec(
        name="tie_breaking",
        summary="Algorithm Well-Founded Tie-Breaking (§3): total results are stable",
        solver=partial(_solve_ties, name="tie_breaking", well_founded=True),
        enumerator=partial(_enumerate_ties, name="tie_breaking", well_founded=True),
        aliases=("wf-tb", "tie-breaking", "well-founded-tie-breaking"),
        default_grounding="relevant",
        options=("policy",),
    )
)

register(
    SemanticsSpec(
        name="pure_tie_breaking",
        summary="Algorithm Pure Tie-Breaking (§3): break ties without the unfounded step",
        solver=partial(_solve_ties, name="pure_tie_breaking", well_founded=False),
        enumerator=partial(_enumerate_ties, name="pure_tie_breaking", well_founded=False),
        aliases=("pure-tb", "pure"),
        default_grounding="full",
        grounding_locked=True,
        options=("policy",),
    )
)

register(
    SemanticsSpec(
        name="fitting",
        summary="Fitting / Kripke-Kleene three-valued least fixpoint",
        solver=_solve_fitting,
        aliases=("kripke-kleene",),
        default_grounding="full",
        grounding_locked=True,
    )
)

register(
    SemanticsSpec(
        name="perfect",
        summary="Przymusinski's perfect model of a locally stratified program",
        solver=_solve_perfect,
        default_grounding="full",
        grounding_locked=True,
    )
)

register(
    SemanticsSpec(
        name="stratified",
        summary="standard model of a stratified program (the total well-founded model)",
        solver=_solve_stratified,
        default_grounding="relevant",
    )
)

register(
    SemanticsSpec(
        name="completion",
        summary="fixpoints (supported models) via Clark-completion SAT",
        solver=_solve_completion,
        enumerator=_enumerate_completion,
        aliases=("fixpoints", "supported"),
        default_grounding="full",
        grounding_locked=True,
    )
)

register(
    SemanticsSpec(
        name="stable",
        summary="stable models: completion fixpoints filtered by the GL reduct",
        solver=_solve_stable,
        enumerator=_enumerate_stable,
        default_grounding="full",
        grounding_locked=True,
    )
)

register(
    SemanticsSpec(
        name="alternating",
        summary="well-founded model via Van Gelder's alternating fixpoint of Γ²",
        solver=_solve_alternating,
        default_grounding="relevant",
    )
)

register(
    SemanticsSpec(
        name="modular",
        summary="well-founded model, one program-graph SCC at a time",
        solver=_solve_modular,
        default_grounding="relevant",
    )
)
