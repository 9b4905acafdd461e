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

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from repro.datalog.database import Database
from repro.datalog.grounding import GroundingMode, GroundProgram
from repro.datalog.program import Program
from repro.errors import SemanticsError
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
    never trigger a grounding.
    """

    program: Program
    database: Database
    grounding: GroundingMode | None
    gp: Callable[[], GroundProgram]
    options: Mapping[str, Any]


@dataclass(frozen=True)
class SemanticsSpec:
    """One semantics, declaratively.

    * ``default_grounding`` — mode used when neither the engine nor the
      call site picks one; ``None`` means the semantics never touches the
      ground graph (it evaluates on the program/database directly);
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
    default_grounding: GroundingMode | None = "relevant"
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
# Built-in semantics runners.  Each wraps the private implementation living
# in its repro.semantics module.
# ---------------------------------------------------------------------------


def _solve_well_founded(req: SolveRequest) -> Solution:
    from repro.semantics.well_founded import _well_founded_model

    run = _well_founded_model(
        req.program,
        req.database,
        ground_program=req.gp(),
    )
    return Solution.from_interpretation(
        "well_founded",
        run.model,
        iterations=run.iterations,
        state=run.state,
        timings=dict(run.timings or {}),
    )


def _tie_solution(name: str, run: Any) -> Solution:
    return Solution.from_interpretation(
        name,
        run.model,
        choices=run.choices,
        policy=run.policy,
        state=run.state,
        timings=dict(run.timings or {}),
    )


def _solve_tie_breaking(req: SolveRequest) -> Solution:
    from repro.semantics.tie_breaking import _well_founded_tie_breaking

    run = _well_founded_tie_breaking(
        req.program,
        req.database,
        policy=req.options.get("policy"),
        ground_program=req.gp(),
    )
    return _tie_solution("tie_breaking", run)


def _solve_pure_tie_breaking(req: SolveRequest) -> Solution:
    from repro.semantics.tie_breaking import _pure_tie_breaking

    run = _pure_tie_breaking(
        req.program,
        req.database,
        policy=req.options.get("policy"),
        ground_program=req.gp(),
    )
    return _tie_solution("pure_tie_breaking", run)


def _enumerate_ties(req: SolveRequest, name: str, variant: str) -> Iterator[Solution]:
    from repro.semantics.tie_breaking import _enumerate_tie_breaking_models

    for run in _enumerate_tie_breaking_models(
        req.program,
        req.database,
        variant=variant,
        ground_program=req.gp(),
        limit=req.options.get("limit"),
    ):
        yield _tie_solution(name, run)


def _enumerate_tie_breaking(req: SolveRequest) -> Iterator[Solution]:
    return _enumerate_ties(req, "tie_breaking", "well-founded")


def _enumerate_pure_tie_breaking(req: SolveRequest) -> Iterator[Solution]:
    return _enumerate_ties(req, "pure_tie_breaking", "pure")


def _solve_fitting(req: SolveRequest) -> Solution:
    from repro.semantics.fitting import _fitting_model

    model = _fitting_model(req.program, req.database, ground_program=req.gp())
    return Solution.from_interpretation("fitting", model)


def _solve_perfect(req: SolveRequest) -> Solution:
    from repro.semantics.perfect import _perfect_model

    model = _perfect_model(req.program, req.database, ground_program=req.gp())
    return Solution.from_interpretation("perfect", model)


def _solve_alternating(req: SolveRequest) -> Solution:
    from repro.semantics.alternating import _alternating_fixpoint_model

    model = _alternating_fixpoint_model(req.program, req.database, ground_program=req.gp())
    return Solution.from_interpretation("alternating", model)


def _solve_stratified(req: SolveRequest) -> Solution:
    from repro.semantics.stratified import _stratified_model

    kwargs = {}
    if "max_branch" in req.options:
        kwargs["max_branch"] = req.options["max_branch"]
    trues = _stratified_model(req.program, req.database, **kwargs)
    return Solution.from_true_set("stratified", trues)


def _solve_modular(req: SolveRequest) -> Solution:
    from repro.semantics.modular import _modular_well_founded_model

    result = _modular_well_founded_model(
        req.program, req.database, grounding=req.grounding or "relevant"
    )
    return Solution.from_true_set(
        "modular",
        result.true_atoms,
        undefined_atoms=result.undefined_atoms,
        iterations=result.component_count,
    )


def _enumerate_completion(req: SolveRequest) -> Iterator[Solution]:
    from repro.semantics.completion import _enumerate_fixpoints

    for trues in _enumerate_fixpoints(
        req.program,
        req.database,
        ground_program=req.gp(),
        limit=req.options.get("limit"),
    ):
        yield Solution.from_true_set("completion", trues)


def _solve_completion(req: SolveRequest) -> Solution:
    for solution in _enumerate_completion(req):
        return solution
    return Solution.not_found("completion")


def _enumerate_stable(req: SolveRequest) -> Iterator[Solution]:
    from repro.semantics.stable import _enumerate_stable_models

    for trues in _enumerate_stable_models(
        req.program,
        req.database,
        ground_program=req.gp(),
        limit=req.options.get("limit"),
    ):
        yield Solution.from_true_set("stable", trues)


def _solve_stable(req: SolveRequest) -> Solution:
    for solution in _enumerate_stable(req):
        return solution
    return Solution.not_found("stable")


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
        solver=_solve_tie_breaking,
        enumerator=_enumerate_tie_breaking,
        aliases=("wf-tb", "tie-breaking", "well-founded-tie-breaking"),
        default_grounding="relevant",
        options=("policy",),
    )
)

register(
    SemanticsSpec(
        name="pure_tie_breaking",
        summary="Algorithm Pure Tie-Breaking (§3): break ties without the unfounded step",
        solver=_solve_pure_tie_breaking,
        enumerator=_enumerate_pure_tie_breaking,
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
        summary="level-by-level standard model of a stratified program (no grounding)",
        solver=_solve_stratified,
        default_grounding=None,
        options=("max_branch",),
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
