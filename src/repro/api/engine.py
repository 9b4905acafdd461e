"""The Engine facade: parse and ground once, serve every semantics.

One :class:`Engine` owns the full pipeline for one (program, database)
pair: parse → ground → compile the :class:`~repro.datalog.grounding.GroundIndex`
kernel view, each exactly once per grounding mode, then answer any number
of ``solve`` / ``enumerate`` / ``query_many`` / ``explain`` calls against
the shared compiled ground graph.  This is the one entry point for
evaluating a program: the CLI, the examples, the server and the repository
benchmark all ride it.

    >>> from repro.api import Engine
    >>> engine = Engine("win(X) :- move(X, Y), not win(Y).", "move(1, 2). move(2, 1).")
    >>> engine.solve("well_founded").total
    False
    >>> engine.solve("tie_breaking").total
    True
    >>> engine.ground_calls  # both solves shared one grounding
    1
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import Any, Iterable, Iterator, Mapping

from repro.analysis.classify import ProgramClassification, classify_program
from repro.analysis.structural import StructuralReport, structural_report
from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.grounding import (
    GROUNDING_MODES,
    GroundingMode,
    GroundProgram,
    apply_facts_delta,
    ground,
)
from repro.datalog.parser import parse_atom, parse_database, parse_program
from repro.datalog.program import Program
from repro.datalog.terms import Constant
from repro.engine.plan import ConstantPool
from repro.errors import GroundingError, SemanticsError, check_deadline
from repro.ground.state import GroundGraphState
from repro.io.artifact import load_artifact, save_ground_program
from repro.api.registry import SemanticsSpec, SolveRequest, _check_options, get_spec
from repro.api.solution import Solution
from repro.semantics.choices import ChoicePolicy
from repro.semantics.tie_breaking import TieSolve, TieTable, _ReplaySides, _run

__all__ = ["Engine", "solve", "enumerate_solutions"]

#: The tie-breaking semantics: their checkpoints' tie tables are their only
#: cache, so :meth:`Engine.solve` keeps no last solution for them.
_TIE_SEMANTICS = frozenset({"tie_breaking", "pure_tie_breaking"})


def _check_grounding(mode: str | None) -> None:
    if mode is not None and mode not in GROUNDING_MODES:
        raise SemanticsError(
            f"unknown grounding mode {mode!r}; allowed: {', '.join(GROUNDING_MODES)}"
        )


class _TieCheckpoint:
    """A kernel state at the end of the tie-breaking prefix (see
    :meth:`Engine._tie_checkpoint`), the number of solves it has served,
    and its :class:`~repro.semantics.tie_breaking.TieTable`: built on the
    second solve, ``None`` before that and once it does not apply."""

    __slots__ = ("state", "solves", "table")

    def __init__(self, state: GroundGraphState) -> None:
        self.state = state
        self.solves = 0
        self.table: TieTable | None = None


def _change(database: Database, inserted: Iterable[Atom], retracted: Iterable[Atom]) -> None:
    """Apply one update to ``database``: retractions first, then insertions."""
    for a in retracted:
        database.discard_atom(a)
    for a in inserted:
        database.add_atom(a)


class Engine:
    """Session-style evaluation engine over one (program, database) pair.

    ``program`` / ``database`` accept parsed objects or Datalog source
    text.  ``grounding`` fixes a default mode for every semantics (each
    spec carries its own default otherwise); ``ground_program`` seeds the
    cache with an existing compiled ground program (it is then used for
    every solve);
    ``policy`` is the default tie-orientation policy.
    """

    def __init__(
        self,
        program: Program | str,
        database: Database | str | None = None,
        *,
        grounding: GroundingMode | None = None,
        ground_program: GroundProgram | None = None,
        policy: Any | None = None,
    ) -> None:
        _check_grounding(grounding)
        t0 = perf_counter()
        if isinstance(program, str):
            program = parse_program(program)
        if isinstance(database, str):
            database = parse_database(database)
        parse_s = perf_counter() - t0
        self.program = program
        self.database = database if database is not None else Database()
        self.default_grounding = grounding
        self.default_policy = policy
        self.ground_calls = 0
        self.index_builds = 0
        self.update_calls = 0
        self.facts_inserted = 0
        self.facts_retracted = 0
        self.delta_applied = 0
        self.delta_rebuilds = 0
        self.checkpoint_builds = 0
        self.wf_patches = 0
        self._timings: dict[str, float] = {"parse_s": parse_s, "ground_s": 0.0, "compile_s": 0.0}
        # One interning session: every grounding mode of this engine shares
        # the same constant → dense-id mapping (and hence row encodings).
        self._pool = ConstantPool()
        self._ground_cache: dict[GroundingMode, GroundProgram] = {}
        # The last solution per deterministic semantics, with the options
        # it was solved with; see solve.
        self._last: dict[str, tuple[dict[str, Any], Solution]] = {}
        # Kernel states at the end of the tie-breaking prefix, with their
        # tie tables, keyed by (grounding mode, well_founded); see
        # _tie_checkpoint and _tie_solve.
        self._checkpoints: dict[tuple[GroundingMode, bool], _TieCheckpoint] = {}
        self.tie_table_solves = 0
        self.tie_table_fallbacks = 0
        # The last well-founded end state per grounding mode, with the atom
        # ids every update since has touched; see _wf_state.
        self._wf_bases: dict[GroundingMode, tuple[GroundGraphState, set[int]]] = {}
        self.solution_cache_hits = 0
        self._pinned = ground_program
        if ground_program is not None:
            self._ground_cache[ground_program.mode] = ground_program

    @classmethod
    def from_files(
        cls,
        program_path: str | Path,
        db_path: str | Path | None = None,
        **kwargs: Any,
    ) -> "Engine":
        """Build an engine from a program file and an optional facts file.

        ``program_path`` / ``db_path`` name Datalog¬ source files parsed
        with :mod:`repro.datalog.parser`; ``kwargs`` pass through to the
        constructor.  Raises ``OSError`` for unreadable paths and
        :class:`~repro.errors.ParseError` for invalid source.
        """
        program = Path(program_path).read_text()
        database = Path(db_path).read_text() if db_path else None
        return cls(program, database, **kwargs)

    # -- the one compile ---------------------------------------------------

    @property
    def timings(self) -> Mapping[str, float]:
        """Accumulated one-time pipeline costs (parse / ground / compile /
        tie-breaking checkpoint builds)."""
        return dict(self._timings)

    def ground_for(
        self, mode: GroundingMode | None = None, *, max_instances: int | None = None
    ) -> GroundProgram:
        """The compiled ground program for ``mode``, grounding at most once.

        A pinned ``ground_program`` (constructor argument) is always
        returned as-is; otherwise each mode is grounded and kernel-compiled
        on first use and served from the cache afterwards.

        Raises :class:`~repro.errors.GroundingError` when a cached
        grounding exceeds a newly requested ``max_instances`` cap.
        """
        if self._pinned is not None:
            return self._pinned
        resolved: GroundingMode = mode or self.default_grounding or "relevant"
        gp = self._ground_cache.get(resolved)
        if gp is None:
            kwargs: dict[str, Any] = {}
            if max_instances is not None:
                kwargs["max_instances"] = max_instances
            t0 = perf_counter()
            gp = ground(self.program, self.database, mode=resolved, pool=self._pool, **kwargs)
            self.ground_calls += 1
            self._timings["ground_s"] += perf_counter() - t0
            t0 = perf_counter()
            gp.index  # compile the CSR kernel arrays once, shared by every state
            self.index_builds += 1
            self._timings["compile_s"] += perf_counter() - t0
            self._ground_cache[resolved] = gp
        elif max_instances is not None and gp.rule_count > max_instances:
            # The cache holds a grounding that violates the caller's cap;
            # serving it would silently ignore the explosion guard.
            raise GroundingError(
                f"cached {resolved!r} grounding has {gp.rule_count} instances, "
                f"exceeding the requested max_instances={max_instances}"
            )
        return gp

    def save_artifact(self, path: str | Path, mode: GroundingMode | None = None) -> Path:
        """Serialize one mode's compiled grounding as a binary artifact.

        Grounds (or reuses the cached grounding of) ``mode`` — resolved
        exactly like :meth:`ground_for` — and writes it atomically to
        ``path`` in the ``repro-ground/1`` format.  Returns the written
        path; the save is timed under ``timings["artifact_save_s"]``.
        """
        gp = self.ground_for(mode)
        t0 = perf_counter()
        target = save_ground_program(gp, path)
        self._timings["artifact_save_s"] = (
            self._timings.get("artifact_save_s", 0.0) + perf_counter() - t0
        )
        return target

    @classmethod
    def from_artifact(
        cls,
        source: str | Path | bytes,
        *,
        policy: Any | None = None,
    ) -> "Engine":
        """Warm-start an engine from a ``repro-ground/1`` artifact.

        The returned engine never re-parses, re-grounds, or recompiles:
        program, database, constant pool, the compiled ground program,
        *and* the kernel index (restored array-for-array by
        :func:`~repro.io.artifact.load_artifact`) all come from the
        artifact, whose grounding mode becomes the engine's default — so
        the first ``solve`` pays only solve time, and ``index_builds``
        stays 0.  ``timings["artifact_load_s"]`` records the load.

        Raises :class:`~repro.errors.ArtifactError` if the artifact is
        corrupt or from an incompatible format version.
        """
        t0 = perf_counter()
        artifact = load_artifact(source)
        gp = artifact.ground_program
        engine = cls(gp.program, gp.database, grounding=gp.mode, policy=policy)
        engine._pool = artifact.pool
        engine._ground_cache[gp.mode] = gp
        engine._timings["artifact_load_s"] = perf_counter() - t0
        return engine

    def _resolve_grounding(
        self, spec: SemanticsSpec, requested: GroundingMode | None
    ) -> GroundingMode:
        if spec.grounding_locked:
            return requested or spec.default_grounding
        return requested or self.default_grounding or spec.default_grounding

    def grounded(
        self, semantics: str, grounding: GroundingMode | None = None
    ) -> GroundProgram | None:
        """The ground program a ``solve(semantics, grounding=grounding)``
        reads, if it is built already; ``None`` when it is not, and for an
        unknown semantics.  Grounds nothing and raises nothing."""
        if self._pinned is not None:
            return self._pinned
        try:
            spec = get_spec(semantics)
        except SemanticsError:
            return None
        return self._ground_cache.get(self._resolve_grounding(spec, grounding))

    def _request(
        self, spec: SemanticsSpec, options: dict[str, Any], *, enumerating: bool = False
    ) -> tuple[SolveRequest, dict[str, Any]]:
        """The runner's request, plus a record of the well-founded state it
        ran on (see :meth:`_wf_state`), if any."""
        requested = options.pop("grounding", None)
        _check_grounding(requested)
        max_instances = options.pop("max_instances", None)
        if "policy" in spec.options and options.get("policy") is None:
            options["policy"] = self.default_policy
        # ``limit`` is engine-managed and only meaningful when enumerating;
        # on solve() it is rejected like any other unknown option.
        checked = {k: v for k, v in options.items() if not (enumerating and k == "limit")}
        _check_options(spec, checked)
        grounding = self._resolve_grounding(spec, requested)
        used: dict[str, Any] = {}

        def fetch() -> GroundProgram:
            return self.ground_for(grounding, max_instances=max_instances)

        request = SolveRequest(
            program=self.program,
            database=self.database,
            grounding=grounding,
            gp=fetch,
            options=options,
            tie_state=lambda well_founded: self._tie_state(fetch(), well_founded),
            tie_solve=lambda well_founded, policy: self._tie_solve(fetch(), well_founded, policy),
            wf_state=lambda: self._wf_state(fetch(), used),
        )
        return request, used

    def _wf_state(self, gp: GroundProgram, used: dict[str, Any]) -> GroundGraphState:
        """The kernel state a ``well_founded`` solve runs its cascade on.

        After a well-founded solve the engine keeps its end state as the
        mode's base, and updates add the atom ids they touched to the
        base's set.  The next solve takes the base out of ``_wf_bases``
        and runs on ``base.reopen(touched)``: the same state, with only
        the forward cone of those atoms reset in place (counted in
        ``wf_patches``).  Without a base it is a fresh state.  The state
        is noted in ``used`` so :meth:`solve` can keep it as the next
        base once the solve has finished; a solve that raises (deadline,
        conflict) keeps nothing, so the next one starts fresh.
        """
        entry = self._wf_bases.pop(gp.mode, None)
        if entry is not None:
            base, touched = entry
            state = base.reopen(touched)
            self.wf_patches += 1
        else:
            state = GroundGraphState(gp)
        used["wf_state"] = state
        return state

    def _tie_checkpoint(self, gp: GroundProgram, well_founded: bool) -> _TieCheckpoint:
        """The kernel state at the end of the tie-breaking prefix.

        Every tie-breaking run on one ground program starts the same way:
        ``close``, the unfounded-set cascade (well-founded variant only),
        and the analysis of the first round's bottom components.  No
        policy or seed can change that prefix, so it runs once per
        (grounding mode, ``well_founded``).  ``bottom_components_live``
        memoizes every first-round :class:`BottomComponent` and its
        sides on the checkpoint; clones share them, so no solve analyses
        them again.  The build is booked once under
        ``timings["checkpoint_s"]``; updates drop every checkpoint, and
        its tie table with it.
        """
        key = (gp.mode, well_founded)
        checkpoint = self._checkpoints.get(key)
        if checkpoint is None:
            t0 = perf_counter()
            state = GroundGraphState(gp)
            state.close()
            if well_founded:
                state.falsify_unfounded(numbered=False)
            state.bottom_components_live()
            checkpoint = self._checkpoints[key] = _TieCheckpoint(state)
            self.checkpoint_builds += 1
            self._timings["checkpoint_s"] = (
                self._timings.get("checkpoint_s", 0.0) + perf_counter() - t0
            )
        return checkpoint

    def _tie_state(self, gp: GroundProgram, well_founded: bool) -> GroundGraphState:
        """A private clone of the checkpoint, with ``phase_s`` zeroed."""
        state = self._tie_checkpoint(gp, well_founded).state.clone()
        state.phase_s = dict.fromkeys(state.phase_s, 0.0)
        return state

    def _tie_solve(self, gp: GroundProgram, well_founded: bool, policy: ChoicePolicy) -> TieSolve:
        """One tie-breaking solve from the checkpoint.

        The first solve of a checkpoint runs ``_run`` on a clone.  The
        second builds the checkpoint's
        :class:`~repro.semantics.tie_breaking.TieTable` (or finds that it
        does not apply), and from then on every solve draws each
        first-round tie's side from ``policy``, booked as ``tie_select_s``.
        When the table holds every drawn outcome, the solve is read from
        it: one :func:`~repro.errors.check_deadline`, no clone and no
        ``close``, booked as ``tie_apply_s`` (counted in
        ``tie_table_solves``).  It
        is the trail flags over the table (a
        :class:`~repro.semantics.tie_breaking.TableModel`); its status,
        choices and state are built when first asked for.  Otherwise ``_run`` runs
        on a clone with the drawn sides replayed first, so the policy's
        stream matches a plain run, and the table records what the run
        shows (counted in ``tie_table_fallbacks``); a run that goes past
        its first round, or needs the unfounded step there, marks the
        table not applicable for good.  A run that raises (a timeout)
        stores nothing.
        """
        checkpoint = self._tie_checkpoint(gp, well_founded)
        table = checkpoint.table
        if table is None and checkpoint.solves == 1:
            table = TieTable.build(checkpoint.state)
        if table is None:
            solved = self._tie_run(gp, well_founded, policy)
        else:
            t0 = perf_counter()
            flags = table.draw(policy)
            draw_s = perf_counter() - t0
            if table.covers(flags):
                check_deadline()
                t0 = perf_counter()
                solved = table.solve(flags)
                solved.phase_s["tie_apply_s"] = perf_counter() - t0
                self.tie_table_solves += 1
            else:
                solved = self._tie_run(gp, well_founded, _ReplaySides(flags, then=policy))
                self.tie_table_fallbacks += 1
                if not table.fill(solved.state(), flags, solved.choices()):
                    table = None
            solved.phase_s["tie_select_s"] += draw_s
        checkpoint.table = table
        checkpoint.solves += 1
        return solved

    def _tie_run(self, gp: GroundProgram, well_founded: bool, policy: ChoicePolicy) -> TieSolve:
        """``_run`` on a clone of the checkpoint, finished."""
        state = self._tie_state(gp, well_founded)
        choices = _run(state, policy, well_founded=well_founded)
        state.finish()
        return TieSolve.of_run(state, choices)

    def _finalize(self, solution: Solution, solve_s: float) -> Solution:
        # Keep whatever the solver recorded (the kernel's per-phase solve
        # breakdown: close_s / unfounded_s / tie_select_s / tie_apply_s /
        # tie_analysis_s) and add the engine-level pipeline costs on top.
        # Any result_s the solver already accumulated (a lazy view touched
        # inside the solve window) is subtracted from solve_s, so the
        # result phase books non-overlapping — the same discipline as
        # tie_analysis_s inside tie_select_s.
        overlap = solution.timings.get("result_s", 0.0)
        if overlap:
            solve_s = max(0.0, solve_s - overlap)
        return solution.replace(
            timings={**solution.timings, **self._timings, "solve_s": solve_s}
        )

    # -- solving -----------------------------------------------------------

    def solve(self, semantics: str = "tie_breaking", **options: Any) -> Solution:
        """Evaluate under one semantics, returning the unified :class:`Solution`.

        ``semantics`` is any registry name or alias (``well_founded``,
        ``stable``, ``tie_breaking``, ``fitting``, ``perfect``,
        ``stratified``, ``completion``, ...); ``options`` may include
        ``grounding`` plus whatever the spec accepts (e.g. ``policy``).
        Raises :class:`~repro.errors.SemanticsError` for unknown names or
        options the spec rejects, and
        :class:`~repro.errors.GroundingError` if grounding exceeds a
        requested ``max_instances`` cap.

        A deterministic semantics keeps its last solution: a repeat with
        options that compare equal (and no update in between) returns a
        new solution equal to the first, sharing its ``state``, not the
        same object (counted in ``solution_cache_hits``); the
        ``query``/``query_many``/``explain`` helpers ride it.  The
        tie-breaking semantics keep none: a repeated policy is drawn again
        and, on a warm checkpoint, served from its tie table (see
        :meth:`_tie_solve`).  Pass a policy with a different seed for an
        independent nondeterministic run.
        """
        spec = get_spec(semantics)
        last = self._last.get(spec.name)
        if last is not None and last[0] == options:
            self.solution_cache_hits += 1
            stored = last[1]
            # A timings dict of its own: each solution books ``result_s``
            # for the atom views it decodes.
            return stored.replace(timings=dict(stored.timings))
        request, used = self._request(spec, dict(options))
        t0 = perf_counter()
        solution = self._finalize(spec.solver(request), perf_counter() - t0)
        state = used.get("wf_state")
        if state is not None:
            self._wf_bases[state.gp.mode] = (state, set())
        if spec.name not in _TIE_SEMANTICS:
            self._last[spec.name] = (options, solution)
        return solution

    def enumerate(
        self, semantics: str = "tie_breaking", *, limit: int | None = None, **options: Any
    ) -> Iterator[Solution]:
        """Lazily yield every model of an enumerable semantics.

        ``limit`` caps the number of yielded solutions (``None`` means
        all); ``options`` are checked against the spec exactly as in
        :meth:`solve` (raising :class:`~repro.errors.SemanticsError`
        otherwise).  Deterministic semantics yield their single solution
        (zero when ``limit=0``), so callers can treat every semantics
        uniformly.
        """
        spec = get_spec(semantics)
        all_options = dict(options)
        all_options["limit"] = limit
        request, _ = self._request(spec, all_options, enumerating=True)
        if spec.enumerator is None:
            if limit is not None and limit <= 0:
                return
            t0 = perf_counter()
            solution = spec.solver(request)
            yield self._finalize(solution, perf_counter() - t0)
            return
        t0 = perf_counter()
        for solution in spec.enumerator(request):
            yield self._finalize(solution, perf_counter() - t0)
            t0 = perf_counter()

    # -- streaming updates -------------------------------------------------

    @staticmethod
    def _parse_facts(facts: Iterable[Atom | str | tuple]) -> list[Atom]:
        parsed: list[Atom] = []
        for f in facts:
            if isinstance(f, Atom):
                parsed.append(f)
            elif isinstance(f, str):
                parsed.append(parse_atom(f))
            elif isinstance(f, tuple) and f and isinstance(f[0], str):
                parsed.append(
                    Atom(
                        f[0],
                        tuple(v if isinstance(v, Constant) else Constant(v) for v in f[1:]),
                    )
                )
            else:
                raise SemanticsError(
                    f"facts must be Atoms, atom source text, or (predicate, values...) "
                    f"tuples, not {f!r}"
                )
        return parsed

    def insert_facts(self, *facts: Atom | str | tuple) -> list[Atom]:
        """Insert EDB facts into the live session.

        ``facts`` are ground atoms — parsed, source text (``"move(1, 2)"``)
        or ``("move", 1, 2)`` tuples.  The database is updated and every
        cached grounding is re-grounded *incrementally*: the semi-naive
        plans re-fire from the inserted rows only, new rule instances are
        appended to the shared kernel arrays, and the next solve runs on
        the updated graph.  Groundings outside the incremental envelope
        (e.g. the update changed the Herbrand universe) are transparently
        dropped and rebuilt on next use (counted in ``delta_rebuilds``).

        Returns the atoms that were actually new (already-present facts
        are no-ops).  Cached solutions are invalidated either way.  A
        rejected update — a non-ground fact, an arity clash, or a pinned
        ground program it cannot stream into — raises and leaves the
        engine exactly as it was.
        """
        atoms = self._parse_facts(facts)
        self.database.check_addable(atoms)
        applied = []
        seen: set[Atom] = set()
        for a in atoms:
            if a not in seen and not self.database.contains_atom(a):
                seen.add(a)
                applied.append(a)
        if not applied:
            return []
        self._apply_update(applied, [])
        return applied

    def retract_facts(self, *facts: Atom | str | tuple) -> list[Atom]:
        """Retract EDB facts from the live session.

        The mirror of :meth:`insert_facts`: rows leave the database, the
        delete-rederive pass retracts everything no longer derivable,
        dependent rule instances are disabled, and atoms that left the
        relevant universe become inert ghosts.  Returns the atoms that
        were actually present.
        """
        atoms = self._parse_facts(facts)
        applied = []
        seen: set[Atom] = set()
        for a in atoms:
            if a not in seen and self.database.contains_atom(a):
                seen.add(a)
                applied.append(a)
        if not applied:
            return []
        self._apply_update([], applied)
        return applied

    def _apply_update(self, inserted: list[Atom], retracted: list[Atom]) -> None:
        t0 = perf_counter()
        # A pinned/loaded grounding may carry its own database object;
        # mirror the change so its view stays consistent.
        databases = {id(self.database): self.database}
        for gp in self._ground_cache.values():
            databases.setdefault(id(gp.database), gp.database)
        for database in databases.values():
            _change(database, inserted, retracted)
        for mode, gp in list(self._ground_cache.items()):
            base = self._wf_bases.get(mode)
            touched = base[1] if base is not None else None
            if apply_facts_delta(gp, inserted, retracted, touched=touched):
                self.delta_applied += 1
                if base is not None:
                    # The base's reopen reads gp.index; the index it was
                    # solved on would otherwise stay alive until then.
                    base[0]._idx = None
            elif gp is self._pinned:
                # apply_facts_delta left the ground program untouched;
                # undo the database change so the engine is unchanged too.
                for database in databases.values():
                    _change(database, retracted, inserted)
                raise SemanticsError(
                    "update falls outside the incremental envelope of the pinned "
                    "ground program (the universe changed or its mode cannot be "
                    "updated in place); rebuild the Engine from the mutated database"
                )
            else:
                del self._ground_cache[mode]
                self._wf_bases.pop(mode, None)
                self.delta_rebuilds += 1
        self.update_calls += 1
        self.facts_inserted += len(inserted)
        self.facts_retracted += len(retracted)
        self._last.clear()
        self._checkpoints.clear()
        self._timings["update_s"] = self._timings.get("update_s", 0.0) + perf_counter() - t0

    # -- batched queries ---------------------------------------------------

    def query(self, predicate: str, *, semantics: str = "well_founded", **options: Any):
        """Rows of one predicate under a semantics.

        Returns a :class:`~repro.semantics.queries.QueryResult` with the
        predicate's ``true_rows`` / ``undefined_rows`` constant tuples;
        raises :class:`~repro.errors.SemanticsError` when ``predicate``
        occurs in neither the program nor the database.  The engine
        evaluates its *whole* program once (shared with every other query
        on this engine); ``total`` reports the totality of that full model.
        To ground only the predicate's support cone, build the engine over
        :func:`~repro.analysis.dependencies.relevant_subprogram` instead.
        """
        from repro.semantics.queries import QueryResult

        if (
            predicate not in self.program.predicates
            and predicate not in self.database.predicates()
        ):
            raise SemanticsError(f"unknown predicate {predicate!r}")
        solution = self.solve(semantics, **options)
        # Walk the partition ids and decode only the queried predicate's
        # atoms — the full sets are never built.
        table = solution.ground_program.atoms
        true_rows = frozenset(
            tuple(c.value for c in a.args)
            for a in map(table.atom, solution.true_ids)
            if a.predicate == predicate
        )
        undefined_rows = frozenset(
            tuple(c.value for c in a.args)
            for a in map(table.atom, solution.undefined_ids)
            if a.predicate == predicate
        )
        if predicate in self.database.predicates():
            true_rows |= frozenset(
                tuple(c.value for c in row) for row in self.database[predicate]
            )
        return QueryResult(
            predicate=predicate,
            true_rows=true_rows,
            undefined_rows=undefined_rows,
            total=solution.total,
        )

    def query_many(
        self,
        atoms: Iterable[Atom | str],
        *,
        semantics: str = "well_founded",
        **options: Any,
    ) -> dict[Atom, bool | None]:
        """Truth values of many ground atoms from a single evaluation.

        The batched path for multi-atom workloads: one solve serves every
        atom in the batch (and future batches reuse the same compiled
        ground program).  Atoms may be given parsed or as source text;
        returns ``{Atom: True | False | None}`` (``None`` = undefined)
        under the solution's model convention.  Raises
        :class:`~repro.errors.ParseError` for unparsable atom text and
        whatever :meth:`solve` raises for the semantics itself.
        """
        parsed = [parse_atom(a) if isinstance(a, str) else a for a in atoms]
        solution = self.solve(semantics, **options)
        return {atom: solution.value(atom) for atom in parsed}

    # -- analysis and provenance ------------------------------------------

    def analyze(self) -> tuple[ProgramClassification, StructuralReport]:
        """Paper-taxonomy classification plus the structural totality report."""
        return classify_program(self.program), structural_report(self.program)

    def explain(self, atom: Atom | str, *, semantics: str = "tie_breaking", **options: Any):
        """Provenance tree for one atom's value under a state-carrying semantics.

        ``atom`` is a ground atom (parsed or source text); ``max_depth``
        (default 12) bounds the tree depth; remaining ``options`` go to
        :meth:`solve`.  Returns an
        :class:`~repro.ground.explain.Explanation`; raises
        :class:`~repro.errors.SemanticsError` when the chosen semantics
        retains no evaluation state to explain from.
        """
        from repro.ground.explain import explain as explain_state

        max_depth = options.pop("max_depth", 12)
        target = parse_atom(atom) if isinstance(atom, str) else atom
        solution = self.solve(semantics, **options)
        if solution.state is None:
            raise SemanticsError(
                f"semantics {semantics!r} records no evaluation state to explain from"
            )
        return explain_state(solution.state, target, max_depth=max_depth)

    def witness_search(self, *, max_constants: int = 1, nonuniform: bool = True) -> Database | None:
        """Bounded §5 search for a database admitting no fixpoint.

        ``max_constants`` bounds the fresh constants the searched
        databases may mention; ``nonuniform`` restricts candidates to
        EDB-only facts (the paper's nonuniform setting).  Returns a
        witness :class:`~repro.datalog.database.Database` or ``None``
        when none exists within the bound (evidence of totality, not
        proof — Theorem 6).
        """
        from repro.analysis.totality_search import search_nontotality_witness

        return search_nontotality_witness(
            self.program, max_constants=max_constants, nonuniform=nonuniform
        )

    def stats(self) -> dict[str, Any]:
        """Pipeline counters: how often the engine actually compiled."""
        return {
            "ground_calls": self.ground_calls,
            "index_builds": self.index_builds,
            "update_calls": self.update_calls,
            "facts_inserted": self.facts_inserted,
            "facts_retracted": self.facts_retracted,
            "delta_applied": self.delta_applied,
            "delta_rebuilds": self.delta_rebuilds,
            "checkpoint_builds": self.checkpoint_builds,
            "wf_patches": self.wf_patches,
            "interned_constants": len(self._pool),
            "cached_modes": sorted(self._ground_cache),
            "cached_solutions": len(self._last),
            "solution_cache_hits": self.solution_cache_hits,
            "tie_table_solves": self.tie_table_solves,
            "tie_table_fallbacks": self.tie_table_fallbacks,
            "tie_table_bytes": sum(
                c.table.nbytes for c in self._checkpoints.values() if c.table is not None
            ),
            "tie_text_bytes": sum(
                c.table.text_nbytes for c in self._checkpoints.values() if c.table is not None
            ),
            **self.timings,
        }

    def __repr__(self) -> str:
        return (
            f"Engine(rules={len(self.program.rules)}, facts={len(self.database)}, "
            f"grounded_modes={sorted(self._ground_cache)})"
        )


def solve(
    semantics: str,
    program: Program | str,
    database: Database | str | None = None,
    *,
    ground_program: GroundProgram | None = None,
    **options: Any,
) -> Solution:
    """One-shot convenience: build an ephemeral :class:`Engine` and solve."""
    engine = Engine(program, database, ground_program=ground_program)
    return engine.solve(semantics, **options)


def enumerate_solutions(
    semantics: str,
    program: Program | str,
    database: Database | str | None = None,
    *,
    ground_program: GroundProgram | None = None,
    limit: int | None = None,
    **options: Any,
) -> Iterator[Solution]:
    """One-shot convenience: lazily enumerate every model of a semantics."""
    engine = Engine(program, database, ground_program=ground_program)
    return engine.enumerate(semantics, limit=limit, **options)
