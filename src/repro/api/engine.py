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
from repro.datalog.grounding import GroundingMode, GroundProgram, apply_facts_delta, ground
from repro.datalog.parser import parse_atom, parse_database, parse_program
from repro.datalog.program import Program
from repro.datalog.terms import Constant
from repro.engine.plan import ConstantPool
from repro.errors import GroundingError, SemanticsError
from repro.io.artifact import ArtifactCache, cache_key, load_artifact, save_ground_program
from repro.api.registry import SemanticsSpec, SolveRequest, _check_options, get_spec
from repro.api.solution import Solution

__all__ = ["Engine", "solve", "enumerate_solutions"]


class Engine:
    """Session-style evaluation engine over one (program, database) pair.

    ``program`` / ``database`` accept parsed objects or Datalog source
    text.  ``grounding`` fixes a default mode for every semantics (each
    spec carries its own default otherwise); ``ground_program`` seeds the
    cache with an existing compiled ground program (it is then used for
    every solve);
    ``policy`` is the default tie-orientation policy.

    ``artifact_cache`` (an :class:`~repro.io.artifact.ArtifactCache` or a
    directory path) enables the on-disk compile cache: before grounding a
    mode, the engine looks up the ``repro-ground/1`` artifact keyed by
    (program hash, mode, pool fingerprint) and warm-starts from it; after
    a fresh grounding, the artifact is written back for the next process.
    """

    def __init__(
        self,
        program: Program | str,
        database: Database | str | None = None,
        *,
        grounding: GroundingMode | None = None,
        ground_program: GroundProgram | None = None,
        policy: Any | None = None,
        artifact_cache: ArtifactCache | str | Path | None = None,
    ) -> None:
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
        self.artifact_hits = 0
        self.update_calls = 0
        self.facts_inserted = 0
        self.facts_retracted = 0
        self.delta_applied = 0
        self.delta_rebuilds = 0
        if artifact_cache is not None and not isinstance(artifact_cache, ArtifactCache):
            artifact_cache = ArtifactCache(artifact_cache)
        self.artifact_cache = artifact_cache
        self._timings: dict[str, float] = {"parse_s": parse_s, "ground_s": 0.0, "compile_s": 0.0}
        # One interning session: every grounding mode of this engine shares
        # the same constant → dense-id mapping (and hence row encodings).
        self._pool = ConstantPool()
        self._ground_cache: dict[GroundingMode, GroundProgram] = {}
        self._solution_cache: dict[tuple, Solution] = {}
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
        """Accumulated one-time pipeline costs (parse / ground / compile)."""
        return dict(self._timings)

    def ground_for(
        self, mode: GroundingMode | None = None, *, max_instances: int | None = None
    ) -> GroundProgram:
        """The compiled ground program for ``mode``, grounding at most once.

        A pinned ``ground_program`` (constructor argument) is always
        returned as-is; otherwise each mode is grounded and kernel-compiled
        on first use and served from the cache afterwards.  With an
        ``artifact_cache`` configured, a first use consults the on-disk
        artifact before grounding and writes one back after.

        Raises :class:`~repro.errors.GroundingError` when a cached
        grounding exceeds a newly requested ``max_instances`` cap.
        """
        if self._pinned is not None:
            return self._pinned
        resolved: GroundingMode = mode or self.default_grounding or "relevant"
        gp = self._ground_cache.get(resolved)
        if gp is None:
            key = None
            if self.artifact_cache is not None:
                key = cache_key(self.program, self.database, resolved, self._pool)
                gp = self._load_cached_artifact(key, max_instances)
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
                if key is not None:
                    # Store after the timed compile: the artifact freezes
                    # the compiled index, so putting it first would smuggle
                    # the compile cost into an untimed serialization call.
                    assert self.artifact_cache is not None
                    t0 = perf_counter()
                    self.artifact_cache.put(key, gp)
                    self._timings["artifact_save_s"] = (
                        self._timings.get("artifact_save_s", 0.0) + perf_counter() - t0
                    )
            # Artifact-loaded ground programs arrive with their index
            # restored (GroundIndex.from_arrays), so there is nothing to
            # compile or count on that path.
            self._ground_cache[resolved] = gp
        elif max_instances is not None and gp.rule_count > max_instances:
            # The cache holds a grounding that violates the caller's cap;
            # serving it would silently ignore the explosion guard.
            raise GroundingError(
                f"cached {resolved!r} grounding has {gp.rule_count} instances, "
                f"exceeding the requested max_instances={max_instances}"
            )
        return gp

    def _load_cached_artifact(self, key: str, max_instances: int | None) -> GroundProgram | None:
        """One artifact-cache probe: a warm ground program, or ``None``.

        Misses (absent, corrupt, or version-mismatched entries), pool
        incompatibilities, and cached groundings that would violate the
        caller's ``max_instances`` cap all return ``None`` — the caller
        falls back to grounding from source.
        """
        assert self.artifact_cache is not None
        t0 = perf_counter()
        artifact = self.artifact_cache.get(key)
        if artifact is None:
            return None
        gp = artifact.ground_program
        if max_instances is not None and gp.rule_count > max_instances:
            return None
        if not self._adopt_pool(artifact.pool):
            return None
        self.artifact_hits += 1
        self._timings["artifact_load_s"] = (
            self._timings.get("artifact_load_s", 0.0) + perf_counter() - t0
        )
        return gp

    def _adopt_pool(self, pool: ConstantPool) -> bool:
        """Merge an artifact's interning session into the engine's.

        Pools are compatible iff one extends the other (same constant at
        every shared dense id); the longer session wins, so every row
        encoding — cached, loaded, or yet to be grounded — stays valid.
        Returns ``False`` (and leaves the engine untouched) otherwise.
        """
        mine = self._pool
        shorter, longer = (mine, pool) if len(mine) <= len(pool) else (pool, mine)
        for i in range(len(shorter)):
            if shorter.constant(i) != longer.constant(i):
                return False
        self._pool = longer
        return True

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
        artifact_cache: ArtifactCache | str | Path | None = None,
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
        engine = cls(
            gp.program,
            gp.database,
            grounding=gp.mode,
            policy=policy,
            artifact_cache=artifact_cache,
        )
        engine._pool = artifact.pool
        engine._ground_cache[gp.mode] = gp
        engine._timings["artifact_load_s"] = perf_counter() - t0
        return engine

    def _resolve_grounding(
        self, spec: SemanticsSpec, requested: GroundingMode | None
    ) -> GroundingMode | None:
        if spec.grounding_locked:
            return requested or spec.default_grounding
        return requested or self.default_grounding or spec.default_grounding

    def _request(
        self, spec: SemanticsSpec, options: dict[str, Any], *, enumerating: bool = False
    ) -> SolveRequest:
        requested = options.pop("grounding", None)
        max_instances = options.pop("max_instances", None)
        if "policy" in spec.options and options.get("policy") is None:
            options["policy"] = self.default_policy
        # ``limit`` is engine-managed and only meaningful when enumerating;
        # on solve() it is rejected like any other unknown option.
        checked = {k: v for k, v in options.items() if not (enumerating and k == "limit")}
        _check_options(spec, checked)
        grounding = self._resolve_grounding(spec, requested)
        return SolveRequest(
            program=self.program,
            database=self.database,
            grounding=grounding,
            gp=lambda: self.ground_for(grounding, max_instances=max_instances),
            options=options,
        )

    @staticmethod
    def _cache_key(spec: SemanticsSpec, options: Mapping[str, Any]) -> tuple | None:
        """A reuse key for one solve, or None when reuse would be unsafe.

        Option values are keyed by ``repr`` — every bundled policy is
        self-describing (``RandomChoice(seed=7)``), so equal reprs mean
        equal behaviour.  Values whose repr is identity-based (contains a
        memory address) are not cacheable: ids get recycled.
        """
        parts = []
        for key, value in sorted(options.items()):
            description = repr(value)
            if " at 0x" in description:
                return None
            parts.append((key, description))
        return (spec.name, tuple(parts))

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
            timings={**solution.timings, **self._timings, "solve_s": solve_s},
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

        Results are cached per (semantics, options): repeated solves — and
        the ``query``/``query_many``/``explain`` helpers built on them —
        reuse the first computation.  Pass a policy with a different seed
        for an independent nondeterministic run.
        """
        spec = get_spec(semantics)
        key = self._cache_key(spec, options)
        if key is not None:
            cached = self._solution_cache.get(key)
            if cached is not None:
                self.solution_cache_hits += 1
                return cached
        request = self._request(spec, dict(options))
        t0 = perf_counter()
        solution = spec.solver(request)
        solution = solution.replace(grounding=request.grounding)
        solution = self._finalize(solution, perf_counter() - t0)
        if key is not None:
            self._solution_cache[key] = solution
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
        request = self._request(spec, all_options, enumerating=True)
        if spec.enumerator is None:
            if limit is not None and limit <= 0:
                return
            t0 = perf_counter()
            solution = spec.solver(request)
            solution = solution.replace(grounding=request.grounding)
            yield self._finalize(solution, perf_counter() - t0)
            return
        t0 = perf_counter()
        for solution in spec.enumerator(request):
            solve_s = perf_counter() - t0
            solution = solution.replace(grounding=request.grounding)
            yield self._finalize(solution, solve_s)
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
        are no-ops).  Cached solutions are invalidated either way.
        """
        atoms = self._parse_facts(facts)
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
        self.update_calls += 1
        self.facts_inserted += len(inserted)
        self.facts_retracted += len(retracted)
        synced: set[int] = {id(self.database)}
        for a in retracted:
            self.database.discard_atom(a)
        for a in inserted:
            self.database.add_atom(a)
        for mode, gp in list(self._ground_cache.items()):
            if id(gp.database) not in synced:
                # A pinned/loaded grounding may carry its own database
                # object; mirror the change so its view stays consistent.
                synced.add(id(gp.database))
                for a in retracted:
                    gp.database.discard_atom(a)
                for a in inserted:
                    gp.database.add_atom(a)
            if apply_facts_delta(gp, inserted, retracted):
                self.delta_applied += 1
            elif gp is self._pinned:
                raise SemanticsError(
                    "update falls outside the incremental envelope of the pinned "
                    "ground program (the universe changed or its mode cannot be "
                    "updated in place); rebuild the Engine from the mutated database"
                )
            else:
                del self._ground_cache[mode]
                self.delta_rebuilds += 1
        self._solution_cache.clear()
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
        if solution.model is not None:
            # Id-native path: walk the partition ids and decode only the
            # queried predicate's atoms — the full sets are never built.
            table = solution.model.ground_program.atoms
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
        else:
            true_rows = frozenset(
                tuple(c.value for c in a.args)
                for a in solution.true_atoms
                if a.predicate == predicate
            )
            undefined_rows = frozenset(
                tuple(c.value for c in a.args)
                for a in solution.undefined_atoms
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
            "artifact_hits": self.artifact_hits,
            "update_calls": self.update_calls,
            "facts_inserted": self.facts_inserted,
            "facts_retracted": self.facts_retracted,
            "delta_applied": self.delta_applied,
            "delta_rebuilds": self.delta_rebuilds,
            "interned_constants": len(self._pool),
            "cached_modes": sorted(self._ground_cache),
            "cached_solutions": len(self._solution_cache),
            "solution_cache_hits": self.solution_cache_hits,
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
