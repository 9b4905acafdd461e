"""The warm-start batch solver: one artifact, many requests, many workers.

The serving model is *compile once, serve many*: the expensive pipeline
(parse → ground → kernel-compile) runs exactly once, is frozen into a
``repro-ground/1`` artifact (:mod:`repro.io.artifact`), and every request
afterwards is answered by an engine warm-started from that artifact.
:class:`BatchSolver` runs a whole batch:

* ``workers=0`` (the default) answers inline on one warm engine — the
  deterministic mode used by tests;
* ``workers=N`` shards the batch across ``N`` worker processes; each
  worker loads the artifact once (process-pool initializer), so the
  per-request cost is pure solve time, never grounding.  If a worker
  dies (killed, out of memory), the batch still returns: the requests
  not answered by then go once more to a fresh pool, and only those lost
  again get ``"error_kind": "worker_lost"``.

A per-request deadline (``timeout_s``) is the same on every path: the
cooperative :func:`repro.errors.solve_deadline` around the solve, which
the kernel checks between its rounds.  It holds on any thread, in the
CLI process and in pool workers alike.

Each request carries its own semantics, grounding mode, tie policy, and
seed (``repro-batchreq/1``), and may stream EDB updates into the serving
engine (``insert`` / ``retract`` — batches with updates are answered
inline, in order); each result line is ``repro-batch/1``.  A request
that fails — unknown semantics, bad policy, grounding explosion —
produces an ``"ok": false`` result for *that* line; the batch never dies
half-way.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.api.engine import Engine
from repro.datalog.database import Database
from repro.datalog.atoms import Atom
from repro.datalog.grounding import GROUNDING_MODES, GroundingMode, GroundProgram
from repro.datalog.parser import parse_atom, parse_database, parse_program
from repro.datalog.program import Program
from repro.errors import (
    ReproError,
    SessionLimitError,
    SolveTimeoutError,
    ValidationError,
    WorkerLostError,
    solve_deadline,
)
from repro.io.artifact import program_fingerprint, read_artifact_header
from repro.io.json_io import RawJSON, solution_text
from repro.semantics.choices import (
    FewestTrue,
    FirstSideTrue,
    MostTrue,
    RandomChoice,
    SecondSideTrue,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "REQUEST_SCHEMA",
    "BATCH_SCHEMA",
    "BatchRequest",
    "BatchSolver",
    "error_kind_of",
    "failure_result",
    "read_requests",
    "result_line",
    "result_solution",
    "solve_one",
]

REQUEST_SCHEMA = "repro-batchreq/1"
BATCH_SCHEMA = "repro-batch/1"

_REQUEST_FIELDS = frozenset(
    {
        "schema",
        "id",
        "semantics",
        "grounding",
        "policy",
        "seed",
        "atoms",
        "insert",
        "retract",
        "session",
    }
)

_POLICIES = {
    "first_side_true": FirstSideTrue,
    "second_side_true": SecondSideTrue,
    "fewest_true": FewestTrue,
    "most_true": MostTrue,
    "random": RandomChoice,
}


@dataclass(frozen=True)
class BatchRequest:
    """One solve request of a batch (wire schema ``repro-batchreq/1``).

    * ``id`` — caller-chosen correlation value, echoed on the result
      (defaults to the request's position in the batch);
    * ``semantics`` — any registry name or alias (default
      ``tie_breaking``);
    * ``grounding`` — per-request grounding mode override, if any;
    * ``policy`` / ``seed`` — tie-orientation policy by name
      (``first_side_true``, ``second_side_true``, ``fewest_true``,
      ``most_true``, ``random``) and the seed for ``random``; a bare
      ``seed`` implies ``random``;
    * ``atoms`` — optional ground atoms to evaluate; when given, the
      result carries their three truth values instead of the full model;
    * ``insert`` / ``retract`` — optional ground EDB facts to stream into
      the serving engine *before* this request's solve (retractions apply
      first).  Updates are stateful: they mutate the engine's database,
      so later requests in the same batch see them.  A batch containing
      updates is always answered inline in request order, never sharded
      across workers;
    * ``session`` — optional session name scoping the request's state.
      On the concurrent server (:mod:`repro.service.server`) every
      sessioned request runs serialized on that session's private engine;
      in the offline batch path a sessioned request is simply answered
      inline (the batch's one engine *is* the session).
    """

    id: Any = None
    semantics: str = "tie_breaking"
    grounding: GroundingMode | None = None
    policy: str | None = None
    seed: int | None = None
    atoms: tuple[str, ...] = ()
    insert: tuple[str, ...] = ()
    retract: tuple[str, ...] = ()
    session: str | None = None

    @classmethod
    def from_obj(cls, obj: Any, default_id: Any = None) -> "BatchRequest":
        """Validate one decoded JSON request line into a request.

        Raises :class:`~repro.errors.ValidationError` on non-object
        lines, unknown fields, or malformed field types, so a typo in a
        request file fails that request loudly instead of being ignored.
        """
        if not isinstance(obj, dict):
            raise ValidationError(f"batch request must be a JSON object, got {type(obj).__name__}")
        unknown = sorted(set(obj) - _REQUEST_FIELDS)
        if unknown:
            raise ValidationError(
                f"unknown batch request field(s) {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(_REQUEST_FIELDS))}"
            )
        schema = obj.get("schema")
        if schema is not None and schema != REQUEST_SCHEMA:
            raise ValidationError(f"request schema {schema!r} is not {REQUEST_SCHEMA!r}")
        def atom_list(field: str) -> tuple[str, ...]:
            value = obj.get(field, ())
            if isinstance(value, str) or not isinstance(value, (list, tuple)):
                raise ValidationError(f"{field!r} must be a list of ground atom strings")
            return tuple(str(a) for a in value)

        atoms = atom_list("atoms")
        semantics = obj.get("semantics", "tie_breaking")
        if not isinstance(semantics, str):
            raise ValidationError("'semantics' must be a string")
        grounding = obj.get("grounding")
        if grounding is not None and grounding not in GROUNDING_MODES:
            raise ValidationError(
                f"unknown grounding mode {grounding!r}; allowed: {', '.join(GROUNDING_MODES)}"
            )
        policy = obj.get("policy")
        if policy is not None and not isinstance(policy, str):
            raise ValidationError("'policy' must be a string")
        seed = obj.get("seed")
        # bool is an int subclass; {"seed": true} is a typo, not seed 1.
        if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
            raise ValidationError("'seed' must be an integer")
        session = obj.get("session")
        if session is not None and (not isinstance(session, str) or not session):
            raise ValidationError("'session' must be a non-empty string")
        return cls(
            id=obj.get("id", default_id),
            semantics=semantics,
            grounding=grounding,
            policy=policy,
            seed=seed,
            atoms=atoms,
            insert=atom_list("insert"),
            retract=atom_list("retract"),
            session=session,
        )

    def to_obj(self) -> dict[str, Any]:
        """The JSON-ready ``repro-batchreq/1`` object of this request."""
        obj: dict[str, Any] = {"id": self.id, "semantics": self.semantics}
        if self.grounding is not None:
            obj["grounding"] = self.grounding
        if self.policy is not None:
            obj["policy"] = self.policy
        if self.seed is not None:
            obj["seed"] = self.seed
        if self.atoms:
            obj["atoms"] = list(self.atoms)
        if self.insert:
            obj["insert"] = list(self.insert)
        if self.retract:
            obj["retract"] = list(self.retract)
        if self.session is not None:
            obj["session"] = self.session
        return obj

    @property
    def has_updates(self) -> bool:
        """True iff this request streams facts into the engine."""
        return bool(self.insert or self.retract)

    def resolve_policy(self) -> Any | None:
        """The tie policy object this request asks for, or ``None``.

        Raises :class:`~repro.errors.ValidationError` for unknown policy
        names or a ``seed`` on a non-random policy.
        """
        if self.policy is None:
            return RandomChoice(self.seed) if self.seed is not None else None
        factory = _POLICIES.get(self.policy)
        if factory is None:
            raise ValidationError(
                f"unknown policy {self.policy!r}; available: {', '.join(sorted(_POLICIES))}"
            )
        if factory is RandomChoice:
            return RandomChoice(self.seed)
        if self.seed is not None:
            raise ValidationError(f"policy {self.policy!r} does not take a seed")
        return factory()


def read_requests(source: str | Path | Iterable[str]) -> list[BatchRequest | ValidationError]:
    """Parse a JSONL request stream, one entry per non-blank line.

    ``source`` is a path or an iterable of lines.  Malformed lines are
    returned *in place* as :class:`~repro.errors.ValidationError` values
    (tagged with their 1-based line number, and carrying the line's
    ``id`` on ``request_id`` when one could be read) rather than raised,
    so one bad line fails one request, not the batch.
    """

    def failure(message: str, request_id: Any = None) -> ValidationError:
        error = ValidationError(message)
        error.request_id = request_id
        return error

    lines = Path(source).read_text().splitlines() if isinstance(source, (str, Path)) else source
    out: list[BatchRequest | ValidationError] = []
    index = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as error:
            # RecursionError: nesting deeper than the recursion limit.
            out.append(failure(f"line {lineno}: invalid JSON: {error}"))
            index += 1
            continue
        try:
            out.append(BatchRequest.from_obj(obj, default_id=index))
        except ValidationError as error:
            rid = obj.get("id") if isinstance(obj, dict) else None
            out.append(failure(f"line {lineno}: {error}", rid))
        index += 1
    return out


def error_kind_of(error: ReproError) -> str:
    """The ``error_kind`` wire tag of one request failure.

    ``validation`` (malformed request), ``timeout`` (deadline exceeded),
    ``session_limit`` (the server's session table is full),
    ``worker_lost`` (the offline pool's worker died before answering),
    or ``error`` (every other library failure — unknown semantics,
    grounding explosion, ...).  The server adds ``overloaded`` and
    ``draining`` (admission control sheds) on top.
    """
    if isinstance(error, SolveTimeoutError):
        return "timeout"
    if isinstance(error, WorkerLostError):
        return "worker_lost"
    if isinstance(error, SessionLimitError):
        return "session_limit"
    if isinstance(error, ValidationError):
        return "validation"
    return "error"


def failure_result(request_id: Any, error: ReproError) -> dict[str, Any]:
    """The ``"ok": false`` result line of one failed request."""
    result = {
        "schema": BATCH_SCHEMA,
        "id": request_id,
        "ok": False,
        "error": str(error),
        "error_kind": error_kind_of(error),
    }
    if isinstance(error, SolveTimeoutError):
        result["timeout_s"] = error.timeout_s
    return result


def solve_one(
    engine: Engine,
    request: BatchRequest,
    *,
    timeout_s: float | None = None,
) -> dict[str, Any]:
    """Answer one request on a warm engine (wire schema ``repro-batch/1``).

    Returns the result object: ``{"ok": true, ...}`` with either
    per-atom ``values`` (when the request listed atoms) or the full
    ``repro-solution/1`` document, already written as a
    :class:`~repro.io.json_io.RawJSON` ``solution`` (write the result
    with :func:`result_line`, read the document with
    :func:`result_solution`); or ``{"ok": false, "error": ...,
    "error_kind": ...}`` when the request fails.  Library errors never
    propagate — a batch is fault-isolated per request.

    ``timeout_s`` arms a per-request deadline around the *solve* (never
    around the stateful ``insert``/``retract`` section, which must not be
    torn), counted from the start of the solve: a solve that exceeds it
    yields a structured ``"error_kind": "timeout"`` result instead of
    wedging the caller.  The deadline is cooperative
    (:func:`repro.errors.solve_deadline`), so it holds on any thread; a
    timed-out solve stores nothing on the engine, which answers its next
    request as if the timed-out one had never run.
    """
    try:
        options: dict[str, Any] = {}
        if request.grounding is not None:
            options["grounding"] = request.grounding
        policy = request.resolve_policy()
        if policy is not None:
            options["policy"] = policy
        # Look each query text up in the literal table of the grounding the
        # solve reads: a text found there is an atom's own text and needs no
        # parse.  Parse the others (all of them when that table is not built
        # or is stale, or when updates come first) now: a malformed atom
        # must fail the request before the (potentially expensive) solve.
        gp = None if request.has_updates else engine.grounded(request.semantics, request.grounding)
        queries = _queries(request.atoms, gp)
        updates: dict[str, Any] | None = None
        if request.has_updates:
            # Parse both fact lists before applying either: a malformed
            # insert must not leave the retractions half-applied.
            to_retract = [parse_atom(a) for a in request.retract]
            to_insert = [parse_atom(a) for a in request.insert]
            retracted = engine.retract_facts(*to_retract)
            inserted = engine.insert_facts(*to_insert)
            updates = {
                "inserted": [str(a) for a in inserted],
                "retracted": [str(a) for a in retracted],
            }
        with solve_deadline(timeout_s):
            solution = engine.solve(request.semantics, **options)
        result: dict[str, Any] = {
            "schema": BATCH_SCHEMA,
            "id": request.id,
            "ok": True,
            "semantics": solution.semantics,
            "found": solution.found,
            "total": solution.total,
        }
        # Solve-phase accounting for batch summaries: total solve time
        # plus the kernel's per-phase breakdown when the semantics
        # records one.  (A request served from the engine's solution
        # cache reports the timings of the solve that populated it.)
        timings = {
            key: solution.timings[key]
            for key in (
                "solve_s",
                "close_s",
                "unfounded_s",
                "tie_select_s",
                "tie_apply_s",
                "tie_analysis_s",
            )
            if key in solution.timings
        }
        if timings:
            result["timings"] = timings
        if updates is not None:
            result["updates"] = updates
        if queries:
            # Answered per atom from the interned ids — no set decode.
            if gp is not None and solution.ground_program is not gp:
                queries = _queries(request.atoms, None)
            result["values"] = {
                key: solution.value_of_id(query)
                if isinstance(query, int)
                else solution.value(query)
                for key, query in queries
            }
        else:
            # This request's own encode, never a cached solution's, written
            # here so the line writer only splices it in.
            t0 = perf_counter()
            result["solution"] = RawJSON(solution_text(solution).encode())
            timings["encode_s"] = perf_counter() - t0
            result.setdefault("timings", timings)
        return result
    except ReproError as error:
        return failure_result(request.id, error)


def _queries(texts: Sequence[str], gp: GroundProgram | None) -> list[tuple[str, int | Atom]]:
    """Per query text, its reply key and what answers it: the atom id of a
    text ``gp``'s atom table finds without a parse
    (:meth:`~repro.datalog.grounding.AtomTable.text_ids`), keyed by the
    text itself, else the parsed atom, keyed by its own text."""
    ids = [None] * len(texts) if gp is None else gp.atoms.text_ids(texts)
    queries: list[tuple[str, int | Atom]] = []
    for text, index in zip(texts, ids):
        if index is None:
            atom = parse_atom(text)
            queries.append((str(atom), atom))
        else:
            queries.append((text, index))
    return queries


def result_line(result: dict[str, Any]) -> bytes:
    """One ``repro-batch/1`` line: ``json.dumps(result, sort_keys=True)``
    and a newline, UTF-8, with a :class:`~repro.io.json_io.RawJSON`
    ``solution`` spliced in as the JSON it holds.

    Only the small fields are dumped here; the solution's bytes are
    copied once, into the line.
    """
    solution = result.get("solution")
    if solution is None:
        return (json.dumps(result, sort_keys=True) + "\n").encode()
    head = json.dumps({k: v for k, v in result.items() if k < "solution"}, sort_keys=True)
    tail = json.dumps({k: v for k, v in result.items() if k > "solution"}, sort_keys=True)
    head = head[:-1] + (', "solution": ' if len(head) > 2 else '"solution": ')
    tail = (", " + tail[1:] if len(tail) > 2 else "}") + "\n"
    return b"".join((head.encode(), solution.data, tail.encode()))


def result_solution(result: dict[str, Any]) -> dict[str, Any]:
    """The ``repro-solution/1`` object of a full-model result."""
    return json.loads(result["solution"].data)


# ---------------------------------------------------------------------------
# Worker-process plumbing.  One engine per worker process, loaded once by
# the pool initializer; requests travel as plain JSON-ready dicts.
# ---------------------------------------------------------------------------

_WORKER_ENGINE: Engine | None = None
_WORKER_TIMEOUT_S: float | None = None


def _worker_init(artifact_path: str, timeout_s: float | None = None) -> None:
    global _WORKER_ENGINE, _WORKER_TIMEOUT_S
    _WORKER_ENGINE = Engine.from_artifact(artifact_path)
    _WORKER_TIMEOUT_S = timeout_s


def _solve_in_worker(obj: dict[str, Any]) -> dict[str, Any]:
    assert _WORKER_ENGINE is not None, "worker used before its initializer ran"
    return solve_one(_WORKER_ENGINE, BatchRequest.from_obj(obj), timeout_s=_WORKER_TIMEOUT_S)


class BatchSolver:
    """Shard batches of requests over one compiled ground artifact.

    Construction fixes the (program, database, grounding) triple — either
    from an existing ``artifact`` path or by compiling ``program`` /
    ``database`` once — and the worker count:

    * ``artifact`` — path of a ``repro-ground/1`` artifact; if it exists
      it is the source of truth (``program`` may be omitted; when given,
      its fingerprint must match the artifact's — serving a stale
      artifact for an edited program fails loudly instead of answering
      for the wrong program), and if it does not exist but ``program``
      is given, the compiled grounding is saved there for the next
      process;
    * ``workers=0`` — answer inline on one warm engine in this process;
    * ``workers=N`` — spawn ``N`` workers, each warm-starting from the
      artifact once; requests are handed out one per dispatch (no engine
      is loaded in the parent).  Per-task IPC is microseconds while
      solves are typically milliseconds, so single-request dispatch
      balances load best.  If a worker dies, the requests of the batch
      not answered by then are resubmitted once to a fresh pool; those
      lost again get a ``worker_lost`` result;
    * ``timeout_s`` — per-request solve deadline (see :func:`solve_one`):
      a request whose solve exceeds it is answered with a structured
      ``"error_kind": "timeout"`` result, inline and in every worker.

    Use as a context manager (or call :meth:`close`) to reclaim the
    worker pool and any temporary artifact.
    """

    def __init__(
        self,
        artifact: str | Path | None = None,
        *,
        program: Program | str | None = None,
        database: Database | str | None = None,
        grounding: GroundingMode | None = None,
        workers: int = 0,
        timeout_s: float | None = None,
    ) -> None:
        if workers < 0:
            raise ValidationError(f"workers must be >= 0, got {workers}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValidationError(f"timeout_s must be positive, got {timeout_s}")
        self.workers = workers
        self.timeout_s = timeout_s
        self._pool: ProcessPoolExecutor | None = None
        self._engine: Engine | None = None
        self._owns_artifact = False
        path = Path(artifact) if artifact is not None else None
        if path is not None and path.exists():
            # Verify the container up front: a corrupt artifact must fail
            # here, not inside a pool initializer (a raising initializer
            # breaks the pool, and every request would come back lost).
            read_artifact_header(path)
            if program is not None:
                self._check_artifact_matches(path, program, database)
            self._artifact_path = path  # inline engine loads lazily (see .engine)
        elif program is not None:
            engine = Engine(program, database, grounding=grounding)
            if path is None:
                fd, tmp = tempfile.mkstemp(prefix="repro-ground-", suffix=".repro-ground")
                os.close(fd)
                path = Path(tmp)
                self._owns_artifact = True
            engine.save_artifact(path, grounding)
            self._artifact_path = path
            self._engine = engine
        else:
            raise ValidationError("BatchSolver needs an existing artifact or a program")

    @staticmethod
    def _check_artifact_matches(
        path: Path, program: Program | str, database: Database | str | None
    ) -> None:
        """Refuse to serve an artifact compiled from different inputs."""
        if isinstance(program, str):
            program = parse_program(program)
        if isinstance(database, str):
            database = parse_database(database)
        expected = program_fingerprint(program, database if database is not None else Database())
        stored = read_artifact_header(path).get("program_fingerprint")
        if stored != expected:
            raise ValidationError(
                f"artifact {path} was compiled from a different (program, database) "
                "pair; delete it to recompile, or serve from the artifact alone"
            )

    @property
    def artifact_path(self) -> Path:
        """The artifact every worker (and the inline engine) serves from."""
        return self._artifact_path

    @property
    def engine(self) -> Engine:
        """The warm inline engine (the ``workers=0`` serving path).

        Loaded from the artifact on first use, so a pool-only solver
        (``workers=N``) never materializes a ground program in the
        parent process.
        """
        if self._engine is None:
            self._engine = Engine.from_artifact(self._artifact_path)
        return self._engine

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Late imports keep multiprocessing out of the inline path.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # Spawned, not forked: the caller may have threads running.
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_worker_init,
                initargs=(str(self._artifact_path), self.timeout_s),
            )
        return self._pool

    def solve_many(
        self,
        requests: Iterable[BatchRequest | dict[str, Any] | ValidationError],
    ) -> list[dict[str, Any]]:
        """Answer a batch, preserving request order.

        ``requests`` may mix :class:`BatchRequest` objects, raw JSON-ready
        dicts, and the :class:`~repro.errors.ValidationError` placeholders
        produced by :func:`read_requests` (which become ``"ok": false``
        results, echoing the request ``id`` whenever one was readable).
        With workers configured, valid requests are sharded across the
        process pool; errors are answered locally.  A batch carrying
        ``insert``/``retract`` updates (or naming a ``session``) is
        answered inline in request order instead — worker engines live in
        separate processes and would neither share nor order the streamed
        state.
        """
        results: list[dict[str, Any] | None] = []
        solvable: list[tuple[int, BatchRequest]] = []
        for i, req in enumerate(requests):
            if isinstance(req, BatchRequest):
                solvable.append((i, req))
                results.append(None)
                continue
            if isinstance(req, ValidationError):
                rid = getattr(req, "request_id", None)
                error = req
            else:
                rid = req.get("id") if isinstance(req, dict) else None
                try:
                    solvable.append((i, BatchRequest.from_obj(req, default_id=i)))
                    results.append(None)
                    continue
                except ValidationError as exc:
                    error = exc
            results.append(failure_result(rid, error))

        stateful = any(r.has_updates or r.session is not None for _, r in solvable)
        if self.workers and solvable and not stateful:
            # A dead worker breaks the whole pool and loses every request
            # still on it.  Those go once more to a fresh pool; only the
            # ones lost again are answered worker_lost.
            lost = self._solve_pooled(solvable, results)
            if lost:
                lost = self._solve_pooled([(i, req) for i, req, _ in lost], results)
            for i, req, error in lost:
                results[i] = failure_result(
                    req.id, WorkerLostError(f"worker process lost: {error}")
                )
        else:
            for i, req in solvable:
                results[i] = solve_one(self.engine, req, timeout_s=self.timeout_s)
        return [r for r in results if r is not None]

    def _solve_pooled(
        self, requests: list[tuple[int, BatchRequest]], results: list[dict[str, Any] | None]
    ) -> list[tuple[int, BatchRequest, Exception]]:
        """Answer ``requests`` on the pool into ``results``; return the lost ones.

        A request is lost when the pool breaks (a worker died) before it
        is answered, or when the pool's pipes fail under it: ``submit``
        can raise ``OSError: handle is closed`` while the pool replaces a
        killed worker.  The broken pool is shut down, so the next call
        starts a fresh one.
        """
        from concurrent.futures.process import BrokenProcessPool

        pool = self._ensure_pool()
        lost: list[tuple[int, BatchRequest, Exception]] = []
        futures = []
        for i, req in requests:
            try:
                # One request per dispatch (see the class docstring).
                futures.append((i, req, pool.submit(_solve_in_worker, req.to_obj())))
            except (BrokenProcessPool, OSError) as error:
                lost.append((i, req, error))
        for i, req, future in futures:
            try:
                results[i] = future.result()
            except (BrokenProcessPool, OSError) as error:
                lost.append((i, req, error))
        if lost:
            self._close_pool()
        return lost

    def solve_file(self, source: str | Path | Iterable[str]) -> list[dict[str, Any]]:
        """Answer a JSONL request stream (see :func:`read_requests`)."""
        return self.solve_many(read_requests(source))

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Shut the worker pool down and delete a temporary artifact."""
        self._close_pool()
        if self._owns_artifact:
            try:
                self._artifact_path.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
            self._owns_artifact = False

    def __enter__(self) -> "BatchSolver":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"BatchSolver(artifact={str(self._artifact_path)!r}, workers={self.workers})"
