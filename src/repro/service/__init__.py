"""repro.service — the warm-start serving layer.

Compile once, answer many: a :class:`BatchSolver` shards batches of solve
requests for *one* compiled ground artifact across a pool of worker
processes, each of which warm-starts via
:meth:`repro.api.Engine.from_artifact` and never re-parses or re-grounds.
On top of it, :class:`ReproServer` is the long-lived concurrent tier: an
asyncio TCP/JSONL front-end over one warm inline engine, with admission
control (bounded in-flight, structured shed responses), a per-request
deadline checked between kernel rounds, and a :class:`SessionManager`
that serializes stateful insert/retract streams per session while
independent sessions proceed in parallel.

The CLI surfaces are ``repro serve --batch requests.jsonl`` (one batch,
then exit) and ``repro server`` (serve until SIGTERM); the wire formats
are ``repro-batchreq/1`` (request lines) and ``repro-batch/1`` (result
lines) — see ``docs/serving.md`` for the tour.
"""

from repro.service.batch import (
    BATCH_SCHEMA,
    REQUEST_SCHEMA,
    BatchRequest,
    BatchSolver,
    error_kind_of,
    failure_result,
    read_requests,
    result_line,
    result_solution,
    solve_one,
)
from repro.service.server import ReproServer, run_server
from repro.service.sessions import Session, SessionManager

__all__ = [
    "BATCH_SCHEMA",
    "REQUEST_SCHEMA",
    "BatchRequest",
    "BatchSolver",
    "ReproServer",
    "Session",
    "SessionManager",
    "error_kind_of",
    "failure_result",
    "read_requests",
    "result_line",
    "result_solution",
    "run_server",
    "solve_one",
]
