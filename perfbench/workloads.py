"""The benchmark's three workloads, each a closed loop over a fixed request list.

Inputs are generated from the workload seed only: family instances from
:mod:`repro.workloads.families` whose integer constants are relabelled by
a seeded permutation, rendered with :mod:`repro.datalog.printer`, with
rule and fact lines shuffled.  The structure (and so the work) of every
request is the same for every seed; the texts differ.

* :class:`ColdText` — the ``repro run`` path in process: parse, ground,
  compile, solve ``tie_breaking`` and encode, from fresh text each time.
* :class:`WarmServe` — a real ``repro server --workers 0`` child booted
  from an artifact, one TCP connection with two requests pipelined.
* :class:`LiveUpdates` — one live :class:`~repro.api.Engine`: insert an
  ``attacks`` fact, solve ``well_founded``, query, retract, solve again.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
from collections import defaultdict, deque
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.api import Engine
from repro.datalog.database import Database
from repro.datalog.grounding import ground
from repro.datalog.parser import parse_atom, parse_database, parse_program
from repro.datalog.printer import format_database, format_program
from repro.datalog.program import Program
from repro.errors import ReproError
from repro.io.artifact import load_artifact
from repro.io.json_io import solution_to_jsonl_chunks
from repro.workloads import families

from perfbench.checks import (
    GroundFixpoint,
    Oracle,
    check_counts,
    check_tie_breaking_model,
    check_values,
    fixpoint_error,
    model_digest,
)
from perfbench.harness import LapResult
from perfbench.spans import REQUEST

__all__ = ["WORKLOADS", "ColdText", "WarmServe", "LiveUpdates", "render"]

ROOT = Path(__file__).resolve().parent.parent
#: Run outputs (trace JSONL, records, artifacts) stay inside the checkout.
OUT_DIR = ROOT / "perfbench" / "out"


def render(
    program: Program, database: Database, rng: random.Random
) -> tuple[str, str, dict[int, int]]:
    """Program and facts text of one instance, relabelled and shuffled by
    ``rng``, and the relabelling applied to its integer constants."""
    values = sorted({c.value for atom in database.atoms() for c in atom.args})
    shuffled = list(values)
    rng.shuffle(shuffled)
    relabel = dict(zip(values, shuffled))
    rows: dict[str, list[tuple]] = defaultdict(list)
    for atom in database.atoms():
        rows[atom.predicate].append(tuple(relabel[c.value] for c in atom.args))
    rules = format_program(program).splitlines()
    facts = format_database(Database.from_dict(rows)).splitlines()
    rng.shuffle(rules)
    rng.shuffle(facts)
    return "\n".join(rules) + "\n", "\n".join(facts) + "\n", relabel


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# ---------------------------------------------------------------------------
# cold_text
# ---------------------------------------------------------------------------

#: (family, sizes): one request per size per lap, in a seeded order.
#: Fifteen requests put both the median (rank 7.5 of 15) and the 90th
#: percentile (rank 13.5) mid-way through one request's samples, away
#: from the step between two requests of different cost.
COLD_TEXT_MIX = (
    ("win_move_line", (500, 800, 1100, 1400)),
    ("grounded_argumentation", (300, 450, 600, 800)),
    ("committee", (400, 700, 1000, 1300)),
    ("negation_tower", (400, 800, 1200)),
)


@dataclass
class _TextRequest:
    key: str
    program_text: str
    facts_text: str


class ColdText:
    """One caller, one request in flight, in process: the ``repro run`` path."""

    name = "cold_text"
    lap_s = 0.75
    default_seed = 1
    loop = "closed"
    concurrency = 1
    mix = "15 fresh texts per lap: 4 families at 3-4 sizes, tie_breaking, full JSON encode"
    run_errors = ()

    def __init__(self, seed: int, cache: dict, *, sizes=COLD_TEXT_MIX) -> None:
        self.seed = seed
        self.sizes = sizes
        # Verified answers and oracles survive across set-up repetitions.
        self.cache = cache
        self.requests: list[_TextRequest] = []

    def setup(self, ruler) -> None:
        rng = random.Random(f"cold_text:{self.seed}")
        for family, sizes in self.sizes:
            for n in sizes:
                program, database = getattr(families, family)(n)
                self.requests.append(
                    _TextRequest(f"{family}({n})", *render(program, database, rng)[:2])
                )
                ruler.sample()
        rng.shuffle(self.requests)

    def lap(self, index: int, tr, ruler) -> LapResult:
        latencies: list[float] = []
        starts: list[float] = []
        errors: list[str] = []
        wall = 0.0
        for request in self.requests:
            tr.request = request.key
            # Each request starts from a collected heap, as a fresh
            # ``repro run`` process would; otherwise collections land on
            # whichever request the seeded order puts at the threshold.
            gc.collect()
            t0 = perf_counter()
            starts.append(t0)
            try:
                with tr.span(REQUEST):
                    with tr.span("parse"):
                        program = parse_program(request.program_text)
                        database = parse_database(request.facts_text)
                    with tr.span("ground"):
                        gp = ground(program, database, mode="relevant")
                    with tr.span("compile"):
                        gp.index
                    with tr.span("solve"):
                        solution = Engine(program, database, ground_program=gp).solve(
                            "tie_breaking"
                        )
                    with tr.span("encode"):
                        text = "".join(solution_to_jsonl_chunks(solution))
            except ReproError as error:
                wall += perf_counter() - t0
                latencies.append(math.inf)
                errors.append(f"{request.key}: {error}")
                continue
            elapsed = perf_counter() - t0
            wall += elapsed
            if tr.enabled:
                text_kb = (len(request.program_text) + len(request.facts_text)) / 1024.0
                tr.note("parse.kb", text_kb)
                tr.note("ground.rules", gp.rule_count)
                tr.note("ground.atoms", gp.atom_count)
                tr.note("encode.kb", len(text) / 1024.0)
                _note_solve_phases(tr, solution.timings, solution.free_choice_count)
            error = self._check(request, gp, solution, text)
            latencies.append(math.inf if error else elapsed)
            if error:
                errors.append(f"{request.key}: {error}")
            ruler.sample()
        return LapResult(latencies, starts, wall, errors)

    def _check(self, request: _TextRequest, gp, solution, text: str):
        # The document ends with its timings; everything before them is
        # deterministic, so an identical prefix is an identical answer.
        body = text[: text.rindex('"timings"')].encode()
        digest = (request.key, hashlib.blake2b(body, digest_size=16).digest())
        if digest in self.cache:
            return None
        doc = json.loads(text)
        error = check_counts(doc, solution.counts())
        if error is None:
            oracle = self.cache.get(request.key) or Oracle(gp)
            self.cache[request.key] = oracle
            error = check_tie_breaking_model(doc, oracle)
        if error is None:
            error = fixpoint_error(gp, doc["model"]["true"])
        if error is None:
            self.cache[digest] = True
        return error

    def summary(self, scale: float) -> dict[str, float]:
        return {}

    def close(self) -> float:
        return peak_rss_mb()


def _note_solve_phases(tr, timings, free_choices: int | None) -> None:
    """The kernel's own phase split of one solve, as per-request notes."""
    tr.note("solve.close_ms", timings.get("close_s", 0.0), seconds=True)
    tr.note("solve.unfounded_ms", timings.get("unfounded_s", 0.0), seconds=True)
    tie = timings.get("tie_select_s", 0.0) + timings.get("tie_apply_s", 0.0)
    tr.note("solve.tie_ms", tie, seconds=True)
    if free_choices is not None:
        tr.note("solve.free_choices", free_choices)


# ---------------------------------------------------------------------------
# warm_serve
# ---------------------------------------------------------------------------


@dataclass
class _ServedRequest:
    id: str
    line: bytes
    full: bool
    seed: int
    repeat: bool


class WarmServe:
    """A ``repro server`` child on one connection with two requests pipelined."""

    name = "warm_serve"
    lap_s = 1.25
    default_seed = 1
    loop = "closed"
    concurrency = 2
    mix = (
        "40 requests per lap on grounded_argumentation(1500), each with a seed: "
        "3/4 ask 16 atom values, 1/4 the full solution; every 4th repeats the "
        "seed sent 3 requests earlier (a cache hit)"
    )
    pipeline = 2
    atoms_per_request = 16
    repeat_every = 4
    repeat_back = 3

    def __init__(self, seed: int, cache: dict, *, n: int = 1500, lap_requests: int = 40) -> None:
        self.seed = seed
        self.n = n
        self.lap_requests = lap_requests
        self.cache = cache
        self.workdir = Path(tempfile.mkdtemp(prefix="warm_serve-", dir=_out_dir()))
        self.run_errors: list[str] = []
        self.proc: subprocess.Popen | None = None
        self.sock: socket.socket | None = None
        self.served = self.refused = 0
        self.seeds_sent: set[int] = set()
        self.load_s = 0.0
        self.artifact_bytes = 0
        self.oracle: Oracle | None = None

    def setup(self, ruler) -> None:
        rng = random.Random(f"warm_serve:{self.seed}")
        program, database = families.grounded_argumentation(self.n)
        program_text, facts_text, _ = render(program, database, rng)
        artifact = self.workdir / "served.repro-ground"
        Engine(program_text, facts_text).save_artifact(artifact)
        self.artifact_bytes = artifact.stat().st_size
        ruler.sample()
        t0 = perf_counter()
        gp = load_artifact(artifact).ground_program
        self.load_s = perf_counter() - t0
        self.gp = gp
        self.atoms = [str(gp.atoms.atom(i)) for i in range(gp.atom_count)]
        ruler.sample()
        self.proc, address = _boot_server(artifact, idle=ruler.sample)
        self.sock = socket.create_connection(address, timeout=60)
        self.reader = self.sock.makefile("rb")

    def _requests(self, index: int) -> list[_ServedRequest]:
        """Lap ``index``'s requests; lap -1 is the warm-up."""
        rng = random.Random(f"warm_serve:{self.seed}:{index}")
        base = (self.seed + 1) * 10_000_019 + (index + 1) * self.lap_requests
        out: list[_ServedRequest] = []
        for i in range(self.lap_requests):
            repeat = i % self.repeat_every == self.repeat_every - 1
            seed = out[i - self.repeat_back].seed if repeat else base + i
            full = i % 4 == 1
            obj: dict[str, Any] = {"id": f"{index}:{i}", "semantics": "tie_breaking", "seed": seed}
            if not full:
                obj["atoms"] = rng.sample(self.atoms, self.atoms_per_request)
            line = (json.dumps(obj) + "\n").encode()
            out.append(_ServedRequest(obj["id"], line, full, seed, repeat))
        return out

    def lap(self, index: int, tr, ruler) -> LapResult:
        requests = self._requests(index)
        sent_at: dict[str, float] = {}
        replies: dict[str, tuple[dict, int, float]] = {}
        pending = iter(requests)
        in_flight: deque[_ServedRequest] = deque()

        def send_next() -> None:
            request = next(pending, None)
            if request is not None:
                sent_at[request.id] = perf_counter()
                self.sock.sendall(request.line)
                in_flight.append(request)

        t_first = perf_counter()
        for _ in range(self.pipeline):
            send_next()
        t_last = t_first
        while len(replies) < len(requests):
            line = self.reader.readline()
            t_last = perf_counter()
            if not line:
                raise ConnectionError("repro server closed the connection")
            send_next()
            reply = json.loads(line)
            replies[reply["id"]] = (reply, len(line), t_last)
            while in_flight and in_flight[0].id in replies:
                in_flight.popleft()
            # The oldest request in flight is a cache miss, so its reply is
            # a whole solve away: a reference sample now delays no reading.
            if in_flight and not in_flight[0].repeat:
                ruler.sample()

        latencies: list[float] = []
        errors: list[str] = []
        for request in requests:
            reply, size, received = replies[request.id]
            self.seeds_sent.add(request.seed)
            if reply.get("ok"):
                self.served += 1
            else:
                self.refused += 1
            if tr.enabled:
                _note_reply(tr, request.id, sent_at[request.id], received, reply, size)
            error = self._check(reply, request.full)
            latencies.append(math.inf if error else received - sent_at[request.id])
            if error:
                errors.append(f"request {request.id}: {error}")
        starts = [sent_at[request.id] for request in requests]
        return LapResult(latencies, starts, t_last - t_first, errors)

    def _check(self, reply: dict, full: bool):
        if not reply.get("ok"):
            return f"{reply.get('error_kind')}: {reply.get('error')}"
        if self.oracle is None:
            self.oracle = Oracle(self.gp)
            self.fixpoint = GroundFixpoint(self.gp)
        if not full:
            return check_values(reply["values"], self.oracle)
        doc = reply["solution"]
        error = check_counts(doc) or check_tie_breaking_model(doc, self.oracle)
        error = error or self.fixpoint.error(doc["model"]["true"])
        if error is None and not self.cache.get("is_fixpoint_checked"):
            # The paper's own test is quadratic here; run it on the first
            # full model of the run, the linear ground check on all.
            error = fixpoint_error(self.gp, doc["model"]["true"])
            self.cache["is_fixpoint_checked"] = True
        return error

    def summary(self, scale: float) -> dict[str, float]:
        stats = self.server_stats()
        return {
            "artifact.load_ms": 1000.0 * self.load_s * scale,
            "artifact.kb": self.artifact_bytes / 1024.0,
            "cache.repeat_share": 1.0 / self.repeat_every,
            "cache.entries": len(self.seeds_sent),
            "server.shed": stats["shed"],
            "server.failed": stats["failed"],
        }

    def server_stats(self) -> dict[str, Any]:
        """The server's ``stats`` op, cross-checked against the client's counts."""
        self.sock.sendall(b'{"op": "stats", "id": "stats"}\n')
        stats = json.loads(self.reader.readline())["stats"]
        if (stats["served"], stats["failed"] + stats["shed"]) != (self.served, self.refused):
            self.run_errors.append(
                f"server stats served={stats['served']} failed={stats['failed']} "
                f"shed={stats['shed']} disagree with the client's "
                f"served={self.served} refused={self.refused}"
            )
        return stats

    def close(self) -> float | None:
        peak = None
        try:
            if self.proc is not None and self.proc.poll() is None:
                peak = peak_rss_mb(self.proc.pid)
            if self.sock is not None:
                self.reader.close()
                self.sock.close()
        finally:
            if self.proc is not None:
                _stop(self.proc)
            shutil.rmtree(self.workdir, ignore_errors=True)
        return peak


def _note_reply(tr, request_id: str, sent: float, received: float, reply: dict, size: int) -> None:
    """Spans and notes of one served request, from the client's clock and
    the timings the server stamps on its reply."""
    timings = reply.get("timings", {})
    server_s = timings.get("server_s", 0.0)
    tr.request = request_id
    parent = tr.add(REQUEST, sent, received)
    # The server stamps server_s before it encodes and writes the reply,
    # so everything after it (encode, write, transport) is unaccounted.
    tr.add("server", received - server_s, received, parent=parent, reported=True)
    tr.note("server.queue_ms", timings.get("queue_wait_s", 0.0), seconds=True)
    tr.note("server.unaccounted_ms", (received - sent) - server_s, seconds=True)
    tr.note("solve.ms", timings.get("solve_s", 0.0), seconds=True)
    tr.note("encode.kb", size / 1024.0)
    solution = reply.get("solution")
    _note_solve_phases(tr, timings, solution["ties"]["free_choices"] if solution else None)


def _out_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


def _boot_server(artifact: Path, *, idle) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Start ``repro server --workers 0`` on an ephemeral port; wait for it.

    ``idle`` is called while the client waits for the readiness line.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "server", "--artifact", str(artifact),
         "--port", "0", "--workers", "0"],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        line = _read_line(proc, timeout_s=60.0, idle=idle)
        marker = "listening on "
        if marker not in line:
            raise RuntimeError(f"repro server did not start: {line!r}")
        host, port = line.split(marker, 1)[1].split()[0].rsplit(":", 1)
        return proc, (host, int(port))
    except BaseException:
        _stop(proc)
        raise


def _read_line(proc: subprocess.Popen, *, timeout_s: float, idle) -> str:
    """One stderr line of ``proc``, or whatever arrived before the deadline."""
    deadline = perf_counter() + timeout_s
    data = b""
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stderr, selectors.EVENT_READ)
        while b"\n" not in data and perf_counter() < deadline:
            if selector.select(timeout=min(0.02, max(0.0, deadline - perf_counter()))):
                chunk = os.read(proc.stderr.fileno(), 4096)
                if not chunk:
                    break
                data += chunk
            else:
                idle()
    return data.decode(errors="replace")


def _stop(proc: subprocess.Popen) -> None:
    """SIGTERM (the server drains), then SIGKILL if it hangs; always reaped."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


# ---------------------------------------------------------------------------
# live_updates
# ---------------------------------------------------------------------------


class LiveUpdates:
    """One caller on one live engine: insert, solve, query, retract, solve."""

    name = "live_updates"
    lap_s = 1.0
    default_seed = 1
    loop = "closed"
    concurrency = 1
    mix = (
        "54 steps per lap on grounded_argumentation(1200): insert one new attacks "
        "fact (6 per pair of the family's 3 block kinds), solve well_founded, "
        "query_many 8 atoms, retract it, solve again"
    )
    queries_per_step = 8
    run_errors = ()

    def __init__(self, seed: int, cache: dict, *, n: int = 1200, steps: int = 54) -> None:
        self.seed = seed
        self.n = n
        self.n_steps = steps
        self.cache = cache
        # Keys verified answers to this engine: atom ids are engine-local.
        self.token = object()

    def setup(self, ruler) -> None:
        rng = random.Random(f"live_updates:{self.seed}")
        program, database = families.grounded_argumentation(self.n)
        self.program_text, self.facts_text, relabel = render(program, database, rng)
        self.engine = Engine(self.program_text, self.facts_text)
        ruler.sample()
        self.engine.ground_for("relevant")
        ruler.sample()
        # The family lays arguments out in blocks of four, of three kinds
        # (defense chain, mutual pairs, floating defeat).  Step k attacks
        # from a block of kind k % 3 into one of kind k // 3 % 3, so every
        # seed inserts the same mix of attack kinds.
        blocks: list[list[range]] = [[], [], []]
        for start in range(0, self.n - 3, 4):
            blocks[start % 3].append(range(start, start + 4))
        attacks = {tuple(c.value for c in row) for row in database["attacks"]}
        self.steps = []
        while len(self.steps) < self.n_steps:
            k = len(self.steps)
            source = rng.choice(rng.choice(blocks[k % 3]))
            target = rng.choice(rng.choice(blocks[k // 3 % 3]))
            if source == target or (source, target) in attacks:
                continue
            attacks.add((source, target))
            others = rng.sample(range(self.n), self.queries_per_step // 2 - 2)
            queried = [relabel[x] for x in [source, target, *others]]
            atoms = [parse_atom(f"{p}({x})") for x in queried for p in ("accepted", "defeated")]
            fact = parse_atom(f"attacks({relabel[source]}, {relabel[target]})")
            self.steps.append((fact, atoms))

    def lap(self, index: int, tr, ruler) -> LapResult:
        engine = self.engine
        latencies: list[float] = []
        starts: list[float] = []
        errors: list[str] = []
        wall = 0.0
        for step, (fact, atoms) in enumerate(self.steps):
            tr.request = step
            t0 = perf_counter()
            starts.append(t0)
            try:
                with tr.span(REQUEST):
                    with tr.span("update"):
                        engine.insert_facts(fact)
                    with tr.span("solve"):
                        inserted = engine.solve("well_founded")
                    with tr.span("query"):
                        answers = engine.query_many(atoms)
                    with tr.span("update"):
                        engine.retract_facts(fact)
                    with tr.span("solve"):
                        restored = engine.solve("well_founded")
            except ReproError as error:
                wall += perf_counter() - t0
                latencies.append(math.inf)
                errors.append(f"step {step}: {error}")
                continue
            elapsed = perf_counter() - t0
            wall += elapsed
            if tr.enabled:
                for solution in (inserted, restored):
                    _note_solve_phases(tr, solution.timings, solution.free_choice_count)
            error = self._check(step, fact, atoms, inserted, answers, restored)
            latencies.append(math.inf if error else elapsed)
            if error:
                errors.append(f"step {step}: {error}")
            ruler.sample()
        return LapResult(latencies, starts, wall, errors)

    def _expected(self, key: str, facts_text: str, atoms) -> tuple[bytes, dict]:
        """The seed kernel's model digest for one database state, and its
        values of ``atoms``; cached in compact form across set-ups."""
        expected = self.cache.get(key)
        if expected is None:
            program = parse_program(self.program_text)
            oracle = Oracle(ground(program, parse_database(facts_text), mode="relevant"))
            expected = (oracle.digest(), {str(a): oracle.value(str(a)) for a in atoms})
            self.cache[key] = expected
        return expected

    def _check(self, step: int, fact, atoms, inserted, answers, restored):
        after, after_values = self._expected(
            f"insert:{step}", self.facts_text + f"{fact}.\n", atoms
        )
        before, _ = self._expected("base", self.facts_text, ())
        got = {str(a): v for a, v in answers.items()}
        if got != after_values:
            return f"query_many answers {got} differ from the seed kernel's {after_values}"
        for key, solution, digest in (
            (f"insert:{step}", inserted, after),
            ("base", restored, before),
        ):
            # Atom ids are stable within one engine: an id partition equal
            # to one already verified is the same answer.
            verified = (self.token, key, hash((solution.true_ids, solution.undefined_ids)))
            if verified in self.cache:
                continue
            true_atoms = (str(a) for a in solution.true_atoms)
            undefined = (str(a) for a in solution.undefined_atoms)
            if model_digest(true_atoms, undefined) != digest:
                return f"well_founded model after {key} differs from the seed kernel's"
            self.cache[verified] = True
        return None

    def summary(self, scale: float) -> dict[str, float]:
        stats = self.engine.stats()
        return {"update.delta_ratio": stats["delta_applied"] / max(1, stats["update_calls"])}

    def close(self) -> float:
        return peak_rss_mb()


WORKLOADS = {cls.name: cls for cls in (ColdText, WarmServe, LiveUpdates)}
