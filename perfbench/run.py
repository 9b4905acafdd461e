"""Run one benchmark workload; print its result as the last stdout line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_text --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics and writes the run's spans to
``perfbench/out/trace-<workload>-<seed>.jsonl``.  The line before the
result is the run's record: machine, reference-loop times and rescale
factors; it is also written to ``perfbench/out``.  The exit code is 0
when the run finished (check ``correct`` for its answers), 2 when it
could not run.
"""

from time import perf_counter

# Set-up time counts from here: imports, inputs, artifacts, server boot.
_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: String hashing is randomized per process, and with it the layout of
#: every set and dict of atoms; a fixed seed makes runs comparable.  The
#: server child inherits it.
HASH_SEED = "0"


def _terminate(signum, frame):
    # Unwind through the workload's finally blocks so the server child stops.
    raise SystemExit(128 + signum)


def _json_number(value: float | None) -> float:
    # A failed request has infinite latency; JSON has no infinity, so a
    # percentile that lands on a failure prints as 1e9, and so does the
    # peak RSS of a server that died before it could be read.
    return value if value is not None and math.isfinite(value) else 1e9


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a checkout with src/repro and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replace this process with one whose hash seed is fixed; the
        # set-up clock restarts there.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    signal.signal(signal.SIGTERM, _terminate)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run
    from perfbench.workloads import OUT_DIR, WORKLOADS

    import_s = perf_counter() - _T0
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    cache: dict = {}
    outcome = run(
        lambda: workload(seed, cache),
        seconds=args.seconds,
        trace=bool(args.trace),
        import_s=import_s,
    )

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome.per_layer if args.trace else outcome.end_to_end
    metrics = {
        m["name"]: {"value": _json_number(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in chosen
    }
    result = {
        "correct": outcome.failed == 0 and not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record = {
        "workload": {
            "name": workload.name,
            "seed": seed,
            "default_seed": workload.default_seed,
            "loop": workload.loop,
            "concurrency": workload.concurrency,
            "mix": workload.mix,
        },
        **outcome.record,
        "errors": outcome.errors[:20],
    }
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    saved = {"record": record, "result": result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(saved, indent=2))
    if outcome.tracer is not None:
        outcome.tracer.write_jsonl(OUT_DIR / f"trace-{args.workload}-{seed}.jsonl")
    for error in outcome.errors[:20]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
