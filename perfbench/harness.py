"""The workload-agnostic run loop: set-up repetitions, timed laps, metrics.

A workload object offers:

* ``setup(ruler)``, which builds its inputs (and artifacts and server,
  where it has them);
* ``lap(index, tracer, ruler)``, which runs the fixed request list once,
  checks every answer outside the timed region and returns a
  :class:`LapResult`.  Both call ``ruler.sample()`` between requests or
  phases where a pause delays nothing (see
  :class:`~perfbench.drift.Yardstick`);
* ``summary(scale)``, its run-level per-layer values;
* ``close()``, which stops whatever it started and returns the peak RSS
  (MiB) of the process that did the solving;
* ``run_errors``, failures found outside any request (cross-checks).

:func:`run` times ``SETUP_REPS`` complete set-ups (a fresh workload, its
``setup()`` and one untimed warm-up lap each) and keeps the last one for
the timed laps.  Every set-up and every lap is bracketed by the reference
loop of :mod:`perfbench.drift`, sampled through, and rescaled by it.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from perfbench.drift import (
    MEDIAN_WINDOW,
    REF_NOMINAL_S,
    Yardstick,
    measure_reference,
    percentile,
)
from perfbench.spans import NullTracer, Tracer

__all__ = ["LapResult", "RunOutcome", "run", "machine_snapshot", "SETUP_REPS"]

#: Complete set-ups timed per run; ``setup_s`` reports their median.
SETUP_REPS = 3


@dataclass
class LapResult:
    """One pass over a workload's request list.

    ``latencies`` holds each request's raw wall seconds, ``inf`` for a
    failed or refused request, and ``starts`` the ``perf_counter`` time
    each was sent; ``wall_s`` is the raw wall time the lap's requests took
    (checks excluded); ``errors`` names the failures.
    """

    latencies: list[float]
    starts: list[float]
    wall_s: float
    errors: list[str] = field(default_factory=list)


@dataclass
class RunOutcome:
    """What one run measured, before it is printed."""

    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    attempted: int
    failed: int
    errors: list[str]
    record: dict[str, Any]
    tracer: Tracer | None


def latency_median(values: list[float]) -> float:
    """The latency median: the mean of the middle fifth of the samples."""
    return percentile(values, 0.5, MEDIAN_WINDOW)


def machine_snapshot() -> dict[str, Any]:
    """CPU count and load, so a drifting run shows why it drifted."""
    return {"nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg())}


def run(
    factory: Callable[[], Any],
    *,
    seconds: float,
    trace: bool,
    import_s: float,
) -> RunOutcome:
    """Set up, warm up and time one workload; see the module docstring.

    ``seconds`` fixes the number of timed laps as ``seconds / lap_s``
    (each workload states its nominal lap length), so every run of a
    workload does the same work.  With ``trace`` the even laps record
    spans and the odd laps do not; the difference between the two is the
    tracing overhead.
    """
    start = machine_snapshot()
    null = NullTracer()
    tracer = Tracer() if trace else None
    # The first reference loop of a process runs slow (its containers grow
    # from nothing); it warms up untimed.
    measure_reference()
    refs = [measure_reference()]
    attempted = failed = 0
    errors: list[str] = []

    def tally(lap: LapResult) -> None:
        nonlocal attempted, failed
        attempted += len(lap.latencies)
        failed += sum(1 for x in lap.latencies if math.isinf(x))
        errors.extend(lap.errors)

    setup_scaled: list[float] = []
    setup_scales: list[float] = []
    workload = None
    try:
        for _ in range(SETUP_REPS):
            if workload is not None:
                workload.close()
            ruler = Yardstick(refs[-1])
            t0 = perf_counter()
            workload = factory()
            workload.setup(ruler)
            built = perf_counter() - t0 - ruler.sampling_s
            warm_up = workload.lap(-1, null, ruler)
            tally(warm_up)
            raw = built + warm_up.wall_s
            refs.append(measure_reference())
            setup_scales.append(ruler.close(refs[-1]))
            setup_scaled.append(raw * setup_scales[-1])
        # Imports ran once, just before the first reference loop.
        import_scaled = import_s * REF_NOMINAL_S / refs[0]
        setup_s = import_scaled + statistics.median(setup_scaled)

        n_laps = max(2, round(seconds / workload.lap_s))
        scales: dict[int, float] = {}
        laps: list[tuple[LapResult, bool, Yardstick]] = []
        for index in range(n_laps):
            traced = tracer is not None and index % 2 == 0
            if traced:
                tracer.lap = index
            ruler = Yardstick(refs[-1])
            lap = workload.lap(index, tracer if traced else null, ruler)
            refs.append(measure_reference())
            scales[index] = ruler.close(refs[-1])
            laps.append((lap, traced, ruler))
            tally(lap)
        summary = workload.summary(statistics.median(setup_scales))
        errors.extend(workload.run_errors)
    finally:
        peak_rss_mb = workload.close() if workload is not None else None

    def scaled(select: Callable[[bool], bool]) -> tuple[list[float], float, list[float]]:
        # Latencies are rescaled by the samples taken near each request,
        # lap time by the whole lap's samples.
        latencies: list[float] = []
        wall = 0.0
        raw: list[float] = []
        for index, (lap, traced, ruler) in enumerate(laps):
            if select(traced):
                latencies += [
                    x * ruler.local_scale(t, t + x) for x, t in zip(lap.latencies, lap.starts)
                ]
                raw += lap.latencies
                wall += lap.wall_s * scales[index]
        return latencies, wall, raw

    latencies, wall, raw = scaled(lambda traced: True)
    end_to_end = {
        "setup_s": setup_s,
        "requests_per_s": sum(1 for x in latencies if not math.isinf(x)) / wall,
        "latency_p50_ms": 1000.0 * latency_median(latencies),
        "latency_p90_ms": 1000.0 * percentile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    per_layer: dict[str, float] = dict(summary)
    if tracer is not None:
        per_layer.update(tracer.layer_means(scales))
        traced_p50 = latency_median(scaled(lambda traced: traced)[0])
        plain_p50 = latency_median(scaled(lambda traced: not traced)[0])
        per_layer["trace.overhead_pct"] = 100.0 * (traced_p50 - plain_p50) / plain_p50
    per_layer.update(
        {
            "ref.ms": 1000.0 * statistics.median(refs),
            "ref.scale": statistics.median(scales.values()),
            "wall.latency_p50_ms": 1000.0 * latency_median(raw),
            "latency.samples": len(latencies),
        }
    )
    raw_wall = sum(lap.wall_s for lap, _, _ in laps)
    record = {
        "wall": {
            "setup_s": import_s + statistics.median(
                scaled / scale for scaled, scale in zip(setup_scaled, setup_scales)
            ),
            "requests_per_s": sum(1 for x in raw if not math.isinf(x)) / raw_wall,
            "latency_p50_ms": 1000.0 * latency_median(raw),
            "latency_p90_ms": 1000.0 * percentile(raw, 0.9),
        },
        "machine": {
            **start,
            "loadavg_end": list(os.getloadavg()),
            "python": platform.python_version(),
        },
        "ref_nominal_ms": 1000.0 * REF_NOMINAL_S,
        "ref_ms": [1000.0 * r for r in refs],
        "setup_scales": setup_scales,
        "setup_s_reps": setup_scaled,
        "import_s": import_s,
        "lap_scales": [scales[i] for i in range(len(laps))],
        "lap_wall_s": [lap.wall_s for lap, _, _ in laps],
        "laps": len(laps),
        "latency_samples": len(latencies),
    }
    return RunOutcome(end_to_end, per_layer, attempted, failed, errors, record, tracer)
