"""Reading timings against a reference loop the benchmark owns.

The hosts this benchmark runs on speed up and slow down by up to ~1.8x
in phases that last seconds, so a raw wall-clock median over a whole
run does not repeat.  Every timed lap is therefore bracketed by a fixed
pure-Python reference loop, sampled again in short slices between its
requests (:class:`Yardstick`), and each timing of the lap is rescaled by
``nominal reference time / measured reference time``: a lap run while
the machine is slow has slow reference samples too, and the two cancel.

This module imports nothing from ``repro`` on purpose, so a change to
the program under test can never change the yardstick.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter
from typing import Sequence

__all__ = [
    "REF_NOMINAL_S",
    "MEDIAN_WINDOW",
    "reference_loop",
    "measure_reference",
    "Yardstick",
    "percentile",
]

#: The reference loop's duration that every rescaled timing is expressed
#: against.  A lap whose bracketing reference loops took exactly this
#: long is reported unchanged.
REF_NOMINAL_S = 0.1

#: Iterations of :func:`reference_loop`; about 0.1 s on a 2-CPU x86
#: container with CPython 3.11.
REF_ITERATIONS = 72_000

#: Wall time between two in-lap reference samples (:class:`Yardstick`),
#: and how far from a request a sample may lie to rescale it.
SAMPLE_EVERY_S = 0.05
LOCAL_REACH_S = 0.1

#: Half-widths, in quantile units, of the windows :func:`percentile`
#: averages: the median over the middle fifth of the samples, higher
#: percentiles over a tenth (wider would reach the largest samples).
MEDIAN_WINDOW = 0.10
PERCENTILE_WINDOW = 0.05


def reference_loop(iterations: int = REF_ITERATIONS) -> int:
    """The fixed reference work, in two parts of about equal time.

    The first part hashes small tuples into a dict, grows lists, and
    formats and sorts short strings; the second is integer arithmetic
    that touches no memory.  The machine's slow phases hurt the first
    kind of work about 1.4x as much as the program under test, and the
    second about 0.7x as much (measured by sampling both between the
    requests of cold_text and live_updates), so the mix tracks the
    program's own slowdown.  Returns a checksum so the work cannot be
    skipped.
    """
    table: dict[tuple[int, int], int] = {}
    names: list[str] = []
    pending: list[int] = []
    for i in range(iterations):
        key = ((i * 7919) % 4099, i & 7)
        table[key] = table.get(key, 0) + 1
        pending.append(i)
        if len(pending) > 32:
            names.append(f"a({pending.pop(0)}, {key[0]})")
    names.sort()
    x = 0
    for i in range(11 * iterations):
        x = (x * 31 + i) & 0xFFFF
    return len(table) + len(names) + x


def _timed(iterations: int) -> float:
    # Collection is deferred so a cycle left by the program under test is
    # never charged to the yardstick.
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_loop(iterations)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def measure_reference() -> float:
    """Collect garbage, then time one full :func:`reference_loop` in seconds."""
    gc.collect()
    return _timed(REF_ITERATIONS)


class Yardstick:
    """Reference samples taken through one timed stretch (a lap, a set-up).

    The machine's speed changes within a second, so bracketing a lap is
    not enough: between requests, outside any timed region, the workload
    calls :meth:`sample`, which runs a twentieth of the reference loop
    once every :data:`SAMPLE_EVERY_S`.  The stretch's scale is the nominal time
    of all its samples over their measured time, the two bracketing full
    loops counting half each (the other halves belong to the neighbours).
    A single request is rescaled by the samples taken near it
    (:meth:`local_scale`), so a slow burst inside a lap does not read as a
    slow request.
    """

    def __init__(self, ref_before_s: float) -> None:
        # (time taken, nominal seconds, measured seconds) per sample.
        self.samples = [(perf_counter(), REF_NOMINAL_S / 2.0, ref_before_s / 2.0)]
        self.sampling_s = 0.0
        self.scale = 1.0
        self._due = perf_counter() + SAMPLE_EVERY_S

    def sample(self) -> None:
        t0 = perf_counter()
        if t0 < self._due:
            return
        measured = _timed(REF_ITERATIONS // 20)
        now = perf_counter()
        self.samples.append(((t0 + now) / 2.0, REF_NOMINAL_S / 20.0, measured))
        self.sampling_s += now - t0
        self._due = now + SAMPLE_EVERY_S

    def close(self, ref_after_s: float) -> float:
        """Add the closing full loop; return the stretch's scale factor."""
        self.samples.append((perf_counter(), REF_NOMINAL_S / 2.0, ref_after_s / 2.0))
        self.scale = _ratio(self.samples)
        return self.scale

    def local_scale(self, start: float, end: float) -> float:
        """The scale of the samples within :data:`LOCAL_REACH_S` of a
        request that ran from ``start`` to ``end`` (``perf_counter``
        seconds); the whole stretch's scale when none is that close."""
        near = [s for s in self.samples if start - LOCAL_REACH_S <= s[0] <= end + LOCAL_REACH_S]
        return _ratio(near) if near else self.scale


def _ratio(samples: list[tuple[float, float, float]]) -> float:
    return sum(s[1] for s in samples) / sum(s[2] for s in samples)


def percentile(values: Sequence[float], q: float, window: float = PERCENTILE_WINDOW) -> float:
    """The ``q``-quantile (0 < q < 1) of ``values``, smoothed over a window.

    It is the mean of the samples ranked between ``q - window`` and
    ``q + window``.  A plain order statistic jumps whenever ``q`` sits on
    the step between two kinds of request of different cost, and such
    steps are where a fixed request mix puts them; the window mean moves
    smoothly with the mix instead.  A failed request (``inf``) inside the
    window makes the percentile infinite, so failures stay visible.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    n = len(ordered)
    # Rounded first, so 0.55 * 100 is rank 55 and not 56.
    lo = min(n - 1, max(0, math.floor(round((q - window) * n, 9))))
    hi = max(lo + 1, min(n, math.ceil(round((q + window) * n, 9))))
    chosen = ordered[lo:hi]
    return sum(chosen) / len(chosen)
