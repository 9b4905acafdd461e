"""Spans recorded around the benchmark's own calls into each layer.

A span carries a name, a start and an end (``perf_counter`` seconds), the
id of the span that caused it, the request it belongs to and the lap it
ran in.  Spans stay in memory and are written as JSONL when the run ends.
A span's *self time* is its duration minus the durations of its children;
a request span's self time is its ``residual``: wall time no layer span
accounts for.

Besides spans, a workload can attach *notes* to a request: durations the
program reports about itself (``Solution.timings``, the server's
``server_s``) and counts (rules grounded, bytes encoded).  Each name is
summed within a request and averaged over the requests that carry it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator, Mapping

__all__ = ["Tracer", "NullTracer", "REQUEST"]

#: Name of the span that wraps one whole request.
REQUEST = "request"


class Tracer:
    """In-memory span and note recorder for the traced laps of one run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.notes: list[dict[str, Any]] = []
        self.lap = 0
        self.request: Any = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "lap": self.lap,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        reported: bool = False,
    ) -> int:
        """Record a span timed elsewhere; returns its id.

        ``reported`` marks a span rebuilt from a duration the program
        reported (placed to end at ``end``) rather than one timed here.
        """
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "request": self.request,
            "lap": self.lap,
            "start": start,
            "end": end,
        }
        if reported:
            record["reported"] = True
        self.spans.append(record)
        return record["id"]

    def note(self, name: str, value: float, *, seconds: bool = False) -> None:
        """Attach a program-reported duration (``seconds=True``) or a count."""
        self.notes.append(
            {
                "name": name,
                "value": value,
                "seconds": seconds,
                "request": self.request,
                "lap": self.lap,
            }
        )

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.spans:
                out.write(json.dumps({"kind": "span", **record}) + "\n")
            for record in self.notes:
                out.write(json.dumps({"kind": "note", **record}) + "\n")

    def layer_means(self, scales: Mapping[int, float]) -> dict[str, float]:
        """Per-request totals of span self times and notes, averaged.

        Span self times and ``seconds`` notes are rescaled by their lap's
        drift factor and given in milliseconds, spans under
        ``<name>.ms`` and the request span's self time under
        ``residual_ms``.  Each name is summed within a request and
        averaged over the requests that carry it.
        """
        children: dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record["parent"] is not None:
                children[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = defaultdict(float)
        carriers: dict[str, set] = defaultdict(set)
        for record in self.spans:
            self_s = record["end"] - record["start"] - children[record["id"]]
            name = "residual_ms" if record["name"] == REQUEST else record["name"] + ".ms"
            totals[name] += 1000.0 * self_s * scales[record["lap"]]
            carriers[name].add((record["lap"], record["request"]))
        for record in self.notes:
            value = record["value"]
            if record["seconds"]:
                value = 1000.0 * value * scales[record["lap"]]
            totals[record["name"]] += value
            carriers[record["name"]].add((record["lap"], record["request"]))
        return {name: total / len(carriers[name]) for name, total in totals.items()}


class NullTracer:
    """The untraced stand-in for the calls a lap makes: records nothing."""

    enabled = False
    lap = 0
    request: Any = None

    def span(self, name: str) -> nullcontext:
        return nullcontext()

    def note(self, name: str, value: float, *, seconds: bool = False) -> None:
        pass
