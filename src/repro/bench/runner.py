"""The ``repro bench`` pipeline: reproducible per-phase kernel timings.

Runs the :mod:`repro.workloads.families` generators at a configurable
scale, drives the well-founded / well-founded tie-breaking interpreters
over both the production compiled kernel
(:class:`~repro.ground.state.GroundGraphState`) and the frozen seed
kernel (:class:`~repro.bench.seed_kernel.SeedGroundGraphState`), timing
the grounding / close / unfounded-set / tie-query phases separately, and
writes a ``BENCH_<rev>.json`` record — the repo's perf trajectory, one
file per revision.

The interpreter loop is re-implemented here (rather than calling
:func:`repro.semantics.well_founded.well_founded_state`) only so each
phase can be timed from the outside; decisions are identical: unfounded
sets first, then the smallest-atom-id bottom tie oriented by
:class:`~repro.semantics.choices.FirstSideTrue`, whose choice depends
only on atom ids — so both kernels walk the same trajectory and their
final models are asserted equal before any number is recorded.

Grounding and kernel compilation run through the production
:class:`repro.api.Engine`, and each family additionally cross-checks the
engine's ``solve()`` against the timed drive loop (identical model, no
re-grounding) — the bench pipeline exercises the same facade users do.

Alongside the kernel baseline, each family times the frozen seed
*grounder* (:mod:`repro.bench.seed_grounder`) on the same inputs and
records the resulting ``ground_speedup``.  The two groundings are
cross-checked for identical content (atoms and rule instances, compared
through an atom bijection since dense ids may be assigned in different
orders) and for identical *models*: the compiled kernel's decision trail
is replayed on the seed grounding through the bijection and must land on
the same true set.

The **throughput** mode measures the serving story on top: per family it
times the *cold* per-request pipeline (parse → ground → kernel-compile
from source text, the cost every process pays without artifacts) against
the *warm* path (:meth:`repro.api.Engine.from_artifact` over a
``repro-ground/1`` artifact saved once), cross-checks that every
warm-started model is identical to the cold one, and drives a
:class:`repro.service.BatchSolver` batch over the artifact to record
end-to-end requests/sec.  ``warm_speedup`` (cold start over warm start)
is the compile-once dividend; its per-record summary is the number the
serving layer is accountable for.

The **update** mode measures the streaming story: per family it streams
a deterministic, universe-stable retract/reinsert trace into one warm
:class:`~repro.api.Engine` (``insert_facts`` / ``retract_facts``, the
delta re-ground path) and records updates/sec against the full-rebuild
comparator — a fresh engine grounding and kernel-compiling the mutated
database per step.  Every rebuild step's model is cross-checked against
the streamed engine before any number is recorded; ``update_speedup``
(rebuild step time over update step time) is the streaming dividend.

The **load** mode measures the concurrent tier end to end: per family it
boots a real :class:`repro.service.ReproServer` on an artifact, drives
hundreds of in-flight requests over TCP connections from an asyncio
client fleet (a global semaphore pins the in-flight count at the
configured concurrency), and records req/s plus p50/p99 latency for the
``workers=0`` (serialized inline engine) and ``workers=N`` (process
pool) configurations.  Every response's values are cross-checked against
an inline oracle engine before any number is recorded.  Note the
single-core caveat: process sharding can only beat the inline path when
the host actually has spare cores — the record carries ``cpus`` so a
reader can interpret ``load_speedup`` honestly.

The **enumerate** mode records models/sec of the exhaustive tie-breaking
explorer per tie-breaking family, both for the production trail-undo DFS
and the clone-based reference explorer (identical (model, choice-trail)
sequences cross-checked), so the undo-log dividend has its own tracked
number.  Alongside, every family records ``solve_phases`` — the kernel's
``close_s`` / ``unfounded_s`` / ``tie_select_s`` / ``tie_apply_s``
breakdown of the engine solve (plus ``result_s``, the lazy result
decode/encode phase — 0.0 at solve time by construction).

The **results** mode measures the id-native result tier on top of one
solved model per family: ``query_many`` answers/sec straight from the
kernel's status ids against the eager comparator that materializes all
three atom frozensets before answering (answers cross-checked
identical), and the streaming ``repro-solution/1`` encoder's MB/s
against the buffered ``json.dumps`` oracle (byte equality asserted).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Mapping, Sequence

from repro.api.engine import Engine
from repro.api.registry import get_spec
from repro.api.solution import Solution
from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.grounding import GroundingMode
from repro.datalog.printer import format_database, format_program
from repro.datalog.program import Program
from repro.errors import ReproError
from repro.ground.model import FALSE, TRUE
from repro.ground.state import GroundGraphState
from repro.bench.seed_grounder import seed_ground
from repro.bench.seed_kernel import SeedGroundGraphState
from repro.semantics.choices import FirstSideTrue, forced_orientation
from repro.semantics.tie_breaking import (
    _enumerate_reference,
    _enumerate_tie_breaking_models,
)
from repro.workloads import families

__all__ = [
    "SCALES",
    "FAMILIES",
    "run_bench",
    "write_bench",
    "format_table",
    "default_output_path",
    "current_revision",
]

SCHEMA = "repro-bench/1"


@dataclass(frozen=True)
class FamilySpec:
    """One benchmarkable workload family.

    ``scale_factor`` rescales the base ``n`` of the chosen scale: the
    quadratic-in-``n`` seed-kernel families (many interpreter iterations,
    each a global query) are run at a fraction of the base size so the
    baseline column stays affordable.
    """

    generator: Callable[[int], tuple[Program, Database]]
    semantics: str  # "wf" or "wf-tb"
    grounding: GroundingMode
    scale_factor: float = 1.0

    def size(self, base_n: int) -> int:
        return max(2, int(base_n * self.scale_factor))


SCALES: dict[str, int] = {
    "smoke": 60,
    "small": 250,
    "medium": 1000,
    "large": 2000,
}

FAMILIES: dict[str, FamilySpec] = {
    "win_move_line": FamilySpec(families.win_move_line, "wf", "relevant"),
    "win_move_cycle": FamilySpec(
        lambda n: families.win_move_cycle(n - (n % 2)), "wf-tb", "relevant"
    ),
    "unfounded_tower": FamilySpec(families.unfounded_tower, "wf", "relevant", scale_factor=0.25),
    "tie_chain": FamilySpec(families.tie_chain, "wf-tb", "relevant", scale_factor=0.25),
    "committee": FamilySpec(families.committee, "wf-tb", "relevant", scale_factor=0.5),
    "grounded_argumentation": FamilySpec(
        families.grounded_argumentation, "wf-tb", "relevant", scale_factor=0.5
    ),
    "adversarial_scc": FamilySpec(
        families.adversarial_scc, "wf-tb", "relevant", scale_factor=0.25
    ),
}

_KERNELS: dict[str, Callable] = {
    "kernel": GroundGraphState,
    "seed": SeedGroundGraphState,
}


def _drive(state, semantics: str) -> dict:
    """Run one interpreter to completion, timing each phase separately.

    The production kernel is driven through its v2 hot path (the fused
    ``falsify_unfounded`` cascade and the ``select_tie`` schedule); the
    frozen seed kernel, which predates both, runs the equivalent
    query/assign/close loop.  The property suite pins the two paths to
    identical trajectories, so the recorded models and decision trails
    stay comparable.  For the fused path the internal re-closes are
    accounted under ``unfounded_s``.
    """
    policy = FirstSideTrue()
    fused = hasattr(state, "falsify_unfounded")
    close_s = unfounded_s = tie_s = 0.0
    unfounded_iterations = 0
    tie_choices = 0
    decisions: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    t0 = perf_counter()
    state.close()
    close_s += perf_counter() - t0
    while True:
        if fused:
            t0 = perf_counter()
            unfounded_iterations += state.falsify_unfounded(numbered=False)
            unfounded_s += perf_counter() - t0
        else:
            t0 = perf_counter()
            unfounded = state.unfounded_atoms()
            unfounded_s += perf_counter() - t0
            if unfounded:
                unfounded_iterations += 1
                state.assign_many(unfounded, FALSE, ("unfounded", unfounded_iterations))
                t0 = perf_counter()
                state.close()
                close_s += perf_counter() - t0
                continue
        if semantics != "wf-tb":
            break
        if fused:
            t0 = perf_counter()
            tie = state.select_tie()
            tie_s += perf_counter() - t0
        else:
            t0 = perf_counter()
            bottoms = state.bottom_components_live()
            tie_s += perf_counter() - t0
            tie = None
            tie_key = None
            for component in bottoms:
                if not component.is_tie:
                    continue
                key = min(component.atom_ids)
                if tie_key is None or key < tie_key:
                    tie, tie_key = component, key
        if tie is None:
            break
        sides = tie.side_of_atom()
        side_atoms: tuple[list[int], list[int]] = ([], [])
        for atom_id, side in sides.items():
            side_atoms[side].append(atom_id)
        side_nodes = [0, 0]
        assert tie.analysis.sides is not None
        for side in tie.analysis.sides.values():
            side_nodes[side] += 1
        true_side = forced_orientation(side_nodes[0], side_nodes[1])
        if true_side is None:
            true_side = policy.choose_true_side(side_atoms[0], side_atoms[1])
        tie_choices += 1
        # Sorted assignment order: identical trajectories whether the
        # sides came from a fresh BFS or the incremental cache.
        made_true = sorted(side_atoms[true_side])
        made_false = sorted(side_atoms[1 - true_side])
        decisions.append((tuple(made_true), tuple(made_false)))
        state.assign_many(made_true, TRUE, ("tie", true_side))
        state.assign_many(made_false, FALSE, ("tie", 1 - true_side))
        t0 = perf_counter()
        state.close()
        close_s += perf_counter() - t0

    interp = state.interpretation()
    return {
        "close_s": close_s,
        "unfounded_s": unfounded_s,
        "tie_s": tie_s,
        "unfounded_iterations": unfounded_iterations,
        "tie_choices": tie_choices,
        "is_total": interp.is_total,
        "true_count": sum(1 for s in interp.status if s == TRUE),
        "_true_set": frozenset(i for i, s in enumerate(interp.status) if s == TRUE),
        "_decisions": decisions,
    }


def _normalized_sides(sides: Mapping[int, int]) -> dict[int, int]:
    """Sides flipped so the smallest node sits on side 0.

    The K/L naming is root-dependent (a global flip yields the same
    partition), so differential comparisons go through this canonical
    relabelling.
    """
    flip = sides[min(sides)]
    return {node: side ^ flip for node, side in sides.items()}


def _verify_tie_sides(name: str, gp) -> int:
    """Lockstep differential of the incremental (K, L) sides cache.

    Drives one untimed well-founded tie-breaking run; before every tie
    round, each bottom component served by the incremental path (cached
    condensation + sides cache) is compared against a
    ``full_recompute=True`` pass on a clone — the fresh-Tarjan,
    fresh-``analyze_component`` oracle.  Components are matched by node
    set and sides are compared through the canonical relabelling.
    Returns the number of (component, round) pairs verified; raises
    :class:`ReproError` on any divergence.
    """
    policy = FirstSideTrue()
    state = GroundGraphState(gp)
    state.close()
    checked = 0
    while True:
        state.falsify_unfounded(numbered=False)
        incremental = {
            frozenset(c.atom_ids): c for c in state.bottom_components_live()
        }
        oracle = state.clone().bottom_components_live(full_recompute=True)
        if len(oracle) != len(incremental):
            raise ReproError(
                f"bench family {name!r}: incremental tie sides report "
                f"{len(incremental)} bottom components, oracle {len(oracle)}"
            )
        for ref in oracle:
            inc = incremental.get(frozenset(ref.atom_ids))
            if inc is None or inc.is_tie != ref.is_tie:
                raise ReproError(
                    f"bench family {name!r}: incremental tie sides diverge "
                    f"from the full_recompute oracle (component membership)"
                )
            if ref.is_tie:
                assert inc.analysis.sides is not None
                assert ref.analysis.sides is not None
                if _normalized_sides(inc.analysis.sides) != _normalized_sides(
                    ref.analysis.sides
                ):
                    raise ReproError(
                        f"bench family {name!r}: incremental (K, L) sides "
                        f"diverge from the full_recompute oracle"
                    )
            checked += 1
        tie = state.select_tie()
        if tie is None:
            return checked
        sides = tie.side_of_atom()
        side_atoms: tuple[list[int], list[int]] = ([], [])
        for atom_id, side in sides.items():
            side_atoms[side].append(atom_id)
        true_side = forced_orientation(len(side_atoms[0]), len(side_atoms[1]))
        if true_side is None:
            true_side = policy.choose_true_side(side_atoms[0], side_atoms[1])
        state.assign_many(sorted(side_atoms[true_side]), TRUE, ("tie", true_side))
        state.assign_many(sorted(side_atoms[1 - true_side]), FALSE, ("tie", 1 - true_side))
        state.close()


def _measure_kernel(gp, kernel: str, semantics: str, repeat: int) -> dict:
    """Best-of-``repeat`` timing of one kernel on one ground program."""
    state_cls = _KERNELS[kernel]
    best: dict | None = None
    for _ in range(max(1, repeat)):
        t0 = perf_counter()
        state = state_cls(gp)
        init_s = perf_counter() - t0
        phases = _drive(state, semantics)
        phases["init_s"] = init_s
        phases["run_s"] = init_s + phases["close_s"] + phases["unfounded_s"] + phases["tie_s"]
        if best is None or phases["run_s"] < best["run_s"]:
            best = phases
    assert best is not None
    return best


_ENGINE_SEMANTICS = {"wf": "well_founded", "wf-tb": "tie_breaking"}


def _grounding_bijection(name: str, gp, gp_seed) -> dict[int, int]:
    """Map production atom ids to seed-grounder atom ids.

    The two pipelines must materialize the same ground atoms and the same
    rule instances; dense ids may differ (the compiled grounder orders its
    atom table by interned rows, the seed by string rendering).
    """
    if gp.rule_count != gp_seed.rule_count:
        raise ReproError(f"bench family {name!r}: grounders emit different instance counts")
    new_atoms = {gp.atoms.atom(i): i for i in range(gp.atom_count)}
    seed_atoms = {gp_seed.atoms.atom(i): i for i in range(gp_seed.atom_count)}
    if set(new_atoms) != set(seed_atoms):
        raise ReproError(f"bench family {name!r}: grounders materialize different atoms")
    to_seed = {i: seed_atoms[a] for a, i in new_atoms.items()}

    def canonical(ground_program):
        atom = ground_program.atoms.atom
        return frozenset(
            (
                atom(gr.head),
                frozenset(atom(a) for a in gr.pos),
                frozenset(atom(a) for a in gr.neg),
                gr.rule_index,
                gr.substitution,
            )
            for gr in ground_program.rules
        )

    if canonical(gp) != canonical(gp_seed):
        raise ReproError(f"bench family {name!r}: grounders emit different rule instances")
    return to_seed


def _replay_on_seed_grounding(
    name: str,
    gp_seed,
    decisions: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
    to_seed: Mapping[int, int],
) -> frozenset[int]:
    """Drive the kernel on the seed grounding, replaying the mapped trail."""
    state = GroundGraphState(gp_seed)
    state.close()
    queue = list(decisions)
    for _ in range(gp_seed.atom_count + len(queue) + 1):
        unfounded = state.unfounded_atoms()
        if unfounded:
            state.assign_many(unfounded, FALSE, ("unfounded", 0))
            state.close()
            continue
        if not queue:
            break
        true_ids, false_ids = queue.pop(0)
        state.assign_many(sorted(to_seed[a] for a in true_ids), TRUE, ("tie", 0))
        state.assign_many(sorted(to_seed[a] for a in false_ids), FALSE, ("tie", 0))
        state.close()
    else:
        raise ReproError(f"bench family {name!r}: seed-grounding replay did not converge")
    interp = state.interpretation()
    return frozenset(i for i, s in enumerate(interp.status) if s == TRUE)


def _bench_family(name: str, spec: FamilySpec, base_n: int, repeat: int, baseline: bool) -> dict:
    n = spec.size(base_n)
    program, database = spec.generator(n)
    # The production pipeline: one Engine grounds and kernel-compiles once;
    # both kernels (and the engine cross-check below) share that compile.
    engine = Engine(program, database, grounding=spec.grounding)
    gp = engine.ground_for(spec.grounding)
    ground_s = engine.timings["ground_s"]
    compile_s = engine.timings["compile_s"]

    seed_ground_s = None
    ground_speedup = None
    gp_seed = None
    if baseline:
        # Time the frozen pre-compilation grounder on the same inputs (the
        # seed's ground phase never included kernel compilation either, so
        # the comparison is like for like).
        for _ in range(max(1, repeat)):
            t0 = perf_counter()
            gp_seed = seed_ground(program, database, mode=spec.grounding)
            elapsed = perf_counter() - t0
            if seed_ground_s is None or elapsed < seed_ground_s:
                seed_ground_s = elapsed
        ground_speedup = seed_ground_s / max(ground_s, 1e-12)
        # Materialize the lazy rule view outside the timed sections: the
        # seed kernel's constructor iterates rule objects, and charging
        # their one-time decode to its init would flatter the speedup.
        list(gp.rules)

    kernels = {"kernel": _measure_kernel(gp, "kernel", spec.semantics, repeat)}
    speedup = None
    if baseline:
        kernels["seed"] = _measure_kernel(gp, "seed", spec.semantics, repeat)
        if kernels["seed"]["_true_set"] != kernels["kernel"]["_true_set"]:
            raise ReproError(f"bench family {name!r}: seed and compiled kernels disagree")
        speedup = kernels["seed"]["run_s"] / max(kernels["kernel"]["run_s"], 1e-12)
        # Differential grounder cross-check: identical ground programs, and
        # the identical model when the kernel's decision trail is replayed
        # on the seed grounding through the atom bijection.
        to_seed = _grounding_bijection(name, gp, gp_seed)
        replay_true = _replay_on_seed_grounding(
            name, gp_seed, kernels["kernel"]["_decisions"], to_seed
        )
        mapped_true = {to_seed[a] for a in kernels["kernel"]["_true_set"]}
        if mapped_true != replay_true:
            raise ReproError(f"bench family {name!r}: seed and compiled groundings disagree")

    # Cross-check the public Engine path against the timed drive loop: the
    # registry runner must reproduce the exact model (same FirstSideTrue
    # trajectory), and must do so without grounding again.  Warm the lazy
    # atom-table decode first: result materialization touches every atom
    # once, and (like the rule view above) charging that one-time decode
    # to the solve would distort the interpreter timing.
    atom_table = gp.atoms
    for i in range(gp.atom_count):
        atom_table.atom(i)
    solution = engine.solve(_ENGINE_SEMANTICS[spec.semantics])
    engine_true = frozenset(i for i, s in enumerate(solution.model.status) if s == TRUE)
    if engine_true != kernels["kernel"]["_true_set"]:
        raise ReproError(f"bench family {name!r}: Engine and drive loop disagree")
    if engine.ground_calls != 1:
        raise ReproError(f"bench family {name!r}: Engine reground ({engine.ground_calls}x)")
    for phases in kernels.values():
        del phases["_true_set"]
        del phases["_decisions"]

    # Differential guard on the incremental (K, L) sides cache: every
    # bench run re-verifies it per tie round against the full_recompute
    # oracle.
    tie_sides_checked = 0
    if spec.semantics == "wf-tb":
        tie_sides_checked = _verify_tie_sides(name, gp)

    return {
        "n": n,
        "semantics": spec.semantics,
        "grounding": spec.grounding,
        "atoms": gp.atom_count,
        "rules": gp.rule_count,
        "ground_s": ground_s,
        "seed_ground_s": seed_ground_s,
        "ground_speedup": ground_speedup,
        # CSR compilation happens once per ground program (a grounding-time
        # cost shared by every state and clone), so it is reported beside
        # ground_s rather than inside either kernel's interpreter time.
        "compile_s": compile_s,
        "kernels": kernels,
        "engine_solve_s": solution.timings["solve_s"],
        # The kernel's per-phase breakdown of that solve (fused unfounded
        # cascade, schedule-driven tie selection).  result_s is the lazy
        # decode/encode phase: 0.0 at solve time by construction — the
        # solution is id-native and nothing here touched an atom view —
        # and booked non-overlapping when views are read later.
        "solve_phases": {
            key: solution.timings.get(key, 0.0)
            for key in (
                "close_s",
                "unfounded_s",
                "tie_select_s",
                "tie_apply_s",
                "tie_analysis_s",
                "result_s",
            )
        },
        # (component, round) pairs of the incremental sides cache verified
        # against the full_recompute oracle in this run (0 for families
        # whose semantics never queries ties).
        "tie_sides_checked": tie_sides_checked,
        "speedup": speedup,
    }


# Model cap of the enumerate mode: enough leaves that steady-state
# models/sec dominates the first descent, small enough that the
# clone-based reference column stays affordable at large scale.
_ENUM_LIMIT = 64


def _enum_key(run) -> tuple:
    """Comparable view of one enumerated run: (true set, id-based trail)."""
    return (
        frozenset(run.model.true_set()),
        tuple((c.true_ids, c.false_ids, c.forced) for c in run.choices),
    )


def _enumerate_family(name: str, spec: FamilySpec, base_n: int, repeat: int) -> dict:
    """Enumeration throughput (models/sec) for one tie-breaking family.

    Runs the exhaustive explorer twice over the same compiled grounding —
    the production trail-undo DFS and the clone-based reference — capped
    at ``_ENUM_LIMIT`` models, best-of-``repeat``.  The two (model,
    choice-trail) sequences must be identical before any number is
    recorded; ``enumerate_speedup`` (clone time over trail time) is the
    dividend of undoing work instead of copying state per branch.
    """
    n = spec.size(base_n)
    program, database = spec.generator(n)
    engine = Engine(program, database, grounding=spec.grounding)
    gp = engine.ground_for(spec.grounding)

    trail_s: float | None = None
    clone_s: float | None = None
    trail_keys: list[tuple] = []
    clone_keys: list[tuple] = []
    for _ in range(max(1, repeat)):
        t0 = perf_counter()
        trail_keys = [
            _enum_key(run)
            for run in _enumerate_tie_breaking_models(
                program, database, ground_program=gp, limit=_ENUM_LIMIT
            )
        ]
        elapsed = perf_counter() - t0
        if trail_s is None or elapsed < trail_s:
            trail_s = elapsed
        t0 = perf_counter()
        clone_keys = [
            _enum_key(run) for run in _enumerate_reference(gp, limit=_ENUM_LIMIT)
        ]
        elapsed = perf_counter() - t0
        if clone_s is None or elapsed < clone_s:
            clone_s = elapsed
    if trail_keys != clone_keys:
        raise ReproError(
            f"bench family {name!r}: trail-undo and clone-based enumeration disagree"
        )
    assert trail_s is not None and clone_s is not None
    models = len(trail_keys)
    return {
        "n": n,
        "limit": _ENUM_LIMIT,
        "models": models,
        "trail_s": trail_s,
        "clone_s": clone_s,
        "trail_models_per_s": models / max(trail_s, 1e-12),
        "clone_models_per_s": models / max(clone_s, 1e-12),
        "enumerate_speedup": clone_s / max(trail_s, 1e-12),
    }


# Probe-batch size of the results mode: small enough that the id-native
# path's O(batch) cost is visible against the eager comparator's O(model)
# materialization, large enough for stable per-answer timing.
_RESULTS_BATCH = 64


def _results_family(name: str, spec: FamilySpec, base_n: int, repeat: int) -> dict:
    """Result-tier throughput for one family: answers/sec and encode MB/s.

    Two measurements over one solved model, both differentially checked:

    * **query** — :meth:`repro.api.Engine.query_many` over a
      deterministic probe batch of ground atoms, answered straight from
      the kernel's status ids (O(1) membership per atom, no set ever
      built), against the *eager comparator*: the pre-lazy behaviour of
      materializing all three atom frozensets and answering by set
      membership.  Answer dicts must be identical before any number is
      recorded; ``query_speedup`` is the id-native dividend.
    * **encode** — the streaming ``repro-solution/1`` encoder
      (:func:`repro.io.json_io.solution_to_jsonl_chunks`, ids → wire
      text with no whole-document buffer) against the buffered
      ``solution_to_obj`` + ``json.dumps`` oracle, byte equality
      asserted.  Both run warm (caches populated, ``result_s`` booking
      settled) so the comparison is encode work, not first-touch decode.
    """
    from repro.io.json_io import solution_to_jsonl_chunks, solution_to_obj

    n = spec.size(base_n)
    program, database = spec.generator(n)
    engine = Engine(program, database, grounding=spec.grounding)
    gp = engine.ground_for(spec.grounding)
    atom_table = gp.atoms
    all_atoms = [atom_table.atom(i) for i in range(gp.atom_count)]
    semantics = _ENGINE_SEMANTICS[spec.semantics]
    solution = engine.solve(semantics)
    stride = max(1, gp.atom_count // _RESULTS_BATCH)
    batch = all_atoms[::stride]

    # -- query: id-native vs eager materialization ------------------------
    ids_s: float | None = None
    id_answers: dict = {}
    for _ in range(max(1, repeat)):
        t0 = perf_counter()
        id_answers = engine.query_many(batch, semantics=semantics)
        elapsed = perf_counter() - t0
        if ids_s is None or elapsed < ids_s:
            ids_s = elapsed

    true_ids, _false_ids, undef_ids = (
        solution.true_ids,
        solution.false_ids,
        solution.undefined_ids,
    )

    def _eager_query_many() -> dict:
        # The pre-lazy path: decode the full partition into atom sets,
        # then answer the batch by membership — O(model) per call.
        true_set = frozenset(map(atom_table.atom, true_ids))
        undef_set = frozenset(map(atom_table.atom, undef_ids))
        frozenset(map(atom_table.atom, _false_ids))  # the full materialization cost
        return {
            a: True if a in true_set else (None if a in undef_set else False)
            for a in batch
        }

    eager_s: float | None = None
    eager_answers: dict = {}
    for _ in range(max(1, repeat)):
        t0 = perf_counter()
        eager_answers = _eager_query_many()
        elapsed = perf_counter() - t0
        if eager_s is None or elapsed < eager_s:
            eager_s = elapsed
    if eager_answers != id_answers:
        raise ReproError(
            f"bench family {name!r}: id-native and eager query answers disagree"
        )
    assert ids_s is not None and eager_s is not None

    # -- encode: streaming vs buffered, byte-checked ----------------------
    # Byte-equality differential on the shared solution first.  The warm
    # second pair is compared: the first encodes book the one-time decode
    # into result_s, mutating the live timings mid-flight.
    "".join(solution_to_jsonl_chunks(solution, sort_keys=True))
    json.dumps(solution_to_obj(solution), sort_keys=True)
    streamed = "".join(solution_to_jsonl_chunks(solution, sort_keys=True))
    buffered = json.dumps(solution_to_obj(solution), sort_keys=True)
    if streamed != buffered:
        raise ReproError(
            f"bench family {name!r}: streaming and buffered encodes disagree"
        )
    doc_bytes = len(streamed.encode("utf-8"))

    def _fresh_view() -> Solution:
        # What one serving response pays: a fresh lazy view over the
        # solved model with empty per-instance caches, so first-touch
        # decode is part of the measured cost.  (The atom table's decode
        # cache is process-wide, exactly as in a warm server.)
        return Solution.from_interpretation(
            solution.semantics,
            solution.model,
            choices=solution.choices,
            policy=solution.policy,
            iterations=solution.iterations,
            grounding=solution.grounding,
            timings={},
        )

    stream_s: float | None = None
    buffered_s: float | None = None
    for _ in range(max(1, repeat)):
        fresh = _fresh_view()
        t0 = perf_counter()
        # Consume without joining: the streaming path never holds the
        # whole document.
        for _chunk in solution_to_jsonl_chunks(fresh, sort_keys=True):
            pass
        elapsed = perf_counter() - t0
        if stream_s is None or elapsed < stream_s:
            stream_s = elapsed
        fresh = _fresh_view()
        t0 = perf_counter()
        json.dumps(solution_to_obj(fresh), sort_keys=True)
        elapsed = perf_counter() - t0
        if buffered_s is None or elapsed < buffered_s:
            buffered_s = elapsed
    assert stream_s is not None and buffered_s is not None

    mb = doc_bytes / (1024 * 1024)
    return {
        "n": n,
        "atoms": gp.atom_count,
        "queried": len(batch),
        "ids_s": ids_s,
        "eager_s": eager_s,
        "ids_answers_per_s": len(batch) / max(ids_s, 1e-12),
        "eager_answers_per_s": len(batch) / max(eager_s, 1e-12),
        "query_speedup": eager_s / max(ids_s, 1e-12),
        "doc_bytes": doc_bytes,
        "stream_s": stream_s,
        "buffered_s": buffered_s,
        "stream_mb_s": mb / max(stream_s, 1e-12),
        "buffered_mb_s": mb / max(buffered_s, 1e-12),
        "encode_speedup": buffered_s / max(stream_s, 1e-12),
    }


# Request counts of the throughput mode: enough cold starts for a stable
# best-of, more warm starts (they are cheap), and a batch big enough that
# per-request overhead dominates pool bookkeeping.
_COLD_REQUESTS = 3
_WARM_REQUESTS = 5
_BATCH_REQUESTS = 16


#: Chunk sizes the sharding segment sweeps; the recorded numbers back
#: the BatchSolver default (chunksize=1 — see docs/serving.md).
_POOL_CHUNKSIZES = (1, 2, 4)


def _default_workers() -> int:
    """Worker-pool width for the sharding/load segments: 2–4, CPU-capped."""
    return max(2, min(4, os.cpu_count() or 1))


def _throughput_family(
    name: str, spec: FamilySpec, base_n: int, *, pool_workers: int = 0
) -> dict:
    """Cold-vs-warm serving latency and batch throughput for one family.

    *Cold* requests replay what a process without artifacts pays per
    request: parse the source text, ground, kernel-compile, then solve.
    *Warm* requests load the ``repro-ground/1`` artifact (saved once) via
    :meth:`Engine.from_artifact` and solve.  Every warm model must equal
    the cold model — the artifact path is cross-checked before any number
    is recorded.  The batch segment serves ``_BATCH_REQUESTS`` one-atom
    queries through :class:`repro.service.BatchSolver` on the warm
    engine; policy-accepting semantics vary the seed per request so each
    request is a genuine solve, deterministic semantics are served from
    the engine's solution cache (exactly as a real service would).

    With ``pool_workers >= 1`` the sharding segment re-serves the same
    batch through a ``workers=N`` process pool at each chunk size in
    ``_POOL_CHUNKSIZES`` — a fresh pool per chunk size so every run pays
    real solves (a shared pool would answer later sweeps from worker
    solution caches and flatter coarse chunks).  Pool fork + per-worker
    artifact load happen before the clock (``warm_pool``); results are
    cross-checked against the inline batch.
    """
    from repro.service.batch import BatchSolver

    n = spec.size(base_n)
    program, database = spec.generator(n)
    program_text = format_program(program)
    database_text = format_database(database)
    semantics = _ENGINE_SEMANTICS[spec.semantics]

    cold_start: list[float] = []
    cold_solve: list[float] = []
    cold_true: frozenset[str] = frozenset()
    engine = None
    for _ in range(_COLD_REQUESTS):
        t0 = perf_counter()
        engine = Engine(program_text, database_text, grounding=spec.grounding)
        engine.ground_for(spec.grounding)
        cold_start.append(perf_counter() - t0)
        t0 = perf_counter()
        solution = engine.solve(semantics)
        cold_solve.append(perf_counter() - t0)
        cold_true = frozenset(str(a) for a in solution.true_atoms)
    assert engine is not None

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        artifact_path = Path(tmp) / f"{name}.repro-ground"
        t0 = perf_counter()
        engine.save_artifact(artifact_path, spec.grounding)
        artifact_save_s = perf_counter() - t0
        artifact_bytes = artifact_path.stat().st_size

        warm_start: list[float] = []
        warm_solve: list[float] = []
        for _ in range(_WARM_REQUESTS):
            t0 = perf_counter()
            warm = Engine.from_artifact(artifact_path)
            warm_start.append(perf_counter() - t0)
            t0 = perf_counter()
            solution = warm.solve(semantics)
            warm_solve.append(perf_counter() - t0)
            warm_true = frozenset(str(a) for a in solution.true_atoms)
            if warm_true != cold_true:
                raise ReproError(
                    f"bench family {name!r}: warm-started model differs from the cold one"
                )

        probe_atom = min(cold_true) if cold_true else None
        takes_seed = "policy" in get_spec(semantics).options
        requests = []
        for i in range(_BATCH_REQUESTS):
            obj: dict = {"semantics": semantics}
            if takes_seed:
                obj["seed"] = i
            if probe_atom is not None:
                obj["atoms"] = [probe_atom]
            requests.append(obj)
        with BatchSolver(artifact=artifact_path) as solver:
            t0 = perf_counter()
            results = solver.solve_many(requests)
            batch_s = perf_counter() - t0
        failed = [r for r in results if not r.get("ok")]
        if failed:
            raise ReproError(f"bench family {name!r}: batch request failed: {failed[0]}")

        pool = None
        if pool_workers:
            inline_stripped = [dict(r) for r in results]
            for stripped in inline_stripped:
                stripped.pop("timings", None)
            chunk_req_s: dict[str, float] = {}
            for chunk in _POOL_CHUNKSIZES:
                with BatchSolver(
                    artifact=artifact_path, workers=pool_workers, chunksize=chunk
                ) as pool_solver:
                    pool_solver.warm_pool()
                    t0 = perf_counter()
                    pool_results = pool_solver.solve_many(requests)
                    pool_s = perf_counter() - t0
                sharded = [dict(r) for r in pool_results]
                for stripped in sharded:
                    stripped.pop("timings", None)
                if sharded != inline_stripped:
                    raise ReproError(
                        f"bench family {name!r}: workers={pool_workers} "
                        f"chunksize={chunk} results differ from the inline batch"
                    )
                chunk_req_s[str(chunk)] = len(requests) / max(pool_s, 1e-12)
            best_chunk = max(chunk_req_s, key=lambda c: chunk_req_s[c])
            pool = {
                "workers": pool_workers,
                "requests": len(requests),
                "chunk_req_s": chunk_req_s,
                "best_chunksize": int(best_chunk),
                "requests_per_s": chunk_req_s["1"],
                "shard_speedup": chunk_req_s["1"] / (_BATCH_REQUESTS / max(batch_s, 1e-12)),
            }

    return {
        "n": n,
        "semantics": spec.semantics,
        "grounding": spec.grounding,
        "requests": {"cold": _COLD_REQUESTS, "warm": _WARM_REQUESTS, "batch": _BATCH_REQUESTS},
        "cold_start_s": min(cold_start),
        "cold_solve_s": min(cold_solve),
        "warm_start_s": min(warm_start),
        "warm_solve_s": min(warm_solve),
        "artifact_save_s": artifact_save_s,
        "artifact_bytes": artifact_bytes,
        "warm_speedup": min(cold_start) / max(min(warm_start), 1e-12),
        "batch_s": batch_s,
        "requests_per_s": _BATCH_REQUESTS / max(batch_s, 1e-12),
        "pool": pool,
    }


# Step counts of the update mode: enough streamed updates that per-step
# overhead averages out, and few (expensive) full rebuilds — each one is
# a complete parse-free ground + kernel-compile of the mutated database.
_UPDATE_STEPS = 60
_REBUILD_STEPS = 5


def _update_trace(program: Program, database: Database, steps: int) -> list:
    """A deterministic, universe-stable retract/reinsert trace.

    Streams only *safe* EDB facts — ones whose every constant is anchored
    by the program or by a second fact — and always reinserts a fact
    before touching the next, so the Herbrand universe never changes and
    every step stays inside the incremental envelope of
    :func:`~repro.datalog.grounding.apply_facts_delta` (no silent
    re-grounds inflating the measured throughput).  Families whose facts
    all carry unique constants (retracting any would shrink the universe)
    stream *novel* facts instead: rows built from already-present
    constants are inserted then retracted, which exercises the
    instance-addition path under the same universe-stability guarantee.
    Returns ``[]`` when the family has no streamable facts at all.
    """
    from collections import Counter

    occurrences: Counter = Counter()
    for atom in database.atoms():
        occurrences.update(atom.args)
    anchored = program.constants
    safe = [
        atom
        for atom in database.atoms()
        if all(c in anchored or occurrences[c] >= 2 for c in atom.args)
    ]
    if safe:
        ops: list = []
        index = 0
        while len(ops) < steps:
            fact = safe[index % len(safe)]
            ops.append(("retract", fact))
            ops.append(("insert", fact))
            index += 1
        return ops[:steps]
    constants = sorted(occurrences, key=str)
    novel: list = []
    for atom in database.atoms():
        if not atom.args or not constants:
            continue
        row = tuple(
            constants[(constants.index(c) + 1) % len(constants)] for c in atom.args
        )
        candidate = Atom(atom.predicate, row)
        if not database.contains_atom(candidate) and candidate not in novel:
            novel.append(candidate)
        if len(novel) >= 8:
            break
    if not novel:
        return []
    ops = []
    index = 0
    while len(ops) < steps:
        fact = novel[index % len(novel)]
        ops.append(("insert", fact))
        ops.append(("retract", fact))
        index += 1
    return ops[:steps]


def _update_family(name: str, spec: FamilySpec, base_n: int) -> dict | None:
    """Streaming-update throughput vs full rebuild for one family.

    The *live* segment streams ``_UPDATE_STEPS`` single-fact updates into
    one warm :class:`Engine` (``insert_facts`` / ``retract_facts``) and
    times pure update absorption — delta re-ground plus index publish;
    the solve phase is identical on both sides and timed elsewhere.  The
    *rebuild* segment replays the first ``_REBUILD_STEPS`` steps the way
    a process without the update engine must: a fresh engine grounding
    and kernel-compiling the mutated database from scratch.  Each rebuild
    step's model is cross-checked against a second live engine driven
    through the same prefix before any number is recorded; the final live
    model is cross-checked against a fresh grounding of the end state.
    Returns ``None`` for families with nothing safely streamable.
    """
    n = spec.size(base_n)
    program, database = spec.generator(n)
    semantics = _ENGINE_SEMANTICS[spec.semantics]
    ops = _update_trace(program, database, _UPDATE_STEPS)
    if not ops:
        return None

    engine = Engine(program, database.copy(), grounding=spec.grounding)
    gp = engine.ground_for(spec.grounding)
    engine.solve(semantics)  # warm the pipeline before the timed segment

    t0 = perf_counter()
    for op, fact in ops:
        if op == "insert":
            engine.insert_facts(fact)
        else:
            engine.retract_facts(fact)
    update_s = perf_counter() - t0

    live_true = frozenset(str(a) for a in engine.solve(semantics).true_atoms)
    final_engine = Engine(program, engine.database.copy(), grounding=spec.grounding)
    final_true = frozenset(str(a) for a in final_engine.solve(semantics).true_atoms)
    if live_true != final_true:
        raise ReproError(
            f"bench family {name!r}: live update engine and fresh grounding disagree"
        )

    rebuild_db = database.copy()
    verify = Engine(program, database.copy(), grounding=spec.grounding)
    rebuild_s = 0.0
    for op, fact in ops[:_REBUILD_STEPS]:
        if op == "insert":
            rebuild_db.add_atom(fact)
            verify.insert_facts(fact)
        else:
            rebuild_db.discard_atom(fact)
            verify.retract_facts(fact)
        t0 = perf_counter()
        rebuilt = Engine(program, rebuild_db.copy(), grounding=spec.grounding)
        rebuilt.ground_for(spec.grounding)
        rebuild_s += perf_counter() - t0
        rebuilt_true = frozenset(str(a) for a in rebuilt.solve(semantics).true_atoms)
        stream_true = frozenset(str(a) for a in verify.solve(semantics).true_atoms)
        if rebuilt_true != stream_true:
            raise ReproError(
                f"bench family {name!r}: streamed update and full rebuild disagree"
            )

    steps = len(ops)
    update_step_s = update_s / steps
    rebuild_step_s = rebuild_s / _REBUILD_STEPS
    return {
        "n": n,
        "semantics": spec.semantics,
        "grounding": spec.grounding,
        "atoms": gp.atom_count,
        "rules": gp.rule_count,
        "steps": steps,
        "rebuild_steps": _REBUILD_STEPS,
        "update_s": update_s,
        "updates_per_s": steps / max(update_s, 1e-12),
        "rebuild_s": rebuild_s,
        "rebuilds_per_s": _REBUILD_STEPS / max(rebuild_s, 1e-12),
        "update_speedup": rebuild_step_s / max(update_step_s, 1e-12),
        "delta_applied": engine.delta_applied,
        "delta_rebuilds": engine.delta_rebuilds,
    }


# Load-mode shape per scale: the in-flight cap (a global client-side
# semaphore), with 2x that many total requests so the server spends most
# of the run at full depth.  The committed large-scale record must hold
# >= 256 requests in flight (the acceptance bar for the concurrent tier);
# smoke stays small so CI finishes quickly.
_LOAD_CONCURRENCY: dict[str, int] = {"smoke": 64, "small": 128, "medium": 256, "large": 256}
_LOAD_CONNECTIONS = 16
_LOAD_SEEDS = 8


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[index]


async def _drive_load(
    artifact_path: Path, request_objs: Sequence[dict], concurrency: int, workers: int
) -> dict:
    """Fire one request fleet at a live server; returns the measured stats.

    Boots a :class:`~repro.service.ReproServer` on an ephemeral port,
    opens ``_LOAD_CONNECTIONS`` client connections, and pipelines the
    requests with a *global* semaphore capping unanswered requests at
    ``concurrency`` — so the server really holds that many in flight
    (its own ``queue_depth`` decorations are folded back into
    ``max_depth`` as evidence).  Latency is measured per request from
    write to response; ``max_pending`` leaves headroom above the client
    cap so the integrity runs never shed (``shed`` is recorded and must
    stay 0).
    """
    from repro.service.server import ReproServer

    server = ReproServer(
        artifact_path,
        workers=workers,
        max_pending=concurrency + 8,
        host="127.0.0.1",
        port=0,
    )
    async with server:
        assert server.address is not None
        host, port = server.address
        connections = min(_LOAD_CONNECTIONS, len(request_objs)) or 1
        chunks = [list(request_objs[i::connections]) for i in range(connections)]
        semaphore = asyncio.Semaphore(concurrency)
        latencies: dict[int, float] = {}
        values: dict[int, object] = {}
        depths: list[int] = [0]

        async def client(chunk: list[dict]) -> None:
            reader, writer = await asyncio.open_connection(host, port)
            sent: dict[int, float] = {}

            async def read_responses() -> None:
                for _ in range(len(chunk)):
                    line = await reader.readline()
                    result = json.loads(line)
                    rid = result.get("id")
                    latencies[rid] = perf_counter() - sent.pop(rid)
                    if not result.get("ok"):
                        raise ReproError(
                            f"load request {rid} failed: {result.get('error')}"
                        )
                    depth = result.get("timings", {}).get("queue_depth", 0)
                    if depth > depths[0]:
                        depths[0] = depth
                    values[rid] = result.get("values")
                    semaphore.release()

            reading = asyncio.create_task(read_responses())
            try:
                for obj in chunk:
                    await semaphore.acquire()
                    sent[obj["id"]] = perf_counter()
                    writer.write((json.dumps(obj) + "\n").encode("utf-8"))
                await writer.drain()
                await reading
            finally:
                if not reading.done():
                    reading.cancel()
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, OSError):
                    pass

        t0 = perf_counter()
        await asyncio.gather(*(client(chunk) for chunk in chunks))
        elapsed = perf_counter() - t0
        shed = server.shed
    ordered = sorted(latencies.values())
    return {
        "workers": workers,
        "elapsed_s": elapsed,
        "req_s": len(request_objs) / max(elapsed, 1e-12),
        "p50_ms": _percentile(ordered, 0.50) * 1e3,
        "p99_ms": _percentile(ordered, 0.99) * 1e3,
        "max_depth": depths[0],
        "shed": shed,
        "_values": values,
    }


def _load_family(
    name: str, spec: FamilySpec, base_n: int, *, concurrency: int, workers: int
) -> dict:
    """Concurrent-server load benchmark for one family.

    Serves ``2 * concurrency`` atom-probe requests (policy-accepting
    semantics cycle ``_LOAD_SEEDS`` seeds, so the engine solution caches
    see the steady-state hit pattern a real service would) through two
    server configurations — ``workers=0`` (solves serialized on the warm
    inline engine) and ``workers=N`` (fanned out to the process pool) —
    and records req/s and p50/p99 latency for each.  Every response's
    values are compared against an inline oracle engine answering the
    same request shapes; any mismatch fails the bench.
    """
    from repro.service.batch import BatchRequest, solve_one

    n = spec.size(base_n)
    program, database = spec.generator(n)
    engine = Engine(program, database, grounding=spec.grounding)
    semantics = _ENGINE_SEMANTICS[spec.semantics]
    solution = engine.solve(semantics)
    probe_atoms = sorted(str(a) for a in solution.true_atoms)[:3]
    takes_seed = "policy" in get_spec(semantics).options

    total = 2 * concurrency
    request_objs: list[dict] = []
    for i in range(total):
        obj: dict = {"id": i, "semantics": semantics}
        if takes_seed:
            obj["seed"] = i % _LOAD_SEEDS
        if probe_atoms:
            obj["atoms"] = probe_atoms
        request_objs.append(obj)

    with tempfile.TemporaryDirectory(prefix="repro-load-") as tmp:
        artifact_path = Path(tmp) / f"{name}.repro-ground"
        engine.save_artifact(artifact_path, spec.grounding)

        # The inline-path oracle: a fresh warm engine answers one request
        # per distinct shape exactly as the serving path would.
        oracle = Engine.from_artifact(artifact_path)
        expected: dict = {}
        for obj in request_objs:
            key = obj.get("seed")
            if key not in expected:
                oracle_result = solve_one(oracle, BatchRequest.from_obj(dict(obj)))
                if not oracle_result.get("ok"):
                    raise ReproError(
                        f"bench family {name!r}: load oracle failed: {oracle_result}"
                    )
                expected[key] = oracle_result.get("values")

        configs: dict[str, dict] = {}
        for label, config_workers in (("inline", 0), ("workers", workers)):
            stats = asyncio.run(
                _drive_load(artifact_path, request_objs, concurrency, config_workers)
            )
            answered = stats.pop("_values")
            for obj in request_objs:
                if answered[obj["id"]] != expected[obj.get("seed")]:
                    raise ReproError(
                        f"bench family {name!r}: load config {label!r} answered "
                        f"request {obj['id']} differently from the inline path"
                    )
            configs[label] = stats

    return {
        "n": n,
        "semantics": spec.semantics,
        "grounding": spec.grounding,
        "requests": total,
        "concurrency": concurrency,
        "connections": min(_LOAD_CONNECTIONS, total),
        "seeds": _LOAD_SEEDS if takes_seed else 0,
        "inline": configs["inline"],
        "workers": configs["workers"],
        "load_speedup": configs["workers"]["req_s"] / max(configs["inline"]["req_s"], 1e-12),
    }


def current_revision() -> str:
    """Short git revision of the working tree, or ``"unknown"``.

    A ``-dirty`` suffix marks records produced from uncommitted code, so
    the per-revision perf trajectory (``BENCH_<rev>.json``) never
    attributes numbers to a commit that cannot reproduce them.
    """
    cwd = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    if out.returncode != 0 or not rev:
        return "unknown"
    try:
        # Tracked modifications only, matching `git describe --dirty`:
        # untracked files cannot be what produced the measured code.
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=cwd,
        )
        if status.returncode == 0 and status.stdout.strip():
            rev += "-dirty"
    except (OSError, subprocess.SubprocessError):
        pass
    return rev


def run_bench(
    *,
    scale: str = "small",
    family_names: Sequence[str] | None = None,
    repeat: int = 1,
    baseline: bool = True,
    throughput: bool = True,
    enumerate_mode: bool = True,
    updates: bool = True,
    load: bool = True,
    load_concurrency: int | None = None,
    workers: int | None = None,
    results_mode: bool = True,
) -> dict:
    """Run the benchmark suite and return the JSON-ready record.

    ``baseline`` times the frozen seed kernel and grounder alongside the
    production pipeline (and cross-checks them); ``throughput`` runs the
    cold-vs-warm serving mode (:func:`_throughput_family`) per family;
    ``enumerate_mode`` runs the trail-vs-clone enumeration throughput
    mode (:func:`_enumerate_family`) for the tie-breaking families;
    ``updates`` runs the streaming-update mode (:func:`_update_family`)
    for every family with streamable EDB facts; ``load`` runs the
    concurrent-server mode (:func:`_load_family`) per family at
    ``load_concurrency`` in-flight requests (default per scale).
    ``workers`` sets the process-pool width for the sharding and load
    segments (default :func:`_default_workers`; ``0`` skips the
    throughput sharding segment, and the load mode then falls back to
    the default width for its ``workers`` configuration);
    ``results_mode`` records the id-native result tier per family
    (:func:`_results_family`: query answers/sec vs the eager comparator,
    streaming encode MB/s vs the buffered oracle, both differentially
    checked).  Raises
    :class:`~repro.errors.ReproError` for unknown scales or families,
    and whenever any cross-check fails.
    """
    if scale not in SCALES:
        raise ReproError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    base_n = SCALES[scale]
    names = list(family_names) if family_names else list(FAMILIES)
    unknown = [f for f in names if f not in FAMILIES]
    if unknown:
        raise ReproError(f"unknown families {unknown}; choose from {sorted(FAMILIES)}")
    results = {
        name: _bench_family(name, FAMILIES[name], base_n, repeat, baseline)
        for name in names
    }
    pool_workers = _default_workers() if workers is None else workers
    throughput_results = (
        {
            name: _throughput_family(
                name, FAMILIES[name], base_n, pool_workers=pool_workers
            )
            for name in names
        }
        if throughput
        else None
    )
    enumerate_results = (
        {
            name: _enumerate_family(name, FAMILIES[name], base_n, repeat)
            for name in names
            if FAMILIES[name].semantics == "wf-tb"
        }
        if enumerate_mode
        else None
    )
    update_results = None
    if updates:
        update_results = {}
        for name in names:
            family_updates = _update_family(name, FAMILIES[name], base_n)
            if family_updates is not None:
                update_results[name] = family_updates
    tier_results = (
        {name: _results_family(name, FAMILIES[name], base_n, repeat) for name in names}
        if results_mode
        else None
    )
    load_results = None
    if load:
        concurrency = load_concurrency or _LOAD_CONCURRENCY[scale]
        load_workers = pool_workers or _default_workers()
        load_results = {
            name: _load_family(
                name, FAMILIES[name], base_n, concurrency=concurrency, workers=load_workers
            )
            for name in names
        }
    def _stats(values: list[float], prefix: str) -> dict:
        if not values:
            return {}
        geomean = 1.0
        for v in values:
            geomean *= v
        geomean **= 1.0 / len(values)
        return {
            f"min_{prefix}": min(values),
            f"max_{prefix}": max(values),
            f"geomean_{prefix}": geomean,
        }

    speedups = [r["speedup"] for r in results.values() if r["speedup"]]
    ground_speedups = [r["ground_speedup"] for r in results.values() if r["ground_speedup"]]
    summary: dict = {**_stats(speedups, "speedup"), **_stats(ground_speedups, "ground_speedup")}
    if throughput_results:
        warm_speedups = [t["warm_speedup"] for t in throughput_results.values()]
        summary.update(_stats(warm_speedups, "warm_speedup"))
        shard_speedups = [
            t["pool"]["shard_speedup"] for t in throughput_results.values() if t.get("pool")
        ]
        summary.update(_stats(shard_speedups, "shard_speedup"))
    if enumerate_results:
        enum_speedups = [e["enumerate_speedup"] for e in enumerate_results.values()]
        summary.update(_stats(enum_speedups, "enumerate_speedup"))
    if update_results:
        update_speedups = [u["update_speedup"] for u in update_results.values()]
        summary.update(_stats(update_speedups, "update_speedup"))
    if load_results:
        load_speedups = [f["load_speedup"] for f in load_results.values()]
        summary.update(_stats(load_speedups, "load_speedup"))
    if tier_results:
        query_speedups = [r["query_speedup"] for r in tier_results.values()]
        summary.update(_stats(query_speedups, "query_speedup"))
        encode_speedups = [r["encode_speedup"] for r in tier_results.values()]
        summary.update(_stats(encode_speedups, "encode_speedup"))
    record = {
        "schema": SCHEMA,
        "revision": current_revision(),
        "generated_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "scale": scale,
        "base_n": base_n,
        "repeat": max(1, repeat),
        "families": results,
        "summary": summary,
    }
    if throughput_results is not None:
        record["throughput"] = throughput_results
    if enumerate_results is not None:
        record["enumerate"] = enumerate_results
    if update_results is not None:
        record["updates"] = update_results
    if load_results is not None:
        record["load"] = load_results
    if tier_results is not None:
        record["results"] = tier_results
    return record


def default_output_path(record: Mapping) -> Path:
    return Path(f"BENCH_{record['revision']}.json")


def write_bench(record: Mapping, path: Path | None = None) -> Path:
    """Write the bench record to ``BENCH_<rev>.json`` (or ``path``)."""
    target = Path(path) if path is not None else default_output_path(record)
    target.write_text(json.dumps(record, indent=2, sort_keys=False) + "\n")
    return target


def format_table(record: Mapping) -> str:
    """Human-readable per-family summary of a bench record."""
    lines = [
        f"repro bench — scale={record['scale']} (base n={record['base_n']}), "
        f"rev={record['revision']}, python={record['python']}",
        f"{'family':<18} {'n':>6} {'atoms':>8} {'rules':>8} "
        f"{'ground':>9} {'g-seed':>9} {'g-spdup':>8} "
        f"{'kernel':>9} {'seed':>9} {'speedup':>8}",
    ]
    for name, fam in record["families"].items():
        kernel = fam["kernels"]["kernel"]["run_s"]
        seed = fam["kernels"].get("seed", {}).get("run_s")
        seed_ground = fam.get("seed_ground_s")
        ground_speedup = fam.get("ground_speedup")
        speedup = fam["speedup"]
        lines.append(
            f"{name:<18} {fam['n']:>6} {fam['atoms']:>8} {fam['rules']:>8} "
            f"{fam['ground_s']:>8.3f}s "
            f"{(f'{seed_ground:>8.3f}s' if seed_ground is not None else '       —')} "
            f"{(f'{ground_speedup:>7.2f}x' if ground_speedup else '       —')} "
            f"{kernel:>8.3f}s "
            f"{(f'{seed:>8.3f}s' if seed is not None else '       —')} "
            f"{(f'{speedup:>7.2f}x' if speedup else '       —')}"
        )
    summary = record.get("summary") or {}
    if "geomean_speedup" in summary:
        lines.append(
            f"kernel speedup: min {summary['min_speedup']:.2f}x / "
            f"geomean {summary['geomean_speedup']:.2f}x / "
            f"max {summary['max_speedup']:.2f}x"
        )
        if "geomean_ground_speedup" in summary:
            lines.append(
                f"ground speedup: min {summary['min_ground_speedup']:.2f}x / "
                f"geomean {summary['geomean_ground_speedup']:.2f}x / "
                f"max {summary['max_ground_speedup']:.2f}x"
            )
    throughput = record.get("throughput")
    if throughput:
        lines.append("")
        lines.append(
            f"throughput (compile-once serving): "
            f"{'family':<18} {'cold-start':>11} {'warm-start':>11} "
            f"{'speedup':>8} {'req/s':>9} {'artifact':>10}"
        )
        for name, fam in throughput.items():
            lines.append(
                f"{'':<35}{name:<18} "
                f"{fam['cold_start_s'] * 1e3:>9.2f}ms "
                f"{fam['warm_start_s'] * 1e3:>9.2f}ms "
                f"{fam['warm_speedup']:>7.1f}x "
                f"{fam['requests_per_s']:>9.1f} "
                f"{fam['artifact_bytes'] / 1024:>8.1f}kB"
            )
        if "geomean_warm_speedup" in summary:
            lines.append(
                f"warm-start speedup: min {summary['min_warm_speedup']:.2f}x / "
                f"geomean {summary['geomean_warm_speedup']:.2f}x / "
                f"max {summary['max_warm_speedup']:.2f}x"
            )
        sharded = {n: f["pool"] for n, f in throughput.items() if f.get("pool")}
        if sharded:
            chunk_labels = sorted(next(iter(sharded.values()))["chunk_req_s"], key=int)
            lines.append(
                f"sharded batches (workers=N): "
                f"{'family':<18} {'workers':>8} "
                + " ".join(f"{'chunk=' + c:>11}" for c in chunk_labels)
            )
            for name, pool in sharded.items():
                lines.append(
                    f"{'':<29}{name:<18} {pool['workers']:>8} "
                    + " ".join(
                        f"{pool['chunk_req_s'][c]:>9.1f}/s" for c in chunk_labels
                    )
                )
    enumerate_results = record.get("enumerate")
    if enumerate_results:
        lines.append("")
        lines.append(
            f"enumerate (trail-undo DFS vs clone-based): "
            f"{'family':<18} {'models':>7} {'trail/s':>9} {'clone/s':>9} {'speedup':>8}"
        )
        for name, fam in enumerate_results.items():
            lines.append(
                f"{'':<43}{name:<18} "
                f"{fam['models']:>7} "
                f"{fam['trail_models_per_s']:>9.1f} "
                f"{fam['clone_models_per_s']:>9.1f} "
                f"{fam['enumerate_speedup']:>7.2f}x"
            )
        if "geomean_enumerate_speedup" in summary:
            lines.append(
                f"enumerate speedup: min {summary['min_enumerate_speedup']:.2f}x / "
                f"geomean {summary['geomean_enumerate_speedup']:.2f}x / "
                f"max {summary['max_enumerate_speedup']:.2f}x"
            )
    load_results = record.get("load")
    if load_results:
        lines.append("")
        lines.append(
            f"load (concurrent server, {record.get('cpus', '?')} cpu): "
            f"{'family':<18} {'conc':>5} {'inline rps':>11} {'pool rps':>9} "
            f"{'inline p50/p99':>15} {'pool p50/p99':>14}"
        )
        for name, fam in load_results.items():
            inline_cfg = fam["inline"]
            pool_cfg = fam["workers"]
            lines.append(
                f"{'':<37}{name:<18} {fam['concurrency']:>5} "
                f"{inline_cfg['req_s']:>11.1f} {pool_cfg['req_s']:>9.1f} "
                f"{inline_cfg['p50_ms']:>6.1f}/{inline_cfg['p99_ms']:>6.1f}ms "
                f"{pool_cfg['p50_ms']:>6.1f}/{pool_cfg['p99_ms']:>5.1f}ms"
            )
        if "geomean_load_speedup" in summary:
            lines.append(
                f"load speedup (workers/inline): min {summary['min_load_speedup']:.2f}x / "
                f"geomean {summary['geomean_load_speedup']:.2f}x / "
                f"max {summary['max_load_speedup']:.2f}x"
            )
    update_results = record.get("updates")
    if update_results:
        lines.append("")
        lines.append(
            f"updates (streaming vs full rebuild): "
            f"{'family':<18} {'steps':>6} {'upd/s':>10} {'rebuild/s':>10} {'speedup':>9}"
        )
        for name, fam in update_results.items():
            lines.append(
                f"{'':<37}{name:<18} "
                f"{fam['steps']:>6} "
                f"{fam['updates_per_s']:>10.1f} "
                f"{fam['rebuilds_per_s']:>10.1f} "
                f"{fam['update_speedup']:>8.1f}x"
            )
        if "geomean_update_speedup" in summary:
            lines.append(
                f"update speedup: min {summary['min_update_speedup']:.2f}x / "
                f"geomean {summary['geomean_update_speedup']:.2f}x / "
                f"max {summary['max_update_speedup']:.2f}x"
            )
    return "\n".join(lines)
