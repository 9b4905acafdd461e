"""Command-line interface: ``repro-datalog`` (or ``python -m repro``).

Subcommands:

* ``analyze FILE``            — classification + structural totality report;
* ``run FILE``                — evaluate under a chosen semantics;
* ``fixpoints FILE``          — enumerate fixpoints (optionally stable only);
* ``ground FILE``             — grounding statistics;
* ``variant FILE``            — emit a Theorem 2/3/5 no-fixpoint variant;
* ``witness FILE``            — bounded search for a no-fixpoint database;
* ``explain FILE ATOM``       — provenance of one atom's truth value;
* ``dot FILE``                — Graphviz export of the program/ground graph;
* ``serve``                   — warm-start batch service: answer a JSONL
  request file from one compiled ground artifact, optionally across a
  process pool (``--workers``); requests may stream ``insert`` /
  ``retract`` updates into the serving engine;
* ``server``                  — long-lived concurrent TCP/JSONL server:
  asyncio front-end over the same artifact with per-session serialized
  updates, bounded admission (shed responses under overload), and
  graceful drain on SIGTERM.

Program files use the Datalog syntax of :mod:`repro.datalog.parser`;
databases are fact files (``--db``).  Every subcommand evaluates through
one :class:`repro.api.Engine` (parse/ground/compile happen once per
invocation, whatever the semantics), and the analysis subcommands accept
``--json`` to emit machine-readable output: solutions use the unified
``repro-solution/1`` schema of :mod:`repro.io.json_io`, wrapped in a
``repro-cli/1`` envelope.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from repro.api import Engine, Solution, describe_registry, get_spec
from repro.constructions.theorem2 import theorem2_constant_free_variant, theorem2_variant
from repro.constructions.theorem3 import theorem3_constant_free_variant, theorem3_variant
from repro.constructions.theorem5 import theorem5_variant
from repro.datalog.printer import format_database, format_program
from repro.errors import ReproError
from repro.io.dot import ground_graph_dot, program_graph_dot
from repro.io.json_io import explanation_to_obj, solution_to_obj
from repro.semantics.choices import RandomChoice
from repro.semantics.stable import is_stable_model

__all__ = ["main"]

CLI_SCHEMA = "repro-cli/1"

# Historical CLI spellings with their exact legacy headers and option
# plumbing; every other registry name/alias is also accepted (generic
# header, options derived from its SemanticsSpec).
_RUN_SEMANTICS = {
    "wf": ("well_founded", True, False),
    "pure-tb": ("pure_tie_breaking", True, True),
    "wf-tb": ("tie_breaking", True, True),
    "stratified": ("stratified", False, False),
    "perfect": ("perfect", True, False),
    "fitting": ("fitting", False, False),
}


def _engine(args) -> Engine:
    return Engine.from_files(args.program, getattr(args, "db", None))


def _emit(command: str, payload: dict[str, Any]) -> None:
    print(json.dumps({"schema": CLI_SCHEMA, "command": command, **payload}, indent=2))


def _print_model(solution: Solution, show_false: bool) -> None:
    for atom in sorted(solution.true_atoms, key=str):
        print(f"  {atom} = true")
    if show_false and solution.false_atoms is not None:
        for atom in sorted(solution.false_atoms, key=str):
            print(f"  {atom} = false")
    for atom in sorted(solution.undefined_atoms, key=str):
        print(f"  {atom} = undefined")


def _odd_cycle_obj(cycle) -> list[list] | None:
    if cycle is None:
        return None
    return [[source, target, positive] for source, target, positive in cycle.arcs]


def _classification_obj(info) -> dict[str, Any]:
    stratification = None
    if info.stratification is not None:
        stratification = {
            "levels": dict(sorted(info.stratification.level.items())),
            "strata": [sorted(s) for s in info.stratification.strata],
        }
    return {
        "rule_count": info.rule_count,
        "predicate_count": info.predicate_count,
        "is_propositional": info.is_propositional,
        "is_positive": info.is_positive,
        "is_stratified": info.is_stratified,
        "stratification": stratification,
        "is_call_consistent": info.is_call_consistent,
        "is_structurally_total": info.is_structurally_total,
        "is_structurally_nonuniformly_total": info.is_structurally_nonuniformly_total,
        "odd_cycle": _odd_cycle_obj(info.odd_cycle),
        "useless": sorted(info.useless),
    }


def _structural_obj(report) -> dict[str, Any]:
    return {
        "structurally_total": report.structurally_total,
        "structurally_nonuniformly_total": report.structurally_nonuniformly_total,
        "odd_cycle": _odd_cycle_obj(report.odd_cycle),
        "reduced_odd_cycle": _odd_cycle_obj(report.reduced_odd_cycle),
        "useless": sorted(report.useless),
    }


def _cmd_analyze(args) -> int:
    engine = _engine(args)
    classification, report = engine.analyze()
    if args.json:
        _emit(
            "analyze",
            {
                "classification": _classification_obj(classification),
                "structural": _structural_obj(report),
            },
        )
        return 0
    print(classification)
    print()
    print(report)
    return 0


def _cmd_run(args) -> int:
    if args.semantics == "help":
        print(describe_registry())
        return 0
    engine = _engine(args)
    if args.semantics in _RUN_SEMANTICS:
        name, takes_grounding, takes_seed = _RUN_SEMANTICS[args.semantics]
    else:
        spec = get_spec(args.semantics)  # raises with available names
        name = spec.name
        takes_grounding = spec.default_grounding is not None
        takes_seed = "policy" in spec.options
    options: dict[str, Any] = {}
    if takes_grounding:
        options["grounding"] = args.grounding
    if takes_seed and args.seed is not None:
        options["policy"] = RandomChoice(args.seed)
    solution = engine.solve(name, **options)
    if args.json:
        _emit("run", {"solution": solution_to_obj(solution)})
        return 0 if args.semantics == "stratified" or solution.total else 3
    if args.semantics == "wf":
        print(f"well-founded model ({solution.iterations} unfounded iterations):")
    elif args.semantics == "pure-tb":
        print(f"pure tie-breaking model ({solution.free_choice_count} free choices):")
    elif args.semantics == "wf-tb":
        print(
            f"well-founded tie-breaking model ({solution.free_choice_count} free choices):"
        )
    elif args.semantics == "stratified":
        print("stratified model:")
        for atom in sorted(solution.true_atoms, key=str):
            print(f"  {atom} = true")
        return 0
    elif args.semantics == "perfect":
        print("perfect model:")
    elif args.semantics == "fitting":
        print("Fitting (Kripke-Kleene) model:")
    elif not solution.found:
        print(f"no {name} model")
        return 3
    else:
        print(f"{name} model:")
    _print_model(solution, args.show_false)
    print(f"total: {solution.total}")
    return 0 if solution.total else 3


def _cmd_fixpoints(args) -> int:
    engine = _engine(args)
    count = 0
    solutions = []
    for solution in engine.enumerate("completion", limit=args.limit, grounding=args.grounding):
        if args.stable and not is_stable_model(
            engine.program, engine.database, solution.true_atoms
        ):
            continue
        count += 1
        if args.json:
            solutions.append(solution_to_obj(solution))
            continue
        label = "stable model" if args.stable else "fixpoint"
        body = ", ".join(sorted(str(a) for a in solution.true_atoms)) or "(empty)"
        print(f"{label} {count}: {body}")
    if args.json:
        _emit("fixpoints", {"stable_only": args.stable, "count": count, "solutions": solutions})
        return 0 if count else 3
    if count == 0:
        print("no fixpoint" if not args.stable else "no stable model")
        return 3
    return 0


def _cmd_ground(args) -> int:
    engine = _engine(args)
    gp = engine.ground_for(args.mode)
    if args.json:
        _emit(
            "ground",
            {
                "ground": {
                    "mode": gp.mode,
                    "universe": len(gp.universe),
                    "atoms": gp.atom_count,
                    "rules": gp.rule_count,
                },
                "timings": dict(engine.timings),
            },
        )
        return 0
    print(gp.describe())
    return 0


def _cmd_variant(args) -> int:
    engine = _engine(args)
    program = engine.program
    builders = {
        ("2", False): theorem2_variant,
        ("2", True): theorem2_constant_free_variant,
        ("3", False): theorem3_variant,
        ("3", True): theorem3_constant_free_variant,
    }
    if args.theorem == "5":
        variant, delta = theorem5_variant(program, nonuniform=args.nonuniform)
    else:
        variant, delta = builders[(args.theorem, args.constant_free)](program)
    print(format_program(variant, header=f"Theorem {args.theorem} variant"))
    print(format_database(delta, header="database"))
    return 0


def _cmd_witness(args) -> int:
    engine = _engine(args)
    witness = engine.witness_search(
        max_constants=args.max_constants,
        nonuniform=not args.uniform,
    )
    if args.json:
        _emit(
            "witness",
            {
                "witness": {
                    "found": witness is not None,
                    "max_constants": args.max_constants,
                    "uniform": args.uniform,
                    "database": (
                        None if witness is None else sorted(str(a) for a in witness.atoms())
                    ),
                },
            },
        )
        return 3 if witness is not None else 0
    if witness is None:
        print(
            f"no counterexample database with <= {args.max_constants} fresh "
            "constants (evidence of totality, not proof — Theorem 6)"
        )
        return 0
    print("NOT TOTAL — this database admits no fixpoint:")
    print(format_database(witness) or "(the empty database)")
    return 3


def _cmd_explain(args) -> int:
    from repro.ground.explain import format_explanation

    engine = _engine(args)
    options: dict[str, Any] = {"grounding": args.grounding}
    if args.semantics == "wf":
        name = "well_founded"
    else:
        name = "tie_breaking"
        if args.seed is not None:
            options["policy"] = RandomChoice(args.seed)
    solution = engine.solve(name, **options)
    # Same (semantics, options) key: explain() reuses the cached solve above.
    tree = engine.explain(args.atom, semantics=name, max_depth=args.depth, **options)
    if args.json:
        _emit(
            "explain",
            {
                "solution": solution_to_obj(solution),
                "explanation": explanation_to_obj(tree),
            },
        )
        return 0
    print(format_explanation(tree))
    return 0


def _cmd_dot(args) -> int:
    engine = _engine(args)
    if args.ground:
        print(ground_graph_dot(engine.ground_for(args.grounding)))
    else:
        print(program_graph_dot(engine.program))
    return 0


def _cmd_serve(args) -> int:
    from time import perf_counter

    from repro.service.batch import BatchSolver

    if not args.artifact and not args.program:
        print("error: serve needs a program file or an existing --artifact", file=sys.stderr)
        return 2
    program = Path(args.program).read_text() if args.program else None
    database = Path(args.db).read_text() if args.db else None
    with BatchSolver(
        artifact=args.artifact,
        program=program,
        database=database,
        grounding=args.grounding,
        workers=args.workers,
    ) as solver:
        t0 = perf_counter()
        results = solver.solve_file(args.batch)
        elapsed = perf_counter() - t0
    lines = "".join(json.dumps(r, sort_keys=True) + "\n" for r in results)
    if args.output:
        Path(args.output).write_text(lines)
    else:
        sys.stdout.write(lines)
    failed = sum(1 for r in results if not r.get("ok"))
    rate = len(results) / elapsed if elapsed > 0 else float("inf")
    # Aggregate solve-phase stats over *distinct* solves: requests served
    # from an engine's solution cache echo the timings of the solve that
    # populated it, and double-counting those would report more solve
    # seconds than wall-clock time.
    distinct_solves: set[tuple] = set()
    for r in results:
        timings = r.get("timings")
        if timings:
            distinct_solves.add(tuple(sorted(timings.items())))
    solve_stats: dict[str, float] = {}
    for solve in distinct_solves:
        for key, value in solve:
            solve_stats[key] = solve_stats.get(key, 0.0) + value
    phase_note = ""
    if solve_stats:
        phase_note = (
            f"; {len(distinct_solves)} solve(s) {solve_stats.get('solve_s', 0.0):.3f}s"
            f" (close {solve_stats.get('close_s', 0.0):.3f}"
            f" / unfounded {solve_stats.get('unfounded_s', 0.0):.3f}"
            f" / tie-select {solve_stats.get('tie_select_s', 0.0):.3f}"
            f" / tie-analysis {solve_stats.get('tie_analysis_s', 0.0):.3f}"
            f" / tie-apply {solve_stats.get('tie_apply_s', 0.0):.3f}"
            f" / result {solve_stats.get('result_s', 0.0):.3f})"
        )
    print(
        f"served {len(results)} request(s) ({failed} failed) in {elapsed:.3f}s "
        f"({rate:.1f} req/s, workers={args.workers}{phase_note})",
        file=sys.stderr,
    )
    return 0 if failed == 0 else 3


def _cmd_server(args) -> int:
    import asyncio

    from repro.service.server import ReproServer, run_server

    if not args.artifact and not args.program:
        print("error: server needs a program file or an existing --artifact", file=sys.stderr)
        return 2
    program = Path(args.program).read_text() if args.program else None
    database = Path(args.db).read_text() if args.db else None
    server = ReproServer(
        args.artifact,
        program=program,
        database=database,
        grounding=args.grounding,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_pending=args.max_pending,
        timeout_s=args.timeout,
        session_ttl_s=args.session_ttl,
        max_sessions=args.max_sessions,
        session_cache=args.session_cache,
    )
    try:
        asyncio.run(run_server(server, ready_stream=sys.stderr))
    except KeyboardInterrupt:  # platforms without add_signal_handler
        pass
    stats = server.stats()
    print(
        f"repro server stopped: {stats['served']} served / {stats['failed']} failed / "
        f"{stats['shed']} shed; sessions: {stats['sessions']['created']} created, "
        f"{stats['sessions']['snapshots']} snapshotted",
        file=sys.stderr,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-datalog",
        description="Tie-breaking semantics and structural totality for Datalog¬",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, json_flag=True):
        p.add_argument("program", help="Datalog¬ program file")
        p.add_argument("--db", help="database (facts) file")
        if json_flag:
            p.add_argument(
                "--json",
                action="store_true",
                help="emit machine-readable JSON (repro-cli/1 envelope)",
            )

    p = sub.add_parser("analyze", help="classification and structural report")
    add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("run", help="evaluate the program under a semantics")
    add_common(p)
    p.add_argument(
        "--semantics",
        default="wf-tb",
        metavar="NAME",
        help="wf | pure-tb | wf-tb | stratified | perfect | fitting, any "
        "repro.api registry name/alias (stable, completion, alternating, "
        "modular, ...), or 'help' to list them",
    )
    p.add_argument("--grounding", choices=["full", "relevant", "edb"], default="full")
    p.add_argument("--seed", type=int, help="random tie orientation seed")
    p.add_argument("--show-false", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("fixpoints", help="enumerate fixpoints / stable models")
    add_common(p)
    p.add_argument("--limit", type=int)
    p.add_argument("--stable", action="store_true", help="stable models only")
    p.add_argument("--grounding", choices=["full", "edb"], default="full")
    p.set_defaults(func=_cmd_fixpoints)

    p = sub.add_parser("ground", help="grounding statistics")
    add_common(p)
    p.add_argument("--mode", choices=["full", "relevant", "edb"], default="full")
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("variant", help="emit a Theorem 2/3/5 variant")
    add_common(p, json_flag=False)
    p.add_argument("--theorem", choices=["2", "3", "5"], default="2")
    p.add_argument("--constant-free", action="store_true")
    p.add_argument("--nonuniform", action="store_true", help="theorem 5 only")
    p.set_defaults(func=_cmd_variant)

    p = sub.add_parser("witness", help="bounded nontotality search (§5)")
    add_common(p)
    p.add_argument("--max-constants", type=int, default=1)
    p.add_argument("--uniform", action="store_true", help="allow initial IDB facts")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("explain", help="provenance of one atom's value")
    add_common(p)
    p.add_argument("atom", help="ground atom, e.g. 'win(1)'")
    p.add_argument("--semantics", choices=["wf", "wf-tb"], default="wf-tb")
    p.add_argument("--grounding", choices=["full", "relevant", "edb"], default="full")
    p.add_argument("--seed", type=int)
    p.add_argument("--depth", type=int, default=12)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("dot", help="Graphviz export")
    add_common(p, json_flag=False)
    p.add_argument("--ground", action="store_true", help="ground graph instead of G(Π)")
    p.add_argument("--grounding", choices=["full", "relevant", "edb"], default="full")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("serve", help="warm-start batch service over one ground artifact")
    p.add_argument(
        "program",
        nargs="?",
        help="Datalog¬ program file (optional when --artifact already exists)",
    )
    p.add_argument("--db", help="database (facts) file")
    p.add_argument(
        "--batch", required=True, help="JSONL request file (repro-batchreq/1, one per line)"
    )
    p.add_argument(
        "--artifact",
        help="repro-ground artifact path: loaded if present, else compiled and saved there",
    )
    p.add_argument(
        "--grounding",
        choices=["full", "relevant", "edb"],
        help="grounding mode used when compiling the artifact",
    )
    p.add_argument("--workers", type=int, default=0, help="worker processes (0 = inline)")
    p.add_argument("--output", help="write result lines here instead of stdout")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "server",
        help="long-lived concurrent TCP/JSONL server (sessions, admission control)",
    )
    p.add_argument(
        "program",
        nargs="?",
        help="Datalog¬ program file (optional when --artifact already exists)",
    )
    p.add_argument("--db", help="database (facts) file")
    p.add_argument(
        "--artifact",
        help="repro-ground artifact path: loaded if present, else compiled and saved there",
    )
    p.add_argument(
        "--grounding",
        choices=["full", "relevant", "edb"],
        help="grounding mode used when compiling the artifact",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=0, help="bind port (0 = ephemeral, printed)")
    p.add_argument("--workers", type=int, default=0, help="worker processes (0 = inline)")
    p.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="admission bound: in-flight requests before shedding (default 256)",
    )
    p.add_argument("--timeout", type=float, help="per-request solve deadline in seconds")
    p.add_argument(
        "--session-ttl",
        type=float,
        default=600.0,
        help="idle seconds before a session expires (default 600)",
    )
    p.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="bound on live stateful sessions (default 64)",
    )
    p.add_argument(
        "--session-cache",
        help="artifact cache directory expired sessions snapshot into",
    )
    p.set_defaults(func=_cmd_server)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
