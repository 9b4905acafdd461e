#!/usr/bin/env python3
"""Generate ``docs/semantics.md`` from the live semantics registry.

The semantics cheat-sheet used to be hand-maintained in the README and
could silently drift from the code.  It is now *generated*: the table of
engine names, aliases, grounding defaults, and options comes straight
from :mod:`repro.api.registry` (one row per ``SemanticsSpec``), merged
with the paper-facing notes kept in :data:`PAPER_NOTES` below — and the
generator *fails* if the two ever disagree about which semantics exist.

Usage::

    python docs/generate_semantics.py            # rewrite docs/semantics.md
    python docs/generate_semantics.py --check    # exit 1 if the page is stale

CI runs ``--check``, so a registry change that forgets to regenerate (or
to describe a new semantics in ``PAPER_NOTES``) fails the docs job.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

DOCS_DIR = Path(__file__).resolve().parent
REPO_ROOT = DOCS_DIR.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.registry import _REGISTRY, available_semantics  # noqa: E402

# Paper-facing annotations that cannot be derived from the specs.  Keys
# MUST exactly cover the registry: the generator refuses to run otherwise.
PAPER_NOTES: dict[str, dict[str, str]] = {
    "fitting": {
        "paper": "§2 [Fit]",
        "total": "rarely",
        "deterministic": "yes",
        "notes": "weakest fixpoint of the 3-valued operator",
    },
    "well_founded": {
        "paper": "§2 [VRS]",
        "total": "sometimes",
        "deterministic": "yes",
        "notes": "unfounded-set loop; unique partial model",
    },
    "stratified": {
        "paper": "§2 [ABW]",
        "total": "yes (stratified Π)",
        "deterministic": "yes",
        "notes": "well-founded kernel on a stratified Π (Theorem 5, [VRS])",
    },
    "perfect": {
        "paper": "§2 [Prz]",
        "total": "yes (stratified Π)",
        "deterministic": "yes",
        "notes": "layer-by-layer evaluation",
    },
    "pure_tie_breaking": {
        "paper": "§3",
        "total": "yes*",
        "deterministic": "no (policy)",
        "notes": "breaks bottom ties; result is a fixpoint (Lemma 2)",
    },
    "tie_breaking": {
        "paper": "§3",
        "total": "yes*",
        "deterministic": "no (policy)",
        "notes": "unfounded sets first; total results are stable (Lemma 3)",
    },
    "stable": {
        "paper": "§2 [GL]",
        "total": "—",
        "deterministic": "—",
        "notes": "NP-hard existence; reduct + close checkers",
    },
    "completion": {
        "paper": "§2",
        "total": "—",
        "deterministic": "—",
        "notes": "fixpoints via completion-SAT enumeration",
    },
    "alternating": {
        "paper": "§2 [VG]",
        "total": "sometimes",
        "deterministic": "yes",
        "notes": "well-founded via Γ² (cross-validation)",
    },
    "modular": {
        "paper": "—",
        "total": "sometimes",
        "deterministic": "yes",
        "notes": "well-founded per program-graph SCC",
    },
}


def render() -> str:
    """The full markdown page, rendered from the registry."""
    names = available_semantics()
    missing = sorted(set(names) - set(PAPER_NOTES))
    extra = sorted(set(PAPER_NOTES) - set(names))
    if missing or extra:
        raise SystemExit(
            f"PAPER_NOTES out of sync with the registry: missing={missing} extra={extra} "
            "— update docs/generate_semantics.py"
        )

    lines = [
        "<!-- GENERATED FILE — do not edit by hand.",
        "     Regenerate with: python docs/generate_semantics.py",
        "     CI runs `python docs/generate_semantics.py --check`. -->",
        "",
        "# Semantics cheat-sheet",
        "",
        "Every semantics is a declarative `SemanticsSpec` in the",
        "[`repro.api` registry](../src/repro/api/registry.py); this page is",
        "generated from that registry, so it cannot drift from the code.",
        "Solve any of them with `engine.solve(name)` — see",
        "[docs/api.md](api.md) for the `Engine` and `Solution` reference.",
        "",
        "| `engine.solve(...)` | Paper | Total? | Deterministic? | Notes |",
        "|---|---|---|---|---|",
    ]
    for name in names:
        spec = _REGISTRY[name]
        note = PAPER_NOTES[name]
        enum = " (+ `enumerate`)" if spec.enumerator is not None else ""
        lines.append(
            f"| `\"{name}\"`{enum} | {note['paper']} | {note['total']} "
            f"| {note['deterministic']} | {note['notes']} |"
        )
    lines += [
        "",
        "`engine.enumerate(\"tie_breaking\")` explores every orientation of every",
        "free choice (the paper's \"for all choices\" statements, exhaustively).",
        "",
        "\\* total when every tie encountered is breakable — guaranteed for",
        "call-consistent programs (Theorem 1); `analyze` / `witness` probe the",
        "general case (§5: undecidable in general, co-NP-complete",
        "propositionally).",
        "",
        "## Registry detail",
        "",
        "Everything below is read off the `SemanticsSpec` table: aliases are",
        "accepted anywhere a semantics name is, *default grounding* is the mode",
        "used when neither the engine nor the call site picks one, *locked*",
        "means an engine-wide default must not override it (only an explicit",
        "per-call `grounding=` does), and *options* are the keyword arguments",
        "`engine.solve` accepts for that semantics.",
        "",
        "| Semantics | Aliases | Summary | Default grounding | Locked | Options |",
        "|---|---|---|---|---|---|",
    ]
    for name in names:
        spec = _REGISTRY[name]
        aliases = ", ".join(f"`{a}`" for a in spec.aliases) or "—"
        grounding = f"`{spec.default_grounding}`"
        locked = "yes" if spec.grounding_locked else "no"
        options = ", ".join(f"`{o}`" for o in spec.options) or "—"
        lines.append(
            f"| `{name}` | {aliases} | {spec.summary} | {grounding} | {locked} | {options} |"
        )
    lines += [
        "",
        "New semantics plug in with one `repro.api.register(SemanticsSpec(...))`",
        "call (plus a `PAPER_NOTES` entry here) — no new module exports, no CLI",
        "changes, and this page regenerates itself.",
        "",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/semantics.md matches the registry instead of writing it",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DOCS_DIR / "semantics.md",
        help="target page (default: docs/semantics.md)",
    )
    args = parser.parse_args(argv)
    content = render()
    if args.check:
        on_disk = args.output.read_text() if args.output.exists() else None
        if on_disk != content:
            print(
                f"{args.output} is stale — regenerate with: python docs/generate_semantics.py",
                file=sys.stderr,
            )
            return 1
        print(f"{args.output} is up to date with the registry")
        return 0
    args.output.write_text(content)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
