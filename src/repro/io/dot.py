"""Graphviz DOT export for program graphs and ground graphs.

Solid edges are positive, dashed are negative.  Ground-graph exports draw
atom nodes as ellipses and rule nodes as boxes, optionally coloured by a
model's truth values (green true, red false, grey undefined) — handy for
inspecting why an interpreter stalled.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.program_graph import program_graph
from repro.datalog.grounding import GroundProgram
from repro.datalog.program import Program
from repro.ground.model import FALSE, TRUE, UNDEF, Interpretation

__all__ = ["program_graph_dot", "ground_graph_dot"]


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def program_graph_dot(program: Program) -> str:
    """DOT source of G(Π).

    >>> from repro.datalog.parser import parse_program
    >>> 'style=dashed' in program_graph_dot(parse_program("p :- not q."))
    True
    """
    graph = program_graph(program)
    lines = ["digraph program_graph {", "  rankdir=LR;"]
    for node in graph.nodes:
        lines.append(f"  {_quote(node)};")
    for edge in graph.edges():
        style = "" if edge.positive else " [style=dashed, color=red]"
        lines.append(f"  {_quote(edge.source)} -> {_quote(edge.target)}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def ground_graph_dot(
    ground_program: GroundProgram,
    model: Optional[Interpretation] = None,
) -> str:
    """DOT source of the ground graph G(Π, Δ).

    ``ground_program`` supplies the atom and rule-instance nodes; with a
    ``model`` given, atom nodes are filled by truth value (green true,
    red false, grey undefined).  Returns the DOT text, one node per
    ground atom (ellipse) and rule instance (box).
    """
    gp = ground_program
    lines = ["digraph ground_graph {", "  rankdir=LR;"]

    fill = {TRUE: "palegreen", FALSE: "lightcoral", UNDEF: "lightgray"}

    def colour(index: int) -> str:
        if model:
            return f', style=filled, fillcolor="{fill[model.status[index]]}"'
        return ""

    for index in range(gp.atom_count):
        label = _quote(str(gp.atoms.atom(index)))
        lines.append(f"  atom{index} [label={label}{colour(index)}];")
    for r_index, gr in enumerate(gp.rules):
        label = _quote(f"r{gr.rule_index}({', '.join(str(c) for c in gr.substitution)})")
        lines.append(f"  rule{r_index} [label={label}, shape=box];")
        lines.append(f"  rule{r_index} -> atom{gr.head};")
        for a in gr.pos:
            lines.append(f"  atom{a} -> rule{r_index};")
        for a in gr.neg:
            lines.append(f"  atom{a} -> rule{r_index} [style=dashed, color=red];")
    lines.append("}")
    return "\n".join(lines) + "\n"
