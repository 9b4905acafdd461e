"""Interchange formats: binary ground artifacts, Graphviz DOT, and JSON.

* :mod:`repro.io.artifact` — the ``repro-ground/1`` binary artifact
  format (compile-once serving);
* :mod:`repro.io.dot` — Graphviz export of program and ground graphs;
* :mod:`repro.io.json_io` — JSON (de)serialization of programs,
  databases, models, and ``repro-solution/1`` solutions.
"""

from repro.io.artifact import (
    ARTIFACT_SCHEMA,
    GroundArtifact,
    dump_ground_program,
    load_artifact,
    program_fingerprint,
    read_artifact_header,
    save_ground_program,
)
from repro.io.dot import ground_graph_dot, program_graph_dot
from repro.io.json_io import (
    SOLUTION_SCHEMA,
    database_from_json,
    database_to_json,
    explanation_to_obj,
    interpretation_to_json,
    program_from_json,
    program_to_json,
    solution_to_json,
    solution_to_obj,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "GroundArtifact",
    "SOLUTION_SCHEMA",
    "database_from_json",
    "database_to_json",
    "dump_ground_program",
    "explanation_to_obj",
    "ground_graph_dot",
    "interpretation_to_json",
    "load_artifact",
    "program_fingerprint",
    "program_from_json",
    "program_graph_dot",
    "program_to_json",
    "read_artifact_header",
    "save_ground_program",
    "solution_to_json",
    "solution_to_obj",
]
