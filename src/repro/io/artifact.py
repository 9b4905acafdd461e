"""Binary ground artifacts: the ``repro-ground/1`` compile-once format.

Grounding and kernel compilation are the expensive half of the pipeline;
this module makes them a *build step*.  :func:`save_ground_program`
serializes a compiled :class:`~repro.datalog.grounding.GroundProgram` —
the CSR rule arrays emitted by the join-plan grounders, the interned atom
table, and the :class:`~repro.engine.plan.ConstantPool` — as flat binary
blobs (``array`` buffers, no per-atom Python objects), and
:func:`load_artifact` deserializes them back into a ready-to-solve ground
program *without re-grounding*: the kernel's
:class:`~repro.datalog.grounding.GroundIndex` builds straight from the
restored CSR arrays on first access, exactly as it does after a live
grounding.

Byte layout of one artifact (all integers little-endian; see
``docs/serving.md`` for the full specification)::

    offset        size  field
    0             8     magic  b"REPROGND"
    8             4     header length H (uint32)
    12            H     header: UTF-8 JSON (schema, mode, counts,
                        program fingerprint, and the section table)
    12 + H        P     payload: the sections' raw bytes, concatenated in
                        section-table order
    12 + H + P    4     CRC-32 of header + payload (uint32)

Sections are ``(name, kind, nbytes)`` triples; ``kind`` is ``"i"``
(int32 ``array``), ``"b"`` (signed-char ``array``), ``"raw"`` (bytes), or
``"json"`` (UTF-8 JSON).  Loading verifies magic, schema version, section
table, and checksum, and raises :class:`~repro.errors.ArtifactError` on
any mismatch — including short reads — so a corrupt file can never be
mistaken for a grounding.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.datalog.atoms import Atom, Literal, atom_text
from repro.datalog.database import Database
from repro.datalog.grounding import (
    GroundIndex,
    GroundProgram,
    _CsrEmitter,
    _DenseAtomTable,
    _InternedAtomTable,
    ground,
)
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.engine.plan import ConstantPool
from repro.errors import ArtifactError
from repro.io.json_io import database_to_json, program_to_json

__all__ = [
    "ARTIFACT_SCHEMA",
    "GroundArtifact",
    "dump_ground_program",
    "save_ground_program",
    "load_artifact",
    "program_fingerprint",
]

ARTIFACT_SCHEMA = "repro-ground/1"
_MAGIC = b"REPROGND"
_INT_KIND = "i"
_CSR_NAMES = ("heads", "pos_off", "pos", "neg_off", "neg", "rule_index", "sub_off", "sub")
# The precompiled-kernel sections: every derived GroundIndex array is
# frozen into the artifact, so loading restores a ready-to-solve index
# (GroundIndex.from_arrays) with no transposition work at all.
_INDEX_NAMES = (
    "support",
    "body_len",
    "pos_len",
    "pos_occ_off",
    "pos_occ",
    "neg_occ_off",
    "neg_occ",
    "initial_valued",
    "empty_body_rules",
    "zero_support_atoms",
)


@dataclass(frozen=True)
class GroundArtifact:
    """One loaded artifact: the ground program, its pool, and the header.

    ``ground_program`` is ready to solve — its compiled CSR arrays are
    attached, so ``ground_program.index`` builds without re-grounding.
    ``pool`` is the constant-interning session the arrays are encoded
    against (adopt it before grounding further modes in the same engine).
    ``header`` is the verified artifact header (schema, mode, counts,
    program fingerprint), useful for logging.
    """

    ground_program: GroundProgram
    pool: ConstantPool
    header: dict[str, Any]


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def program_fingerprint(program: Program, database: Database) -> str:
    """SHA-256 hex digest of the canonical (program, database) JSON forms.

    Stable across processes and Python versions: the JSON serialization
    of :mod:`repro.io.json_io` is deterministic, so equal program/database
    pairs always fingerprint identically.
    """
    digest = hashlib.sha256()
    digest.update(program_to_json(program, indent=None).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(database_to_json(database, indent=None).encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _array_bytes(arr: array) -> bytes:
    if sys.byteorder == "big":  # pragma: no cover - little-endian containers
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _collect_arrays(gp: GroundProgram, pool: ConstantPool) -> dict[str, array]:
    """The eight CSR rule arrays of ``gp``, emitted or reconstructed.

    Ground programs produced by the compiled grounders carry their
    emitter arrays; hand-built or grown programs are re-encoded from the
    object-level :class:`~repro.datalog.grounding.GroundRule` view
    (substitution constants are interned into ``pool``).
    """
    csr: _CsrEmitter | None = getattr(gp, "_csr", None)
    if csr is not None and len(csr.heads) == len(gp.rules) and csr.n_atoms == len(gp.atoms):
        return {name: getattr(csr, name) for name in _CSR_NAMES}
    out = _CsrEmitter()
    intern = pool.intern
    for gr in gp.rules:
        out.heads.append(gr.head)
        out.pos.extend(gr.pos)
        out.pos_off.append(len(out.pos))
        out.neg.extend(gr.neg)
        out.neg_off.append(len(out.neg))
        out.rule_index.append(gr.rule_index)
        out.sub.extend(intern(c) for c in gr.substitution)
        out.sub_off.append(len(out.sub))
    return {name: getattr(out, name) for name in _CSR_NAMES}


def _atom_table_sections(gp: GroundProgram) -> tuple[str, ConstantPool, dict[str, tuple[str, Any]]]:
    """(layout, pool, sections) for the atom table of ``gp``.

    ``layout`` is ``"interned"`` (explicit predicate/row arrays — the
    joined grounders) or ``"dense"`` (predicate arities only; atom ids are
    arithmetic over universe digits — the full grounder).  Tables that
    grew past their compiled form, and plain object-level tables, are
    re-encoded as ``"interned"`` from their atom objects.
    """
    table = gp.atoms
    if isinstance(table, _ArtifactAtomTable):
        table._ensure_rows()  # re-serialization reads the parent's row lists
    if isinstance(table, _DenseAtomTable) and len(table) == table._dense_count:
        sections: dict[str, tuple[str, Any]] = {
            "pred_arities": ("json", [[p, a] for p, a in zip(table._preds, table._arities)]),
        }
        return "dense", table._pool, sections
    if isinstance(table, _InternedAtomTable) and len(table) == len(table._pred_of):
        pool = table._pool
        pred_of, row_of = table._pred_of, table._row_of
    else:
        pool = ConstantPool(gp.universe)
        pred_of, row_of = [], []
        for i in range(len(table)):
            atom = table.atom(i)
            pred_of.append(atom.predicate)
            row_of.append(tuple(pool.intern(c) for c in atom.args))
    preds = sorted(set(pred_of))
    pred_index = {p: i for i, p in enumerate(preds)}
    row_off = array(_INT_KIND, [0])
    rows = array(_INT_KIND)
    for row in row_of:
        rows.extend(row)
        row_off.append(len(rows))
    sections = {
        "preds": ("json", preds),
        "atom_pred": (_INT_KIND, array(_INT_KIND, (pred_index[p] for p in pred_of))),
        "atom_row_off": (_INT_KIND, row_off),
        "atom_row": (_INT_KIND, rows),
    }
    return "interned", pool, sections


def _program_sections(program: Program, pool: ConstantPool) -> dict[str, tuple[str, Any]]:
    """The source program Π as interned arrays: atoms once, rules by index.

    Atoms are deduplicated (``prog_atoms`` holds each distinct atom once
    as ``pred-index, arity, args...``; an argument encodes a pool
    constant as ``id << 1`` and a variable as ``idx << 1 | 1``), and
    ``prog_rules`` references them as ``n_body, head, (atom << 1 | neg)*``
    — so loading reconstructs each shared object exactly once instead of
    walking a JSON tree per occurrence.
    """
    preds: list[str] = []
    pred_index: dict[str, int] = {}
    variables: list[str] = []
    var_index: dict[str, int] = {}
    atom_index: dict[Atom, int] = {}
    atoms = array(_INT_KIND)
    rules = array(_INT_KIND)
    intern = pool.intern

    def encode_atom(atom: Atom) -> int:
        idx = atom_index.get(atom)
        if idx is None:
            idx = len(atom_index)
            atom_index[atom] = idx
            pi = pred_index.setdefault(atom.predicate, len(preds))
            if pi == len(preds):
                preds.append(atom.predicate)
            atoms.append(pi)
            atoms.append(len(atom.args))
            for term in atom.args:
                if isinstance(term, Variable):
                    vi = var_index.setdefault(term.name, len(variables))
                    if vi == len(variables):
                        variables.append(term.name)
                    atoms.append(vi << 1 | 1)
                else:
                    atoms.append(intern(term) << 1)
        return idx

    for rule_ in program.rules:
        rules.append(len(rule_.body))
        rules.append(encode_atom(rule_.head))
        for lit in rule_.body:
            rules.append(encode_atom(lit.atom) << 1 | (not lit.positive))
    return {
        "prog_preds": ("json", preds),
        "prog_vars": ("json", variables),
        "prog_atoms": (_INT_KIND, atoms),
        "prog_rules": (_INT_KIND, rules),
    }


def _decode_program(sections: "_Sections", pool: ConstantPool) -> Program:
    """Rebuild the source program from its interned sections.

    Validation is skipped on purpose: the payload passed the artifact
    checksum and was encoded from an already-validated ``Program``, so
    the decoder only has to share substructure (pooled constants, one
    object per distinct atom) and raise :class:`ArtifactError` on
    out-of-range indices.
    """
    preds = sections.json("prog_preds")
    variables = [Variable(name) for name in sections.json("prog_vars")]
    flat = sections.ints("prog_atoms")
    # Negative entries would index name tables from the back instead of
    # failing; overflows are caught by the IndexError handler below.  The
    # unsigned view makes this a one-scan check (see _check_ids).
    if len(flat) and max(memoryview(flat).cast("B").cast("I")) >= 1 << 31:
        raise _fail("prog_atoms holds negative entries")
    rule_flat = sections.ints("prog_rules")
    if len(rule_flat) and max(memoryview(rule_flat).cast("B").cast("I")) >= 1 << 31:
        raise _fail("prog_rules holds negative entries")
    constant = pool.constant
    atoms: list[Atom] = []
    try:
        i = 0
        while i < len(flat):
            pred = preds[flat[i]]
            arity = flat[i + 1]
            i += 2
            args = tuple(
                variables[v >> 1] if v & 1 else constant(v >> 1) for v in flat[i : i + arity]
            )
            i += arity
            atoms.append(Atom(pred, args))
        flat = rule_flat
        rules: list[Rule] = []
        i = 0
        while i < len(flat):
            n_body = flat[i]
            head = atoms[flat[i + 1]]
            i += 2
            body = tuple(Literal(atoms[v >> 1], not v & 1) for v in flat[i : i + n_body])
            i += n_body
            rules.append(Rule(head, body))
    except (IndexError, ValueError) as error:
        raise _fail(f"malformed program sections: {error}") from error
    program = Program.__new__(Program)
    object.__setattr__(program, "rules", tuple(rules))
    return program


def _database_sections(database: Database, pool: ConstantPool) -> dict[str, tuple[str, Any]]:
    """The database Δ as interned rows: predicates, offsets, flat pool ids.

    JSON would rebuild 𝒪(|Δ|) atom objects on every load; interned rows
    decode with one pool lookup per value, which is what keeps warm
    starts cheap on fact-heavy workloads.
    """
    preds: list[list[Any]] = []
    row_off = array(_INT_KIND, [0])
    rows = array(_INT_KIND)
    intern = pool.intern
    for pred in sorted(database.predicates()):
        table = sorted(database[pred], key=str)
        preds.append([pred, len(table[0]) if table else 0, len(table)])
        for row in table:
            rows.extend(intern(c) for c in row)
        row_off.append(len(rows))
    return {
        "db_preds": ("json", preds),
        "db_row_off": (_INT_KIND, row_off),
        "db_rows": (_INT_KIND, rows),
    }


def _index_sections(index: GroundIndex) -> dict[str, tuple[str, Any]]:
    """The precompiled kernel arrays of one :class:`GroundIndex`."""
    head_occ_off = array(_INT_KIND, [0])
    head_occ = array(_INT_KIND)
    for rules in index.rules_by_head_t:
        head_occ.extend(rules)
        head_occ_off.append(len(head_occ))
    sections: dict[str, tuple[str, Any]] = {
        name: (_INT_KIND, getattr(index, name)) for name in _INDEX_NAMES
    }
    sections["head_occ_off"] = (_INT_KIND, head_occ_off)
    sections["head_occ"] = (_INT_KIND, head_occ)
    return sections


def dump_ground_program(gp: GroundProgram) -> bytes:
    """Serialize a compiled ground program to ``repro-ground/1`` bytes.

    Accepts any :class:`~repro.datalog.grounding.GroundProgram`; ones
    emitted by the compiled grounders serialize zero-copy from their CSR
    arrays.  The kernel index is compiled (if it was not already) and
    frozen alongside the rule arrays — serialization is the *build step*,
    so loading restores a ready-to-solve index with no recompilation.

    A relevant-mode ground program that received streaming updates
    (:func:`~repro.datalog.grounding.apply_facts_delta`) is
    *canonicalized* first: the artifact stores a fresh grounding of the
    updated database, so live overlay state (ghost atoms, disabled
    instances, the session atom order) never leaks into the wire format.
    A full-mode update only flips M₀, which is already canonical.

    Returns the complete artifact (header, payload, checksum).  Raises
    :class:`~repro.errors.ArtifactError` if the platform's C ``int`` is
    not 32-bit (the format is fixed at int32).
    """
    if array(_INT_KIND).itemsize != 4:  # pragma: no cover - exotic platforms
        raise ArtifactError("repro-ground/1 requires 32-bit array('i') elements")
    if getattr(gp, "_delta_session", None) is not None:
        gp = ground(gp.program, gp.database, mode=gp.mode)
    layout, pool, table_sections = _atom_table_sections(gp)
    arrays = _collect_arrays(gp, pool)
    index = gp.index  # compile now — the artifact freezes the finished kernel view

    sections: dict[str, tuple[str, Any]] = {
        **_program_sections(gp.program, pool),
        **_database_sections(gp.database, pool),
        "pool": ("json", [pool.constant(i).value for i in range(len(pool))]),
        "universe": (_INT_KIND, array(_INT_KIND, (pool.intern(c) for c in gp.universe))),
        **{name: (_INT_KIND, arr) for name, arr in arrays.items()},
        "edb_mask": ("raw", bytes(index.edb_mask)),
        "initial_status": ("b", index.initial_status),
        **_index_sections(index),
        **table_sections,
    }

    payload = bytearray()
    section_table: list[list[Any]] = []
    for name, (kind, value) in sections.items():
        if kind == "json":
            blob = json.dumps(value, separators=(",", ":"), ensure_ascii=True).encode("utf-8")
        elif kind == "raw":
            blob = bytes(value)
        else:
            blob = _array_bytes(value)
        section_table.append([name, kind, len(blob)])
        payload.extend(blob)

    header_obj = {
        "schema": ARTIFACT_SCHEMA,
        "mode": gp.mode,
        "atom_table": layout,
        "counts": {
            "atoms": len(gp.atoms),
            "rules": len(gp.rules),
            "constants": len(pool),
            "universe": len(gp.universe),
        },
        "program_fingerprint": program_fingerprint(gp.program, gp.database),
        "sections": section_table,
    }
    header = json.dumps(header_obj, separators=(",", ":"), ensure_ascii=True).encode("utf-8")
    body = _MAGIC + len(header).to_bytes(4, "little") + header + payload
    crc = zlib.crc32(header + bytes(payload)) & 0xFFFFFFFF
    return body + crc.to_bytes(4, "little")


def save_ground_program(gp: GroundProgram, path: str | Path) -> Path:
    """Write :func:`dump_ground_program` atomically to ``path``.

    The artifact is written to a sibling temporary file and renamed into
    place, so a crashed writer never leaves a half-written artifact where
    a reader would find it.
    """
    target = Path(path)
    blob = dump_ground_program(gp)
    # mkstemp (not a PID-suffixed name) so concurrent savers — including
    # threads of one process racing on the same path — never share a
    # temp file; whoever renames last wins with a complete artifact.
    fd, tmp_name = tempfile.mkstemp(prefix=f"{target.name}.tmp.", dir=target.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        Path(tmp_name).replace(target)
    except BaseException:
        Path(tmp_name).unlink(missing_ok=True)
        raise
    return target


# ---------------------------------------------------------------------------
# Deserialization
# ---------------------------------------------------------------------------


def _fail(message: str) -> ArtifactError:
    return ArtifactError(f"repro-ground artifact: {message}")


def _check_ids(values: array, bound: int, what: str) -> None:
    """Bounds-check an id array in one scan.

    Viewing the int32 buffer as unsigned maps negative entries onto huge
    values, so a single ``max`` catches both underflow and overflow —
    these checks run on every artifact load, where per-element genexprs
    would eat the warm-start budget.
    """
    if len(values) and max(memoryview(values).cast("B").cast("I")) >= bound:
        raise _fail(f"{what} reference ids outside their table (bound {bound})")


def _restore_pool(values: list[Any]) -> ConstantPool:
    """Bulk-build a :class:`ConstantPool` in stored interning order."""
    constants = [Constant(v) for v in values]
    pool = ConstantPool()
    pool._constants = constants
    pool._ids = {c: i for i, c in enumerate(constants)}
    if len(pool._ids) != len(constants):
        raise _fail("pool holds duplicate constants")
    return pool


class _ArtifactAtomTable(_InternedAtomTable):
    """Interned atom table decoding lazily from the artifact's flat arrays.

    Warm starts never pay for atom objects they do not look at: ``atom``
    decodes (and caches) single entries straight from the flat arrays,
    and the predicate/row lookup structures of the parent class are built
    on the first reverse lookup (``get``/``id_of``/``atoms``) only.
    """

    def __init__(
        self,
        pool: ConstantPool,
        preds: list[str],
        atom_pred: array,
        row_off: array,
        rows: array,
    ) -> None:
        self._pool = pool
        self._apreds = preds
        self._atom_pred = atom_pred
        self._arow_off = row_off
        self._arows = rows
        self._cache: dict[int, Atom] = {}
        self._eager = False
        self._built = False

    def _ensure_rows(self) -> None:
        if not self._built:
            preds, atom_pred = self._apreds, self._atom_pred
            row_off, rows = self._arow_off, self._arows
            self._pred_of = [preds[p] for p in atom_pred]
            self._row_of = [
                tuple(rows[row_off[i] : row_off[i + 1]]) for i in range(len(atom_pred))
            ]
            ids_by_pred: dict[str, dict[tuple[int, ...], int]] = {}
            for i, (pred, row) in enumerate(zip(self._pred_of, self._row_of)):
                ids_by_pred.setdefault(pred, {})[row] = i
            self._ids_by_pred = ids_by_pred
            self._built = True

    def get(self, atom: Atom) -> int | None:
        self._ensure_rows()
        return super().get(atom)

    def id_of(self, atom: Atom) -> int:
        self._ensure_rows()
        return super().id_of(atom)

    def atom(self, index: int) -> Atom:
        if self._eager:
            return self._atoms[index]
        cached = self._cache.get(index)
        if cached is None:
            row_off = self._arow_off
            constant = self._pool.constant
            cached = Atom(
                self._apreds[self._atom_pred[index]],
                tuple(constant(v) for v in self._arows[row_off[index] : row_off[index + 1]]),
            )
            self._cache[index] = cached
        return cached

    def __len__(self) -> int:
        return len(self._atoms) if self._eager else len(self._atom_pred)

    def predicate_of(self, index: int) -> str:
        if self._eager:
            return self._atoms[index].predicate
        return self._apreds[self._atom_pred[index]]

    def __contains__(self, atom: Atom) -> bool:
        return self.get(atom) is not None

    def atoms(self) -> tuple[Atom, ...]:
        self._ensure_rows()
        return super().atoms()

    def _texts(self, start: int, stop: int) -> list[str]:
        if self._built:
            return super()._texts(start, stop)
        # Straight from the flat arrays: no row tuples, no lookup dicts.
        texts = self._pool.texts()
        preds, atom_pred = self._apreds, self._atom_pred
        row_off, rows = self._arow_off, self._arows
        return [
            atom_text(preds[atom_pred[i]], [texts[v] for v in rows[row_off[i] : row_off[i + 1]]])
            for i in range(start, stop)
        ]


class _Sections:
    """Typed access to the verified payload sections of one artifact."""

    def __init__(self, table: list[list[Any]], payload: bytes) -> None:
        self._views: dict[str, tuple[str, bytes]] = {}
        offset = 0
        for name, kind, nbytes in table:  # entries validated by _verify_container
            self._views[name] = (kind, payload[offset : offset + nbytes])
            offset += nbytes
        if offset != len(payload):
            raise _fail("section table does not cover the payload")

    def _get(self, name: str, kind: str) -> bytes:
        entry = self._views.get(name)
        if entry is None:
            raise _fail(f"missing section {name!r}")
        if entry[0] != kind:
            raise _fail(f"section {name!r} has kind {entry[0]!r}, expected {kind!r}")
        return entry[1]

    def json(self, name: str) -> Any:
        try:
            return json.loads(self._get(name, "json").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _fail(f"section {name!r} holds invalid JSON: {error}") from error

    def ints(self, name: str) -> array:
        blob = self._get(name, _INT_KIND)
        if len(blob) % 4:
            raise _fail(f"section {name!r} is not a whole number of int32s")
        arr = array(_INT_KIND)
        arr.frombytes(blob)
        if sys.byteorder == "big":  # pragma: no cover - little-endian containers
            arr.byteswap()
        return arr

    def chars(self, name: str) -> array:
        arr = array("b")
        arr.frombytes(self._get(name, "b"))
        return arr

    def raw(self, name: str) -> bytes:
        return self._get(name, "raw")


def _verify_container(data: bytes) -> tuple[dict[str, Any], _Sections]:
    """Check magic, schema, framing, and checksum; split into sections."""
    if len(data) < len(_MAGIC) + 4:
        raise _fail(f"short read: {len(data)} bytes is smaller than any artifact")
    if data[: len(_MAGIC)] != _MAGIC:
        raise _fail("bad magic (not a repro-ground artifact)")
    header_len = int.from_bytes(data[8:12], "little")
    if len(data) < 12 + header_len + 4:
        raise _fail("short read: truncated header")
    header_blob = data[12 : 12 + header_len]
    try:
        header = json.loads(header_blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _fail(f"invalid header JSON: {error}") from error
    schema = header.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise _fail(
            f"version mismatch: artifact is {schema!r}, this reader speaks {ARTIFACT_SCHEMA!r}"
        )
    table = header.get("sections")
    if not isinstance(table, list):
        raise _fail("header carries no section table")
    for entry in table:
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and isinstance(entry[0], str)
            and isinstance(entry[1], str)
            and isinstance(entry[2], int)
            and not isinstance(entry[2], bool)
            and entry[2] >= 0
        ):
            raise _fail(f"malformed section table entry {entry!r}")
    payload_len = sum(entry[2] for entry in table)
    expected = 12 + header_len + payload_len + 4
    if len(data) < expected:
        raise _fail(f"short read: {len(data)} bytes, section table promises {expected}")
    if len(data) > expected:
        raise _fail(f"trailing garbage: {len(data) - expected} bytes past the checksum")
    payload = data[12 + header_len : expected - 4]
    stored_crc = int.from_bytes(data[expected - 4 : expected], "little")
    actual_crc = zlib.crc32(header_blob + payload) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise _fail(f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}")
    return header, _Sections(table, payload)


def _check_counts(header: dict[str, Any], sections: _Sections) -> tuple[int, int]:
    counts = header.get("counts") or {}
    n_atoms, n_rules = counts.get("atoms"), counts.get("rules")
    if not isinstance(n_atoms, int) or not isinstance(n_rules, int):
        raise _fail("header counts are missing or malformed")
    heads = sections.ints("heads")
    if len(heads) != n_rules:
        raise _fail(f"heads section has {len(heads)} rules, header promises {n_rules}")
    for name in ("pos_off", "neg_off", "sub_off"):
        off = sections.ints(name)
        if len(off) != n_rules + 1 or (len(off) and off[0] != 0):
            raise _fail(f"{name} is not a valid offset array for {n_rules} rules")
    for name in ("pos_occ_off", "neg_occ_off", "head_occ_off"):
        off = sections.ints(name)
        if len(off) != n_atoms + 1 or (len(off) and off[0] != 0):
            raise _fail(f"{name} is not a valid offset array for {n_atoms} atoms")
    for name, expected in (("support", n_atoms), ("body_len", n_rules), ("pos_len", n_rules)):
        if len(sections.ints(name)) != expected:
            raise _fail(f"{name} length disagrees with the header counts")
    if len(sections.chars("initial_status")) != n_atoms:
        raise _fail("initial_status length disagrees with the atom count")
    if len(sections.raw("edb_mask")) != n_atoms:
        raise _fail("edb_mask length disagrees with the atom count")
    # Every id array must stay inside its table: Python's negative
    # indexing would otherwise turn a CRC-valid but inconsistent artifact
    # into silently wrong reads instead of an ArtifactError.
    for name in ("pos", "neg", "initial_valued", "zero_support_atoms"):
        _check_ids(sections.ints(name), n_atoms, name)
    for name in ("pos_occ", "neg_occ", "head_occ", "empty_body_rules"):
        _check_ids(sections.ints(name), n_rules, name)
    return n_atoms, n_rules


def read_artifact_header(source: bytes | str | Path) -> dict[str, Any]:
    """The verified header of one artifact, without decoding any section.

    Runs the full container verification (magic, schema, framing,
    checksum) but constructs no Python objects from the payload — the
    cheap way to inspect ``mode``, ``counts``, and the fingerprint
    before deciding to load.  Raises like :func:`load_artifact`.
    """
    data = Path(source).read_bytes() if isinstance(source, (str, Path)) else bytes(source)
    header, _ = _verify_container(data)
    return header


def load_artifact(source: bytes | str | Path) -> GroundArtifact:
    """Load and verify one ``repro-ground/1`` artifact.

    ``source`` is a path or the raw artifact bytes.  Returns a
    :class:`GroundArtifact` whose ground program is ready to solve: its
    atom table decodes lazily from the restored arrays and its
    ``GroundProgram.index`` compiles from the restored CSR — the pipeline
    never re-parses, re-grounds, or re-interns.

    Raises :class:`~repro.errors.ArtifactError` on bad magic, schema
    version mismatch, truncation, checksum failure, or any structural
    inconsistency between the header and the payload; raises ``OSError``
    if a path cannot be read.
    """
    data = Path(source).read_bytes() if isinstance(source, (str, Path)) else bytes(source)
    header, sections = _verify_container(data)
    n_atoms, n_rules = _check_counts(header, sections)

    pool = _restore_pool(sections.json("pool"))
    program = _decode_program(sections, pool)

    db_row_off = sections.ints("db_row_off")
    db_rows = sections.ints("db_rows")
    db_preds = sections.json("db_preds")
    if len(db_row_off) != len(db_preds) + 1:
        raise _fail("db_row_off is not a valid offset array for the database predicates")
    _check_ids(db_rows, len(pool), "database rows")
    relations: dict[str, set[tuple[Constant, ...]]] = {}
    constant = pool.constant
    for i, (pred, arity, count) in enumerate(db_preds):
        start, stop = db_row_off[i], db_row_off[i + 1]
        if stop - start != arity * count:
            raise _fail(f"database rows of {pred!r} disagree with their declared shape")
        flat = [constant(v) for v in db_rows[start:stop]]
        relations[pred] = {
            tuple(flat[r * arity : (r + 1) * arity]) for r in range(count)
        }
    database = Database(relations)
    universe_ids = sections.ints("universe")
    _check_ids(universe_ids, len(pool), "universe entries")
    universe = tuple(pool.constant(v) for v in universe_ids)

    layout = header.get("atom_table")
    if layout == "dense":
        pred_arities = [(str(p), int(a)) for p, a in sections.json("pred_arities")]
        table = _DenseAtomTable(pool, universe, pred_arities)
        if len(table) != n_atoms:
            raise _fail("dense atom table size disagrees with the atom count")
    elif layout == "interned":
        preds = sections.json("preds")
        atom_pred = sections.ints("atom_pred")
        row_off = sections.ints("atom_row_off")
        rows = sections.ints("atom_row")
        if len(atom_pred) != n_atoms or len(row_off) != n_atoms + 1:
            raise _fail("interned atom table sections disagree with the atom count")
        _check_ids(atom_pred, len(preds), "atom predicates")
        table = _ArtifactAtomTable(pool, preds, atom_pred, row_off, rows)
    else:
        raise _fail(f"unknown atom table layout {layout!r}")

    gp = GroundProgram(program, database, universe, header["mode"], table)
    out = _CsrEmitter()
    for name in _CSR_NAMES:
        setattr(out, name, sections.ints(name))
    _check_ids(out.heads, n_atoms, "rule heads")
    _check_ids(out.sub, len(pool), "substitutions")
    edb_mask = bytearray(sections.raw("edb_mask"))
    initial_status = sections.chars("initial_status")
    out.finish(gp, n_atoms, edb_mask, initial_status, pool)
    # Restore the precompiled kernel view: the transpositions, counters,
    # and worklist seeds come straight off the wire (GroundIndex.from_arrays
    # never touches the rules), making the artifact solve-ready on return.
    index = GroundIndex.from_arrays(
        n_atoms,
        out.heads,
        out.pos_off,
        out.pos,
        out.neg_off,
        out.neg,
        edb_mask,
        initial_status,
        **{name: sections.ints(name) for name in _INDEX_NAMES},
        head_occ_off=sections.ints("head_occ_off"),
        head_occ=sections.ints("head_occ"),
    )
    object.__setattr__(gp, "_index_cache", index)
    return GroundArtifact(ground_program=gp, pool=pool, header=header)
