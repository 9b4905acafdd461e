"""Compiled join plans: interned constants, int-row relations, slot bindings.

This module is the compiled heart of the evaluation/grounding front-end.
Instead of joining ``Atom`` objects over ``Constant``-tuple rows with a
fresh ``dict`` binding per match, the pipeline:

* interns every :class:`~repro.datalog.terms.Constant` into a dense
  integer id exactly once (:class:`ConstantPool` — one pool per
  :class:`~repro.api.Engine` session);
* stores relations as sets of int tuples with per-(predicate,
  bound-positions) hash indexes (:class:`IntFactStore`);
* compiles each rule body once into a :class:`JoinPlan` — an ordered
  literal schedule whose probes read and write a flat *slot array*
  (one slot per rule variable) instead of copying dict bindings per row.

A compiled :class:`LiteralStep` partitions the literal's argument
positions into the *index key* (constants and slots bound by earlier
steps — pushed into the store's hash index so only agreeing rows are
scanned) and *post ops* (first occurrences bind their slot from the row;
repeated occurrences check it).  Sources are encoded as ints: ``v >= 0``
reads slot ``v``; ``v < 0`` is the interned constant ``~v``.

:func:`compile_row_spec` compiles an atom's argument pattern into the
same encoding, used by the semi-naive engine (head emission) and the
grounder (head / positive / negative body instantiation) to build ground
rows straight from the slot array — the "head/negative-literal slot
maps" of the pipeline.  Variables left unbound by the join (the paper's
non-range-restricted heads, §1 program (2)) are enumerated over the
universe by the caller via :attr:`JoinPlan.bound_slots`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.datalog.atoms import Atom, Literal
from repro.datalog.terms import Constant, Variable

__all__ = [
    "ConstantPool",
    "IntFactStore",
    "LiteralStep",
    "JoinPlan",
    "compile_row_spec",
    "build_row",
]

IntRow = tuple[int, ...]
RowSpec = tuple[int, ...]

_EMPTY: tuple = ()


class ConstantPool:
    """Bidirectional mapping between constants and dense integer ids.

    Interning is append-only: ids are assigned in first-intern order and
    never change, so every structure keyed by them (rows, indexes, ground
    substitutions) stays valid for the lifetime of the pool — one pool
    serves every grounding mode of an :class:`~repro.api.Engine` session.
    """

    __slots__ = ("_ids", "_constants", "_texts")

    def __init__(self, constants: Iterable[Constant] = ()) -> None:
        self._ids: dict[Constant, int] = {}
        self._constants: list[Constant] = []
        self._texts: list[str] = []
        for c in constants:
            self.intern(c)

    def intern(self, constant: Constant) -> int:
        """The id of ``constant``, inserting it if new."""
        idx = self._ids.get(constant)
        if idx is None:
            idx = len(self._constants)
            self._ids[constant] = idx
            self._constants.append(constant)
        return idx

    def get(self, constant: object) -> int | None:
        """The id of ``constant``, or ``None`` if it was never interned."""
        return self._ids.get(constant)  # type: ignore[arg-type]

    def constant(self, index: int) -> Constant:
        """The constant with dense id ``index``."""
        return self._constants[index]

    def texts(self) -> list[str]:
        """``str()`` of every constant, by id; extended lazily as the pool grows.

        A grown pool publishes a new list rather than appending to the
        old one, so a reader racing the extension sees a complete list.
        """
        texts = self._texts
        if len(texts) < len(self._constants):
            texts = texts + [str(c) for c in self._constants[len(texts) :]]
            self._texts = texts
        return texts

    def __len__(self) -> int:
        return len(self._constants)

    def __contains__(self, constant: object) -> bool:
        return constant in self._ids

    def __repr__(self) -> str:
        return f"ConstantPool(<{len(self._constants)} constants>)"


class IntFactStore:
    """Ground facts as int-tuple rows, indexed by bound-position signature.

    The integer twin of :class:`repro.engine.facts.FactStore`: rows are
    tuples of :class:`ConstantPool` ids, and every index is keyed by the
    tuple of values at a *signature* of argument positions.  Indexes are
    built lazily on first probe and maintained incrementally by ``add``.
    """

    __slots__ = ("_rows", "_indexes")

    def __init__(self) -> None:
        self._rows: dict[str, set[IntRow]] = {}
        # predicate -> positions signature -> key tuple -> rows
        self._indexes: dict[str, dict[tuple[int, ...], dict[IntRow, list[IntRow]]]] = {}

    def add(self, predicate: str, row: IntRow) -> bool:
        """Insert a row; returns True iff it was new."""
        rows = self._rows.get(predicate)
        if rows is None:
            rows = self._rows[predicate] = set()
        elif row in rows:
            return False
        rows.add(row)
        indexes = self._indexes.get(predicate)
        if indexes:
            for positions, index in indexes.items():
                key = row[positions[0]] if len(positions) == 1 else tuple(
                    [row[i] for i in positions]
                )
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
        return True

    def discard(self, predicate: str, row: IntRow) -> bool:
        """Remove a row; returns True iff it was present.

        Every already-built index of the predicate is maintained, so a
        store that has served probes stays usable for further probes —
        the streaming-update path retracts rows from the same stores the
        semi-naive plans keep joining against.
        """
        rows = self._rows.get(predicate)
        if rows is None or row not in rows:
            return False
        rows.discard(row)
        indexes = self._indexes.get(predicate)
        if indexes:
            for positions, index in indexes.items():
                key = row[positions[0]] if len(positions) == 1 else tuple(
                    [row[i] for i in positions]
                )
                bucket = index.get(key)
                if bucket is not None:
                    bucket.remove(row)
                    if not bucket:
                        del index[key]
        return True

    def contains(self, predicate: str, row: IntRow) -> bool:
        """True iff the row is present."""
        return row in self._rows.get(predicate, _EMPTY)

    def rows(self, predicate: str) -> set[IntRow]:
        """The live row set of a predicate (empty tuple view when absent)."""
        return self._rows.get(predicate, _EMPTY)  # type: ignore[return-value]

    def count(self, predicate: str) -> int:
        """Number of rows of a predicate."""
        return len(self._rows.get(predicate, _EMPTY))

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    def predicates(self) -> Iterator[str]:
        """Predicates with at least one row."""
        return (p for p, rows in self._rows.items() if rows)

    def items(self) -> Iterator[tuple[str, set[IntRow]]]:
        """Iterate ``(predicate, row set)`` pairs with at least one row."""
        return ((p, rows) for p, rows in self._rows.items() if rows)

    def matching(
        self, predicate: str, positions: tuple[int, ...], key: int | IntRow
    ) -> Iterable[IntRow]:
        """Rows whose values at ``positions`` equal ``key`` (indexed probe).

        Single-position signatures — the overwhelmingly common join shape
        — are keyed by the bare value instead of a 1-tuple, so neither
        the index build nor the per-probe key pays a tuple allocation;
        ``key`` must follow the same convention (callers compiled by
        :class:`JoinPlan` do).
        """
        indexes = self._indexes.get(predicate)
        if indexes is None:
            indexes = self._indexes[predicate] = {}
        index = indexes.get(positions)
        if index is None:
            index = {}
            rows = self._rows.get(predicate, _EMPTY)
            if len(positions) == 1:
                p = positions[0]
                for row in rows:
                    row_key = row[p]
                    bucket = index.get(row_key)
                    if bucket is None:
                        index[row_key] = [row]
                    else:
                        bucket.append(row)
            else:
                for row in rows:
                    row_key = tuple([row[i] for i in positions])
                    bucket = index.get(row_key)
                    if bucket is None:
                        index[row_key] = [row]
                    else:
                        bucket.append(row)
            indexes[positions] = index
        return index.get(key, _EMPTY)


def compile_row_spec(atom: Atom, slot_of: Mapping[Variable, int], pool: ConstantPool) -> RowSpec:
    """Compile an atom's argument pattern into slot/constant sources.

    Entry ``v >= 0`` reads slot ``v`` of the binding array; ``v < 0`` is
    the interned constant ``~v``.  Every variable must be in ``slot_of``.
    """
    return tuple(slot_of[t] if isinstance(t, Variable) else ~pool.intern(t) for t in atom.args)


def build_row(spec: RowSpec, slots: Sequence[int]) -> IntRow:
    """Instantiate a compiled row spec against a slot array."""
    return tuple([slots[v] if v >= 0 else ~v for v in spec])


class LiteralStep:
    """One compiled probe of a positive body literal (see module docstring).

    ``single_source`` is the one slot feeding a single-position dynamic
    key, or ``None``: the probe shape is decided at compile time so the
    per-row execute loop never re-inspects ``key_sources`` (and a
    single-position key skips the tuple allocation entirely — see
    :meth:`IntFactStore.matching`).
    """

    __slots__ = (
        "predicate",
        "key_positions",
        "key_sources",
        "static_key",
        "single_source",
        "post_ops",
    )

    def __init__(
        self,
        predicate: str,
        key_positions: tuple[int, ...],
        key_sources: tuple[int, ...],
        static_key: int | IntRow | None,
        post_ops: tuple[tuple[int, int, bool], ...],
    ) -> None:
        self.predicate = predicate
        self.key_positions = key_positions
        self.key_sources = key_sources
        self.static_key = static_key
        # All-constant keys become static_key, so a lone dynamic source
        # is always a slot id (>= 0).
        self.single_source = (
            key_sources[0] if static_key is None and len(key_sources) == 1 else None
        )
        self.post_ops = post_ops

    def __repr__(self) -> str:
        return (
            f"LiteralStep({self.predicate}, key@{self.key_positions}, "
            f"binds={[op for op in self.post_ops if op[2]]})"
        )


class JoinPlan:
    """A compiled conjunction of positive literals over one slot array.

    ``execute`` runs the indexed nested-loop join, invoking
    ``emit(slots)`` once per complete binding; ``slots`` is reused
    in place, so consumers must copy what they keep.  ``bound_slots``
    is the statically known set of slots the join assigns — slots
    outside it are the caller's to enumerate (universe slots).
    """

    __slots__ = ("steps", "bound_slots")

    def __init__(self, steps: tuple[LiteralStep, ...], bound_slots: frozenset[int]) -> None:
        self.steps = steps
        self.bound_slots = bound_slots

    @classmethod
    def compile(
        cls,
        literals: Sequence[Literal],
        slot_of: Mapping[Variable, int],
        pool: ConstantPool,
    ) -> "JoinPlan":
        """Compile ``literals`` (already join-ordered, all positive)."""
        steps: list[LiteralStep] = []
        bound: set[int] = set()
        for lit in literals:
            if not lit.positive:
                raise ValueError("JoinPlan handles positive literals only")
            key_positions: list[int] = []
            key_sources: list[int] = []
            post_ops: list[tuple[int, int, bool]] = []
            newly: set[int] = set()
            for pos, term in enumerate(lit.atom.args):
                if isinstance(term, Constant):
                    key_positions.append(pos)
                    key_sources.append(~pool.intern(term))
                else:
                    slot = slot_of[term]
                    if slot in bound:
                        key_positions.append(pos)
                        key_sources.append(slot)
                    elif slot in newly:
                        post_ops.append((pos, slot, False))
                    else:
                        newly.add(slot)
                        post_ops.append((pos, slot, True))
            bound |= newly
            static_key: int | IntRow | None = None
            if key_sources and all(v < 0 for v in key_sources):
                static_key = (
                    ~key_sources[0]
                    if len(key_sources) == 1
                    else tuple([~v for v in key_sources])
                )
            steps.append(
                LiteralStep(
                    lit.predicate,
                    tuple(key_positions),
                    tuple(key_sources),
                    static_key,
                    tuple(post_ops),
                )
            )
        return cls(tuple(steps), frozenset(bound))

    def execute(
        self,
        store: IntFactStore,
        slots: list[int],
        emit: Callable[[list[int]], None],
        delta_store: IntFactStore | None = None,
    ) -> None:
        """Run the join; ``emit(slots)`` fires per complete binding.

        With ``delta_store`` given, the *first* literal probes it instead
        of ``store`` (the semi-naive delta promotion); the remaining
        literals join against the full store.
        """
        steps = self.steps
        n = len(steps)
        if n == 0:
            emit(slots)
            return
        last = n - 1

        def descend(depth: int) -> None:
            step = steps[depth]
            source = store if depth or delta_store is None else delta_store
            if step.static_key is not None:
                rows = source.matching(step.predicate, step.key_positions, step.static_key)
            elif step.single_source is not None:
                rows = source.matching(
                    step.predicate, step.key_positions, slots[step.single_source]
                )
            elif step.key_sources:
                key = tuple([slots[v] if v >= 0 else ~v for v in step.key_sources])
                rows = source.matching(step.predicate, step.key_positions, key)
            else:
                rows = source.rows(step.predicate)
            post = step.post_ops
            if depth == last:
                for row in rows:
                    for pos, slot, bind in post:
                        if bind:
                            slots[slot] = row[pos]
                        elif slots[slot] != row[pos]:
                            break
                    else:
                        emit(slots)
            else:
                nxt = depth + 1
                for row in rows:
                    for pos, slot, bind in post:
                        if bind:
                            slots[slot] = row[pos]
                        elif slots[slot] != row[pos]:
                            break
                    else:
                        descend(nxt)

        descend(0)

    def __repr__(self) -> str:
        return f"JoinPlan(<{len(self.steps)} steps>, bound={sorted(self.bound_slots)})"
