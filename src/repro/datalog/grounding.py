"""Grounding: from (program, database) to ground rule instances.

The paper's ground graph ``G(Π, Δ)`` has a rule node ``r(a1, ..., ak)`` for
*every* rule ``r`` with ``k`` variables and *every* k-tuple of universe
constants (§2).  That **full grounding** is implemented faithfully here, and
is exponential in the number of variables per rule.

For programs where that blows up (e.g. the ``[X = i]`` chains of the
Theorem 6 reduction), the **relevant grounding** keeps only instances whose
positive body atoms all lie in the *upper-bound model* U\\* (EDB facts of Δ
plus the least model of the positivized program).  Atoms outside U\\* form
an unfounded set, so the well-founded and well-founded tie-breaking
semantics are unchanged (property-tested against full grounding); *pure*
tie-breaking and exhaustive fixpoint enumeration should use ``full``.

Both grounders run as a **compiled join-plan pipeline**
(:mod:`repro.engine.plan`): constants are interned once into a
:class:`~repro.engine.plan.ConstantPool` (shareable across the grounding
modes of one :class:`~repro.api.Engine` session), rule bodies are
compiled into :class:`~repro.engine.plan.JoinPlan` slot schedules, and
ground rules are emitted *directly as atom-id arrays into the CSR
builders* of :class:`GroundIndex` — no ``Atom`` object is created
between grounding and the kernel compile.  The object-level surface
(:class:`AtomTable`, :class:`GroundRule`) is materialized lazily, on
first access, from the interned arrays.

Both grounders produce a :class:`GroundProgram`: an atom table (dense ids),
a sequence of :class:`GroundRule` (deduplicated positive/negative body
ids), and the originating substitutions.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Sequence as AbcSequence
from dataclasses import dataclass, field
from itertools import compress, product
from typing import Iterable, Literal as TypingLiteral, Sequence, get_args

from repro.datalog.atoms import Atom, atom_text
from repro.datalog.database import Database
from repro.datalog.parser import PLAIN_ATOM
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant
from repro.engine.matching import order_body_for_join
from repro.engine.plan import (
    ConstantPool,
    IntFactStore,
    IntRow,
    JoinPlan,
    compile_row_spec,
)
from repro.engine.seminaive import SemiNaiveSession, least_model_interned
from repro.errors import GroundingError

__all__ = [
    "AtomTable",
    "LiteralTable",
    "GroundRule",
    "GroundIndex",
    "GroundProgram",
    "GroundDeltaSession",
    "ground",
    "apply_facts_delta",
    "universe_of",
    "GroundingMode",
    "GROUNDING_MODES",
]

GroundingMode = TypingLiteral["full", "relevant", "edb"]
GROUNDING_MODES: tuple[str, ...] = get_args(GroundingMode)


#: Per status value (0, 1, 2), a ``bytes.translate`` table mapping that
#: value to 1 and every other byte to 0.
_VALUE_MASKS = tuple(bytes(int(b == value) for b in range(256)) for value in range(3))
#: The status byte :meth:`LiteralTable.masks` gives an atom past the end of
#: a status array: it matches no value.
_ABSENT = b"\xff"


@dataclass(frozen=True, slots=True)
class LiteralTable:
    """The text of every atom of one :class:`AtomTable`, and its string order.

    ``order`` lists the atom ids sorted by their text (``str()`` of the
    atom); ``rank`` is its inverse (``rank[order[k]] == k``); ``ordered``
    holds the texts in that order (``ordered[rank[i]]`` is atom ``i``'s);
    ``escaped`` holds them as ``json.dumps`` writes them between quotes,
    and is ``ordered`` itself unless some text needs escaping (a quoted
    string constant, non-ASCII text).  Every ``repro-solution/1`` encode
    reads its sorted atom lists from here, the model lists through
    :meth:`masks`.  A published table is never mutated:
    :meth:`AtomTable.literal_table` publishes a new one when the atom
    table has grown.
    """

    order: array
    rank: array
    ordered: list[str]
    escaped: list[str]

    @property
    def literals(self) -> list[str]:
        """The texts by atom id: ``literals[i]`` is ``str()`` of atom ``i``."""
        return list(map(self.ordered.__getitem__, self.rank))

    def masks(self, status: Sequence[int], skip: Iterable[int] = ()) -> tuple[bytes, ...]:
        """Per status value, a byte mask over string order: byte ``k`` of
        ``masks(status)[v]`` is 1 iff atom ``order[k]`` has status ``v``.

        ``itertools.compress(self.ordered, mask)`` is then that value's
        atoms in string order.  Atoms the table gained after ``status``
        was taken (ids past its end), and the atoms ``skip`` names, match
        no value.
        """
        missing = len(self.ordered) - len(status)
        if missing or skip:
            status = bytearray(status) + _ABSENT * missing
            for a in skip:
                status[a] = _ABSENT[0]
        return _value_masks(bytes(map(status.__getitem__, self.order)))

    def ordered_masks(self, ordered: bytes, skip: Iterable[int] = ()) -> tuple[bytes, ...]:
        """:meth:`masks` of a status already in string order (byte ``k``
        is atom ``order[k]``'s, ``0xff`` for no value); the atoms ``skip``
        names match no value."""
        if skip:
            ordered = bytearray(ordered)
            rank = self.rank
            for a in skip:
                ordered[rank[a]] = _ABSENT[0]
        return _value_masks(ordered)

    def id_of(self, text: str) -> int | None:
        """The id of the atom whose text is ``text``, or ``None``: one
        bisection on the string order."""
        ordered = self.ordered
        k = bisect_left(ordered, text)
        if k < len(ordered) and ordered[k] == text:
            return self.order[k]
        return None

    def json_selection(self, mask: bytes) -> str:
        """The JSON list of the texts ``mask`` (from :meth:`masks`) selects,
        in string order: what ``json.dumps`` writes for that list."""
        return _json_list('", "'.join(compress(self.escaped, mask)))

    def texts(self, ids: Iterable[int]) -> list[str]:
        """The texts of atoms ``ids``, in string order."""
        return list(map(self.ordered.__getitem__, sorted(map(self.rank.__getitem__, ids))))

    def json_list(self, ids: Iterable[int]) -> str:
        """The JSON list of the texts of atoms ``ids``, in string order."""
        positions = sorted(map(self.rank.__getitem__, ids))
        return _json_list('", "'.join(map(self.escaped.__getitem__, positions)))


def _value_masks(ordered: bytes | bytearray) -> tuple[bytes, ...]:
    """Per status value, the byte mask of the string-order status ``ordered``."""
    return tuple(ordered.translate(mask) for mask in _VALUE_MASKS)


def _json_list(body: str) -> str:
    """A JSON list of strings around ``body``, its items already quoted and
    joined (atom texts are never empty, so an empty body is an empty list)."""
    return f'["{body}"]' if body else "[]"


def _escaped(texts: list[str]) -> list[str]:
    """``texts`` as ``json.dumps`` writes them between their quotes: the
    list itself when none needs escaping, else a list with only the texts
    that need it replaced."""
    joined = "".join(texts)
    if _plain(joined):
        return texts
    return [t if _plain(t) else json.dumps(t)[1:-1] for t in texts]


def _plain(text: str) -> bool:
    """Whether ``json.dumps`` writes ``text`` unchanged between its quotes:
    printable ASCII without ``"`` or backslash."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


class AtomTable:
    """Bidirectional mapping between ground atoms and dense integer ids."""

    _literal_table: LiteralTable | None = None

    def __init__(self) -> None:
        self._ids: dict[Atom, int] = {}
        self._atoms: list[Atom] = []

    def id_of(self, atom: Atom) -> int:
        """The id of ``atom``, inserting it if new."""
        idx = self._ids.get(atom)
        if idx is None:
            idx = len(self._atoms)
            self._ids[atom] = idx
            self._atoms.append(atom)
        return idx

    def get(self, atom: Atom) -> int | None:
        """The id of ``atom`` or ``None`` if it was never materialized."""
        return self._ids.get(atom)

    def atom(self, index: int) -> Atom:
        """The atom with dense id ``index``."""
        return self._atoms[index]

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._ids

    def atoms(self) -> Sequence[Atom]:
        """All materialized atoms, in id order."""
        return tuple(self._atoms)

    def predicate_of(self, index: int) -> str:
        """The predicate of the atom with dense id ``index``."""
        return self._atoms[index].predicate

    def current_literal_table(self) -> LiteralTable | None:
        """The literal table if it is built and the atom table has not grown
        since (see :meth:`literal_table`), else ``None``; builds nothing."""
        cached = self._literal_table
        if cached is not None and len(cached.ordered) == len(self):
            return cached
        return None

    def text_ids(self, texts: Iterable[str]) -> list[int | None]:
        """Per text, the id of the atom ``parse_atom(text)`` reads, found
        without a parse, or ``None`` (the caller parses then).

        A text that is an atom's own text in the current literal table
        (:meth:`LiteralTable.id_of`), in the plain shape
        (:data:`~repro.datalog.parser.PLAIN_ATOM`), and whose identifier is
        that atom's predicate, parses back to that atom.  ``None`` for any
        other text, and for every text when the literal table is not built
        or is stale: nothing is built here.
        """
        literals = self.current_literal_table()
        if literals is None:
            return [None for _ in texts]
        ids: list[int | None] = []
        for text in texts:
            index = literals.id_of(text) if PLAIN_ATOM.fullmatch(text) else None
            if index is not None and self.predicate_of(index) != text.partition("(")[0]:
                index = None
            ids.append(index)
        return ids

    def literal_table(self) -> LiteralTable:
        """The atoms' texts, in id order and in string order.

        Built on first use.  Atom tables only ever append (delta-overlay
        growth, the eager ``id_of`` fallback), so a table that has grown
        since is caught up here, on the next read: the new atoms' texts
        are appended and the order re-sorted, which is near-linear on a
        sorted prefix.  The update path itself never touches it.
        """
        cached = self._literal_table
        n = len(self)
        if cached is not None and len(cached.ordered) == n:
            return cached
        if cached is None:
            literals, order = self._texts(0, n), list(range(n))
        else:
            done = len(cached.ordered)
            literals = cached.literals + self._texts(done, n)
            order = cached.order.tolist()
            order.extend(range(done, n))
        order.sort(key=literals.__getitem__)
        rank = array("i", [0]) * n
        for position, index in enumerate(order):
            rank[index] = position
        ordered = list(map(literals.__getitem__, order))
        table = LiteralTable(array("i", order), rank, ordered, _escaped(ordered))
        self._literal_table = table
        return table

    def _texts(self, start: int, stop: int) -> list[str]:
        """``str()`` of atoms ``start`` to ``stop - 1``."""
        return [str(self.atom(i)) for i in range(start, stop)]


class _InternedAtomTable(AtomTable):
    """Atom table over interned (predicate, int-row) keys, decoded lazily.

    Built by the joined grounders: atoms exist as a predicate name plus a
    row of :class:`ConstantPool` ids; :class:`~repro.datalog.atoms.Atom`
    objects are constructed only when asked for.  Inserting an atom the
    grounder never saw (``id_of`` on a fresh atom) falls back to the
    eager base representation — the growth path the index cache watches.
    """

    def __init__(
        self,
        pool: ConstantPool,
        pred_of: list[str],
        row_of: list[IntRow],
        ids_by_pred: dict[str, dict[IntRow, int]],
    ) -> None:
        self._pool = pool
        self._pred_of = pred_of
        self._row_of = row_of
        self._ids_by_pred = ids_by_pred
        self._cache: dict[int, Atom] = {}
        self._eager = False

    def _materialize(self) -> None:
        if not self._eager:
            self._atoms = [self.atom(i) for i in range(len(self._pred_of))]
            self._ids = {a: i for i, a in enumerate(self._atoms)}
            self._eager = True
        elif len(self._atoms) < len(self._pred_of):
            self._grow()

    def _grow(self) -> None:
        """Sync the eager mirror after the delta overlay appended atoms.

        The streaming-update session appends to ``pred_of``/``row_of``
        directly; an already-materialized eager view must pick the new
        atoms up, or ``atom(i)``/``get`` would miss ids it is supposed
        to know.  (A table grown *by hand* through ``id_of`` fallback is
        the reverse desync — ``_atoms`` longer than ``_pred_of`` — and
        disqualifies the program from incremental updates entirely.)
        """
        constant = self._pool.constant
        for i in range(len(self._atoms), len(self._pred_of)):
            a = Atom(self._pred_of[i], tuple([constant(v) for v in self._row_of[i]]))
            self._ids[a] = i
            self._atoms.append(a)

    def id_of(self, atom: Atom) -> int:
        if not self._eager:
            idx = self.get(atom)
            if idx is not None:
                return idx
        self._materialize()
        return super().id_of(atom)

    def get(self, atom: Atom) -> int | None:
        if self._eager:
            return self._ids.get(atom)
        ids = self._ids_by_pred.get(atom.predicate)
        if ids is None:
            return None
        get_id = self._pool.get
        row = []
        for term in atom.args:
            v = get_id(term)
            if v is None:
                return None
            row.append(v)
        return ids.get(tuple(row))

    def atom(self, index: int) -> Atom:
        if self._eager:
            return self._atoms[index]
        cached = self._cache.get(index)
        if cached is None:
            constant = self._pool.constant
            cached = Atom(
                self._pred_of[index],
                tuple([constant(v) for v in self._row_of[index]]),
            )
            self._cache[index] = cached
        return cached

    def __len__(self) -> int:
        return len(self._atoms) if self._eager else len(self._pred_of)

    def predicate_of(self, index: int) -> str:
        return self._atoms[index].predicate if self._eager else self._pred_of[index]

    def __contains__(self, atom: Atom) -> bool:
        return self.get(atom) is not None

    def atoms(self) -> Sequence[Atom]:
        self._materialize()
        return tuple(self._atoms)

    def _texts(self, start: int, stop: int) -> list[str]:
        # Rows format from the pool's constant texts; only atoms the eager
        # id_of fallback appended past the rows go through str(Atom).
        texts = self._pool.texts()
        rows_end = min(stop, len(self._pred_of))
        out = [
            atom_text(pred, [texts[v] for v in row])
            for pred, row in zip(self._pred_of[start:rows_end], self._row_of[start:rows_end])
        ]
        if stop > rows_end:
            out += super()._texts(max(start, rows_end), stop)
        return out


class _DenseAtomTable(AtomTable):
    """Full-grounding atom table with arithmetic (id ↔ atom) conversion.

    Under full grounding the atom universe is *every* ground atom of every
    predicate, laid out predicate-major in universe-lexicographic order —
    so ids are pure positional arithmetic over the universe digits and no
    per-atom storage is needed at all.  ``id_of`` on an atom outside that
    dense block falls back to the eager base representation.
    """

    def __init__(
        self,
        pool: ConstantPool,
        universe: tuple[Constant, ...],
        pred_arities: list[tuple[str, int]],
    ) -> None:
        self._pool = pool
        self._universe = universe
        self._preds = [p for p, _ in pred_arities]
        self._arities = [a for _, a in pred_arities]
        self._pred_index = {p: i for i, p in enumerate(self._preds)}
        n_u = len(universe)
        self._n_u = n_u
        bases: list[int] = []
        total = 0
        for _, arity in pred_arities:
            bases.append(total)
            total += n_u**arity
        self._bases = bases
        self._dense_count = total
        self._cache: dict[int, Atom] = {}
        self._eager = False

    def _materialize(self) -> None:
        if not self._eager:
            self._atoms = [self.atom(i) for i in range(self._dense_count)]
            self._ids = {a: i for i, a in enumerate(self._atoms)}
            self._eager = True

    def id_of(self, atom: Atom) -> int:
        idx = self.get(atom)
        if idx is not None:
            return idx
        self._materialize()
        return super().id_of(atom)

    def predicate_of(self, index: int) -> str:
        if self._eager:
            return self._atoms[index].predicate
        return self._preds[bisect_right(self._bases, index) - 1]

    def get(self, atom: Atom) -> int | None:
        if self._eager:
            return self._ids.get(atom)
        pi = self._pred_index.get(atom.predicate)
        if pi is None or len(atom.args) != self._arities[pi]:
            return None
        n_u = self._n_u
        get_id = self._pool.get
        offset = 0
        for term in atom.args:
            v = get_id(term)
            if v is None or v >= n_u:
                return None
            offset = offset * n_u + v
        return self._bases[pi] + offset

    def atom(self, index: int) -> Atom:
        if self._eager:
            return self._atoms[index]
        cached = self._cache.get(index)
        if cached is None:
            pi = bisect_right(self._bases, index) - 1
            offset = index - self._bases[pi]
            n_u = self._n_u
            digits = []
            for _ in range(self._arities[pi]):
                offset, d = divmod(offset, n_u)
                digits.append(d)
            universe = self._universe
            cached = Atom(self._preds[pi], tuple([universe[d] for d in reversed(digits)]))
            self._cache[index] = cached
        return cached

    def __len__(self) -> int:
        return len(self._atoms) if self._eager else self._dense_count

    def __contains__(self, atom: Atom) -> bool:
        return self.get(atom) is not None

    def atoms(self) -> Sequence[Atom]:
        self._materialize()
        return tuple(self._atoms)


@dataclass(frozen=True, slots=True)
class GroundRule:
    """One instantiated rule: the paper's rule node ``r(a1, ..., ak)``.

    ``pos`` / ``neg`` are *deduplicated* atom ids (the ground graph's edge
    sets), preserving first-occurrence order.  ``rule_index`` points into the
    source program and ``substitution`` is the constant tuple aligned with
    ``rule.variables()``.
    """

    head: int
    pos: tuple[int, ...]
    neg: tuple[int, ...]
    rule_index: int
    substitution: tuple[Constant, ...]


class _CompiledRules(AbcSequence):
    """Lazy :class:`GroundRule` sequence over the grounder's CSR arrays.

    The compiled grounders emit instances straight into flat id arrays;
    the object view exists for provenance consumers (``explain``, the
    per-rule semantics, the seed kernel) and is materialized — and
    cached — one rule at a time.
    """

    __slots__ = (
        "_pool",
        "_heads",
        "_pos_off",
        "_pos",
        "_neg_off",
        "_neg",
        "_rule_index",
        "_sub_off",
        "_sub",
        "_cache",
    )

    def __init__(
        self,
        pool: ConstantPool,
        heads: array,
        pos_off: array,
        pos: array,
        neg_off: array,
        neg: array,
        rule_index: array,
        sub_off: array,
        sub: array,
    ) -> None:
        self._pool = pool
        self._heads = heads
        self._pos_off = pos_off
        self._pos = pos
        self._neg_off = neg_off
        self._neg = neg
        self._rule_index = rule_index
        self._sub_off = sub_off
        self._sub = sub
        self._cache: list[GroundRule | None] = [None] * len(heads)

    def _rule(self, i: int) -> GroundRule:
        cache = self._cache
        if i >= len(cache):
            # The CSR arrays grew (streaming updates append instances in
            # place); stretch the lazy cache to match.
            cache.extend([None] * (len(self._heads) - len(cache)))
        cached = cache[i]
        if cached is None:
            constant = self._pool.constant
            cached = GroundRule(
                head=self._heads[i],
                pos=tuple(self._pos[self._pos_off[i] : self._pos_off[i + 1]]),
                neg=tuple(self._neg[self._neg_off[i] : self._neg_off[i + 1]]),
                rule_index=self._rule_index[i],
                substitution=tuple(
                    [constant(v) for v in self._sub[self._sub_off[i] : self._sub_off[i + 1]]]
                ),
            )
            self._cache[i] = cached
        return cached

    def __len__(self) -> int:
        return len(self._heads)

    def __getitem__(self, index):
        n = len(self._heads)
        if isinstance(index, slice):
            return [self._rule(i) for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("ground rule index out of range")
        return self._rule(index)

    def __iter__(self):
        for i in range(len(self._heads)):
            yield self._rule(i)


class GroundIndex:
    """The compiled, immutable kernel view of a ground program.

    Flat CSR-style integer arrays replacing the per-state Python
    list-of-lists the evaluation state used to rebuild on every
    construction.  The compiled grounders emit these arrays *directly*
    (:meth:`from_compiled` — no intermediate rule objects); the
    object-level constructor recompiles from ``gp.rules`` when a ground
    program is built or grown by hand.  Built once per
    :class:`GroundProgram` (see :attr:`GroundProgram.index`) and shared
    by every :class:`~repro.ground.state.GroundGraphState` and all of
    its clones:

    * ``head_of[r]`` — head atom id of rule instance ``r``;
    * ``pos_off``/``pos_atoms`` (and ``neg_off``/``neg_atoms``) — rule →
      positive (negative) body atom ids, ``pos_atoms[pos_off[r]:pos_off[r+1]]``;
    * ``pos_occ_off``/``pos_occ`` (and ``neg_occ_off``/``neg_occ``) — the
      transposed adjacency: atom → rule instances whose body contains the
      atom positively (negatively), in ascending rule order; built from
      the tuple views on first read, since only serialization reads them
      (a loaded index gets them from its artifact);
    * ``body_len[r]`` / ``pos_len[r]`` — body-literal counters, the initial
      values of the state's ``rule_pending`` / ``pos_live`` arrays;
    * ``support[a]`` — number of rule instances with head ``a``;
    * ``initial_status`` / ``initial_valued`` — the paper's M₀(Δ): Δ atoms
      true, EDB atoms outside Δ false, the rest undefined; ``initial_valued``
      lists the valued atom ids in ascending order (the initial worklist);
    * ``empty_body_rules`` / ``zero_support_atoms`` — the seeds of the first
      ``close()`` sweep;
    * ``edb_mask[a]`` — 1 iff atom ``a``'s predicate is extensional.

    The flat arrays are ``array('i')`` / ``array('b')`` / ``bytearray``, so
    state construction and cloning reduce to C-level copies.  Alongside
    them, ``head_of_t`` / ``pos_occ_t`` / ``neg_occ_t`` are tuple *views*
    of the same adjacency: CPython iterates and indexes tuples faster than
    typed arrays, so the worklist hot loops read the views.  The flat CSR
    form is the interchange surface (buffer-protocol arrays, ready for
    serialization); view/CSR consistency is pinned by
    ``tests/datalog/test_ground_index.py``.
    """

    __slots__ = (
        "n_atoms",
        "n_rules",
        "head_of",
        "head_of_t",
        "body_len",
        "pos_len",
        "pos_off",
        "pos_atoms",
        "neg_off",
        "neg_atoms",
        "pos_occ_off",
        "pos_occ",
        "pos_occ_t",
        "neg_occ_off",
        "neg_occ",
        "neg_occ_t",
        "support",
        "rules_by_head_t",
        "initial_status",
        "initial_valued",
        "empty_body_rules",
        "zero_support_atoms",
        "edb_mask",
        "iota_atoms",
        "iota_rules",
        "atom_order",
        "canonical_ids",
        "initial_rule_alive",
        "live_rules_init",
        "rule_slot_init",
        "ghost_ids",
    )

    def __getattr__(self, name: str):
        if name == "ghost_ids":
            # Built on first read: see ghosts().
            ghosts = self.ghost_ids = self.ghosts()
            return ghosts
        if name == "atom_order":
            # A streamed index ranks on first read (only tie paths read
            # ranks): a canonical atom at its position.  Ghosts and
            # never-in-U* extras are inert (zero live support falsifies
            # them before any tie forms); they rank after every canonical
            # atom, at n_atoms + id.
            n_atoms = self.n_atoms
            order = self.atom_order = array("i", range(n_atoms, 2 * n_atoms))
            for rank, a in enumerate(self.canonical_ids):
                order[a] = rank
            return order
        # The flat occurrence CSR is deferred on every index but a loaded
        # one: the tuple views carry the hot paths, and the flat arrays
        # are only needed by serialization — build them from the views on
        # first touch.
        if name in ("pos_occ_off", "pos_occ", "neg_occ_off", "neg_occ"):
            for prefix in ("pos", "neg"):
                views = object.__getattribute__(self, f"{prefix}_occ_t")
                off = array("i", [0])
                flat = array("i")
                for rs in views:
                    flat.extend(rs)
                    off.append(len(flat))
                setattr(self, f"{prefix}_occ_off", off)
                setattr(self, f"{prefix}_occ", flat)
            return object.__getattribute__(self, name)
        raise AttributeError(name)

    def ghosts(self) -> frozenset[int]:
        """The atoms a fresh grounding of the same database would not
        hold: none, unless streaming updates published this index
        (:class:`GroundDeltaSession`).  Then they are the ghosts, the ids
        outside U\\* (not in ``canonical_ids``) that no live instance
        names in its body; a fresh relevant grounding holds U\\* and the
        body atoms of its instances.  Read as :attr:`ghost_ids`, built
        once per index."""
        canonical = self.canonical_ids
        if canonical is None:
            return frozenset()
        alive, neg_occ = self.initial_rule_alive, self.neg_occ_t
        outside = set(range(self.n_atoms)).difference(canonical)
        return frozenset(a for a in outside if not any(alive[r] for r in neg_occ[a]))

    def __init__(self, gp: "GroundProgram") -> None:
        # Local imports of the truth values would be circular through
        # repro.ground; the constants are fixed by the model module.
        from repro.ground.model import FALSE, TRUE

        n_atoms = len(gp.atoms)
        n_rules = len(gp.rules)

        rules = gp.rules
        heads = array("i", (gr.head for gr in rules))
        pos_off = array("i", [0])
        neg_off = array("i", [0])
        pos_atoms = array("i")
        neg_atoms = array("i")
        for gr in rules:
            pos_atoms.extend(gr.pos)
            neg_atoms.extend(gr.neg)
            pos_off.append(len(pos_atoms))
            neg_off.append(len(neg_atoms))

        # M₀(Δ) and the EDB mask, computed once instead of per state.
        # Δ membership is resolved by iterating the (typically much
        # smaller) database once rather than hashing every table atom.
        edb = gp.program.edb_predicates
        table = gp.atoms
        initial_status = array("b", bytes(n_atoms))
        edb_mask = bytearray(n_atoms)
        if edb:
            for a, atom_ in enumerate(table.atoms()):
                if atom_.predicate in edb:
                    edb_mask[a] = 1
                    initial_status[a] = FALSE
        for atom_ in gp.database.atoms():
            a = table.get(atom_)
            if a is not None:
                initial_status[a] = TRUE

        self._build(
            n_atoms,
            n_rules,
            heads,
            pos_off,
            pos_atoms,
            neg_off,
            neg_atoms,
            edb_mask,
            initial_status,
        )

    @classmethod
    def from_compiled(
        cls,
        n_atoms: int,
        heads: array,
        pos_off: array,
        pos_atoms: array,
        neg_off: array,
        neg_atoms: array,
        edb_mask: bytearray,
        initial_status: array,
    ) -> "GroundIndex":
        """Build the index straight from the grounder's CSR emission."""
        self = cls.__new__(cls)
        self._build(
            n_atoms,
            len(heads),
            heads,
            pos_off,
            pos_atoms,
            neg_off,
            neg_atoms,
            edb_mask,
            initial_status,
        )
        return self

    @classmethod
    def from_arrays(
        cls,
        n_atoms: int,
        heads: array,
        pos_off: array,
        pos_atoms: array,
        neg_off: array,
        neg_atoms: array,
        edb_mask: bytearray,
        initial_status: array,
        *,
        support: array,
        body_len: array,
        pos_len: array,
        pos_occ_off: array,
        pos_occ: array,
        neg_occ_off: array,
        neg_occ: array,
        head_occ_off: array,
        head_occ: array,
        initial_valued: array,
        empty_body_rules: array,
        zero_support_atoms: array,
    ) -> "GroundIndex":
        """Restore a fully compiled index from its flat arrays.

        The deserialization twin of :meth:`_build`: every derived array —
        the occurrence-list transpositions, counters, M₀ worklist, and
        ``close()`` seeds — is taken as given (e.g. read back from a
        ``repro-ground/1`` artifact, see :mod:`repro.io.artifact`), so
        construction is dominated by rebuilding the tuple views and does
        no per-rule Python work at all.
        """
        self = cls.__new__(cls)
        self.n_atoms = n_atoms
        self.n_rules = len(heads)
        self.head_of = heads
        self.head_of_t = tuple(heads)
        self.pos_off, self.pos_atoms = pos_off, pos_atoms
        self.neg_off, self.neg_atoms = neg_off, neg_atoms
        self.support = support
        self.body_len = body_len
        self.pos_len = pos_len
        self.pos_occ_off, self.pos_occ = pos_occ_off, pos_occ
        self.neg_occ_off, self.neg_occ = neg_occ_off, neg_occ
        # Box each flat adjacency once, then cut tuple views by slicing the
        # boxed tuple — slice-of-tuple is a C pointer copy, so restoring the
        # views costs O(edges) rather than O(edges) boxing per view entry.
        flat = tuple(pos_occ)
        self.pos_occ_t = tuple(flat[pos_occ_off[a] : pos_occ_off[a + 1]] for a in range(n_atoms))
        flat = tuple(neg_occ)
        self.neg_occ_t = tuple(flat[neg_occ_off[a] : neg_occ_off[a + 1]] for a in range(n_atoms))
        flat = tuple(head_occ)
        self.rules_by_head_t = tuple(
            flat[head_occ_off[a] : head_occ_off[a + 1]] for a in range(n_atoms)
        )
        self.initial_status = initial_status
        self.initial_valued = initial_valued
        self.edb_mask = edb_mask
        self.empty_body_rules = empty_body_rules
        self.zero_support_atoms = zero_support_atoms
        self.iota_atoms = array("i", range(n_atoms))
        self.iota_rules = array("i", range(self.n_rules))
        self.atom_order = None
        self.canonical_ids = None
        self.initial_rule_alive = None
        self.live_rules_init = None
        self.rule_slot_init = None
        return self

    def _build(
        self,
        n_atoms: int,
        n_rules: int,
        heads: array,
        pos_off: array,
        pos_atoms: array,
        neg_off: array,
        neg_atoms: array,
        edb_mask: bytearray,
        initial_status: array,
    ) -> None:
        self.n_atoms = n_atoms
        self.n_rules = n_rules

        self.head_of = heads
        self.head_of_t = tuple(heads)
        self.pos_off, self.pos_atoms = pos_off, pos_atoms
        self.neg_off, self.neg_atoms = neg_off, neg_atoms
        pos_len = array("i", (pos_off[r + 1] - pos_off[r] for r in range(n_rules)))
        neg_len = (neg_off[r + 1] - neg_off[r] for r in range(n_rules))
        self.body_len = array("i", (p + q for p, q in zip(pos_len, neg_len)))
        self.pos_len = pos_len

        support = array("i", bytes(4 * n_atoms))
        pos_lists: list[list[int]] = [[] for _ in range(n_atoms)]
        neg_lists: list[list[int]] = [[] for _ in range(n_atoms)]
        head_lists: list[list[int]] = [[] for _ in range(n_atoms)]
        for r in range(n_rules):
            h = heads[r]
            support[h] += 1
            head_lists[h].append(r)
            for a in pos_atoms[pos_off[r] : pos_off[r + 1]]:
                pos_lists[a].append(r)
            for a in neg_atoms[neg_off[r] : neg_off[r + 1]]:
                neg_lists[a].append(r)
        self.support = support
        # Reverse head adjacency: atom → rule instances whose head it is
        # (the in-edges of an atom node; used by the incremental bottom-SCC
        # bookkeeping to recount a split component's incoming edges).
        self.rules_by_head_t = tuple(tuple(rs) for rs in head_lists)

        # Atom → rule adjacency (the transposed occurrence lists), in
        # ascending rule order — keeping traversals deterministic.  Tuple
        # views for the hot loops; the flat CSR is built from them on
        # first read (see __getattr__).
        self.pos_occ_t = tuple(tuple(rs) for rs in pos_lists)
        self.neg_occ_t = tuple(tuple(rs) for rs in neg_lists)

        self.initial_status = initial_status
        self.initial_valued = array("i", (a for a in range(n_atoms) if initial_status[a]))
        self.edb_mask = edb_mask

        body_len = self.body_len
        self.empty_body_rules = array("i", (r for r in range(n_rules) if body_len[r] == 0))
        self.zero_support_atoms = array("i", (a for a in range(n_atoms) if support[a] == 0))

        # Identity permutations: copied (memcpy) into each state's live-set
        # bookkeeping instead of being rebuilt element by element.
        self.iota_atoms = array("i", range(n_atoms))
        self.iota_rules = array("i", range(n_rules))

        # Delta-overlay fields: a freshly built index has every instance
        # alive and uses raw atom ids as the canonical order.
        self.atom_order = None
        self.canonical_ids = None
        self.initial_rule_alive = None
        self.live_rules_init = None
        self.rule_slot_init = None


@dataclass
class GroundProgram:
    """The result of grounding: atoms, rule instances, and provenance."""

    program: Program
    database: Database
    universe: tuple[Constant, ...]
    mode: GroundingMode
    atoms: AtomTable
    rules: Sequence[GroundRule] = field(default_factory=list)

    @property
    def atom_count(self) -> int:
        """Number of materialized ground atoms."""
        return len(self.atoms)

    @property
    def rule_count(self) -> int:
        """Number of ground rule instances."""
        return len(self.rules)

    @property
    def index(self) -> GroundIndex:
        """The compiled CSR kernel view (built once, then shared).

        The compiled grounders attach the index they emitted; it is
        invalidated automatically if the rule list or atom table grew
        since it was built (hand-built ground programs append while
        constructing).  After grounding completes the same instance is
        shared by every evaluation state and every ``clone()``.
        """
        cached: GroundIndex | None = getattr(self, "_index_cache", None)
        if (
            cached is None
            or cached.n_rules != len(self.rules)
            or cached.n_atoms != len(self.atoms)
        ):
            csr: _CsrEmitter | None = getattr(self, "_csr", None)
            if (
                csr is not None
                and csr.n_atoms == len(self.atoms)
                and len(csr.heads) == len(self.rules)
            ):
                cached = GroundIndex.from_compiled(
                    csr.n_atoms,
                    csr.heads,
                    csr.pos_off,
                    csr.pos,
                    csr.neg_off,
                    csr.neg,
                    csr.edb_mask,
                    csr.initial_status,
                )
            else:
                cached = GroundIndex(self)
            object.__setattr__(self, "_index_cache", cached)
        return cached

    def instantiated_rule(self, ground_rule: GroundRule) -> Rule:
        """The source rule with the instance's substitution applied."""
        source = self.program.rules[ground_rule.rule_index]
        binding = dict(zip(source.variables(), ground_rule.substitution))
        return source.substitute(binding)

    def describe(self) -> str:
        """One-line summary, for logs and benchmarks."""
        return (
            f"GroundProgram(mode={self.mode}, |U|={len(self.universe)}, "
            f"atoms={self.atom_count}, instances={self.rule_count})"
        )


def universe_of(
    program: Program, database: Database, extra: Iterable[Constant] = ()
) -> tuple[Constant, ...]:
    """The universe U: all constants of the program, the database, and ``extra``.

    Sorted by string rendering for deterministic grounding order.
    """
    constants = set(program.constants) | set(database.constants()) | set(extra)
    return tuple(sorted(constants, key=str))


class _CsrEmitter:
    """The grounder's shared CSR builders: instances as flat id arrays."""

    __slots__ = (
        "heads",
        "pos_off",
        "pos",
        "neg_off",
        "neg",
        "rule_index",
        "sub_off",
        "sub",
        "n_atoms",
        "edb_mask",
        "initial_status",
    )

    def __init__(self) -> None:
        self.heads = array("i")
        self.pos_off = array("i", [0])
        self.pos = array("i")
        self.neg_off = array("i", [0])
        self.neg = array("i")
        self.rule_index = array("i")
        self.sub_off = array("i", [0])
        self.sub = array("i")

    def finish(
        self,
        gp: "GroundProgram",
        n_atoms: int,
        edb_mask: bytearray,
        initial_status: array,
        pool: ConstantPool,
    ) -> None:
        """Attach the lazy rule view and the emitted CSR arrays to ``gp``.

        The occurrence-list transposition (:meth:`GroundIndex.from_compiled`)
        runs on first :attr:`GroundProgram.index` access — the compile
        phase, timed separately from grounding by the Engine.
        """
        self.n_atoms = n_atoms
        self.edb_mask = edb_mask
        self.initial_status = initial_status
        gp.rules = _CompiledRules(
            pool,
            self.heads,
            self.pos_off,
            self.pos,
            self.neg_off,
            self.neg,
            self.rule_index,
            self.sub_off,
            self.sub,
        )
        object.__setattr__(gp, "_csr", self)


def _initial_model(
    n_atoms: int,
    pred_of: Sequence[str],
    ids_by_pred: dict[str, dict[IntRow, int]],
    delta: IntFactStore,
    edb: frozenset[str],
) -> tuple[bytearray, array]:
    """M₀(Δ) and the EDB mask over interned atom ids."""
    from repro.ground.model import FALSE, TRUE

    edb_mask = bytearray(n_atoms)
    initial_status = array("b", bytes(n_atoms))
    if edb:
        for a, pred in enumerate(pred_of):
            if pred in edb:
                edb_mask[a] = 1
                initial_status[a] = FALSE
    for pred, rows in delta.items():
        ids = ids_by_pred.get(pred)
        if ids:
            for row in rows:
                a = ids.get(row)
                if a is not None:
                    initial_status[a] = TRUE
    return edb_mask, initial_status


def _ground_full(
    program: Program,
    database: Database,
    universe: tuple[Constant, ...],
    max_instances: int,
) -> GroundProgram:
    # Guard: predict the instance count before enumerating.
    total = 0
    for r in program.rules:
        k = len(r.variables())
        count = len(universe) ** k if k else 1
        total += count
        if total > max_instances:
            raise GroundingError(
                f"full grounding needs more than {max_instances} instances "
                f"(rule {r} alone has |U|^{k} = {count}); use mode='relevant' "
                "or raise max_instances"
            )

    # VP: every ground atom of every predicate, per the paper's definition —
    # laid out predicate-major in universe-lexicographic order, so atom ids
    # are pure arithmetic over universe digits (no hashing, no Atom objects).
    pool = ConstantPool(universe)
    n_u = len(universe)
    pred_arities: list[tuple[str, int]] = []
    for pred in sorted(program.predicates | database.predicates()):
        arity = program.arities.get(pred)
        if arity is None:
            rows = database[pred]
            arity = len(next(iter(rows))) if rows else 0
        pred_arities.append((pred, arity))
    table = _DenseAtomTable(pool, universe, pred_arities)
    base_of: dict[str, int] = {p: table._bases[i] for i, (p, _) in enumerate(pred_arities)}
    n_atoms = len(table)

    def atom_spec(atom: Atom, var_pos: dict) -> tuple[int, list[tuple[int, int]]]:
        """(constant offset incl. base, [(stride, substitution index)])."""
        arity = len(atom.args)
        offset = base_of[atom.predicate]
        var_terms: list[tuple[int, int]] = []
        for p, term in enumerate(atom.args):
            stride = n_u ** (arity - 1 - p)
            if isinstance(term, Constant):
                offset += stride * pool.intern(term)
            else:
                var_terms.append((stride, var_pos[term]))
        return offset, var_terms

    out = _CsrEmitter()
    heads, pos, neg = out.heads, out.pos, out.neg
    heads_append, pos_extend, neg_extend = heads.append, pos.extend, neg.extend
    pos_off_append, neg_off_append = out.pos_off.append, out.neg_off.append
    rule_index_append = out.rule_index.append
    sub_extend, sub_off_append = out.sub.extend, out.sub_off.append
    sub = out.sub
    for rule_index, r in enumerate(program.rules):
        variables = r.variables()
        k = len(variables)
        var_pos = {v: j for j, v in enumerate(variables)}
        head_spec = atom_spec(r.head, var_pos)
        body_specs = [(lit.positive, atom_spec(lit.atom, var_pos)) for lit in r.body]
        for digits in product(range(n_u), repeat=k):
            offset, var_terms = head_spec
            for stride, j in var_terms:
                offset += stride * digits[j]
            heads_append(offset)
            pos_seen: list[int] = []
            neg_seen: list[int] = []
            for positive, (offset, var_terms) in body_specs:
                for stride, j in var_terms:
                    offset += stride * digits[j]
                seen = pos_seen if positive else neg_seen
                if offset not in seen:
                    seen.append(offset)
            pos_extend(pos_seen)
            pos_off_append(len(pos))
            neg_extend(neg_seen)
            neg_off_append(len(neg))
            rule_index_append(rule_index)
            # Universe digits are pool ids (the pool interned the universe
            # first), so they double as the substitution row.
            sub_extend(digits)
            sub_off_append(len(sub))

    gp = GroundProgram(program, database, universe, "full", table)
    delta = IntFactStore()
    ids_by_pred: dict[str, dict[IntRow, int]] = {}
    for pred in database.predicates():
        ids = ids_by_pred.setdefault(pred, {})
        for const_row in database[pred]:
            row = tuple([pool.intern(c) for c in const_row])
            delta.add(pred, row)
            a = table.get(Atom(pred, const_row))
            if a is not None:
                ids[row] = a
    edb_mask, initial_status = _initial_model(n_atoms, [], ids_by_pred, delta, frozenset())
    # The EDB mask covers whole predicate blocks under the dense layout.
    from repro.ground.model import FALSE

    edb = program.edb_predicates
    for i, (pred, arity) in enumerate(pred_arities):
        if pred in edb:
            base, size = table._bases[i], n_u**arity
            edb_mask[base : base + size] = b"\x01" * size
            for a in range(base, base + size):
                if initial_status[a] == 0:
                    initial_status[a] = FALSE
    out.finish(gp, n_atoms, edb_mask, initial_status, pool)
    return gp


def _ground_joined(
    program: Program,
    database: Database,
    universe: tuple[Constant, ...],
    max_instances: int,
    prune_false_negative_edb: bool,
    mode: GroundingMode,
    pool: ConstantPool | None,
) -> GroundProgram:
    """Shared implementation of the ``relevant`` and ``edb`` modes.

    ``relevant`` joins every positive body literal against the upper-bound
    model U\\*; ``edb`` joins only the positive *EDB* literals against Δ and
    enumerates the remaining variables — a superset of ``relevant`` that is
    exact for fixpoint/stable enumeration (an atom true in any fixpoint is
    supported by an instance whose EDB literals hold in Δ, hence the
    instance — and the atom — is materialized here).
    """
    edb = program.edb_predicates
    if pool is None:
        pool = ConstantPool()
    uni_ids = [pool.intern(c) for c in universe]

    delta = IntFactStore()
    for pred in database.predicates():
        for const_row in database[pred]:
            delta.add(pred, tuple([pool.intern(c) for c in const_row]))
    if mode == "relevant":
        positivized = [Rule(r.head, r.positive_body()) for r in program.rules]
        join_store = least_model_interned(
            positivized, database, universe=universe, pool=pool, database_rows=delta
        )
    else:
        join_store = delta

    # Materialize the join store (U* respectively Δ) so negative IDB
    # literals and unfounded atoms have nodes to be falsified on; sorted
    # predicate-major, rows by *universe rank* — pool ids only agree with
    # universe order on a fresh pool, and a reused session pool (engine
    # re-ground after updates) may have interned a returning constant
    # late.  Canonical order must be a function of the database alone.
    rank = {pid: i for i, pid in enumerate(uni_ids)}
    ids_by_pred: dict[str, dict[IntRow, int]] = {}
    pred_of: list[str] = []
    row_of: list[IntRow] = []
    for pred in sorted(join_store.predicates()):
        ids = ids_by_pred.setdefault(pred, {})
        for row in sorted(join_store.rows(pred), key=lambda r: [rank[v] for v in r]):
            ids[row] = len(pred_of)
            pred_of.append(pred)
            row_of.append(row)

    out = _CsrEmitter()
    heads, pos, neg = out.heads, out.pos, out.neg
    heads_append, pos_extend, neg_extend = heads.append, pos.extend, neg.extend
    pos_off_append, neg_off_append = out.pos_off.append, out.neg_off.append
    rule_index_append = out.rule_index.append
    sub_extend, sub_off_append = out.sub.extend, out.sub_off.append
    sub = out.sub
    pred_of_append, row_of_append = pred_of.append, row_of.append
    intern = pool.intern
    for rule_index, r in enumerate(program.rules):
        variables = r.variables()
        head_pred = r.head.predicate
        head_ids = ids_by_pred.setdefault(head_pred, {})

        if not variables:
            # Fully ground rule: the join is pure membership, one instance —
            # the unrolled twin of ``instantiate`` below over direct rows.
            satisfied = True
            for lit in r.body:
                if lit.positive and (mode == "relevant" or lit.predicate in edb):
                    if tuple([intern(t) for t in lit.atom.args]) not in join_store.rows(
                        lit.predicate
                    ):
                        satisfied = False
                        break
                elif not lit.positive and prune_false_negative_edb and lit.predicate in edb:
                    if tuple([intern(t) for t in lit.atom.args]) in delta.rows(lit.predicate):
                        satisfied = False
                        break
            if not satisfied:
                continue
            row = tuple([intern(t) for t in r.head.args])
            head_id = head_ids.get(row)
            if head_id is None:
                head_id = len(pred_of)
                head_ids[row] = head_id
                pred_of_append(head_pred)
                row_of_append(row)
            heads_append(head_id)
            pos_seen = []
            neg_seen = []
            for lit in r.body:
                row = tuple([intern(t) for t in lit.atom.args])
                ids = ids_by_pred.setdefault(lit.predicate, {})
                atom_id = ids.get(row)
                if atom_id is None:
                    atom_id = len(pred_of)
                    ids[row] = atom_id
                    pred_of_append(lit.predicate)
                    row_of_append(row)
                seen = pos_seen if lit.positive else neg_seen
                if atom_id not in seen:
                    seen.append(atom_id)
            pos_extend(pos_seen)
            pos_off_append(len(pos))
            neg_extend(neg_seen)
            neg_off_append(len(neg))
            rule_index_append(rule_index)
            sub_off_append(len(sub))
            if len(heads) > max_instances:
                raise GroundingError(f"{mode} grounding exceeded {max_instances} instances")
            continue

        slot_of = {v: i for i, v in enumerate(variables)}
        joinable = [lit for lit in r.positive_body() if mode == "relevant" or lit.predicate in edb]
        head_spec = compile_row_spec(r.head, slot_of, pool)
        body_probes = [
            (
                lit.positive,
                compile_row_spec(lit.atom, slot_of, pool),
                ids_by_pred.setdefault(lit.predicate, {}),
                lit.predicate,
            )
            for lit in r.body
        ]
        neg_edb_probes = (
            [
                (compile_row_spec(lit.atom, slot_of, pool), delta.rows(lit.predicate))
                for lit in r.body
                if not lit.positive and lit.predicate in edb
            ]
            if prune_false_negative_edb
            else []
        )

        def instantiate(slots: Sequence[int]) -> None:
            for spec, delta_rows in neg_edb_probes:
                if tuple([slots[v] if v >= 0 else ~v for v in spec]) in delta_rows:
                    # A negative EDB literal is violated: the instance's body
                    # is false in every model; close() would delete its node
                    # before it could influence anything.
                    return
            row = tuple([slots[v] if v >= 0 else ~v for v in head_spec])
            head_id = head_ids.get(row)
            if head_id is None:
                head_id = len(pred_of)
                head_ids[row] = head_id
                pred_of_append(head_pred)
                row_of_append(row)
            heads_append(head_id)
            pos_seen: list[int] = []
            neg_seen: list[int] = []
            for positive, spec, ids, pred in body_probes:
                row = tuple([slots[v] if v >= 0 else ~v for v in spec])
                atom_id = ids.get(row)
                if atom_id is None:
                    atom_id = len(pred_of)
                    ids[row] = atom_id
                    pred_of_append(pred)
                    row_of_append(row)
                seen = pos_seen if positive else neg_seen
                if atom_id not in seen:
                    seen.append(atom_id)
            pos_extend(pos_seen)
            pos_off_append(len(pos))
            neg_extend(neg_seen)
            neg_off_append(len(neg))
            rule_index_append(rule_index)
            sub_extend(slots)
            sub_off_append(len(sub))
            if len(heads) > max_instances:
                raise GroundingError(f"{mode} grounding exceeded {max_instances} instances")

        plan = JoinPlan.compile(order_body_for_join(joinable), slot_of, pool)
        # Over an empty universe, rules with unbound variables have no
        # instances (matching the full grounder's |U|^k = 0).
        unbound = [slot_of[v] for v in variables if slot_of[v] not in plan.bound_slots]
        if unbound:

            def emit(slots: list[int]) -> None:
                for values in product(uni_ids, repeat=len(unbound)):
                    for s, v in zip(unbound, values):
                        slots[s] = v
                    instantiate(slots)

        else:
            emit = instantiate

        plan.execute(join_store, [0] * len(variables), emit)

    n_atoms = len(pred_of)
    table = _InternedAtomTable(pool, pred_of, row_of, ids_by_pred)
    gp = GroundProgram(program, database, universe, mode, table)
    edb_mask, initial_status = _initial_model(n_atoms, pred_of, ids_by_pred, delta, edb)
    out.finish(gp, n_atoms, edb_mask, initial_status, pool)
    if mode == "relevant":
        # Retain the join-time raw materials: a streaming-update session
        # adopts U* and Δ as they stand instead of recomputing them.
        gp._delta_ctx = _DeltaContext(pool, delta, join_store, uni_ids)
    return gp


class _DeltaContext:
    """Raw materials the relevant grounder retains for streaming updates."""

    __slots__ = ("pool", "delta", "join_store", "uni_ids")

    def __init__(
        self,
        pool: ConstantPool,
        delta: IntFactStore,
        join_store: IntFactStore,
        uni_ids: list[int],
    ) -> None:
        self.pool = pool
        self.delta = delta
        self.join_store = join_store
        self.uni_ids = uni_ids


def ground(
    program: Program,
    database: Database,
    *,
    mode: GroundingMode = "full",
    extra_constants: Iterable[Constant] = (),
    max_instances: int = 2_000_000,
    prune_false_negative_edb: bool = True,
    pool: ConstantPool | None = None,
) -> GroundProgram:
    """Ground ``program`` over ``database``.

    ``mode='full'`` reproduces the paper's ``G(Π, Δ)`` exactly (every
    substitution over the universe; every ground atom materialized);
    ``mode='relevant'`` restricts to instances whose positive body lies in
    the upper-bound model U\\* — sound for the well-founded and
    well-founded tie-breaking semantics, exponentially smaller on rules
    with many variables; ``mode='edb'`` joins only positive EDB literals
    against Δ — a superset of ``relevant`` that is additionally *exact for
    fixpoint and stable-model enumeration* (see :mod:`repro.semantics.completion`),
    since an atom true in any fixpoint is supported by an instance whose
    EDB literals hold in Δ.

    ``extra_constants`` extends the universe beyond the constants mentioned
    by the program and database (the paper lets Δ fix the universe; tests of
    Theorem 2/3 use this to stress larger universes).  ``pool`` supplies a
    shared :class:`~repro.engine.plan.ConstantPool` so one interning session
    serves several groundings (the :class:`~repro.api.Engine` passes its
    session pool; ``full`` mode uses its own universe-aligned pool).
    """
    universe = universe_of(program, database, extra_constants)
    if mode == "full":
        return _ground_full(program, database, universe, max_instances)
    if mode in ("relevant", "edb"):
        return _ground_joined(
            program, database, universe, max_instances, prune_false_negative_edb, mode, pool
        )
    raise ValueError(f"unknown grounding mode {mode!r}")


class _DeltaRulePlan:
    """One source rule compiled for delta re-grounding.

    The same slot layout as the initial grounder (``rule.variables()``
    order), so discovered substitutions are directly comparable with the
    CSR's stored ones; one delta-promoted :class:`JoinPlan` per positive
    body literal, exactly like the semi-naive engine.
    """

    __slots__ = (
        "rule_index",
        "head_pred",
        "head_spec",
        "body_probes",
        "delta_plans",
        "unbound",
        "n_slots",
    )

    def __init__(self, rule_index: int, r: Rule, pool: ConstantPool) -> None:
        variables = r.variables()
        self.rule_index = rule_index
        self.n_slots = len(variables)
        self.head_pred = r.head.predicate
        slot_of = {v: i for i, v in enumerate(variables)}
        self.head_spec = compile_row_spec(r.head, slot_of, pool)
        self.body_probes = [
            (lit.positive, compile_row_spec(lit.atom, slot_of, pool), lit.predicate)
            for lit in r.body
        ]
        joinable = list(r.positive_body())
        self.delta_plans: list[tuple[str, JoinPlan]] = []
        bound: frozenset[int] = frozenset()
        for i, lit in enumerate(joinable):
            ordered = [lit] + order_body_for_join(joinable[:i] + joinable[i + 1 :])
            jp = JoinPlan.compile(ordered, slot_of, pool)
            bound = jp.bound_slots
            self.delta_plans.append((lit.predicate, jp))
        self.unbound = (
            tuple(s for s in range(self.n_slots) if s not in bound)
            if self.delta_plans
            else ()
        )


class GroundDeltaSession:
    """Streaming EDB updates on a relevant-mode ground program.

    Owns the mutable overlay that keeps a :class:`GroundProgram` live
    across ``insert``/``retract`` fact deltas:

    * U\\* is maintained by a :class:`~repro.engine.seminaive.SemiNaiveSession`
      (semi-naive advance on insert, DRed on retract) adopting the
      grounder's join store and Δ;
    * new rule instances are discovered by re-firing per-literal
      delta-promoted join plans from the newly-true rows, appended **in
      place** to the shared CSR emitter arrays (old indexes stay valid:
      their reads are bounded by their stored counts), and deduplicated
      against a ``(rule, substitution) → instance`` ledger that also
      re-enables instances a past retraction disabled;
    * atoms leaving U\\* become *ghosts*: their ids persist, dependent
      instances are disabled via ``initial_rule_alive``, and zero live
      support falsifies them in the kernel's first ``close()`` — the
      closed-world reading of :class:`~repro.ground.model.Interpretation`
      makes a materialized-false ghost indistinguishable from a fresh
      grounding that never materialized it, and a model's false list
      leaves out the published index's :attr:`GroundIndex.ghost_ids`;
    * ``canonical`` (an ``array('i')``) lists the U\\* atom ids in the
      order a fresh relevant grounding would assign them (predicate-major,
      rows ascending), kept sorted beside their keys (``sorted_keys``) by
      one ``bisect`` insert or pop per atom entering or leaving U\\*.  Each
      published index holds an ``array('i')`` copy of it
      (``canonical_ids``) and builds its ``atom_order`` ranks from that on
      first read, so deterministic tie-breaking trajectories match a full
      rebuild and a well-founded solve never ranks atoms.

    The session also owns the published index's per-atom and per-rule
    arrays (M₀, EDB mask, the sorted ``initial_valued`` and
    ``zero_support_atoms`` worklists, identity permutations, live-rule
    slots) and patches only the ids an update touched: atoms it created
    or whose Δ membership, support or U\\* membership changed, and the
    rule slots from the first changed instance on.  An update therefore
    costs the delta joins plus work proportional to the touched atoms
    and instances; publishing the new :class:`GroundIndex` adds memcpy
    copies of the patched arrays and of ``canonical``, so an index handed
    out earlier is never mutated — no ground-from-scratch, no recompile
    of join plans, no Python pass over every atom or rule.
    """

    def __init__(self, gp: "GroundProgram") -> None:
        ctx: _DeltaContext = gp._delta_ctx
        self.gp = gp
        self.pool = ctx.pool
        self.uni_ids = ctx.uni_ids
        self.edb = gp.program.edb_predicates
        table = gp.atoms
        self.table = table
        self.pred_of: list[str] = table._pred_of
        self.row_of: list[IntRow] = table._row_of
        self.ids_by_pred: dict[str, dict[IntRow, int]] = table._ids_by_pred
        self.csr: _CsrEmitter = gp._csr
        positivized = [Rule(r.head, r.positive_body()) for r in gp.program.rules]
        self.sem = SemiNaiveSession(
            positivized,
            gp.database,
            universe=gp.universe,
            pool=self.pool,
            database_rows=ctx.delta,
            store=ctx.join_store,
        )

        idx = gp.index
        n_atoms = idx.n_atoms
        n_rules = idx.n_rules
        self.pos_occ_lists: list[tuple[int, ...]] = list(idx.pos_occ_t)
        self.neg_occ_lists: list[tuple[int, ...]] = list(idx.neg_occ_t)
        self.head_lists: list[tuple[int, ...]] = list(idx.rules_by_head_t)
        self.support_live = array("i", idx.support)
        self.alive = bytearray(b"\x01" * n_rules)
        self.body_len = array("i", idx.body_len)
        self.pos_len = array("i", idx.pos_len)
        self.empty_body_rules = idx.empty_body_rules

        store = self.sem.store
        pred_of, row_of = self.pred_of, self.row_of
        self.in_ustar = bytearray(
            store.contains(pred_of[a], row_of[a]) for a in range(n_atoms)
        )
        # Canonical order: a fresh relevant grounding assigns ids
        # predicate-major with rows ascending under a pool that interned
        # the (string-sorted) universe first — so ranking live atoms by
        # (predicate, universe-rank row) reproduces fresh ids exactly.
        self._rank_of = {self.pool.intern(c): i for i, c in enumerate(gp.universe)}
        ranked = sorted((self._key(a), a) for a in range(n_atoms) if self.in_ustar[a])
        # The canonical ids and, in step, their keys: a bisect compares
        # stored keys instead of computing one per probe.
        self.canonical = array("i", [a for _key, a in ranked])
        self.sorted_keys: list[tuple] = [key for key, _a in ranked]
        ri, so, sub = self.csr.rule_index, self.csr.sub_off, self.csr.sub
        self.ledger: dict[tuple[int, IntRow], int] = {
            (ri[r], tuple(sub[so[r] : so[r + 1]])): r for r in range(n_rules)
        }
        self._plans_by_pred: dict[str, list[tuple[_DeltaRulePlan, JoinPlan]]] = {}
        self._ground_rules: list[tuple] = []
        intern = self.pool.intern
        for rule_index, r in enumerate(gp.program.rules):
            if r.variables():
                plan = _DeltaRulePlan(rule_index, r, self.pool)
                for pred, jp in plan.delta_plans:
                    self._plans_by_pred.setdefault(pred, []).append((plan, jp))
            else:
                pos_rows = [
                    (lit.predicate, tuple([intern(t) for t in lit.atom.args]))
                    for lit in r.positive_body()
                ]
                body_probes = [
                    (lit.positive, compile_row_spec(lit.atom, {}, self.pool), lit.predicate)
                    for lit in r.body
                ]
                head_spec = compile_row_spec(r.head, {}, self.pool)
                self._ground_rules.append(
                    (rule_index, r.head.predicate, head_spec, body_probes, pos_rows)
                )

        # The published index's arrays, patched per update (_publish).
        self.initial_status = array("b", idx.initial_status)
        self.edb_mask = bytearray(idx.edb_mask)
        self.initial_valued = array("i", idx.initial_valued)
        self.zero_support = array("i", idx.zero_support_atoms)
        self.iota_atoms = array("i", idx.iota_atoms)
        self.iota_rules = array("i", idx.iota_rules)
        self.live_rules = array("i", idx.iota_rules)
        self.rule_slot = array("i", idx.iota_rules)
        # What the current update touched: atoms whose M₀, support or U*
        # membership may have changed, and the first instance whose alive
        # flag changed.
        self._touched: set[int] = set()
        self._first_rule = n_rules
        self._published = idx

    def _key(self, a: int) -> tuple:
        rank = self._rank_of
        return (self.pred_of[a], tuple([rank[v] for v in self.row_of[a]]))

    def _atom_id(self, pred: str, row: IntRow) -> int:
        ids = self.ids_by_pred.setdefault(pred, {})
        a = ids.get(row)
        if a is None:
            a = len(self.pred_of)
            ids[row] = a
            self.pred_of.append(pred)
            self.row_of.append(row)
            self.in_ustar.append(0)
            self.support_live.append(0)
            self.pos_occ_lists.append(())
            self.neg_occ_lists.append(())
            self.head_lists.append(())
        return a

    def _set_alive(self, rid: int, flag: int) -> None:
        """Enable (1) or disable (0) instance ``rid``, keeping its head's support."""
        self.alive[rid] = flag
        head = self.csr.heads[rid]
        self.support_live[head] += 1 if flag else -1
        self._touched.add(head)
        if rid < self._first_rule:
            self._first_rule = rid

    def _emit_instance(
        self,
        rule_index: int,
        head_pred: str,
        head_spec,
        body_probes,
        sub: IntRow,
        slots: Sequence[int],
    ) -> None:
        csr = self.csr
        rid = len(csr.heads)
        row = tuple([slots[v] if v >= 0 else ~v for v in head_spec])
        head_id = self._atom_id(head_pred, row)
        pos_seen: list[int] = []
        neg_seen: list[int] = []
        for positive, spec, pred in body_probes:
            row = tuple([slots[v] if v >= 0 else ~v for v in spec])
            atom_id = self._atom_id(pred, row)
            seen = pos_seen if positive else neg_seen
            if atom_id not in seen:
                seen.append(atom_id)
        csr.heads.append(head_id)
        csr.pos.extend(pos_seen)
        csr.pos_off.append(len(csr.pos))
        csr.neg.extend(neg_seen)
        csr.neg_off.append(len(csr.neg))
        csr.rule_index.append(rule_index)
        csr.sub.extend(sub)
        csr.sub_off.append(len(csr.sub))
        self.body_len.append(len(pos_seen) + len(neg_seen))
        self.pos_len.append(len(pos_seen))
        for a in pos_seen:
            self.pos_occ_lists[a] = self.pos_occ_lists[a] + (rid,)
        for a in neg_seen:
            self.neg_occ_lists[a] = self.neg_occ_lists[a] + (rid,)
        self.head_lists[head_id] = self.head_lists[head_id] + (rid,)
        self.support_live[head_id] += 1
        self._touched.add(head_id)
        self.alive.append(1)
        self.ledger[(rule_index, sub)] = rid

    def _instantiate(self, plan: _DeltaRulePlan, slots: list[int]) -> None:
        sub = tuple(slots)
        rid = self.ledger.get((plan.rule_index, sub))
        if rid is not None:
            if not self.alive[rid]:
                # The delta join only emits substitutions whose whole
                # positive body lies in the updated U*, so rediscovery is
                # exactly the re-enable condition.
                self._set_alive(rid, 1)
            return
        self._emit_instance(
            plan.rule_index, plan.head_pred, plan.head_spec, plan.body_probes, sub, slots
        )

    def _ground_delta(self, added: IntFactStore) -> None:
        store = self.sem.store
        uni_ids = self.uni_ids
        for pred, _rows in added.items():
            for plan, jp in self._plans_by_pred.get(pred, ()):
                slots = [0] * plan.n_slots
                unbound = plan.unbound
                if unbound:

                    def emit(slots: list[int], plan=plan, unbound=unbound) -> None:
                        for values in product(uni_ids, repeat=len(unbound)):
                            for s, v in zip(unbound, values):
                                slots[s] = v
                            self._instantiate(plan, slots)

                else:

                    def emit(slots: list[int], plan=plan) -> None:
                        self._instantiate(plan, slots)

                jp.execute(store, slots, emit, added)

    def _recheck_ground_rules(self) -> None:
        store = self.sem.store
        for rule_index, head_pred, head_spec, body_probes, pos_rows in self._ground_rules:
            rid = self.ledger.get((rule_index, ()))
            if rid is not None and self.alive[rid]:
                continue
            if all(store.contains(pred, row) for pred, row in pos_rows):
                if rid is not None:
                    self._set_alive(rid, 1)
                else:
                    self._emit_instance(rule_index, head_pred, head_spec, body_probes, (), ())

    def apply(
        self,
        inserted: Sequence[Atom],
        retracted: Sequence[Atom],
        out: set[int] | None = None,
    ) -> None:
        """Apply one update (retractions first, then insertions); the ids
        it touched are added to ``out`` when one is given."""
        intern = self.pool.intern
        canonical, sorted_keys = self.canonical, self.sorted_keys
        touched = self._touched
        facts: list[tuple[str, IntRow]] = []
        if retracted:
            retract = [(a.predicate, tuple([intern(t) for t in a.args])) for a in retracted]
            facts += retract
            removed = self.sem.retract(retract)
            dead: list[int] = []
            for pred, rows in removed.items():
                ids = self.ids_by_pred.get(pred)
                if not ids:
                    continue
                for row in rows:
                    a = ids.get(row)
                    if a is not None and self.in_ustar[a]:
                        self.in_ustar[a] = 0
                        i = bisect_left(sorted_keys, self._key(a))
                        if i < len(canonical) and canonical[i] == a:
                            canonical.pop(i)
                            sorted_keys.pop(i)
                        touched.add(a)
                        dead.append(a)
            for a in dead:
                for rid in self.pos_occ_lists[a]:
                    if self.alive[rid]:
                        self._set_alive(rid, 0)
        if inserted:
            insert = [(a.predicate, tuple([intern(t) for t in a.args])) for a in inserted]
            facts += insert
            added = self.sem.insert(insert)
            for pred in sorted(added.predicates()):
                for row in sorted(added.rows(pred)):
                    a = self._atom_id(pred, row)
                    if not self.in_ustar[a]:
                        self.in_ustar[a] = 1
                        k = self._key(a)
                        i = bisect_left(sorted_keys, k)
                        sorted_keys.insert(i, k)
                        canonical.insert(i, a)
            if len(added):
                self._ground_delta(added)
                self._recheck_ground_rules()
        for pred, row in facts:
            a = self.ids_by_pred.get(pred, {}).get(row)
            if a is not None:
                touched.add(a)
        if self.table._eager:
            self.table._materialize()  # resync the eager mirror with the appends
        self._publish(out)

    def _publish(self, out: set[int] | None = None) -> None:
        """Patch the touched ids, then publish a :class:`GroundIndex` of copies
        (and hand the touched ids to ``out``)."""
        from repro.ground.model import FALSE, TRUE, UNDEF

        csr = self.csr
        n_atoms = len(self.pred_of)
        n_rules = len(csr.heads)
        old_atoms = len(self.iota_atoms)
        touched = self._touched
        if n_atoms > old_atoms:
            new_atoms = range(old_atoms, n_atoms)
            edb = self.edb
            self.edb_mask.extend([pred in edb for pred in self.pred_of[old_atoms:]])
            self.initial_status.frombytes(bytes(len(new_atoms)))
            self.iota_atoms.extend(new_atoms)
            touched.update(new_atoms)
        if n_rules > len(self.iota_rules):
            self.iota_rules.extend(range(len(self.iota_rules), n_rules))

        # M₀(Δ) and the two sorted worklists, for the touched atoms only.
        base = self.sem.base
        status, edb_mask, support = self.initial_status, self.edb_mask, self.support_live
        for a in touched:
            if base.contains(self.pred_of[a], self.row_of[a]):
                status[a] = TRUE
            else:
                status[a] = FALSE if edb_mask[a] else UNDEF
            _set_member(self.initial_valued, a, status[a] != UNDEF)
            _set_member(self.zero_support, a, support[a] == 0)

        # Live-rule slots from the first instance whose alive flag changed.
        first = self._first_rule
        if first < n_rules:
            live, slot = self.live_rules, self.rule_slot
            p = bisect_left(live, first)
            del live[p:]
            live.extend(compress(range(first, n_rules), self.alive[first:]))
            slot[first:] = array("i", [-1]) * (n_rules - first)
            for i, r in enumerate(live[p:], p):
                slot[r] = i

        prev = self._published
        idx = GroundIndex.__new__(GroundIndex)
        idx.n_atoms = n_atoms
        idx.n_rules = n_rules
        idx.head_of = csr.heads
        idx.pos_off, idx.pos_atoms = csr.pos_off, csr.pos
        idx.neg_off, idx.neg_atoms = csr.neg_off, csr.neg
        if n_atoms == prev.n_atoms and n_rules == prev.n_rules:
            # No atom or instance was added: the structure is unchanged,
            # so the previous index's immutable views serve as they are.
            idx.head_of_t = prev.head_of_t
            idx.body_len, idx.pos_len = prev.body_len, prev.pos_len
            idx.pos_occ_t, idx.neg_occ_t = prev.pos_occ_t, prev.neg_occ_t
            idx.rules_by_head_t = prev.rules_by_head_t
        else:
            idx.head_of_t = prev.head_of_t + tuple(csr.heads[prev.n_rules :])
            idx.body_len = array("i", self.body_len)
            idx.pos_len = array("i", self.pos_len)
            idx.pos_occ_t = tuple(self.pos_occ_lists)
            idx.neg_occ_t = tuple(self.neg_occ_lists)
            idx.rules_by_head_t = tuple(self.head_lists)
        # The flat occurrence CSR stays unset: GroundIndex.__getattr__
        # rebuilds it from the views on first (serialization) touch.
        idx.support = array("i", support)
        idx.initial_status = array("b", status)
        idx.initial_valued = array("i", self.initial_valued)
        idx.edb_mask = bytearray(edb_mask)
        idx.empty_body_rules = self.empty_body_rules
        idx.zero_support_atoms = array("i", self.zero_support)
        idx.iota_atoms = array("i", self.iota_atoms)
        idx.iota_rules = array("i", self.iota_rules)
        idx.initial_rule_alive = bytes(self.alive)
        idx.live_rules_init = array("i", self.live_rules)
        idx.rule_slot_init = array("i", self.rule_slot)
        # atom_order stays unset: GroundIndex.__getattr__ ranks the
        # snapshot on first (tie-path) read.
        idx.canonical_ids = array("i", self.canonical)
        csr.n_atoms = n_atoms
        csr.edb_mask = idx.edb_mask
        csr.initial_status = idx.initial_status
        self.gp._index_cache = idx
        self._published = idx
        if out is not None:
            out.update(touched)
        touched.clear()
        self._first_rule = n_rules


def _set_member(ids: array, a: int, member: bool) -> None:
    """Insert ``a`` into / remove it from the ascending id array ``ids``."""
    i = bisect_left(ids, a)
    found = i < len(ids) and ids[i] == a
    if member and not found:
        ids.insert(i, a)
    elif found and not member:
        del ids[i]


class _ConstantRefs:
    """Per-constant occurrence counts over a ground program's database.

    Answers "did this fact delta change the universe?" in O(|Δ|) instead
    of rescanning the database: the universe moves only when an inserted
    fact brings a constant outside ``gp.universe``, or a retraction drops
    a constant's count to zero and the program does not mention it.
    """

    __slots__ = ("counts", "universe", "program_constants")

    def __init__(self, gp: "GroundProgram") -> None:
        database = gp.database
        self.counts = Counter(
            c for pred in database.predicates() for row in database[pred] for c in row
        )
        self.universe = frozenset(gp.universe)
        self.program_constants = gp.program.constants

    def _shift(self, inserted: Sequence[Atom], retracted: Sequence[Atom], sign: int) -> None:
        counts = self.counts
        for atom_ in inserted:
            for c in atom_.args:
                counts[c] += sign
        for atom_ in retracted:
            for c in atom_.args:
                counts[c] -= sign

    def keeps_universe(self, inserted: Sequence[Atom], retracted: Sequence[Atom]) -> bool:
        """Count the delta in; on a universe change, count it back out and say so."""
        self._shift(inserted, retracted, 1)
        counts = self.counts
        gained = any(c not in self.universe for atom_ in inserted for c in atom_.args)
        lost = any(
            counts[c] == 0 and c not in self.program_constants
            for atom_ in retracted
            for c in atom_.args
        )
        if not (gained or lost):
            return True
        self._shift(inserted, retracted, -1)
        return False


def _universe_unchanged(
    gp: "GroundProgram", inserted: Sequence[Atom], retracted: Sequence[Atom]
) -> bool:
    """Whether a delta already applied to ``gp.database`` kept ``gp.universe``.

    The first call scans the database once to build the counts; later
    calls cost O(|Δ|).  A False answer leaves the counts as they were.
    """
    refs: _ConstantRefs | None = getattr(gp, "_constant_refs", None)
    if refs is None:
        if universe_of(gp.program, gp.database) != gp.universe:
            return False
        gp._constant_refs = _ConstantRefs(gp)
        return True
    return refs.keeps_universe(inserted, retracted)


def _apply_full_delta(
    gp: "GroundProgram",
    inserted: Sequence[Atom],
    retracted: Sequence[Atom],
    out: set[int] | None,
) -> bool:
    """Full-mode fast path: the dense atom/instance space is already
    total over the universe, so a fact delta is a pure M₀ flip."""
    from repro.ground.model import FALSE, TRUE, UNDEF

    idx = gp.index
    table = gp.atoms
    status = array("b", idx.initial_status)
    touched: list[int] = []
    # Retractions first, then insertions — the same convention as the
    # relevant-mode session, so a retract+insert of one fact nets present.
    for atom_ in retracted:
        i = table.get(atom_)
        if i is None:
            return False
        status[i] = FALSE if idx.edb_mask[i] else UNDEF
        touched.append(i)
    for atom_ in inserted:
        i = table.get(atom_)
        if i is None:
            return False
        status[i] = TRUE
        touched.append(i)
    if not _universe_unchanged(gp, inserted, retracted):
        return False
    valued = array("i", idx.initial_valued)
    for i in touched:
        _set_member(valued, i, status[i] != UNDEF)
    new = GroundIndex.__new__(GroundIndex)
    for name in GroundIndex.__slots__:
        try:
            setattr(new, name, object.__getattribute__(idx, name))
        except AttributeError:
            pass  # lazily rebuilt flat occurrence arrays stay lazy
    new.initial_status = status
    new.initial_valued = valued
    gp._index_cache = new
    csr = getattr(gp, "_csr", None)
    if csr is not None:
        csr.initial_status = status
    if out is not None:
        out.update(touched)
    return True


def apply_facts_delta(
    gp: "GroundProgram",
    inserted: Sequence[Atom] = (),
    retracted: Sequence[Atom] = (),
    *,
    touched: set[int] | None = None,
) -> bool:
    """Apply EDB fact deltas to a live ground program, in place.

    The caller must already have applied the same change to
    ``gp.database`` (the ground program aliases the live database
    object), and every inserted fact must have been absent from it and
    every retracted one present.  Returns True when the ground program
    was updated incrementally; False when the change falls outside the
    incremental envelope — mode ``edb``, a universe that gained or lost a
    constant, negative extensional literals (whose Δ-prune would need
    instance resurrection), or a hand-grown atom table — in which case
    the ground program is left as it was and the caller should re-ground
    from scratch.

    On success the atom ids the update touched are added to ``touched``
    when one is given: atoms whose M₀, support or U\\* membership changed,
    new atoms, and the heads of added, enabled or disabled instances —
    the seeds of :meth:`~repro.ground.state.GroundGraphState.reopen`.
    """
    inserted = list(inserted)
    retracted = list(retracted)
    if not inserted and not retracted:
        return True
    if gp.mode == "full":
        return _apply_full_delta(gp, inserted, retracted, touched)
    if gp.mode != "relevant":
        return False
    session: GroundDeltaSession | None = getattr(gp, "_delta_session", None)
    if session is None:
        if getattr(gp, "_delta_ctx", None) is None:
            return False
        edb = gp.program.edb_predicates
        if any(
            not lit.positive and lit.predicate in edb
            for r in gp.program.rules
            for lit in r.body
        ):
            return False
        table = gp.atoms
        if not isinstance(table, _InternedAtomTable):
            return False
        if table._eager and len(table._atoms) != len(table._pred_of):
            return False
    if not _universe_unchanged(gp, inserted, retracted):
        return False
    if session is None:
        session = GroundDeltaSession(gp)
        gp._delta_session = session
    session.apply(inserted, retracted, touched)
    return True
