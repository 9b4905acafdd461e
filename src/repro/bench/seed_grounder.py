"""The pre-compilation grounding front-end, preserved verbatim as an oracle.

This is the original parse→ground pipeline from before the compiled
join-plan grounder landed: :class:`~repro.datalog.atoms.Atom`-object
joins over a ``{predicate: set[tuple[Constant, ...]]}`` fact store,
per-binding ``dict`` copies, a semi-naive loop that re-scans every rule
plan each round, and grounders that materialize an ``Atom`` per body
literal before the kernel compile.

It is kept as a test oracle (mirroring :mod:`repro.bench.seed_kernel`):
the property suite (``tests/properties/test_grounder_properties.py``)
compares its output — ground atoms, ground rule instances, and the
upper-bound model U\\* — against the compiled grounder as a differential
oracle, and replays kernel trajectories across the two groundings through
an atom bijection.

Do not "improve" this module; its value is being frozen.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from repro.datalog.atoms import Atom, Literal
from repro.datalog.database import Database
from repro.datalog.grounding import (
    AtomTable,
    GroundingMode,
    GroundProgram,
    GroundRule,
    universe_of,
)
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.errors import GroundingError

__all__ = ["SeedFactStore", "seed_ground", "seed_upper_bound_model"]

Row = tuple[Constant, ...]
Binding = dict[Variable, Constant]


class SeedFactStore:
    """The seed-era fact store: Constant-tuple rows with lazy hash indexes."""

    def __init__(self) -> None:
        self._rows: dict[str, set[Row]] = defaultdict(set)
        self._indexes: dict[tuple[str, tuple[int, ...]], dict[tuple, list[Row]]] = {}

    @classmethod
    def from_database(cls, database: Database) -> "SeedFactStore":
        store = cls()
        for pred in database.predicates():
            for row in database[pred]:
                store.add(pred, row)
        return store

    def add(self, predicate: str, row: Row) -> bool:
        rows = self._rows[predicate]
        if row in rows:
            return False
        rows.add(row)
        for (pred, positions), index in self._indexes.items():
            if pred == predicate:
                key = tuple(row[i] for i in positions)
                index.setdefault(key, []).append(row)
        return True

    def contains(self, predicate: str, row: Row) -> bool:
        return row in self._rows.get(predicate, ())

    def rows(self, predicate: str) -> frozenset[Row]:
        return frozenset(self._rows.get(predicate, ()))

    def count(self, predicate: str) -> int:
        return len(self._rows.get(predicate, ()))

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    def atoms(self) -> Iterator[Atom]:
        for pred, rows in self._rows.items():
            for row in rows:
                yield Atom(pred, row)

    def rows_matching(self, predicate: str, bound: Mapping[int, Constant]) -> Iterable[Row]:
        if not bound:
            return self._rows.get(predicate, ())
        positions = tuple(sorted(bound))
        index_key = (predicate, positions)
        index = self._indexes.get(index_key)
        if index is None:
            index = {}
            for row in self._rows.get(predicate, ()):
                key = tuple(row[i] for i in positions)
                index.setdefault(key, []).append(row)
            self._indexes[index_key] = index
        return index.get(tuple(bound[i] for i in positions), ())


def _match_atom_row(atom: Atom, row: Sequence[Constant], binding: Binding) -> Binding | None:
    new: Binding | None = None
    for term, value in zip(atom.args, row):
        if isinstance(term, Constant):
            if term != value:
                return None
            continue
        bound = (new or binding).get(term)
        if bound is None:
            if new is None:
                new = dict(binding)
            new[term] = value
        elif bound != value:
            return None
    return new if new is not None else dict(binding)


def _match_literal(literal: Literal, store: SeedFactStore, binding: Binding) -> Iterator[Binding]:
    atom = literal.atom
    bound_positions: dict[int, Constant] = {}
    for position, term in enumerate(atom.args):
        if isinstance(term, Constant):
            bound_positions[position] = term
        elif term in binding:
            bound_positions[position] = binding[term]
    for row in store.rows_matching(atom.predicate, bound_positions):
        extended = _match_atom_row(atom, row, binding)
        if extended is not None:
            yield extended


def _enumerate_bindings(
    literals: Sequence[Literal],
    store: SeedFactStore,
    initial: Binding | None = None,
) -> Iterator[Binding]:
    def recurse(depth: int, binding: Binding) -> Iterator[Binding]:
        if depth == len(literals):
            yield binding
            return
        for extended in _match_literal(literals[depth], store, binding):
            yield from recurse(depth + 1, extended)

    yield from recurse(0, dict(initial or {}))


def _order_body_for_join(literals: Sequence[Literal]) -> list[Literal]:
    remaining = list(literals)
    if not remaining:
        return []
    ordered: list[Literal] = []
    bound: set[Variable] = set()

    def constant_count(lit: Literal) -> int:
        return sum(1 for t in lit.atom.args if isinstance(t, Constant))

    def score(lit: Literal) -> tuple[int, int]:
        variables = set(lit.variables())
        return (len(variables & bound) + constant_count(lit), -len(variables - bound))

    remaining.sort(key=constant_count, reverse=True)
    while remaining:
        best = max(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound.update(best.variables())
    return ordered


def _head_rows(rule: Rule, binding: Binding, universe: Sequence[Constant]):
    unbound = [v for v in dict.fromkeys(rule.head.variables()) if v not in binding]
    if not unbound:
        yield tuple(binding[t] if isinstance(t, Variable) else t for t in rule.head.args)
        return
    for values in product(universe, repeat=len(unbound)):
        extended = dict(binding)
        extended.update(zip(unbound, values))
        yield tuple(extended[t] if isinstance(t, Variable) else t for t in rule.head.args)


def _seed_least_model(
    program: Program | Iterable[Rule],
    database: Database,
    *,
    universe: Sequence[Constant] = (),
    positivize: bool = False,
) -> SeedFactStore:
    rules = list(program.rules if isinstance(program, Program) else program)
    if positivize:
        rules = [Rule(r.head, r.positive_body()) for r in rules]
    elif any(not lit.positive for r in rules for lit in r.body):
        raise GroundingError("least_model requires a positive program (or positivize=True)")

    store = SeedFactStore.from_database(database)

    plans: list[tuple[Rule, list[list[Literal]]]] = []
    for r in rules:
        body = list(r.body)
        orders: list[list[Literal]] = []
        for i in range(len(body)):
            rest = body[:i] + body[i + 1 :]
            orders.append([body[i]] + _order_body_for_join(rest))
        plans.append((r, orders))

    def fire(rule: Rule, ordered: list[Literal], delta_store, sink: SeedFactStore) -> None:
        if not ordered:
            bindings: Iterable[Binding] = [dict()]
        elif delta_store is None:
            bindings = _enumerate_bindings(ordered, store)
        else:

            def chain() -> Iterable[Binding]:
                for first in _match_literal(ordered[0], delta_store, {}):
                    yield from _enumerate_bindings(ordered[1:], store, first)

            bindings = chain()
        for binding in bindings:
            for row in _head_rows(rule, binding, universe):
                if not store.contains(rule.head.predicate, row):
                    sink.add(rule.head.predicate, row)

    new = SeedFactStore()
    for r, _orders in plans:
        fire(r, _order_body_for_join(list(r.body)), None, new)
    while len(new):
        for atom_ in new.atoms():
            store.add(atom_.predicate, tuple(atom_.args))  # type: ignore[arg-type]
        delta = new
        new = SeedFactStore()
        for r, orders in plans:
            for ordered in orders:
                if delta.count(ordered[0].predicate) == 0:
                    continue
                fire(r, ordered, delta, new)
    return store


def seed_upper_bound_model(
    program: Program,
    database: Database,
    *,
    universe: Sequence[Constant] = (),
) -> SeedFactStore:
    """U\\* as the seed pipeline computed it (positivize, then least model)."""
    return _seed_least_model(program, database, universe=universe, positivize=True)


def _literal_atom_id(
    table: AtomTable, literal: Literal, binding: Mapping[Variable, Constant]
) -> int:
    return table.id_of(literal.atom.substitute(binding))


def _make_instance(
    table: AtomTable,
    rule: Rule,
    rule_index: int,
    variables: Sequence[Variable],
    binding: Mapping[Variable, Constant],
) -> GroundRule:
    head_id = table.id_of(rule.head.substitute(binding))
    pos: dict[int, None] = {}
    neg: dict[int, None] = {}
    for lit in rule.body:
        target = pos if lit.positive else neg
        target.setdefault(_literal_atom_id(table, lit, binding))
    return GroundRule(
        head=head_id,
        pos=tuple(pos),
        neg=tuple(neg),
        rule_index=rule_index,
        substitution=tuple(binding[v] for v in variables),
    )


def _ground_full(
    program: Program,
    database: Database,
    universe: tuple[Constant, ...],
    max_instances: int,
) -> GroundProgram:
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

    table = AtomTable()
    for pred in sorted(program.predicates | database.predicates()):
        arity = program.arities.get(pred)
        if arity is None:
            rows = database[pred]
            arity = len(next(iter(rows))) if rows else 0
        for args in product(universe, repeat=arity):
            table.id_of(Atom(pred, args))

    gp = GroundProgram(program, database, universe, "full", table)
    rules: list[GroundRule] = gp.rules  # type: ignore[assignment]
    for rule_index, r in enumerate(program.rules):
        variables = r.variables()
        if not variables:
            rules.append(_make_instance(table, r, rule_index, variables, {}))
            continue
        for values in product(universe, repeat=len(variables)):
            binding = dict(zip(variables, values))
            rules.append(_make_instance(table, r, rule_index, variables, binding))
    return gp


def _ground_joined(
    program: Program,
    database: Database,
    universe: tuple[Constant, ...],
    max_instances: int,
    prune_false_negative_edb: bool,
    mode: GroundingMode,
) -> GroundProgram:
    edb = program.edb_predicates
    if mode == "relevant":
        join_store = seed_upper_bound_model(program, database, universe=universe)
    else:
        join_store = SeedFactStore.from_database(database)
    table = AtomTable()
    for atom_ in sorted(join_store.atoms(), key=str):
        table.id_of(atom_)

    gp = GroundProgram(program, database, universe, mode, table)
    rules: list[GroundRule] = gp.rules  # type: ignore[assignment]

    for rule_index, r in enumerate(program.rules):
        variables = r.variables()
        joinable = [lit for lit in r.positive_body() if mode == "relevant" or lit.predicate in edb]
        positive = _order_body_for_join(joinable)
        for partial in _enumerate_bindings(positive, join_store):
            unbound = [v for v in variables if v not in partial]
            for values in product(universe, repeat=len(unbound)):
                binding = dict(partial)
                binding.update(zip(unbound, values))
                if prune_false_negative_edb and any(
                    not lit.positive
                    and lit.predicate in edb
                    and database.contains_atom(lit.atom.substitute(binding))
                    for lit in r.body
                ):
                    continue
                rules.append(_make_instance(table, r, rule_index, variables, binding))
                if len(rules) > max_instances:
                    raise GroundingError(f"{mode} grounding exceeded {max_instances} instances")
    return gp


def seed_ground(
    program: Program,
    database: Database,
    *,
    mode: GroundingMode = "full",
    extra_constants: Iterable[Constant] = (),
    max_instances: int = 2_000_000,
    prune_false_negative_edb: bool = True,
) -> GroundProgram:
    """Ground ``program`` exactly as the pre-join-plan pipeline did.

    Behaviourally equivalent to the production
    :func:`repro.datalog.grounding.ground` (same atoms, same rule
    instances, same U\\*-restriction in ``relevant`` mode) up to the
    order in which atoms receive their dense ids.
    """
    universe = universe_of(program, database, extra_constants)
    if mode == "full":
        return _ground_full(program, database, universe, max_instances)
    if mode in ("relevant", "edb"):
        return _ground_joined(
            program, database, universe, max_instances, prune_false_negative_edb, mode
        )
    raise ValueError(f"unknown grounding mode {mode!r}")
