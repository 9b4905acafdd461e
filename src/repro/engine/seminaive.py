"""Semi-naive least-fixpoint evaluation of positive Datalog programs.

Two uses in the reproduction:

* the **upper-bound model** U\\* — the least model of the *positivized*
  program (negative literals dropped), which bounds every atom the
  well-founded / well-founded-tie-breaking semantics can make true and
  drives the relevant grounder;
* the **GL-reduct least model** — the independent stable-model checker
  evaluates the (positive) reduct with this same engine.

The evaluation core runs over the compiled machinery of
:mod:`repro.engine.plan`: constants are interned once into a
:class:`~repro.engine.plan.ConstantPool`, relations live in an
:class:`~repro.engine.plan.IntFactStore`, and every rule is compiled
once into :class:`~repro.engine.plan.JoinPlan` schedules — one full-join
plan plus one delta-promoted plan per body literal.  Delta rounds are
*indexed*: plans are bucketed by their promoted literal's predicate, so
a round only re-joins rules that can actually see the delta (the old
loop re-scanned every plan of every rule each round).

Head variables not bound by the positive body (the paper's programs are
not required to be range-restricted — see program (2) in §1) are
enumerated over the universe.  Over an empty universe such rules have no
instances at all (there are no ground atoms of positive arity).

:func:`least_model_interned` exposes the int-level result for callers
that keep working with interned ids (the relevant grounder);
:func:`least_model` / :func:`upper_bound_model` decode to the legacy
:class:`~repro.engine.facts.FactStore` surface.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from repro.datalog.atoms import Literal
from repro.datalog.database import Database
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant
from repro.engine.facts import FactStore
from repro.engine.matching import order_body_for_join
from repro.engine.plan import (
    ConstantPool,
    IntFactStore,
    JoinPlan,
    build_row,
    compile_row_spec,
)
from repro.errors import GroundingError

__all__ = [
    "least_model",
    "least_model_interned",
    "upper_bound_model",
    "SemiNaiveSession",
]


class _RulePlan:
    """One rule compiled for semi-naive evaluation (see module docstring)."""

    __slots__ = (
        "head_predicate",
        "head_spec",
        "head_row",
        "ground_body",
        "unbound_head_slots",
        "n_slots",
        "full_plan",
        "delta_plans",
    )

    def __init__(self, rule: Rule, pool: ConstantPool, idb: frozenset[str]) -> None:
        variables = rule.variables()
        self.n_slots = len(variables)
        self.head_predicate = rule.head.predicate

        body = list(rule.body)
        if not variables:
            # Fully ground rule (e.g. any propositional program): firing is
            # pure membership — no join machinery compiled at all.  The
            # "plan" of a delta promotion is just the promoted body index.
            intern = pool.intern
            self.head_spec = None
            self.ground_body = [
                (lit.predicate, tuple([intern(t) for t in lit.atom.args])) for lit in body
            ]
            self.head_row = tuple([intern(t) for t in rule.head.args])
            self.full_plan = -1
            self.delta_plans = [
                (lit.predicate, j) for j, lit in enumerate(body) if lit.predicate in idb
            ]
            self.unbound_head_slots = ()
            return
        slot_of = {v: i for i, v in enumerate(variables)}
        self.head_spec = compile_row_spec(rule.head, slot_of, pool)
        self.ground_body = None
        self.head_row = None
        self.full_plan = JoinPlan.compile(order_body_for_join(body), slot_of, pool)
        # One plan per body position promoted to the delta probe — but only
        # for derivable (IDB) predicates: deltas never contain EDB rows.
        self.delta_plans = []
        for i, lit in enumerate(body):
            if lit.predicate not in idb:
                continue
            if len(body) == 1:
                self.delta_plans.append((lit.predicate, self.full_plan))
                continue
            ordered = [lit] + order_body_for_join(body[:i] + body[i + 1 :])
            self.delta_plans.append((lit.predicate, JoinPlan.compile(ordered, slot_of, pool)))

        bound = self.full_plan.bound_slots
        self.unbound_head_slots = tuple(
            slot_of[v]
            for v in dict.fromkeys(rule.head.variables())
            if slot_of[v] not in bound
        )

    def fire(
        self,
        join_plan: "JoinPlan | int",
        store: IntFactStore,
        sink: IntFactStore,
        universe_ids: Sequence[int],
        delta: IntFactStore | None = None,
    ) -> None:
        """Join the body; add head rows not already in ``store`` to ``sink``."""
        head_pred = self.head_predicate
        ground_body = self.ground_body
        if ground_body is not None:
            delta_index = join_plan if type(join_plan) is int else -1
            for j, (pred, row) in enumerate(ground_body):
                source = delta if j == delta_index else store
                if row not in source.rows(pred):
                    return
            head_row = self.head_row
            if head_row not in store.rows(head_pred):
                sink.add(head_pred, head_row)
            return
        head_spec = self.head_spec
        existing = store.rows(head_pred)
        unbound = self.unbound_head_slots
        slots = [0] * self.n_slots

        if not unbound:

            def emit(slots: list[int]) -> None:
                row = build_row(head_spec, slots)
                if row not in existing:
                    sink.add(head_pred, row)

        else:

            def emit(slots: list[int]) -> None:
                for values in product(universe_ids, repeat=len(unbound)):
                    for s, v in zip(unbound, values):
                        slots[s] = v
                    row = build_row(head_spec, slots)
                    if row not in existing:
                        sink.add(head_pred, row)

        join_plan.execute(store, slots, emit, delta)

    def overdelete(
        self,
        join_plan: "JoinPlan | int",
        store: IntFactStore,
        sink: IntFactStore,
        universe_ids: Sequence[int],
        delta: IntFactStore,
    ) -> None:
        """DRed marking fire: join with one literal promoted to the doomed
        delta; add head rows *present in* ``store`` to ``sink``.

        The mirror image of :meth:`fire`: overdeletion wants exactly the
        heads that *are* derived, because any derivation touching a doomed
        row makes its head a deletion candidate.  ``store`` must still
        contain the doomed rows (deletion is deferred until marking ends).
        """
        head_pred = self.head_predicate
        ground_body = self.ground_body
        if ground_body is not None:
            delta_index = join_plan if type(join_plan) is int else -1
            for j, (pred, row) in enumerate(ground_body):
                source = delta if j == delta_index else store
                if row not in source.rows(pred):
                    return
            if self.head_row in store.rows(head_pred):
                sink.add(head_pred, self.head_row)
            return
        head_spec = self.head_spec
        existing = store.rows(head_pred)
        unbound = self.unbound_head_slots
        slots = [0] * self.n_slots

        if not unbound:

            def emit(slots: list[int]) -> None:
                row = build_row(head_spec, slots)
                if row in existing:
                    sink.add(head_pred, row)

        else:

            def emit(slots: list[int]) -> None:
                for values in product(universe_ids, repeat=len(unbound)):
                    for s, v in zip(unbound, values):
                        slots[s] = v
                    row = build_row(head_spec, slots)
                    if row in existing:
                        sink.add(head_pred, row)

        join_plan.execute(store, slots, emit, delta)


def least_model_interned(
    rules: Sequence[Rule],
    database: Database,
    *,
    universe: Sequence[Constant] = (),
    pool: ConstantPool,
    database_rows: IntFactStore | None = None,
) -> IntFactStore:
    """Least model of positive ``rules``, at the interned-id level.

    ``rules`` must already be positive (callers positivize).  The result
    shares ``pool``: decode rows with :meth:`ConstantPool.constant`.
    ``database_rows`` may supply ``database`` already interned under
    ``pool`` (the relevant grounder interns Δ once for both U\\* and the
    negative-EDB prune); rows are copied, never aliased.
    """
    universe_ids = [pool.intern(c) for c in universe]
    idb = frozenset(r.head.predicate for r in rules)
    plans = [_RulePlan(r, pool, idb) for r in rules]
    plans_by_pred: dict[str, list[tuple[_RulePlan, JoinPlan]]] = {}
    for plan in plans:
        for pred, delta_plan in plan.delta_plans:
            plans_by_pred.setdefault(pred, []).append((plan, delta_plan))

    store = IntFactStore()
    if database_rows is not None:
        for pred, rows in database_rows.items():
            for row in rows:
                store.add(pred, row)
    else:
        for pred in database.predicates():
            for const_row in database[pred]:
                store.add(pred, tuple([pool.intern(c) for c in const_row]))

    # Round 0: full join of every rule; then delta-indexed rounds.
    new = IntFactStore()
    for plan in plans:
        plan.fire(plan.full_plan, store, new, universe_ids)
    while len(new):
        for pred, rows in new.items():
            for row in rows:
                store.add(pred, row)
        delta = new
        new = IntFactStore()
        for pred, _rows in delta.items():
            for plan, delta_plan in plans_by_pred.get(pred, ()):
                plan.fire(delta_plan, store, new, universe_ids, delta)
    return store


class _Found(Exception):
    """Internal: short-circuits a rederivation probe on the first match."""


def _raise_found(_slots: list[int]) -> None:
    raise _Found


class SemiNaiveSession:
    """A retained least-model evaluation supporting streaming fact deltas.

    Wraps the same compiled machinery as :func:`least_model_interned`, but
    keeps the fixpoint ``store`` and the base facts alive so single-fact
    changes cost a delta round instead of a re-evaluation:

    * :meth:`insert` seeds the new base rows and runs delta-promoted
      rounds forward (ordinary semi-naive advance);
    * :meth:`retract` runs **DRed** (delete–rederive): overdelete-mark
      everything whose derivation touches a doomed row, bulk-delete the
      marked set, reseed what the base or a surviving derivation still
      justifies, and propagate the reseeds forward.

    Unlike the one-shot evaluation, *every* body predicate gets a
    delta-promoted plan (deltas arrive on extensional predicates too).
    ``rules`` must already be positive; the universe is fixed for the
    session's lifetime (the caller guarantees no constant enters or
    leaves — the streaming engine falls back to a full re-ground
    otherwise).
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        database: Database,
        *,
        universe: Sequence[Constant] = (),
        pool: ConstantPool,
        database_rows: IntFactStore | None = None,
        store: IntFactStore | None = None,
    ) -> None:
        self.pool = pool
        self.universe_ids = [pool.intern(c) for c in universe]
        self.rules = list(rules)
        promoted = frozenset(lit.predicate for r in self.rules for lit in r.body)
        self.plans = [_RulePlan(r, pool, promoted) for r in self.rules]
        self.plans_by_pred: dict[str, list[tuple[_RulePlan, JoinPlan | int]]] = {}
        for plan in self.plans:
            for pred, delta_plan in plan.delta_plans:
                self.plans_by_pred.setdefault(pred, []).append((plan, delta_plan))
        self._rederive_plans: dict[str, list[tuple[JoinPlan, int]]] = {}

        self.base = IntFactStore()
        if database_rows is not None:
            for pred, rows in database_rows.items():
                for row in rows:
                    self.base.add(pred, row)
        else:
            for pred in database.predicates():
                for const_row in database[pred]:
                    self.base.add(pred, tuple([pool.intern(c) for c in const_row]))

        if store is not None:
            # Adopt a fixpoint computed by least_model_interned over the
            # same rules/base (the relevant grounder hands over U*).
            self.store = store
        else:
            self.store = IntFactStore()
            for pred, rows in self.base.items():
                for row in rows:
                    self.store.add(pred, row)
            new = IntFactStore()
            for plan in self.plans:
                plan.fire(plan.full_plan, self.store, new, self.universe_ids)
            self._advance(new, None)

    def _advance(self, new: IntFactStore, added: IntFactStore | None) -> None:
        """Delta rounds from frontier ``new`` (rows not yet in the store)."""
        while len(new):
            for pred, rows in new.items():
                for row in rows:
                    if self.store.add(pred, row) and added is not None:
                        added.add(pred, row)
            delta = new
            new = IntFactStore()
            for pred, _rows in delta.items():
                for plan, delta_plan in self.plans_by_pred.get(pred, ()):
                    plan.fire(delta_plan, self.store, new, self.universe_ids, delta)

    def insert(self, facts: Iterable[tuple[str, tuple[int, ...]]]) -> IntFactStore:
        """Add base facts; returns every row that became true."""
        seed = IntFactStore()
        for pred, row in facts:
            self.base.add(pred, row)
            if not self.store.contains(pred, row):
                seed.add(pred, row)
        added = IntFactStore()
        self._advance(seed, added)
        return added

    def retract(self, facts: Iterable[tuple[str, tuple[int, ...]]]) -> IntFactStore:
        """Remove base facts (DRed); returns every row that became false."""
        seeds = IntFactStore()
        for pred, row in facts:
            self.base.discard(pred, row)
            if self.store.contains(pred, row):
                seeds.add(pred, row)
        if not len(seeds):
            return IntFactStore()
        # Phase 1: overdelete-mark.  The store keeps the doomed rows so
        # non-promoted literals still see them while marking spreads.
        marked = IntFactStore()
        for pred, rows in seeds.items():
            for row in rows:
                marked.add(pred, row)
        frontier = seeds
        while len(frontier):
            candidates = IntFactStore()
            for pred, _rows in frontier.items():
                for plan, delta_plan in self.plans_by_pred.get(pred, ()):
                    plan.overdelete(
                        delta_plan, self.store, candidates, self.universe_ids, frontier
                    )
            frontier = IntFactStore()
            for pred, rows in candidates.items():
                for row in rows:
                    if marked.add(pred, row):
                        frontier.add(pred, row)
        # Phase 2: bulk delete.
        for pred, rows in marked.items():
            for row in rows:
                self.store.discard(pred, row)
        # Phase 3: rederive — base facts first, then rows with a surviving
        # derivation, then semi-naive propagation from everything reseeded.
        reseed = IntFactStore()
        for pred, rows in marked.items():
            for row in rows:
                if self.base.contains(pred, row):
                    self.store.add(pred, row)
                    reseed.add(pred, row)
        for pred, rows in marked.items():
            for row in sorted(rows):
                if not self.store.contains(pred, row) and self._derivable(pred, row):
                    self.store.add(pred, row)
                    reseed.add(pred, row)
        new = IntFactStore()
        for pred, _rows in reseed.items():
            for plan, delta_plan in self.plans_by_pred.get(pred, ()):
                plan.fire(delta_plan, self.store, new, self.universe_ids, reseed)
        self._advance(new, None)
        removed = IntFactStore()
        for pred, rows in marked.items():
            for row in rows:
                if not self.store.contains(pred, row):
                    removed.add(pred, row)
        return removed

    def _rederive_plans_for(self, pred: str) -> list[tuple[JoinPlan, int]]:
        """Head-probed plans of every rule deriving ``pred`` (lazy).

        The head literal leads, so the single-row delta probe binds the
        head's variables and the remaining (join-ordered) body literals
        check for a surviving derivation against the post-deletion store.
        """
        plans = self._rederive_plans.get(pred)
        if plans is None:
            plans = []
            for rule in self.rules:
                if rule.head.predicate != pred:
                    continue
                variables = rule.variables()
                slot_of = {v: i for i, v in enumerate(variables)}
                literals = [Literal(rule.head, True)] + order_body_for_join(
                    list(rule.body), rule.head.variables()
                )
                plans.append((JoinPlan.compile(literals, slot_of, self.pool), len(variables)))
            self._rederive_plans[pred] = plans
        return plans

    def _derivable(self, pred: str, row: tuple[int, ...]) -> bool:
        probe = IntFactStore()
        probe.add(pred, row)
        for plan, n_slots in self._rederive_plans_for(pred):
            try:
                plan.execute(self.store, [0] * n_slots, _raise_found, probe)
            except _Found:
                return True
        return False


def _positive_rules(program: Program | Iterable[Rule], positivize: bool) -> list[Rule]:
    rules = list(program.rules if isinstance(program, Program) else program)
    if positivize:
        return [Rule(r.head, r.positive_body()) for r in rules]
    if any(not lit.positive for r in rules for lit in r.body):
        raise GroundingError("least_model requires a positive program (or positivize=True)")
    return rules


def least_model(
    program: Program | Iterable[Rule],
    database: Database,
    *,
    universe: Sequence[Constant] = (),
    positivize: bool = False,
) -> FactStore:
    """Least model of a positive program over ``database``.

    With ``positivize=True`` negative body literals are dropped first (the
    U\\* construction); otherwise the program must be positive.  The
    compiled interned evaluation runs underneath; the result is decoded
    into the legacy :class:`FactStore` surface.
    """
    rules = _positive_rules(program, positivize)
    pool = ConstantPool()
    interned = least_model_interned(rules, database, universe=universe, pool=pool)
    constant = pool.constant
    store = FactStore()
    for pred, rows in interned.items():
        for row in rows:
            store.add(pred, tuple([constant(v) for v in row]))
    return store


def upper_bound_model(
    program: Program,
    database: Database,
    *,
    universe: Sequence[Constant] = (),
) -> FactStore:
    """U\\*: the least model of the positivized program (§ DESIGN).

    Every atom true under the well-founded or well-founded tie-breaking
    semantics — and every atom of any *stable* model — lies in U\\*;
    atoms outside it form an unfounded set.
    """
    return least_model(program, database, universe=universe, positivize=True)
