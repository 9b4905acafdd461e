"""Pattern matching and substitution enumeration for rule bodies.

These are the join primitives of the evaluation engine: given a partial
binding of variables to constants, :func:`match_literal` extends it against
one stored relation, and :func:`enumerate_bindings` chains matches across a
conjunction of positive literals (an indexed nested-loop join).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.datalog.atoms import Atom, Literal
from repro.datalog.terms import Constant, Variable
from repro.engine.facts import FactStore

__all__ = ["match_atom_row", "match_literal", "enumerate_bindings", "order_body_for_join"]

Binding = dict[Variable, Constant]


def match_atom_row(atom: Atom, row: Sequence[Constant], binding: Binding) -> Binding | None:
    """Try to match ``atom``'s argument pattern against a stored ``row``.

    Returns an *extended copy* of ``binding`` on success (repeated variables
    must match equal constants), or ``None`` on mismatch.
    """
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


def match_literal(literal: Literal, store: FactStore, binding: Binding) -> Iterator[Binding]:
    """Yield all extensions of ``binding`` matching a *positive* literal.

    The already-bound positions of the literal are pushed into the store's
    index so only agreeing rows are scanned.
    """
    atom = literal.atom
    bound_positions: dict[int, Constant] = {}
    for position, term in enumerate(atom.args):
        if isinstance(term, Constant):
            bound_positions[position] = term
        elif term in binding:
            bound_positions[position] = binding[term]
    for row in store.rows_matching(atom.predicate, bound_positions):
        extended = match_atom_row(atom, row, binding)
        if extended is not None:
            yield extended


def enumerate_bindings(
    literals: Sequence[Literal],
    store: FactStore,
    initial: Binding | None = None,
) -> Iterator[Binding]:
    """All bindings satisfying the conjunction of positive ``literals``.

    A depth-first indexed nested-loop join.  Literals must all be positive;
    negative literals are the caller's concern (they are either checked
    against a complete model or enumerated over the universe, depending on
    the use site).
    """
    if any(not lit.positive for lit in literals):
        raise ValueError("enumerate_bindings handles positive literals only")

    def recurse(depth: int, binding: Binding) -> Iterator[Binding]:
        if depth == len(literals):
            yield binding
            return
        for extended in match_literal(literals[depth], store, binding):
            yield from recurse(depth + 1, extended)

    yield from recurse(0, dict(initial or {}))


def order_body_for_join(
    literals: Sequence[Literal], bound: Iterable[Variable] = ()
) -> list[Literal]:
    """Greedy join order: prefer literals sharing variables with earlier ones.

    Starts from the literal with the most constant arguments, then repeatedly
    picks the literal with the largest number of already-bound variables
    (ties: fewer unbound variables first).  A cheap heuristic that turns the
    paper's ``[X = i]`` chains (zero/succ/succ/...) into linear probes.
    ``bound`` names variables a preceding probe already binds (such as a
    plan led by the rule's head), so literals sharing them go first.
    """
    remaining = list(literals)
    if len(remaining) <= 1:
        return remaining
    ordered: list[Literal] = []
    known: set[Variable] = set(bound)

    def constant_count(lit: Literal) -> int:
        return sum(1 for t in lit.atom.args if isinstance(t, Constant))

    def score(lit: Literal) -> tuple[int, int]:
        variables = set(lit.variables())
        return (len(variables & known) + constant_count(lit), -len(variables - known))

    remaining.sort(key=constant_count, reverse=True)
    while remaining:
        best = max(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        known.update(best.variables())
    return ordered
