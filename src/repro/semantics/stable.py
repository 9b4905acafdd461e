"""Stable (default) models — §2 of the paper [BF1, GL].

Two independent checkers, cross-validated in the test suite:

* ``method="close"`` — the paper's graph formulation: let M⁻ undefine the
  true IDB atoms outside Δ; M is stable iff ``close(M⁻, G)`` reconstructs
  M (every undefined atom comes back true, nothing conflicts).
* ``method="reduct"`` — the Gelfond-Lifschitz original: delete rules whose
  negative body is violated by M, drop remaining negative literals, and
  compare the least model of that positive *reduct* (plus Δ) with M.
  Implemented with joins against finite fact sets, so it needs no ground
  graph at all and is exact for any candidate.

Every stable model is a fixpoint but not conversely (§2); deciding
existence is NP-hard even propositionally.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Iterable, Iterator

from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.grounding import GroundingMode, GroundProgram, ground, universe_of
from repro.datalog.program import Program
from repro.engine.facts import FactStore
from repro.engine.matching import enumerate_bindings, order_body_for_join
from repro.errors import CloseConflictError, SemanticsError
from repro.ground.model import FALSE, TRUE, Interpretation
from repro.ground.state import GroundGraphState
from repro.semantics.completion import _enumerate_fixpoints
from repro.semantics.fixpoint import is_fixpoint, normalize_candidate

__all__ = [
    "is_stable_model",
    "reduct_least_model",
]


def reduct_least_model(
    program: Program,
    database: Database,
    candidate_true: frozenset[Atom],
    *,
    max_branch: int = 200_000,
) -> frozenset[Atom]:
    """Least model of the GL reduct of Π w.r.t. the candidate, plus Δ.

    The reduct is evaluated without materializing it: rules fire on
    bindings whose positive body joins the derived facts and whose negative
    body is false in the *candidate* (negation is fixed by M, which is the
    whole point of the reduct).  Variables left unbound by the positive
    body are enumerated over the universe.
    """
    universe = universe_of(program, database)
    fixed = FactStore()
    for a in candidate_true:
        fixed.add_atom(a)

    derived = FactStore.from_database(database)
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            ordered = order_body_for_join(list(rule.positive_body()))
            heads = []  # buffered: the store must not grow mid-join
            for binding in enumerate_bindings(ordered, derived):
                unbound = [v for v in rule.variables() if v not in binding]
                if unbound and not universe:
                    continue
                combos = len(universe) ** len(unbound) if unbound else 1
                if combos > max_branch:
                    raise SemanticsError(
                        f"rule {rule}: {combos} unbound instantiations exceed max_branch"
                    )
                for values in product(universe, repeat=len(unbound)):
                    extended = dict(binding)
                    extended.update(zip(unbound, values))
                    if any(
                        fixed.contains_atom(lit.atom.substitute(extended))
                        for lit in rule.negative_body()
                    ):
                        continue
                    heads.append(rule.head.substitute(extended))
            for head in heads:
                if derived.add_atom(head):
                    changed = True
    return frozenset(derived.atoms())


def _is_stable_reduct(
    program: Program,
    database: Database,
    true_atoms: frozenset[Atom],
    max_branch: int,
) -> bool:
    return reduct_least_model(
        program, database, true_atoms, max_branch=max_branch
    ) == true_atoms


def _is_stable_close(
    program: Program,
    database: Database,
    true_atoms: frozenset[Atom],
    grounding: GroundingMode,
    ground_program: GroundProgram | None,
) -> bool:
    gp = ground_program or ground(program, database, mode=grounding)
    table = gp.atoms
    # Candidates whose true atoms are not all materialized cannot be stable:
    # stable models live inside the upper-bound model U*.
    true_ids = []
    for a in true_atoms:
        index = table.get(a)
        if index is None:
            if not database.contains_atom(a):
                return False
            continue
        true_ids.append(index)
    true_set = set(true_ids)

    state = GroundGraphState(gp)  # installs M0(Δ): Δ true, EDB¬Δ false
    # M⁻: false atoms of M stay false; true IDB atoms outside Δ stay undefined.
    # The compiled index answers "is EDB?" / "is in Δ?" per atom id without
    # re-materializing atoms: initial_status is TRUE exactly on Δ.
    idx = gp.index
    edb_mask = idx.edb_mask
    initial_status = idx.initial_status
    try:
        for index in range(gp.atom_count):
            if edb_mask[index] or initial_status[index] == TRUE:
                continue  # already valued by M0
            if index not in true_set:
                state.assign(index, FALSE)
        state.close()
    except CloseConflictError:
        return False
    # Reconstruction: every atom valued, and exactly the candidate is true.
    status = state.status
    for index in range(gp.atom_count):
        if edb_mask[index]:
            if status[index] != initial_status[index]:
                return False
        elif status[index] != (TRUE if index in true_set else FALSE):
            return False
    return True


def is_stable_model(
    program: Program,
    database: Database,
    candidate: Iterable[Atom] | Interpretation,
    *,
    method: str = "reduct",
    grounding: GroundingMode = "relevant",
    ground_program: GroundProgram | None = None,
    max_branch: int = 200_000,
) -> bool:
    """True iff the candidate is a stable model of Π, Δ.

    ``method`` selects the checker (see module docstring); both first
    require the candidate to be a fixpoint, mirroring "every stable model
    is a fixpoint".

    >>> from repro.datalog.parser import parse_program
    >>> from repro.datalog.atoms import Atom
    >>> prog = parse_program("p :- p, not q. q :- q, not p.")
    >>> is_stable_model(prog, Database(), set())      # both false: stable
    True
    >>> is_stable_model(prog, Database(), {Atom("p")})  # pure-TB fixpoint: not stable
    False
    """
    true_atoms = normalize_candidate(candidate)
    if not is_fixpoint(program, database, true_atoms, max_branch=max_branch):
        return False
    if method == "reduct":
        return _is_stable_reduct(program, database, true_atoms, max_branch)
    if method == "close":
        return _is_stable_close(program, database, true_atoms, grounding, ground_program)
    raise ValueError(f"unknown method {method!r}; use 'reduct' or 'close'")


def _enumerate_stable_models(
    program: Program,
    database: Database | None = None,
    *,
    grounding: GroundingMode = "full",
    limit: int | None = None,
    **kwargs,
) -> Iterator[frozenset[Atom]]:
    """Implementation behind the ``stable`` registry entry."""
    database = database or Database()
    fixpoints = _enumerate_fixpoints(program, database, grounding=grounding, **kwargs)
    stable = (model for model in fixpoints if is_stable_model(program, database, model))
    yield from islice(stable, None if limit is None else max(limit, 0))
