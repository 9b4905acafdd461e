"""Semantics of Datalog¬: every interpreter and model-checker in the paper.

The interpreters are evaluated through :mod:`repro.api` —
``Engine(program, database).solve(name)`` grounds and compiles once per
engine; each module here holds the private implementation behind one
registry entry, which takes the engine's ground program and returns
kernel values (an ``Interpretation``, a choice trail, atom sets) for the
registry to wrap into a ``Solution``.  This package exports the model
checkers (``is_stable_model``, ``is_fixpoint``, ...), the choice policies,
the :class:`TieChoice` trail entries and :class:`QueryResult`.

* fixpoints (supported models): :mod:`repro.semantics.fixpoint`,
  exact SAT enumeration in :mod:`repro.semantics.completion`;
* stable models: :mod:`repro.semantics.stable` (paper's close-based test +
  GL-reduct cross-check);
* well-founded: :mod:`repro.semantics.well_founded`;
* tie-breaking (pure and well-founded): :mod:`repro.semantics.tie_breaking`
  with choice policies in :mod:`repro.semantics.choices`;
* stratified / perfect / Fitting baselines.
"""

from repro.semantics.alternating import gamma_operator, is_stable_via_gamma
from repro.semantics.choices import (
    ChoicePolicy,
    FewestTrue,
    FirstSideTrue,
    MostTrue,
    RandomChoice,
    SecondSideTrue,
)
from repro.semantics.completion import clark_completion
from repro.semantics.fixpoint import FixpointViolation, check_fixpoint, is_fixpoint
from repro.semantics.perfect import is_locally_stratified
from repro.semantics.stable import is_stable_model, reduct_least_model
from repro.semantics.stratified import Stratification, is_stratified, stratification
from repro.semantics.tie_breaking import TieChoice
from repro.semantics.queries import QueryResult

__all__ = [
    "ChoicePolicy",
    "QueryResult",
    "gamma_operator",
    "is_stable_via_gamma",
    "FewestTrue",
    "FirstSideTrue",
    "FixpointViolation",
    "MostTrue",
    "RandomChoice",
    "SecondSideTrue",
    "Stratification",
    "TieChoice",
    "check_fixpoint",
    "clark_completion",
    "is_fixpoint",
    "is_locally_stratified",
    "is_stable_model",
    "is_stratified",
    "reduct_least_model",
    "stratification",
]
