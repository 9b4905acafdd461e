"""Property-based cross-validation of the semantics implementations.

Each property pits at least two independent implementations against each
other on adversarial random inputs — the strongest evidence this
reproduction has that the paper's machinery is implemented faithfully.
"""

import itertools

from hypothesis import HealthCheck, given, settings

from repro.datalog.atoms import Atom
from repro.semantics.alternating import is_stable_via_gamma
from repro.api import Engine
from repro.semantics.fixpoint import is_fixpoint
from repro.semantics.stable import is_stable_model

from tests.properties.strategies import propositional_cases, small_predicate_cases

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(max_examples=120, **COMMON)
@given(case=propositional_cases())
def test_wf_equals_alternating_fixpoint_propositional(case):
    """Algorithm Well-Founded ≡ Van Gelder's alternating fixpoint."""
    program, db = case
    wf = Engine(program, db).solve("well_founded", grounding="full")
    alt = Engine(program, db).solve("alternating", grounding="full").model
    assert wf.model.agrees_with(alt)


@settings(max_examples=60, **COMMON)
@given(case=small_predicate_cases())
def test_wf_equals_alternating_fixpoint_predicates(case):
    program, db = case
    wf = Engine(program, db).solve("well_founded", grounding="full")
    alt = Engine(program, db).solve("alternating", grounding="full").model
    assert wf.model.agrees_with(alt)


@settings(max_examples=80, **COMMON)
@given(case=propositional_cases())
def test_wf_full_equals_wf_relevant(case):
    """The relevant-grounding substitution is invisible to the WF semantics."""
    program, db = case
    full = Engine(program, db).solve("well_founded", grounding="full")
    relevant = Engine(program, db).solve("well_founded", grounding="relevant")
    assert full.model.agrees_with(relevant.model)


@settings(max_examples=50, **COMMON)
@given(case=small_predicate_cases())
def test_wf_full_equals_wf_relevant_predicates(case):
    program, db = case
    full = Engine(program, db).solve("well_founded", grounding="full")
    relevant = Engine(program, db).solve("well_founded", grounding="relevant")
    assert full.model.agrees_with(relevant.model)


@settings(max_examples=80, **COMMON)
@given(case=propositional_cases())
def test_wftb_extends_wf(case):
    """WFTB never contradicts the well-founded model (§3 consistency)."""
    program, db = case
    wf = Engine(program, db).solve("well_founded", grounding="full").model
    tb = Engine(program, db).solve("tie_breaking", grounding="full").model
    for atom in wf.true_atoms():
        assert tb.value(atom) is True
    for atom in wf.false_atoms():
        assert tb.value(atom) is False


@settings(max_examples=80, **COMMON)
@given(case=propositional_cases())
def test_lemma2_total_tie_breaking_models_are_fixpoints(case):
    """Lemma 2 for both interpreter variants (default policy)."""
    program, db = case
    for run in (
        Engine(program, db).solve("pure_tie_breaking", grounding="full"),
        Engine(program, db).solve("tie_breaking", grounding="full"),
    ):
        if run.is_total:
            assert is_fixpoint(program, db, run.model.true_set())


@settings(max_examples=60, **COMMON)
@given(case=propositional_cases())
def test_lemma3_total_wftb_models_are_stable_all_checkers(case):
    """Lemma 3 via three independent stable-model checkers."""
    program, db = case
    run = Engine(program, db).solve("tie_breaking", grounding="full")
    if not run.is_total:
        return
    trues = run.model.true_set()
    assert is_stable_model(program, db, trues, method="reduct")
    assert is_stable_model(program, db, trues, method="close", grounding="full")
    assert is_stable_via_gamma(program, db, trues)


@settings(max_examples=60, **COMMON)
@given(case=propositional_cases(max_rules=7))
def test_completion_enumeration_equals_brute_force(case):
    """SAT-based fixpoint enumeration ≡ exhaustive subset checking."""
    program, db = case
    free = sorted(program.idb_predicates - db.predicates())
    if len(free) > 7:
        return
    fixed_true = {Atom(p) for p in sorted(db.predicates())}
    brute = set()
    for bits in itertools.product([False, True], repeat=len(free)):
        candidate = fixed_true | {Atom(p) for p, b in zip(free, bits) if b}
        if is_fixpoint(program, db, candidate):
            brute.add(frozenset(candidate))
    engine = Engine(program, db)
    via_sat = {s.true_atoms for s in engine.enumerate("completion", grounding="full")}
    assert via_sat == brute


@settings(max_examples=60, **COMMON)
@given(case=propositional_cases())
def test_every_enumerated_fixpoint_verifies(case):
    program, db = case
    for solution in Engine(program, db).enumerate("completion", grounding="full", limit=8):
        assert is_fixpoint(program, db, solution.true_atoms)


@settings(max_examples=60, **COMMON)
@given(case=propositional_cases())
def test_stable_checkers_agree(case):
    """The paper's close-based test ≡ GL reduct ≡ Γ-fixpoint, on every
    enumerated fixpoint (stable ⊆ fixpoints, so these are the candidates
    that matter)."""
    program, db = case
    for solution in Engine(program, db).enumerate("completion", grounding="full", limit=6):
        model = solution.true_atoms
        reduct = is_stable_model(program, db, model, method="reduct")
        close = is_stable_model(program, db, model, method="close", grounding="full")
        gamma = is_stable_via_gamma(program, db, model)
        assert reduct == close == gamma


@settings(max_examples=60, **COMMON)
@given(case=propositional_cases())
def test_wf_total_implies_unique_stable_model(case):
    """[VRS] as cited in §2: a total well-founded model is the unique
    stable model."""
    program, db = case
    wf = Engine(program, db).solve("well_founded", grounding="full")
    if not wf.is_total:
        return
    trues = wf.model.true_set()
    assert is_stable_model(program, db, trues)
    stables = [
        s.true_atoms
        for s in Engine(program, db).enumerate("completion", grounding="full")
        if is_stable_model(program, db, s.true_atoms)
    ]
    assert stables == [trues]


@settings(max_examples=80, **COMMON)
@given(case=propositional_cases())
def test_wf_extends_fitting(case):
    """The Kripke-Kleene model is always a sub-model of the WF model."""
    program, db = case
    fitting = Engine(program, db).solve("fitting").model
    wf = Engine(program, db).solve("well_founded", grounding="full").model
    for atom in fitting.true_atoms():
        assert wf.value(atom) is True
    for atom in fitting.false_atoms():
        assert wf.value(atom) is False
