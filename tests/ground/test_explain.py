"""Tests for the provenance / explanation machinery."""


from repro.datalog.atoms import Atom, atom
from repro.datalog.parser import parse_database, parse_program
from repro.ground.explain import explain, format_explanation
from repro.api import Engine


class TestExplainKinds:
    def test_delta_fact(self):
        run = Engine(parse_program("p :- e."), parse_database("e.")).solve("well_founded")
        explanation = explain(run.state, Atom("e"))
        assert explanation.kind == "delta" and explanation.value is True

    def test_edb_absent(self):
        run = Engine(parse_program("p :- e."), parse_database("f.")).solve("well_founded")
        explanation = explain(run.state, Atom("e"))
        assert explanation.kind == "edb-absent" and explanation.value is False

    def test_fired_with_premises(self):
        run = Engine(parse_program("p :- e, not q."), parse_database("e.")).solve("well_founded")
        explanation = explain(run.state, Atom("p"))
        assert explanation.kind == "fired" and explanation.value is True
        # q heads no rule, so it is an EDB predicate absent from Δ
        premise_kinds = {p.kind for p in explanation.premises}
        assert premise_kinds == {"delta", "edb-absent"}
        assert "p :- e, ¬q." in explanation.rule

    def test_no_support(self):
        run = Engine(parse_program("p :- q. q :- f.")).solve("well_founded", grounding="full")
        explanation = explain(run.state, Atom("p"))
        assert explanation.kind == "no-support" and explanation.value is False
        assert explain(run.state, Atom("q")).kind == "no-support"

    def test_unfounded_with_iteration(self):
        run = Engine(parse_program("p :- p.")).solve("well_founded", grounding="full")
        explanation = explain(run.state, Atom("p"))
        assert explanation.kind == "unfounded"
        assert "iteration 1" in explanation.detail

    def test_tie_sides(self):
        run = Engine(parse_program("p :- not q. q :- not p.")).solve("tie_breaking")
        p_side = explain(run.state, Atom("p"))
        q_side = explain(run.state, Atom("q"))
        assert {p_side.kind, q_side.kind} == {"tie"}
        assert p_side.value != q_side.value

    def test_stuck(self):
        run = Engine(parse_program("p :- not p.")).solve("tie_breaking")
        explanation = explain(run.state, Atom("p"))
        assert explanation.kind == "stuck" and explanation.value is None

    def test_not_materialized(self):
        run = Engine("p :- p. q :- e.", "e.").solve("well_founded", grounding="relevant")
        explanation = explain(run.state, Atom("p"))
        assert explanation.kind == "not-materialized" and explanation.value is False


class TestExplanationTrees:
    def test_chain_recursion(self):
        run = Engine("a :- b. b :- c. c :- e.", "e.").solve("well_founded")
        tree = explain(run.state, Atom("a"))
        assert tree.kind == "fired"
        assert tree.premises[0].atom == Atom("b")
        assert tree.premises[0].premises[0].atom == Atom("c")
        assert "delta" in tree.leaf_kinds()

    def test_predicate_case(self):
        engine = Engine("win(X) :- move(X, Y), not win(Y).", "move(1, 2).")
        run = engine.solve("well_founded")
        tree = explain(run.state, atom("win", 1))
        assert tree.value is True
        premise_atoms = {str(p.atom) for p in tree.premises}
        assert premise_atoms == {"move(1, 2)", "win(2)"}

    def test_depth_limit(self):
        source = " ".join(f"a{i} :- a{i+1}." for i in range(20)) + " a20 :- e."
        run = Engine(parse_program(source), parse_database("e.")).solve("well_founded")
        tree = explain(run.state, Atom("a0"), max_depth=3)
        # truncated: the deepest node has no premises even though fired
        node = tree
        while node.premises:
            node = node.premises[0]
        assert node.kind in ("fired", "delta")

    def test_self_recursive_rule_guard(self):
        """p :- p, e with p seeded in Δ: the premise loop must not recurse."""
        run = Engine(parse_program("p :- p, e."), parse_database("e. p.")).solve("well_founded")
        tree = explain(run.state, Atom("p"))
        assert tree.kind == "delta"  # Δ wins as the recorded reason

    def test_format_renders_tree(self):
        run = Engine("a :- b, not c. b :- e.", "e.").solve("well_founded")
        text = format_explanation(explain(run.state, Atom("a")))
        assert "a = true" in text
        assert "derived by" in text
        assert "\n  " in text  # indented premises
