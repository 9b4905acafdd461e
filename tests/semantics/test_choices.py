"""Unit tests for choice policies and forced orientations."""


from repro.semantics.choices import (
    FewestTrue,
    FirstSideTrue,
    MostTrue,
    RandomChoice,
    SecondSideTrue,
    forced_orientation,
)


class TestForcedOrientation:
    def test_empty_side_zero_forced_true(self):
        assert forced_orientation(0, 5) == 0

    def test_empty_side_one_forced_true(self):
        assert forced_orientation(5, 0) == 1

    def test_both_inhabited_free(self):
        assert forced_orientation(3, 4) is None


class TestDeterministicPolicies:
    def test_first_side_true_prefers_smaller_ids(self):
        assert FirstSideTrue().choose_true_side([5, 9], [2, 7]) == 1
        assert FirstSideTrue().choose_true_side([1], [2]) == 0

    def test_second_side_is_the_mirror(self):
        for sides in ([[5, 9], [2, 7]], [[1], [2]], [[3], [4, 0]]):
            first = FirstSideTrue().choose_true_side(*sides)
            second = SecondSideTrue().choose_true_side(*sides)
            assert first != second

    def test_fewest_true(self):
        assert FewestTrue().choose_true_side([1, 2, 3], [4]) == 1
        assert FewestTrue().choose_true_side([1], [2, 3]) == 0

    def test_most_true(self):
        assert MostTrue().choose_true_side([1, 2, 3], [4]) == 0

    def test_size_ties_fall_back_to_first_side(self):
        assert FewestTrue().choose_true_side([3], [1]) == FirstSideTrue().choose_true_side([3], [1])


class TestRandomChoice:
    def test_seed_reproducible(self):
        sequence_a = [RandomChoice(7).choose_true_side([1], [2]) for _ in range(5)]
        sequence_b = [RandomChoice(7).choose_true_side([1], [2]) for _ in range(5)]
        assert sequence_a == sequence_b

    def test_stateful_within_instance(self):
        policy = RandomChoice(3)
        draws = {policy.choose_true_side([1], [2]) for _ in range(50)}
        assert draws == {0, 1}  # both orientations eventually drawn

    def test_policies_change_models(self):
        from repro.datalog.parser import parse_program
        from repro.api import Engine

        program = parse_program("p :- not q. q :- not p.")
        first = Engine(program).solve("tie_breaking", policy=FirstSideTrue(), grounding="full")
        second = Engine(program).solve("tie_breaking", policy=SecondSideTrue(), grounding="full")
        assert first.model.true_set() != second.model.true_set()


class TestSelfDescription:
    """Policies describe themselves so runs are reproducible from output."""

    def test_deterministic_policy_reprs(self):
        assert repr(FirstSideTrue()) == "FirstSideTrue()"
        assert repr(SecondSideTrue()) == "SecondSideTrue()"
        assert repr(FewestTrue()) == "FewestTrue()"
        assert repr(MostTrue()) == "MostTrue()"

    def test_random_choice_records_explicit_seed(self):
        policy = RandomChoice(42)
        assert policy.seed == 42
        assert repr(policy) == "RandomChoice(seed=42)"

    def test_unseeded_random_choice_is_replayable_from_its_repr(self):
        policy = RandomChoice()
        assert isinstance(policy.seed, int)
        replay = RandomChoice(policy.seed)
        draws = [policy.choose_true_side([1], [2]) for _ in range(20)]
        assert draws == [replay.choose_true_side([1], [2]) for _ in range(20)]

    def test_run_metadata_reports_policy(self):
        from repro.api import Engine

        engine = Engine("p :- not q. q :- not p.")
        solution = engine.solve("tie_breaking", policy=RandomChoice(9), grounding="full")
        assert solution.policy == "RandomChoice(seed=9)"
        assert solution.to_json_dict()["ties"]["policy"] == "RandomChoice(seed=9)"
        default = engine.solve("tie_breaking", grounding="full")
        assert default.policy == "FirstSideTrue()"
