"""Unit tests for choice policies and forced orientations."""

import pytest

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

    def test_reused_random_policy_replays_from_its_seed(self):
        """Every solve under ``RandomChoice(seed=3)`` draws the same sequence,
        however often the engine has run the caller's instance before."""
        from repro.api import Engine
        from repro.workloads.families import grounded_argumentation

        engine = Engine(*grounded_argumentation(60), policy=RandomChoice(3))
        first = engine.solve("tie_breaking")
        assert first.free_choice_count > 1
        engine.insert_facts("attacks(0, 59)")
        engine.retract_facts("attacks(0, 59)")
        again = engine.solve("tie_breaking")
        fresh = Engine(*grounded_argumentation(60), policy=RandomChoice(3)).solve("tie_breaking")
        assert again.policy == first.policy == "RandomChoice(seed=3)"
        assert again.true_atoms == first.true_atoms == fresh.true_atoms
        assert again.choices == first.choices == fresh.choices

    def test_solving_leaves_the_callers_policy_untouched(self):
        from repro.api import Engine
        from repro.workloads.families import committee

        policy = RandomChoice(5)
        Engine(*committee(12)).solve("tie_breaking", policy=policy)
        replay = RandomChoice(5)
        draws = [policy.choose_true_side([1], [2]) for _ in range(20)]
        assert draws == [replay.choose_true_side([1], [2]) for _ in range(20)]

    def test_an_advanced_random_policy_solves_like_a_fresh_one(self):
        """A solve runs on a copy, and a copy of a RandomChoice restarts
        from its seed: where the caller's stream stands does not matter."""
        import copy

        from repro.api import Engine
        from repro.workloads.families import committee

        advanced = RandomChoice(5)
        for _ in range(7):
            advanced.choose_true_side([1], [2])
        replay = copy.deepcopy(advanced)
        assert repr(replay) == repr(advanced)
        fresh = RandomChoice(5)
        assert [replay.choose_true_side([1], [2]) for _ in range(20)] == [
            fresh.choose_true_side([1], [2]) for _ in range(20)
        ]
        solved = Engine(*committee(12)).solve("tie_breaking", policy=advanced)
        expected = Engine(*committee(12)).solve("tie_breaking", policy=RandomChoice(5))
        assert solved.free_choice_count == 12
        assert solved.true_atoms == expected.true_atoms
        assert solved.choices == expected.choices


# The first 64 sides of RandomChoice(seed), drawn one tie at a time with
# choose_true_side: the stream every seeded answer depends on.
GOLDEN_SIDES = {
    0: "1101111110010010100110111011100010110100000100110110101101101000",
    1: "0010111100101101100100001010011010011010010110111101011011010011",
    7: "1010001000011000100001000011001000100001111111000011111001010110",
    2**32 - 1: "0011111110001100101110010001110110110011101011101111110001101100",
}


def _per_tie(policy, count: int) -> bytes:
    return bytes(policy.choose_true_side([1], [2]) for _ in range(count))


class TestBatchSides:
    """``RandomChoice.choose_true_sides(n)`` is ``n`` consecutive
    ``choose_true_side`` calls: the same sides and the same generator
    state afterwards."""

    @pytest.mark.parametrize("seed", sorted(GOLDEN_SIDES))
    def test_the_seeded_stream_is_pinned(self, seed):
        golden = bytes(int(side) for side in GOLDEN_SIDES[seed])
        assert _per_tie(RandomChoice(seed), 64) == golden
        assert RandomChoice(seed).choose_true_sides(64) == golden

    @pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 375, 1000])
    def test_a_batch_equals_per_tie_calls(self, count):
        for seed in range(200):
            single, batch = RandomChoice(seed), RandomChoice(seed)
            # Start mid-stream, and check that the stream goes on alike.
            for _ in range(seed % 3):
                single.choose_true_side([1], [2])
                batch.choose_true_side([1], [2])
            assert batch.choose_true_sides(count) == _per_tie(single, count), (seed, count)
            assert batch._rng.getstate() == single._rng.getstate(), (seed, count)
            assert batch.choose_true_sides(3) == _per_tie(single, 3), (seed, count)


class TestTableDrawGuard:
    """A tie table draws every free side in one call only when the class
    that defines ``choose_true_sides`` also defines the ``choose_true_side``
    in use: a subclass that overrides the per-tie choice alone is asked
    once per free tie, with the tie's ranks."""

    @staticmethod
    def _table():
        from repro.api import Engine
        from repro.workloads.families import grounded_argumentation

        engine = Engine(*grounded_argumentation(40))
        for seed in range(2):
            engine.solve("tie_breaking", policy=RandomChoice(seed))
        (checkpoint,) = engine._checkpoints.values()
        table = checkpoint.table
        assert table is not None and table.free == len(table.template) > 1  # no forced tie
        return table

    def test_an_override_of_the_per_tie_choice_alone_is_called_per_tie(self):
        from repro.semantics.tie_breaking import _batch_sides

        class SecondOnly(RandomChoice):
            def __init__(self, seed):
                super().__init__(seed)
                self.calls = 0

            def choose_true_side(self, side0_atoms, side1_atoms):
                self.calls += 1
                assert side0_atoms and side1_atoms  # it sees the ranks
                return 1

        table = self._table()
        policy = SecondOnly(3)
        assert _batch_sides(policy) is None
        assert table.draw(policy) == bytes([1]) * table.free
        assert policy.calls == table.free

    def test_a_class_defining_both_draws_in_one_call(self):
        from repro.semantics.tie_breaking import _batch_sides

        class Batched(RandomChoice):
            def choose_true_side(self, side0_atoms, side1_atoms):
                raise AssertionError("asked per tie")

            def choose_true_sides(self, count):
                return bytes([1]) * count

        table = self._table()
        assert _batch_sides(RandomChoice(3)) is not None
        assert _batch_sides(FirstSideTrue()) is None
        assert table.draw(Batched(3)) == bytes([1]) * table.free
        assert table.draw(RandomChoice(3)) == _per_tie(RandomChoice(3), table.free)
