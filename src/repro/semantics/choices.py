"""Choice policies: how the tie-breaking interpreters orient a tie.

Breaking a tie assigns one Lemma-1 side true (the paper's K) and the other
false (L).  When one side is empty the orientation is forced — "the choice
to make all the atoms false is more consistent with the minimalist
philosophy", and the algorithm requires L nonempty — but when both sides
are inhabited the choice is genuinely nondeterministic and can change the
final model, or even whether a total model is reached.

A :class:`ChoicePolicy` resolves that nondeterminism.  Policies receive the
two node sides and return which side index (0/1) plays K; the interpreter
records every decision in the run's trace so "for all choices" statements
(Lemmas 2, 3, Theorem 1) are testable by exhaustive enumeration
(:func:`repro.semantics.tie_breaking.enumerate_tie_breaking_models`).
"""

from __future__ import annotations

import random
from typing import Protocol, Sequence

__all__ = [
    "ChoicePolicy",
    "FirstSideTrue",
    "SecondSideTrue",
    "FewestTrue",
    "MostTrue",
    "RandomChoice",
    "forced_orientation",
]


class ChoicePolicy(Protocol):
    """Strategy resolving the K/L orientation of a tie.

    A policy whose choice never reads the sides may also define
    ``choose_true_sides(count) -> bytes``: the sides (0 or 1, one byte
    each) of its next ``count`` free ties, equal to ``count`` consecutive
    :meth:`choose_true_side` calls and leaving the policy in the state
    those calls leave.  A first-round tie table draws every free side of
    a solve with one such call
    (:meth:`repro.semantics.tie_breaking.TieTable.draw`), when the class
    that defines it also defines the ``choose_true_side`` in use.
    """

    def choose_true_side(self, side0_atoms: Sequence[int], side1_atoms: Sequence[int]) -> int:
        """Return 0 or 1: the side whose atoms become true (K).

        Called only when the orientation is free (both sides contain nodes);
        forced orientations bypass the policy.
        """
        ...


def forced_orientation(side0_nodes: int, side1_nodes: int) -> int | None:
    """The forced K side when one side of the partition is empty, else None.

    An empty side must play K (making L the nonempty side, all false) —
    this is the locally-stratified case where the component has no negative
    edges and minimality demands everything false.
    """
    if side0_nodes == 0:
        return 0
    if side1_nodes == 0:
        return 1
    return None


class FirstSideTrue:
    """Deterministic: the side containing the smallest atom id becomes true."""

    def choose_true_side(self, side0_atoms: Sequence[int], side1_atoms: Sequence[int]) -> int:
        lowest0 = min(side0_atoms, default=float("inf"))
        lowest1 = min(side1_atoms, default=float("inf"))
        return 0 if lowest0 <= lowest1 else 1

    def __repr__(self) -> str:
        return "FirstSideTrue()"


class SecondSideTrue:
    """Deterministic mirror of :class:`FirstSideTrue` (the opposite run)."""

    def choose_true_side(self, side0_atoms: Sequence[int], side1_atoms: Sequence[int]) -> int:
        return 1 - FirstSideTrue().choose_true_side(side0_atoms, side1_atoms)

    def __repr__(self) -> str:
        return "SecondSideTrue()"


class FewestTrue:
    """Minimalist: make the smaller atom side true (ties: FirstSideTrue)."""

    def choose_true_side(self, side0_atoms: Sequence[int], side1_atoms: Sequence[int]) -> int:
        if len(side0_atoms) != len(side1_atoms):
            return 0 if len(side0_atoms) < len(side1_atoms) else 1
        return FirstSideTrue().choose_true_side(side0_atoms, side1_atoms)

    def __repr__(self) -> str:
        return "FewestTrue()"


class MostTrue:
    """Maximalist: make the larger atom side true (ties: FirstSideTrue)."""

    def choose_true_side(self, side0_atoms: Sequence[int], side1_atoms: Sequence[int]) -> int:
        if len(side0_atoms) != len(side1_atoms):
            return 0 if len(side0_atoms) > len(side1_atoms) else 1
        return FirstSideTrue().choose_true_side(side0_atoms, side1_atoms)

    def __repr__(self) -> str:
        return "MostTrue()"


# A word's top byte: its side (bit 30, the byte's bit 6) when bit 31 is
# clear; the words with bit 31 set are rejected (deleted).
_BIT_30 = bytes(top >> 6 & 1 for top in range(256))
_BIT_31_SET = bytes(range(128, 256))


class RandomChoice:
    """Seeded random orientation; reproducible given the seed.

    When constructed without a seed, one is drawn from the system entropy
    source and *recorded* on the instance, so every run — including
    "unseeded" ones — can be replayed from its reported policy
    (``repr(policy)`` is the :class:`~repro.api.Solution`'s ``policy``).
    """

    def __init__(self, seed: int | None = None):
        if seed is None:
            seed = random.SystemRandom().randrange(2**32)
        self.seed = seed
        self._rng = random.Random(seed)

    def choose_true_side(self, side0_atoms: Sequence[int], side1_atoms: Sequence[int]) -> int:
        return self._rng.randrange(2)

    def choose_true_sides(self, count: int) -> bytes:
        """The next ``count`` sides, as ``count`` :meth:`choose_true_side`
        calls draw them, leaving the generator where they leave it.

        CPython's ``randrange(2)`` is ``getrandbits(2)``, the top two bits
        of one 32-bit Mersenne Twister word, drawn again while they read 2
        or 3: a word yields a side exactly when its bit 31 is 0, and the
        side is its bit 30.  ``getrandbits(32 * m)`` holds ``m`` consecutive
        words, the first in the low bits, so every fourth little-endian
        byte from the fourth is a word's top byte, in order.  Each word
        yields at most one side, so asking for as many words as sides are
        missing never draws past the last one.
        """
        getrandbits = self._rng.getrandbits
        sides = b""
        while len(sides) < count:
            need = count - len(sides)
            tops = getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
            sides += tops.translate(_BIT_30, _BIT_31_SET)
        return sides

    def __deepcopy__(self, memo: dict) -> RandomChoice:
        # A copy is the policy its description names: a fresh stream from
        # the seed, not the state this instance has advanced to (and no
        # copy of a random.Random state).
        return RandomChoice(self.seed)

    def __repr__(self) -> str:
        return f"RandomChoice(seed={self.seed})"
