"""The generic crossed-system checkers on a toy algebra: 2x2 matrices over Q.

The diagonal matrices D form the base algebra, and M_2(Q) = D + D u is a
Z2-crossed product in two ways: with u the swap P (P^2 = 1, trivial cocycle)
and with u the rotation J (J^2 = -1, cocycle alpha(-1,-1) = -1).  Both
conjugations exchange the two diagonal entries.
"""

from collections import Counter
from fractions import Fraction

import pytest

from qhecke.crossed import check_crossed_axioms, check_crossed_embedding, memoized_action
from qhecke.tensor import OperatorMatrix


def _mat(a, b, c, d):
    return OperatorMatrix(2, {(0, 0): Fraction(a), (0, 1): Fraction(b),
                              (1, 0): Fraction(c), (1, 1): Fraction(d)})


def _diag(x, y):
    return _mat(x, 0, 0, y)


ONE = _diag(1, 1)
MINUS_ONE = _diag(-1, -1)
SWAP = _mat(0, 1, 1, 0)
ROT = _mat(0, 1, -1, 0)
SAMPLES = [_diag(1, 2), _diag(3, -5)]
PAIRS = [(_diag(1, 2), _diag(3, -5)), (_diag(-2, 7), _diag(1, 4)), (_diag(2, 2), _diag(0, 1))]


def _swapped(a):
    return SWAP * a * SWAP


def _trivial(s, t):
    return ONE


def _sign(s, t):
    return MINUS_ONE if s == t == -1 else ONE


class TestValidSystems:
    def test_swap_with_trivial_cocycle(self):
        act = memoized_action(_swapped)
        assert check_crossed_axioms(act, _trivial, ONE, SAMPLES) == []
        assert check_crossed_embedding(act, _trivial, {1: ONE, -1: SWAP}.__getitem__,
                                       PAIRS) == []

    def test_rotation_with_sign_cocycle(self):
        # J a J^{-1} = -(J a J), as for the flip on tensor space
        act = memoized_action(lambda a: (ROT * a * ROT).scale(Fraction(-1)))
        assert check_crossed_axioms(act, _sign, ONE, SAMPLES) == []
        assert check_crossed_embedding(act, _sign, {1: ONE, -1: ROT}.__getitem__, PAIRS) == []


class TestBrokenData:
    def test_non_involutive_action_trips_cs1_and_cs2(self):
        act = memoized_action(lambda a: _swapped(a).scale(Fraction(2)))
        assert check_crossed_axioms(act, _trivial, ONE, SAMPLES) == [
            "weak-action axiom fails at (s,t)=(-1,-1), sample 0",
            "weak-action axiom fails at (s,t)=(-1,-1), sample 1",
            "cocycle axiom fails at (-1,1,1)",
            "cocycle axiom fails at (-1,1,-1)",
            "cocycle axiom fails at (-1,-1,1)",
            "cocycle axiom fails at (-1,-1,-1)",
        ]

    def test_samples_may_be_any_iterable(self):
        act = memoized_action(lambda a: _swapped(a).scale(Fraction(2)))
        assert (check_crossed_axioms(act, _trivial, ONE, iter(SAMPLES))
                == check_crossed_axioms(act, _trivial, ONE, SAMPLES))

    def test_unnormalized_cocycle_trips_cs2_and_cs3(self):
        def alpha(s, t):
            return MINUS_ONE if (s, t) == (1, -1) else ONE

        assert check_crossed_axioms(memoized_action(_swapped), alpha, ONE, SAMPLES) == [
            "cocycle axiom fails at (1,1,-1)",
            "cocycle axiom fails at (1,-1,-1)",
            "cocycle axiom fails at (-1,1,-1)",
            "cocycle axiom fails at (-1,-1,-1)",
            "unit normalization fails at s=-1",
        ]

    def test_wrong_action_trips_the_product_law(self):
        # the identity is a valid action, but not the one the swap induces
        act = memoized_action(lambda a: a)
        assert check_crossed_axioms(act, _trivial, ONE, SAMPLES) == []
        assert check_crossed_embedding(act, _trivial, {1: ONE, -1: SWAP}.__getitem__,
                                       PAIRS) == [
            "product law fails at (s,t)=(-1,1), pair 0",
            "product law fails at (s,t)=(-1,-1), pair 0",
            "product law fails at (s,t)=(-1,1), pair 1",
            "product law fails at (s,t)=(-1,-1), pair 1",
            "product law fails at (s,t)=(-1,1), pair 2",
            "product law fails at (s,t)=(-1,-1), pair 2",
        ]

    def test_wrong_embedding_trips_the_product_law(self):
        # J squares to -1, which the trivial cocycle does not account for
        act = memoized_action(_swapped)
        assert check_crossed_embedding(act, _trivial, {1: ONE, -1: ROT}.__getitem__,
                                       PAIRS) == [
            f"product law fails at (s,t)=(-1,-1), pair {i}" for i in range(len(PAIRS))]


class TestComputedOnce:
    def test_embedding_applies_the_action_once_per_pair_and_sign(self):
        calls = Counter()

        def act(s, a):
            calls[s, a] += 1
            return a if s == 1 else _swapped(a)

        check_crossed_embedding(act, _trivial, {1: ONE, -1: SWAP}.__getitem__, PAIRS)
        assert sum(calls.values()) <= 2 * len(PAIRS)
        assert max(calls.values()) == 1

    def test_memo_conjugates_once_per_distinct_argument(self):
        seen = Counter()

        def conjugate(a):
            seen[a] += 1
            return _swapped(a)

        act = memoized_action(conjugate)
        sample = _diag(1, 2)
        assert act(1, sample) is sample
        assert act(-1, sample) == _diag(2, 1)
        assert act(-1, _diag(1, 2)) == _diag(2, 1)      # equal value, new object
        assert seen == Counter({sample: 1})
        check_crossed_axioms(act, _trivial, ONE, SAMPLES)
        check_crossed_embedding(act, _trivial, {1: ONE, -1: SWAP}.__getitem__, PAIRS)
        assert set(seen.values()) == {1}
        assert len(seen) == len({*SAMPLES, *(_swapped(a) for a in SAMPLES),
                                 *(a2 for _, a2 in PAIRS), ONE})

    @pytest.mark.parametrize("conjugate", [_swapped, lambda a: _swapped(a).scale(Fraction(2))])
    def test_memo_agrees_with_the_plain_action(self, conjugate):
        act = memoized_action(conjugate)
        for a in SAMPLES + [ONE, _mat(1, 2, 3, 4)]:
            for _ in range(2):
                assert act(-1, act(-1, a)) == conjugate(conjugate(a))
