from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from qhecke.partitions import (
    conjugate,
    d_lambda,
    enumerate_partitions,
    hook_classify,
    in_hook,
    predicted_dimensions,
)


# -- independent oracle: brute-force standard tableau enumeration -------------

def count_standard_tableaux(shape):
    """Count fillings 1..r increasing along rows and down columns."""
    r = sum(shape)
    if r == 0:
        return 1

    def grow(filled_rows):
        placed = sum(filled_rows)
        if placed == r:
            return 1
        total = 0
        for i, row_len in enumerate(shape):
            if filled_rows[i] < row_len and (i == 0 or filled_rows[i - 1] > filled_rows[i]):
                nxt = list(filled_rows)
                nxt[i] += 1
                total += grow(tuple(nxt))
        return total

    return grow(tuple([0] * len(shape)))


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parts = []
    remaining, bound = n, n
    while remaining:
        p = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(p)
        bound = p
        remaining -= p
    return tuple(parts)


class TestEnumeration:
    def test_small_lists(self):
        assert enumerate_partitions(1) == ((1,),)
        assert enumerate_partitions(3) == ((3,), (2, 1), (1, 1, 1))
        assert len(enumerate_partitions(4)) == 5

    def test_descending_lexicographic_order(self):
        parts = enumerate_partitions(6)
        assert parts[0] == (6,) and parts[-1] == (1,) * 6
        for a, b in zip(parts, parts[1:]):
            assert a > b

    @given(n=st.integers(min_value=1, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_all_sum_to_n(self, n):
        assert all(sum(p) == n for p in enumerate_partitions(n))


class TestConjugate:
    def test_examples(self):
        assert conjugate((3,)) == (1, 1, 1)
        assert conjugate((2, 1)) == (2, 1)
        assert conjugate((4, 2)) == (2, 2, 1, 1)

    @given(p=partition_strategy())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, p):
        assert conjugate(conjugate(p)) == p

    def test_invalid_partition(self):
        with pytest.raises(ValueError):
            conjugate((1, 2))


class TestTableauCounts:
    def test_single_row(self):
        for r in range(1, 7):
            assert d_lambda((r,)) == 1

    def test_against_brute_force(self):
        for r in range(1, 7):
            for p in enumerate_partitions(r):
                assert d_lambda(p) == count_standard_tableaux(p), p

    @given(p=partition_strategy())
    @settings(max_examples=60, deadline=None)
    def test_transpose_invariance(self, p):
        assert d_lambda(p) == d_lambda(conjugate(p))

    @pytest.mark.parametrize("r", range(1, 9))
    def test_squares_sum_to_factorial(self, r):
        assert sum(d_lambda(p) ** 2 for p in enumerate_partitions(r)) == factorial(r)


class TestHooks:
    def test_square_shape_small(self):
        cls = hook_classify(1, 1, 2)
        assert cls.hooks == ((2,), (1, 1))
        assert cls.h1 == ()

    def test_two_rows_no_columns(self):
        cls = hook_classify(2, 0, 3)
        assert cls.hooks == ((3,), (2, 1))
        assert cls.h0 == ((2, 1),)
        assert cls.h1 == ((3,),)

    def test_wide_hook_contains_everything(self):
        cls = hook_classify(5, 0, 4)
        assert cls.hooks == enumerate_partitions(4)

    @pytest.mark.parametrize("m, n, r", [(-1, 3, 2), (3, -1, 2), (0, 0, 2), (1, 1, 0)])
    def test_rejects_shapes_with_no_tensor_space(self, m, n, r):
        with pytest.raises(ValueError, match="need m, n >= 0"):
            hook_classify(m, n, r)

    def test_membership_rule(self):
        assert in_hook((3, 1), 1, 1)
        assert not in_hook((3, 2), 1, 1)

    @given(p=partition_strategy(), m=st.integers(0, 3), n=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_split_partitions_hooks(self, p, m, n):
        if m + n == 0:
            return
        cls = hook_classify(m, n, sum(p))
        assert set(cls.h0) | set(cls.h1) == set(cls.hooks)
        assert not (set(cls.h0) & set(cls.h1))
        for q in cls.h0:
            assert conjugate(q) in set(cls.hooks)


class TestPredictedDimensions:
    def test_square_one_one_three(self):
        rep = predicted_dimensions(1, 1, 3)
        assert rep.dimA == 6 and rep.dimC == 3

    def test_two_zero_three(self):
        rep = predicted_dimensions(2, 0, 3)
        assert (rep.dimA, rep.dimA0, rep.dimA1) == (5, 4, 1)
        assert (rep.dimC, rep.dimC0, rep.dimC1) == (3, 2, 1)

    def test_two_zero_five_collapse_regime(self):
        rep = predicted_dimensions(2, 0, 5)
        assert rep.dimA == rep.dimC == 42
        assert hook_classify(2, 0, 5).h0 == ()

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_square_case_halves(self, m, r):
        rep = predicted_dimensions(m, m, r)
        assert hook_classify(m, m, r).h1 == ()
        assert rep.dimA == 2 * rep.dimC

    @pytest.mark.parametrize("m,r", [(1, 2), (1, 3), (2, 5), (1, 5)])
    def test_thin_case_collapses(self, m, r):
        if m * m < r:
            rep = predicted_dimensions(m, 0, r)
            assert rep.dimA == rep.dimC

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_identities_hold_across_grid(self, m, n, r):
        if m + n == 0:
            return
        rep = predicted_dimensions(m, n, r)
        assert rep.dimA == rep.dimA0 + rep.dimA1
        assert rep.dimC == rep.dimC0 + rep.dimC1
        assert rep.dimA0 == 2 * rep.dimC0
        assert rep.dimA1 == rep.dimC1
        assert rep.dimA == sum(d * d for _, d, _ in rep.records)

    def test_needs_at_least_one_generator(self):
        with pytest.raises(ValueError):
            predicted_dimensions(1, 1, 1)
