import random
from math import factorial

import pytest

from qhecke.alternating import (
    check_even_closure,
    enumerate_even_basis,
    is_in_alt,
    odd_word_count,
    tprime_product_coords,
    verify_crossed_product_H,
    x_generator,
)
from qhecke import hecke
from qhecke.hecke import (
    HeckeAlgebra,
    SymmetricGroupTable,
    _lc_to_rf,
    goldman_eigenproject,
    symmetric_group_table,
    to_tprime_basis,
)
from qhecke.qfield import Q_MINUS_QINV, Q_PLUS_QINV, _qp_pow
from qhecke.suites import suite_alt, suite_hecke
from test_crossed import hecke_crossed_failures


class TestEvenBasis:
    @pytest.mark.parametrize("rank,expected", [(2, 1), (3, 3), (4, 12), (5, 60), (6, 360)])
    def test_cardinality(self, rank, expected):
        basis = enumerate_even_basis(rank)
        assert len(basis) == expected == factorial(rank) // 2
        assert odd_word_count(rank) == expected
        assert all(sum(w) % 2 == 0 for w in basis.words)

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            enumerate_even_basis(1)


class TestMembership:
    def test_identity(self):
        assert is_in_alt(HeckeAlgebra(3).one())

    def test_involutive_generator_is_odd(self):
        assert not is_in_alt(HeckeAlgebra(3).tprime(1))

    def test_product_of_two_is_even(self):
        H = HeckeAlgebra(3)
        p = H.tprime(1) * H.tprime(2)
        assert is_in_alt(p)
        # independent route: the second-basis expansion has even support only
        assert to_tprime_basis(p).even_supported

    @pytest.mark.parametrize("rank, seed, samples", [
        pytest.param(3, 3, 8, id="3"),
        pytest.param(4, 4, 8, id="4"),
        # the draws `verify alt` sampled at these ranks and seeds before its
        # record was decided from the closure premises
        pytest.param(5, 0, 10, id="5-seed-0"),
        pytest.param(5, 7, 10, id="5-seed-7"),
        pytest.param(6, 0, 10, id="6-seed-0"),
    ])
    def test_matches_even_support_on_samples(self, rank, seed, samples):
        H = HeckeAlgebra(rank)
        rng = random.Random(seed)
        for _ in range(samples):
            x = H.random_element(rng, terms=3)
            assert is_in_alt(x) == to_tprime_basis(x).even_supported
            proj = goldman_eigenproject(x, 1)
            assert is_in_alt(proj)
            assert to_tprime_basis(proj).even_supported

    @pytest.mark.parametrize("rank", [3, 4])
    def test_matches_vanishing_minus_projection(self, rank):
        H = HeckeAlgebra(rank)
        rng = random.Random(10 + rank)
        for _ in range(8):
            x = H.random_element(rng, 3)
            assert is_in_alt(x) == goldman_eigenproject(x, -1).is_zero


class TestXGenerators:
    def test_square_one_beyond_first(self):
        one = HeckeAlgebra(5).one()
        for i in (2, 3):
            x = x_generator(5, i)
            assert x * x == one

    def test_first_generator_cubic(self):
        one = HeckeAlgebra(4).one()
        u2 = (Q_MINUS_QINV / Q_PLUS_QINV) ** 2
        x1 = x_generator(4, 1)
        assert x1 * x1 * x1 == -u2 * (x1 * x1 - x1) + one

    def test_distant_product_involutive(self):
        one = HeckeAlgebra(6).one()
        z = x_generator(6, 1) * x_generator(6, 3)
        assert z * z == one

    def test_members_of_even_part(self):
        for i in (1, 2, 3):
            assert is_in_alt(x_generator(5, i))

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            x_generator(4, 3)


def pair_violations(table):
    """The exhaustive oracle (r <= 4): odd terms in the product of every pair of even T' words."""
    words, length = table.words, table.length
    evens = [w for w in range(len(words)) if length[w] % 2 == 0]
    return [(words[w1], words[w2], words[u], str(_lc_to_rf(c, den)))
            for w2 in evens for w1 in evens
            for nums, den in [tprime_product_coords(table, w1, w2)]
            for u, c in nums.items() if length[u] & 1]


def column_violations(table):
    """The column oracle (r <= 5): terms of the wrong parity in the (r-1) r!/2 T'-columns.

    T'_g * T'_w must have support of the other parity for g >= 2 and every even
    w, and for g = 1 and every odd w.  Given T'_g^2 = 1 that proves closure:
    each X_i = T'_1 T'_{i+1} then maps the even span E into E, every even T'_w
    is a product of pairs T'_a T'_b = X_{a-1}^-1 X_{b-1} (X_0 = 1), and X_i^-1
    is a polynomial in X_i.  A violation (g, w, u, c) is a term c T'_u of w's
    parity in T'_g * T'_w, listed in g-then-w order.
    """
    words, length = table.words, table.length
    return [(g, words[wid], words[u], str(_lc_to_rf(c, den)))
            for g in range(1, table.rank) for wid in range(len(words))
            if length[wid] % 2 == (g == 1)
            for nums, den in [table.tp_left_col(g, wid)]
            for u, c in nums.items() if length[u] % 2 == length[wid] % 2]


class TestClosure:
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_all_pairs_closed(self, rank):
        # the proof's verdict matches the product of every pair of even words
        # and the T'-generator columns
        table = symmetric_group_table(rank)
        assert check_even_closure(rank) == []
        assert not column_violations(table)
        assert not pair_violations(table)

    def test_detects_odd_products(self):
        # the same coordinates machinery reports odd support when one factor
        # is odd, so a closure failure would be visible
        table = symmetric_group_table(3)
        odd = next(w for w in range(len(table.words)) if table.length[w] % 2 == 1)
        even = next(w for w in range(len(table.words)) if table.length[w] % 2 == 0)
        coords, _ = tprime_product_coords(table, odd, even)
        assert {table.length[w] & 1 for w in coords} == {1}

    @pytest.fixture
    def broken_table(self, request, monkeypatch):
        """The table of rank ``request.param`` (default 3) whose column T'_2 * T'(0, ..., 0),
        which the column oracle reads, gains the even term 1 * T'(1, 1, 0, ...)."""
        table = symmetric_group_table(getattr(request, "param", 3))
        even = table.index[(1, 1) + (0,) * (table.rank - 3)]
        column = table.tp_left_col

        def tp_left_col(g, wid):
            nums, den = column(g, wid)
            if (g, wid) != (2, table.identity):
                return nums, den
            d, ek, _ = den         # the coefficient 1 over den
            return {**nums, even: {e: d * c for e, c in _qp_pow(ek).items()}}, den

        monkeypatch.setitem(vars(table), "tp_left_col", tp_left_col)
        return table

    def test_exhaustive_mode_reports_the_violating_pairs(self, broken_table):
        # the exhaustive oracle sees the corrupted column; the proof reads no column
        assert pair_violations(broken_table)
        assert check_even_closure(3) == []

    @pytest.mark.parametrize("broken_table", [3, 5], indirect=True)
    def test_column_oracle_names_the_corrupted_column(self, broken_table):
        rank = broken_table.rank
        assert column_violations(broken_table) == [
            (2, (0,) * (rank - 1), (1, 1) + (0,) * (rank - 3), "1")]

    @pytest.fixture
    def goldman_table(self, request, monkeypatch):
        """A fresh table of rank ``request.param`` installed in the table cache, whose
        Goldman step ``goldman_gen_apply`` a test replaces.  The cached table is left
        alone: its Goldman word cache would hide the replacement or keep its images."""
        table = SymmetricGroupTable(request.param)
        monkeypatch.setitem(hecke._TABLE_CACHE, table.rank, table)
        return table

    @staticmethod
    def _closure_record(rank):
        # membership, and conjugation by T'_1 preserving the even part, rest on
        # the closure premises, so they fail with them
        checks = {c.name: c for c in suite_alt(rank).checks}
        assert checks["membership-matches-even-support"].status == "fail"
        hecke_checks = {c.name: c for c in suite_hecke(rank).checks}
        assert hecke_checks["weak-action-preserves-even-part"].status == "fail"
        check = checks["even-basis-closure"]
        assert check.status == "fail"
        return check

    @pytest.mark.parametrize("goldman_table", [3, 5], indirect=True)
    def test_suite_fails_closure_on_the_tprime_signs(self, goldman_table, monkeypatch):
        # with gamma the identity the G_i = T_i satisfy every Hecke relation, and
        # its fixed space is all of H: only the sign check sees that
        monkeypatch.setattr(goldman_table, "goldman_gen_apply", lambda g, vec: (
            goldman_table.gen_mul(goldman_table.left_mult[g - 1], vec[0]), vec[1]))
        rank = goldman_table.rank
        check = self._closure_record(rank)
        assert check.actual == f"{rank - 1} relations fail"
        assert check.witness == "; ".join(
            f"Goldman image of T'_{i} is not -T'_{i}" for i in range(1, rank))
        assert not column_violations(goldman_table)    # the columns do not see it

    @pytest.mark.parametrize("goldman_table, braids", [
        (3, "Goldman braid at i=1"),
        (5, "Goldman braid at i=1; Goldman braid at i=2"),
    ], indirect=["goldman_table"], ids=["3", "5"])
    def test_suite_fails_closure_on_the_quadratic_relation(self, goldman_table, braids,
                                                           monkeypatch):
        # G_2 = -T_2 squares to T_2^2 = (q - q^-1) T_2 + 1, not (q - q^-1) G_2 + 1
        step = goldman_table.goldman_gen_apply
        monkeypatch.setattr(goldman_table, "goldman_gen_apply", lambda g, vec: (
            (goldman_table.gen_mul(goldman_table.left_mult[1], vec[0], -1), vec[1])
            if g == 2 else step(g, vec)))
        check = self._closure_record(goldman_table.rank)
        assert check.witness == (
            f"Goldman quadratic at i=2; {braids}; Goldman image of T'_2 is not -T'_2")
        assert not column_violations(goldman_table)    # the columns do not see it

    @pytest.mark.parametrize("rank", [3, 4])
    def test_cascade_matches_direct_products(self, rank):
        H = HeckeAlgebra(rank)
        table = symmetric_group_table(rank)
        rng = random.Random(rank)
        evens = [w for w in range(len(table.words)) if table.length[w] % 2 == 0]
        for _ in range(10):
            w1, w2 = rng.choice(evens), rng.choice(evens)
            coords, den = tprime_product_coords(table, w1, w2)
            direct = to_tprime_basis(
                H.tprime_basis_element(table.words[w1])
                * H.tprime_basis_element(table.words[w2]))
            assert direct.coeffs == {
                table.words[u]: _lc_to_rf(c, den) for u, c in sorted(coords.items())}


class TestCrossedProduct:
    @pytest.mark.parametrize("rank,half", [(2, 1), (3, 3), (4, 12)])
    def test_exhaustive(self, rank, half):
        report = verify_crossed_product_H(rank)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["even-odd-word-counts"].actual == f"({half}, {half})"
        assert by_name["decomposition-dims"].actual == f"({half}, {half})"

    def test_sampled_rank5(self):
        report = verify_crossed_product_H(5, seed=1)
        assert report.passed

    def test_rank_bound(self):
        with pytest.raises(ValueError):
            verify_crossed_product_H(1)

    @pytest.mark.parametrize("rank,pairs", [(4, 144), (5, 12)])
    def test_non_involutive_conjugator_fails(self, monkeypatch, rank, pairs):
        # T'_1 replaced by the plain generator T_1, which does not square to one
        # and is not negated by gamma: both premises fail, and the sampled
        # oracle fails the same records, on every one of its pairs
        tprime = HeckeAlgebra.tprime
        monkeypatch.setattr(HeckeAlgebra, "tprime", lambda self, i:
                            self.generator(1) if i == 1 else tprime(self, i))
        failed = {c.name: c for c in verify_crossed_product_H(rank).checks
                  if c.status != "pass"}
        assert list(failed) == ["weak-action-preserves-even-part", "weak-action-order-two",
                                "weak-action-multiplicative", "crossed-system-axioms",
                                "crossed-product-law"]
        assert all(c.status == "fail" for c in failed.values())
        law = failed["crossed-product-law"]
        assert (law.expected, law.actual, law.witness) == (
            "all pairs x 4 sign patterns, given T'_1^2 = 1", "T'_1^2 = 1 fails", None)
        oracle = {name: bad for name, bad in hecke_crossed_failures(rank).items() if bad}
        assert list(oracle) == list(failed)
        assert len(oracle["crossed-product-law"]) == pairs
