import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qhecke.hecke import HeckeAlgebra, generator_sequence, goldman_eigenproject
from qhecke.qfield import (
    LaurentPolynomial,
    PoleError,
    Q_MINUS_QINV,
    Q_PLUS_QINV,
    RationalFunction,
    _axpy,
)
from qhecke.tensor import (
    GradedSpace,
    OperatorMatrix,
    PiRepresentation,
    RootDatum,
    phi_tensor,
    pi_T,
    pi_Tprime,
    represent,
    rho_e,
    rho_f,
    rho_generator,
    rho_generators,
    rho_sigma,
    rho_weight,
    integral_specialization,
    sign_permutation_matrix,
    specialize_matrix,
)

ONE = RationalFunction.one()
Q = RationalFunction.q()


def classical_signed_swap(space, i):
    """Test-local oracle for the q=1 action: swap slots with the parity sign."""
    entries = {}
    for col, idx in enumerate(space.indices()):
        k, l = idx[i - 1], idx[i]
        target = idx[:i - 1] + (l, k) + idx[i + 1:]
        sign = (-1) ** (space.degree(k) * space.degree(l))
        entries[(space.rank_of(target), col)] = Fraction(sign)
    return OperatorMatrix(space.dim, entries)


class TestGradedSpace:
    def test_dimensions_and_degrees(self):
        sp = GradedSpace(2, 1, 3)
        assert sp.dim == 27
        assert [sp.degree(k) for k in (1, 2, 3)] == [0, 0, 1]

    def test_rank_roundtrip(self):
        sp = GradedSpace(1, 2, 3)
        for rank, idx in enumerate(sp.indices()):
            assert sp.rank_of(idx) == rank
            assert sp.index_of(rank) == idx

    def test_invalid(self):
        with pytest.raises(ValueError):
            GradedSpace(0, 0, 2)


class TestPiMatrices:
    def test_diagonal_even_letter(self):
        sp = GradedSpace(1, 0, 2)
        assert pi_T(sp, 1).entries == {(0, 0): Q}

    def test_diagonal_odd_letter(self):
        sp = GradedSpace(0, 1, 2)
        assert pi_T(sp, 1).entries == {(0, 0): -RationalFunction.q(-1)}

    @pytest.mark.parametrize("m,n,r", [(1, 1, 2), (1, 1, 3), (2, 1, 2), (1, 2, 2),
                                       (2, 0, 3), (2, 2, 2), (1, 1, 4), (2, 1, 3)])
    def test_hecke_relations_hold(self, m, n, r):
        sp = GradedSpace(m, n, r)
        rep = PiRepresentation(sp)
        ident = OperatorMatrix.identity(sp.dim)
        for i in range(1, r):
            t = rep.t_matrix(i)
            assert t * t == t.scale(Q_MINUS_QINV) + ident
            tp = rep.tprime_matrix(i)
            assert tp * tp == ident
        for i in range(1, r - 1):
            a, b = rep.t_matrix(i), rep.t_matrix(i + 1)
            assert a * b * a == b * a * b
        u2 = (Q_MINUS_QINV / Q_PLUS_QINV) ** 2
        for i in range(1, r - 1):
            a, b = rep.tprime_matrix(i), rep.tprime_matrix(i + 1)
            assert a * b * a == b * a * b - (a - b).scale(u2)
        for i in range(1, r):
            for j in range(i + 2, r):
                assert rep.t_matrix(i).commutes_with(rep.t_matrix(j))

    def test_tprime_agrees_with_affine_formula(self):
        sp = GradedSpace(2, 1, 3)
        ident = OperatorMatrix.identity(sp.dim)
        for i in (1, 2):
            t = pi_T(sp, i)
            affine = (t + t - ident.scale(Q_MINUS_QINV)).scale(Q_PLUS_QINV.inverse())
            assert affine == pi_Tprime(sp, i)

    def test_tprime_eigenvalue_on_odd_square(self):
        sp = GradedSpace(1, 1, 2)
        rk = sp.rank_of((2, 2))
        assert pi_Tprime(sp, 1).entries[(rk, rk)] == -ONE

    def test_off_diagonal_entries_by_hand(self):
        # mixed column v1 (x) v2: swap with sign (+1 here) plus deformation
        sp = GradedSpace(1, 1, 2)
        qm = Q - RationalFunction.q(-1)
        qp = Q + RationalFunction.q(-1)
        t = pi_T(sp, 1)
        lo, hi = sp.rank_of((1, 2)), sp.rank_of((2, 1))
        assert t.entries[(hi, lo)] == ONE and t.entries[(lo, lo)] == qm
        assert t.entries[(lo, hi)] == ONE and (hi, hi) not in t.entries
        tp = pi_Tprime(sp, 1)
        two_over = RationalFunction.constant(2) / qp
        ratio = qm / qp
        assert tp.entries[(hi, lo)] == two_over and tp.entries[(lo, lo)] == ratio
        assert tp.entries[(lo, hi)] == two_over and tp.entries[(hi, hi)] == -ratio

    def test_site_bounds(self):
        with pytest.raises(ValueError):
            pi_T(GradedSpace(1, 1, 2), 2)


class TestRho:
    def test_sigma_diagonal_signs(self):
        sp = GradedSpace(1, 1, 2)
        mat = rho_sigma(sp)
        for col, idx in enumerate(sp.indices()):
            expected = (-1) ** sum(sp.degree(k) for k in idx)
            assert mat.entries[(col, col)] == RationalFunction.constant(expected)

    def test_one_site_raising_lowering(self):
        sp = GradedSpace(1, 1, 1)
        datum = RootDatum(1, 1)
        assert rho_e(sp, datum, 1).entries == {(0, 1): ONE}
        assert rho_f(sp, datum, 1).entries == {(1, 0): ONE}

    def test_two_site_raising_expansion_by_hand(self):
        # for the odd root of the (1,1) shape: the slot-1 term carries the
        # inverse weight diag(q^-1, q^-1) on the right, the slot-2 term the
        # grading sign on the left
        sp = GradedSpace(1, 1, 2)
        datum = RootDatum(1, 1)
        qinv = RationalFunction.q(-1)
        assert rho_e(sp, datum, 1).entries == {
            (0, 2): qinv, (1, 3): qinv,    # v2 (x) v_j -> q^-1 v1 (x) v_j
            (0, 1): ONE, (2, 3): -ONE,     # v_j (x) v2 -> (-1)^|v_j| v_j (x) v1
        }

    def test_two_site_lowering_expansion_by_hand(self):
        # slot-1 term is plain, slot-2 term carries diag((-1)^d q^(pairing))
        sp = GradedSpace(1, 1, 2)
        datum = RootDatum(1, 1)
        assert rho_f(sp, datum, 1).entries == {
            (2, 0): ONE, (3, 1): ONE,      # v1 (x) v_j -> v2 (x) v_j
            (1, 0): Q, (3, 2): -Q,         # v_j (x) v1 -> (-1)^|v_j| q v_j (x) v2
        }

    def test_weight_counts_letters(self):
        sp = GradedSpace(1, 1, 2)
        mat = rho_weight(sp, 2)
        for col, idx in enumerate(sp.indices()):
            count = sum(1 for k in idx if k == 2)
            assert mat.entries[(col, col)] == RationalFunction.q(count)

    def test_weight_vector_is_product_of_dual_basis_weights(self):
        from qhecke.tensor import rho_weight_vector
        sp = GradedSpace(1, 1, 2)
        combined = rho_weight_vector(sp, (2, -1))
        product = rho_weight(sp, 1) * rho_weight(sp, 1)
        inverse_w2 = rho_weight_vector(sp, (0, -1))
        assert combined == product * inverse_w2
        with pytest.raises(ValueError):
            rho_weight_vector(sp, (1,))

    def test_sigma_squares_and_weights_invertible(self):
        sp = GradedSpace(2, 1, 2)
        ident = OperatorMatrix.identity(sp.dim)
        sig = rho_sigma(sp)
        assert sig * sig == ident
        for b in (1, 2, 3):
            w = rho_weight(sp, b)
            assert all((i == j) for (i, j) in w.entries)     # diagonal
            assert all(v for v in w.entries.values())        # invertible

    @pytest.mark.parametrize("m,n,r", [(1, 1, 2), (1, 1, 3), (2, 1, 2), (1, 2, 2),
                                       (2, 2, 2), (2, 0, 3)])
    def test_action_commutes_with_hecke_action(self, m, n, r):
        sp = GradedSpace(m, n, r)
        rep = PiRepresentation(sp)
        for i in range(1, r):
            t = rep.t_matrix(i)
            for name, g in rho_generators(sp):
                assert t.commutes_with(g), (i, name)

    def test_dispatch_labels(self):
        sp = GradedSpace(1, 1, 2)
        assert rho_generator(sp, "sigma") == rho_sigma(sp)
        assert rho_generator(sp, "qh", 1) == rho_weight(sp, 1)
        with pytest.raises(ValueError):
            rho_generator(sp, "bogus")


class TestPhi:
    def test_rank1_is_plain_swap(self):
        sp = GradedSpace(1, 1, 1)
        assert phi_tensor(sp).entries == {(1, 0): ONE, (0, 1): ONE}

    @pytest.mark.parametrize("m,r", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
    def test_square_is_sign(self, m, r):
        sp = GradedSpace(m, m, r)
        flip = phi_tensor(sp)
        sign = (-1) ** (r * (r - 1) // 2)
        assert flip * flip == OperatorMatrix.identity(sp.dim).scale(
            RationalFunction.constant(sign))

    @pytest.mark.parametrize("m,r", [(1, 2), (1, 3), (2, 2)])
    def test_anticommutes_with_involutive_generators(self, m, r):
        sp = GradedSpace(m, m, r)
        flip = phi_tensor(sp)
        for i in range(1, r):
            assert pi_Tprime(sp, i).anticommutes_with(flip)

    def test_requires_square_shape(self):
        with pytest.raises(ValueError):
            phi_tensor(GradedSpace(2, 1, 2))


class TestRepresent:
    def test_identity(self):
        sp = GradedSpace(1, 1, 2)
        assert represent(HeckeAlgebra(2).one(), sp) == OperatorMatrix.identity(sp.dim)

    def test_homomorphism(self):
        sp = GradedSpace(1, 1, 3)
        rep = PiRepresentation(sp)
        H = HeckeAlgebra(3)
        rng = random.Random(11)
        for _ in range(5):
            x, y = H.random_element(rng, 3), H.random_element(rng, 3)
            assert rep.represent(x * y) == rep.represent(x) * rep.represent(y)

    def test_goldman_fixed_elements_commute_with_flip(self):
        sp = GradedSpace(1, 1, 3)
        rep = PiRepresentation(sp)
        flip = phi_tensor(sp)
        H = HeckeAlgebra(3)
        rng = random.Random(12)
        for _ in range(5):
            x = goldman_eigenproject(H.random_element(rng, 3), 1)
            assert rep.represent(x).commutes_with(flip)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            represent(HeckeAlgebra(2).one(), GradedSpace(1, 1, 3))

    @pytest.mark.parametrize("shape", [(1, 1, 3), (2, 1, 3)])
    def test_word_matrix_is_the_product_along_the_generator_sequence(self, shape):
        rep = PiRepresentation(GradedSpace(*shape))
        for word in rep.table.words:
            expected = OperatorMatrix.identity(rep.space.dim)
            for g in generator_sequence(word):
                expected = expected * rep.t_matrix(g)
            assert rep.word_matrix(word) == expected


class TestXCache:
    def test_repeat_calls_return_equal_matrices(self):
        rep = PiRepresentation(GradedSpace(1, 1, 4))
        first = rep.x_matrices()
        assert first == [pi_Tprime(rep.space, 1) * pi_Tprime(rep.space, i + 1)
                         for i in range(1, 3)]
        again = rep.x_matrices()
        assert again == first
        assert all(a is b for a, b in zip(again, first))

    def test_changing_the_returned_list_leaves_the_cache(self):
        rep = PiRepresentation(GradedSpace(1, 1, 4))
        xs = rep.x_matrices()
        expected = list(xs)
        xs[0] = OperatorMatrix.identity(rep.space.dim)
        xs.append(xs[1])
        assert rep.x_matrices() == expected

    def test_index_out_of_range(self):
        rep = PiRepresentation(GradedSpace(1, 1, 3))
        for i in (0, 2):
            with pytest.raises(ValueError, match="X generator index"):
                rep.x_matrix(i)


class TestSpecialize:
    def test_identity_any_point(self):
        ident = OperatorMatrix.identity(4)
        spec = specialize_matrix(ident, Fraction(7, 3))
        assert spec.entries == {(i, i): Fraction(1) for i in range(4)}

    @pytest.mark.parametrize("m,n,r", [(1, 0, 2), (1, 1, 3), (2, 0, 3), (1, 2, 2)])
    def test_classical_point_is_signed_permutation(self, m, n, r):
        sp = GradedSpace(m, n, r)
        rep = PiRepresentation(sp)
        for i in range(1, r):
            spec = specialize_matrix(rep.t_matrix(i), 1)
            assert spec == sign_permutation_matrix(sp, i)
            assert spec == classical_signed_swap(sp, i)

    def test_pole_names_entry(self):
        bad = RationalFunction(LaurentPolynomial.one(), LaurentPolynomial({1: 1, 0: -1}))
        mat = OperatorMatrix(2, {(0, 1): bad})
        with pytest.raises(PoleError, match="entry 0,1"):
            specialize_matrix(mat, 1)

    def test_repeated_pole_names_its_first_entry(self):
        # each value is evaluated once; the error still names where it first occurs
        bad = RationalFunction(LaurentPolynomial.one(), LaurentPolynomial({1: 1, 0: -1}))
        mat = OperatorMatrix(2, {(1, 1): Q, (1, 0): bad, (0, 1): bad, (0, 0): bad})
        with pytest.raises(PoleError, match="entry 1,0"):
            specialize_matrix(mat, 1)

    def test_zero_values_are_dropped(self):
        # q - 2 vanishes at 2, once evaluated and twice reused
        root = Q - RationalFunction.constant(2)
        mat = OperatorMatrix(3, {(0, 0): root, (0, 1): Q, (1, 2): root, (2, 2): root})
        spec = specialize_matrix(mat, 2)
        assert spec.entries == {(0, 1): Fraction(2)}


class TestHeckeGeneratorsAtAPoint:
    """At q = a/b the T_j, Y_j and X~_i come from the two-site rule as
    integer matrices; the generic matrices evaluated by
    `integral_specialization` are the oracle."""

    SHAPES = [(2, 1, 3), (1, 2, 3), (1, 1, 4), (2, 0, 4)]
    POINTS = [Fraction(2), Fraction(15, 7), Fraction(1, 5), 1, -1, Fraction(-3, 2)]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
    @pytest.mark.parametrize("t", POINTS, ids=str)
    def test_equal_to_the_generic_matrices_up_to_sign(self, shape, t):
        rep = PiRepresentation(GradedSpace(*shape))
        built, generic = rep.hecke_generators(t), rep.hecke_generators()
        assert [len(family) for family in built] == [len(family) for family in generic]
        for b, g in zip((m for family in built for m in family),
                        (m for family in generic for m in family)):
            oracle = integral_specialization(g, t)
            assert all(type(v) is int for v in b.entries.values())
            assert b == oracle or b == -oracle

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
    @pytest.mark.parametrize("t", POINTS, ids=str)
    def test_t_at_a_point_is_ab_times_its_value(self, shape, t):
        space = GradedSpace(*shape)
        a, b = Fraction(t).numerator, Fraction(t).denominator
        for i in range(1, space.r):
            at = pi_T(space, i, t)
            assert all(type(v) is int for v in at.entries.values())
            assert at == specialize_matrix(pi_T(space, i), t).scale(a * b)

    def test_zero_is_refused(self):
        with pytest.raises(ValueError, match="nonzero"):
            PiRepresentation(GradedSpace(1, 1, 3)).hecke_generators(0)


@st.composite
def laurent_matrix_strategy(draw, dim=3):
    """A dim x dim matrix of Laurent entries with int or Fraction coefficients;
    some entries may vanish at the sampled points."""
    coeffs = draw(st.sampled_from([
        st.integers(min_value=-9, max_value=9),
        st.fractions(min_value=-9, max_value=9, max_denominator=5)]))
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
        st.dictionaries(st.integers(-3, 3), coeffs, max_size=3), max_size=dim * dim))
    return OperatorMatrix(dim, {k: RationalFunction(LaurentPolynomial(v))
                                for k, v in entries.items()})


class TestIntegralSpecialization:
    """An integer matrix of content 1 proportional to the value at q = t."""

    @staticmethod
    def _assert_proportional(scaled, value):
        assert all(type(v) is int for v in scaled.entries.values())
        assert scaled.entries.keys() == value.entries.keys()
        if value.entries:
            assert gcd(*scaled.entries.values()) == 1
            key = next(iter(value.entries))
            lam = Fraction(scaled.entries[key]) / value.entries[key]
            assert value.scale(lam) == scaled

    @given(mat=laurent_matrix_strategy(),
           t=st.sampled_from([1, -1, 2, Fraction(15, 7), Fraction(-3, 2)]))
    @settings(max_examples=120, deadline=None)
    def test_is_a_primitive_multiple_of_the_value(self, mat, t):
        self._assert_proportional(integral_specialization(mat, t),
                                  specialize_matrix(mat, t))

    @pytest.mark.parametrize("t", [Fraction(7, 3), Fraction(-2)])
    def test_non_laurent_entries_are_specialized_and_cleared(self, t):
        mat = pi_Tprime(GradedSpace(1, 1, 2), 1)
        self._assert_proportional(integral_specialization(mat, t),
                                  specialize_matrix(mat, t))

    def test_pole_names_entry(self):
        bad = RationalFunction(LaurentPolynomial.one(), LaurentPolynomial({1: 1, 0: -1}))
        with pytest.raises(PoleError, match="entry 0,1"):
            integral_specialization(OperatorMatrix(2, {(0, 1): bad, (1, 1): Q}), 1)


def test_dump_lines_format_and_truncation():
    sp = GradedSpace(1, 1, 2)
    mat = pi_T(sp, 1)
    lines = mat.dump_lines()
    assert lines[0] == "0 0 (q)/(1)"
    assert all(len(line.split(" ", 2)) == 3 for line in lines)
    assert len(mat.dump_lines(limit=3)) == 3
    assert mat.dump_lines(limit=0) == []


def test_dump_lines_rejects_a_negative_limit():
    # a negative slice bound would silently drop entries from the end
    mat = pi_T(GradedSpace(1, 1, 2), 1)
    with pytest.raises(ValueError, match="limit"):
        mat.dump_lines(-1)


def test_equal_matrices_hash_alike():
    # value-keyed caches of matrices, such as the crossed-product oracle's in
    # test_crossed, rely on equal matrices hashing alike
    sp = GradedSpace(1, 1, 2)
    g = pi_T(sp, 1)
    built = OperatorMatrix(sp.dim, dict(reversed(list(g.entries.items()))))
    assert built == g and hash(built) == hash(g)
    assert {g: 1}[built] == 1
    assert g * g not in {g: 1}


def _uncached_product(a, b):
    """The product as `OperatorMatrix.__mul__` made it before it kept the
    right factor's row index: the index rebuilt on every call."""
    rows = {}
    for (k, j), v in b.entries.items():
        rows.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), u in a.entries.items():
        _axpy(out, u, [((i, j), v) for j, v in rows.get(k, ())])
    return OperatorMatrix(a.dim, out)


@st.composite
def int_matrix_strategy(draw, dim=4):
    entries = draw(st.dictionaries(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
                                   st.integers(-5, 5), max_size=dim * dim))
    return OperatorMatrix(dim, entries)


@given(mats=st.one_of(st.lists(int_matrix_strategy(), min_size=1, max_size=4),
                     st.lists(laurent_matrix_strategy(dim=4), min_size=1, max_size=4)))
@settings(max_examples=80, deadline=None)
def test_products_with_a_kept_row_index_equal_the_uncached_loop(mats):
    # every ordered pair, twice: each matrix is a right factor many times,
    # a left factor before and after its index exists, and a product's
    # index is built on the fresh result
    for _ in range(2):
        for a in mats:
            for b in mats:
                assert a * b == _uncached_product(a, b)
    chain = mats[0]
    for b in mats[1:]:
        chain = chain * b
        assert chain * chain == _uncached_product(chain, chain)
