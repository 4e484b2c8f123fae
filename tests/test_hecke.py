import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from qhecke.hecke import (
    _canonical,
    _from_field,
    _lc_to_rf,
    _unit_vec,
    HeckeAlgebra,
    HeckeElement,
    SymmetricGroupTable,
    U_SQUARED,
    from_tprime_basis,
    generator_sequence,
    goldman,
    goldman_eigenproject,
    normal_form_words,
    relation_failures,
    symmetric_group_table,
    to_tprime_basis,
    word_parity,
    word_to_permutation,
)
from qhecke.qfield import (
    LaurentPolynomial,
    Q_MINUS_QINV,
    Q_PLUS_QINV,
    RationalFunction,
    _axpy,
    _dense,
    _dense_gcd,
    _idiv_qp,
    _mul_terms,
    _qp_pow,
)

HALF = RationalFunction.constant(Fraction(1, 2))


@st.composite
def hecke_element_strategy(draw, rank=3):
    words = normal_form_words(rank)
    terms = draw(st.lists(
        st.tuples(st.integers(0, len(words) - 1),
                  st.integers(-3, 3), st.integers(-2, 2)),
        min_size=0, max_size=3))
    coeffs = {}
    for wid, c, e in terms:
        if c:
            coeffs[words[wid]] = coeffs.get(words[wid], RationalFunction.zero()) \
                + RationalFunction(LaurentPolynomial({e: c}))
    return HeckeElement(rank, coeffs)


# -- independent oracles -----------------------------------------------------

def compose_transpositions(seq, rank):
    """Brute-force product of adjacent transpositions; seq applied right to left."""
    perm = list(range(1, rank + 1))
    for g in reversed(seq):
        perm = [g + 1 if v == g else g if v == g + 1 else v for v in perm]
    return tuple(perm)


def inversions(perm):
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
               if perm[i] > perm[j])


# -- words and permutations ---------------------------------------------------

class TestWords:
    def test_identity_word(self):
        assert word_to_permutation((0, 0, 0)) == (1, 2, 3, 4)

    def test_single_transposition(self):
        assert word_to_permutation((1,)) == (2, 1)

    def test_longest_element_rank3(self):
        # oracle: multiply the transpositions of the word by brute force
        word = (1, 2)
        assert generator_sequence(word) == (1, 2, 1)
        expected = compose_transpositions((1, 2, 1), 3)
        assert expected == (3, 2, 1)
        assert word_to_permutation(word) == expected

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_bijection_and_count(self, rank):
        words = normal_form_words(rank)
        import math
        assert len(words) == math.factorial(rank)
        perms = {word_to_permutation(w) for w in words}
        assert len(perms) == len(words)

    @pytest.mark.parametrize("rank", range(2, 7))
    def test_words_are_reduced(self, rank):
        # the concatenated descent blocks form a reduced word: length = inversions
        for w in normal_form_words(rank):
            seq = generator_sequence(w)
            assert len(seq) == sum(w)
            assert inversions(word_to_permutation(w)) == len(seq)
            assert compose_transpositions(seq, rank) == word_to_permutation(w)

    def test_parity(self):
        assert word_parity((1, 2)) == 1
        assert word_parity((1, 1)) == 0


# -- multiplication -----------------------------------------------------------

class TestMultiply:
    def test_quadratic_relation(self):
        H = HeckeAlgebra(3)
        t1 = H.generator(1)
        assert t1 * t1 == Q_MINUS_QINV * t1 + H.one()

    def test_braid_relation(self):
        H = HeckeAlgebra(3)
        t1, t2 = H.generator(1), H.generator(2)
        assert t1 * (t2 * t1) == t2 * (t1 * t2)

    def test_unit_law(self):
        H = HeckeAlgebra(4)
        rng = random.Random(0)
        for _ in range(5):
            x = H.random_element(rng, terms=4)
            assert H.one() * x == x
            assert x * H.one() == x

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            HeckeAlgebra(3).one() * HeckeAlgebra(4).one()

    @pytest.mark.parametrize("rank", [3, 4])
    def test_associativity(self, rank):
        H = HeckeAlgebra(rank)
        rng = random.Random(rank)
        for _ in range(8):
            a, b, c = (H.random_element(rng, terms=3) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_basis_product_matches_regular_representation(self):
        # T_w * T_v through the generator cascade equals the same product
        # computed one generator at a time from scratch
        H = HeckeAlgebra(4)
        table = H.table
        rng = random.Random(7)
        for _ in range(10):
            w = table.words[rng.randrange(len(table.words))]
            v = table.words[rng.randrange(len(table.words))]
            lhs = H.basis_element(w) * H.basis_element(v)
            rhs = H.basis_element(v)
            for g in reversed(generator_sequence(w)):
                rhs = H.generator(g) * rhs
            assert lhs == rhs

    def test_general_coefficients_fall_back(self):
        # a coefficient with denominator q-1 is stored as a RationalFunction
        H = HeckeAlgebra(3)
        c = RationalFunction(LaurentPolynomial.one(), LaurentPolynomial({1: 1, 0: -1}))
        x = H.generator(1) * c
        y = H.generator(2) + H.one()
        assert (x * y) == (H.generator(1) * y) * c
        assert to_tprime_basis(x).coeffs
        assert from_tprime_basis(to_tprime_basis(x)) == x
        assert goldman(goldman(x)) == x


class TestRelationFailures:
    """The one quadratic/braid/far-commutation check, t_i^2 = a t_i + 1 and
    t_i t_{i+1} t_i = t_{i+1} t_i t_{i+1} + c (t_i - t_{i+1})."""

    @staticmethod
    def tprimes(rank):
        algebra = HeckeAlgebra(rank)
        return {i: algebra.tprime(i) for i in range(1, rank)}

    @pytest.mark.parametrize("rank", range(2, 7))
    def test_tprime_presentation_holds(self, rank):
        assert relation_failures(self.tprimes(rank), a=0, c=-U_SQUARED) == []

    def test_tprimes_fail_the_t_presentation(self):
        assert relation_failures(self.tprimes(4)) == [
            "quadratic at i=1", "quadratic at i=2", "quadratic at i=3",
            "braid at i=1", "braid at i=2"]

    @pytest.mark.parametrize("gens, a, c", [
        ("tprime", 0, U_SQUARED),
        ("tprime", 0, 0),
        ("generator", Q_MINUS_QINV, 1),
    ])
    def test_wrong_braid_correction_fails_only_braids(self, gens, a, c):
        algebra = HeckeAlgebra(5)
        family = {i: getattr(algebra, gens)(i) for i in range(1, 5)}
        assert relation_failures(family, a=a, c=c) == [
            "braid at i=1", "braid at i=2", "braid at i=3"]


# -- Goldman involution --------------------------------------------------------

class TestGoldman:
    def test_generator_image(self):
        H = HeckeAlgebra(3)
        t1 = H.generator(1)
        assert goldman(t1) == Q_MINUS_QINV * H.one() - t1

    def test_involution_and_algebra_map(self):
        H = HeckeAlgebra(4)
        rng = random.Random(1)
        for _ in range(6):
            x, y = H.random_element(rng, 3), H.random_element(rng, 3)
            assert goldman(goldman(x)) == x
            assert goldman(x * y) == goldman(x) * goldman(y)

    def test_involutive_generator_flips_sign(self):
        H = HeckeAlgebra(4)
        for i in (1, 2, 3):
            tp = H.tprime(i)
            assert goldman(tp) == -tp

    def test_eigenprojections(self):
        H = HeckeAlgebra(3)
        assert goldman_eigenproject(H.tprime(1), 1).is_zero
        assert goldman_eigenproject(H.one(), 1) == H.one()
        rng = random.Random(2)
        for _ in range(5):
            x = H.random_element(rng, 3)
            plus = goldman_eigenproject(x, 1)
            minus = goldman_eigenproject(x, -1)
            assert plus + minus == x
            assert goldman(plus) == plus
            assert goldman(minus) == -minus
        with pytest.raises(ValueError):
            goldman_eigenproject(H.one(), 2)


# -- the involutive generators and the second basis ----------------------------

class TestTPrime:
    def test_square_is_one(self):
        H = HeckeAlgebra(4)
        for i in (1, 2, 3):
            tp = H.tprime(i)
            assert tp * tp == H.one()

    def test_roundtrip_to_t(self):
        H = HeckeAlgebra(4)
        for i in (1, 2, 3):
            assert (Q_PLUS_QINV * H.tprime(i) + Q_MINUS_QINV) * HALF == H.generator(i)

    def test_rank2_coefficients(self):
        # derived by field arithmetic from (2 T_1 - (q - q^-1)) / (q + q^-1)
        H = HeckeAlgebra(2)
        tp = H.tprime(1)
        expected_const = -(Q_MINUS_QINV / Q_PLUS_QINV)
        expected_t = RationalFunction.constant(2) / Q_PLUS_QINV
        assert tp.coeffs == {(0,): expected_const, (1,): expected_t}

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            HeckeAlgebra(3).tprime(3)
        with pytest.raises(ValueError):
            HeckeAlgebra(3).generator(0)


class TestBasisConversion:
    def test_t1_expansion(self):
        H = HeckeAlgebra(3)
        coords = to_tprime_basis(H.generator(1))
        assert coords.coeffs == {
            (0, 0): HALF * Q_MINUS_QINV,
            (1, 0): HALF * Q_PLUS_QINV,
        }

    def test_identity(self):
        H = HeckeAlgebra(3)
        coords = to_tprime_basis(H.one())
        assert coords.coeffs == {(0, 0): RationalFunction.one()}

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_random_roundtrip(self, rank):
        H = HeckeAlgebra(rank)
        rng = random.Random(rank)
        for _ in range(6):
            x = H.random_element(rng, 4)
            assert from_tprime_basis(to_tprime_basis(x)) == x

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_full_basis_roundtrip(self, rank):
        # the change of basis is invertible on the whole basis
        H = HeckeAlgebra(rank)
        for w in normal_form_words(rank):
            x = H.basis_element(w)
            assert from_tprime_basis(to_tprime_basis(x)) == x

    def test_coordinates_come_longest_first(self):
        # ties in length come in ascending word index
        table = symmetric_group_table(4)
        coords, _ = table.to_tprime(({wid: {0: 1} for wid in range(len(table.words))},
                                     (1, 0, None)))
        assert len(coords) == len(table.words)
        assert list(coords) == sorted(coords, key=lambda w: (-table.length[w], w))

    def test_tprime_word_is_product_of_generators(self):
        H = HeckeAlgebra(4)
        for w in normal_form_words(4):
            expected = H.one()
            for g in generator_sequence(w):
                expected = expected * H.tprime(g)
            assert H.tprime_basis_element(w) == expected


def test_zero_reprs():
    assert repr(HeckeAlgebra(3).zero()) == "HeckeElement(rank=3, 0)"
    assert repr(to_tprime_basis(HeckeAlgebra(3).zero())) == "0"


def test_scalars_hash_like_the_values_they_equal():
    H = HeckeAlgebra(3)
    q = RationalFunction(LaurentPolynomial({1: 1}))
    for value in (0, 1, Fraction(1, 2), q, q + 1):
        x = H.one() * value
        assert x == value and hash(x) == hash(value)
        assert {value: "v"}[x] == "v" and {x: "x"}[value] == "x"
    assert hash(H.zero()) == hash(0) and H.zero() in {0}


def test_an_element_never_equals_its_tprime_coordinates():
    one = HeckeAlgebra(3).one()
    assert (one == to_tprime_basis(one)) is False
    assert (to_tprime_basis(one) == one) is False


class TestAlgebraLaws:
    @given(x=hecke_element_strategy(), y=hecke_element_strategy(),
           z=hecke_element_strategy())
    @settings(max_examples=40, deadline=None)
    def test_ring_laws(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z

    @given(x=hecke_element_strategy(), y=hecke_element_strategy())
    @settings(max_examples=40, deadline=None)
    def test_goldman_and_conversion_laws(self, x, y):
        assert goldman(goldman(x)) == x
        assert goldman(x * y) == goldman(x) * goldman(y)
        assert from_tprime_basis(to_tprime_basis(x)) == x

    @given(x=hecke_element_strategy(), y=hecke_element_strategy(),
           z=hecke_element_strategy())
    @example(x=HeckeElement(3, {(0, 0): RationalFunction(LaurentPolynomial({0: 1, 1: -1}))}),
             y=HeckeElement(3), z=HeckeElement(3))
    @settings(max_examples=40, deadline=None)
    def test_equal_values_have_equal_stored_pairs(self, x, y, z):
        # the canonical form is unique, so each route to a value ends in the
        # same pair and the same hash
        q_minus_one = RationalFunction(LaurentPolynomial({1: 1, 0: -1}))
        xs = x / q_minus_one
        # x / (q - 1) leaves Q[q, q^-1, (q+q^-1)^-1] exactly when x is nonzero at q = 1
        assert (xs._c[1][2] is None) == all(c.specialize(1) == 0 for c in x.coeffs.values())
        routes = [((x * y) * z, x * (y * z)), (xs * q_minus_one, x), (x + y - y, x),
                  (from_tprime_basis(to_tprime_basis(xs)), xs)]
        for got, want in routes:
            assert got._c == want._c and hash(got) == hash(want)
        txs = to_tprime_basis(xs)
        assert to_tprime_basis(from_tprime_basis(txs))._c == txs._c


def _field(vec):
    """A stored pair as a dict of `RationalFunction` values."""
    nums, den = vec
    return {k: _lc_to_rf(num, den) for k, num in nums.items()}


def _field_linear(vec, image):
    """sum c * image(k) over a field vector, in `RationalFunction` arithmetic."""
    out = {}
    for k, c in vec.items():
        _axpy(out, c, image(k).items())
    return out


def _field_product(table, x, y):
    """x * y as the bilinear sum of the basis products, over field values."""
    return _field_linear(_field(x), lambda a: _field_linear(
        _field(y), lambda b: _field(table.elem_mul(_unit_vec(a), _unit_vec(b)))))


def test_products_agree_with_field_arithmetic():
    # a product on stored numerators agrees with the sum of its basis products
    # taken coefficient by coefficient in RationalFunction arithmetic
    H = HeckeAlgebra(4)
    table = H.table
    rng = random.Random(17)
    for _ in range(10):
        x, y = H.random_element(rng, 3), H.random_element(rng, 3)
        assert _field((x * y)._c) == _field_product(table, x._c, y._c)


def test_a_unit_factor_returns_the_other_pair():
    H = HeckeAlgebra(4)
    x = H.random_element(random.Random(3), 3) / 3
    assert (x * H.one())._c is x._c and (H.one() * x)._c is x._c


class TestCanonicalForm:
    """`_canonical`: content prime to d, minimal ek, p primitive and coprime."""

    def test_content_prime_to_d(self):
        assert _canonical({0: {0: 2, 1: 4}, 1: {0: 6}}, (4, 0, None)) == \
            ({0: {0: 1, 1: 2}, 1: {0: 3}}, (2, 0, None))
        assert _canonical({0: {0: 3}}, (1, 0, None)) == ({0: {0: 3}}, (1, 0, None))
        assert _canonical({}, (6, 2, {0: 1, 1: 1})) == ({}, (1, 0, None))

    def test_minimal_ek(self):
        qp = _qp_pow(1)
        both = {0: _mul_terms({0: 1, 1: 2}, _qp_pow(2)), 1: qp}
        assert _canonical(both, (1, 3, None)) == \
            ({0: _mul_terms({0: 1, 1: 2}, qp), 1: {0: 1}}, (1, 2, None))
        # one numerator prime to q + q^-1 keeps the whole denominator
        assert _canonical({0: qp, 1: {0: 1}}, (1, 1, None)) == ({0: qp, 1: {0: 1}}, (1, 1, None))

    def test_p_primitive_and_prime_to_the_numerators(self):
        q_minus_one, q_plus_two = {0: -1, 1: 1}, {0: 2, 1: 1}
        p = _mul_terms(q_minus_one, q_plus_two)
        nums = {0: _mul_terms({-1: 3}, q_minus_one), 2: _mul_terms({0: 1, 2: 5}, q_minus_one)}
        assert _canonical(nums, (1, 0, p)) == ({0: {-1: 3}, 2: {0: 1, 2: 5}}, (1, 0, q_plus_two))
        # p cancels completely: the vector lies in the localization
        assert _canonical({0: {0: 4, 1: 4}}, (2, 0, {0: 1, 1: 1})) == ({0: {0: 2}}, (1, 0, None))
        assert _canonical({0: {0: 1}}, (1, 0, p)) == ({0: {0: 1}}, (1, 0, p))

    @given(hecke_element_strategy(4), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_after_scaling(self, x, j):
        # 6 / ((q + q^-1)^j (q - 1)) brings a polynomial p; its inverse brings d
        q_minus_one = RationalFunction(LaurentPolynomial({1: 1, 0: -1}))
        scale = RationalFunction.constant(6) / (q_minus_one * Q_PLUS_QINV ** j)
        for c in (scale, scale.inverse()):
            y = x * c
            assert _field(y._c) == {k: v * c for k, v in _field(x._c).items()}
            nums, (d, ek, p) = y._c
            if not nums:
                assert y._c == ({}, (1, 0, None))
                continue
            assert d >= 1 and gcd(d, *(c for num in nums.values() for c in num.values())) == 1
            assert ek == 0 or any(_idiv_qp(num) is None for num in nums.values())
            if p is not None:
                assert min(p) == 0 and p[max(p)] > 0 and gcd(*p.values()) == 1
                assert _idiv_qp(p) is None              # prime to q^2 + 1
                common = _dense({e: Fraction(c) for e, c in p.items()})[0]
                for num in nums.values():
                    lo = min(num)
                    common = _dense_gcd(common, _dense({e - lo: Fraction(c)
                                                        for e, c in num.items()})[0])
                assert len(common) == 1


def test_mixed_coefficient_vectors_take_the_same_step():
    # vectors with a polynomial p in their denominator take the same numerator
    # steps; a RationalFunction reference built coefficient by coefficient
    # from the images of the basis words gives the same values
    H = HeckeAlgebra(4)
    table = H.table
    rng = random.Random(41)
    q_minus_one = RationalFunction(LaurentPolynomial({1: 1, 0: -1}))
    for _ in range(6):
        x, y, z = (H.random_element(rng, 3) for _ in range(3))
        mixed = (x / q_minus_one + y)._c
        assert mixed[1][2] is not None
        results = [(table.elem_mul(mixed, z._c), _field_product(table, mixed, z._c)),
                   (table.elem_mul(z._c, mixed), _field_product(table, z._c, mixed))]
        for g in range(1, 4):
            for step in (table.tprime_gen_apply, table.goldman_gen_apply):
                results.append((step(g, mixed), _field_linear(
                    _field(mixed), lambda a: _field(step(g, _unit_vec(a))))))
        for got, want in results:
            assert _field(got) == want
        assert HeckeElement(4, _c=results[0][0]) == x * z / q_minus_one + y * z
        g = rng.randint(1, 3)
        assert HeckeElement(4, _c=results[2 * g][0]) == H.tprime(g) * (x / q_minus_one + y)


def test_coefficients_outside_the_localization():
    H = HeckeAlgebra(4)
    rng = random.Random(23)
    q_minus_one = RationalFunction(LaurentPolynomial({1: 1, 0: -1}))
    for _ in range(4):
        x, y = H.random_element(rng, 3), H.random_element(rng, 3)
        xs = x / q_minus_one
        assert xs._c[0] and xs._c[1][2] is not None
        assert xs * y == (x * y) / q_minus_one
        back = xs * q_minus_one
        assert back._c == x._c and hash(back) == hash(x)
        assert goldman(goldman(xs)) == xs
        assert goldman(xs * y) == goldman(xs) * goldman(y)
        assert from_tprime_basis(to_tprime_basis(xs)) == xs


def test_tprime_left_multiplication_columns_match_products():
    # the cached fast-path columns agree with directly computed products
    H = HeckeAlgebra(4)
    table = symmetric_group_table(4)
    rng = random.Random(5)
    for _ in range(20):
        g = rng.randint(1, 3)
        wid = rng.randrange(len(table.words))
        direct = H.tprime(g) * H.tprime_basis_element(table.words[wid])
        rebuilt = H.zero()
        for u, c in _field(table.tp_left_col(g, wid)).items():
            rebuilt = rebuilt + H.tprime_basis_element(table.words[u]) * c
        assert rebuilt == direct


@pytest.mark.parametrize("rank", range(1, 9))
def test_table_build_matches_the_word_functions(rank):
    table = SymmetricGroupTable(rank)
    perms = [word_to_permutation(w) for w in table.words]
    seqs = [generator_sequence(w) for w in table.words]
    by_perm = {p: i for i, p in enumerate(perms)}
    by_seq = {seq: i for i, seq in enumerate(seqs)}
    assert table.seqs == seqs
    assert table.first == [(seq[0], by_seq[seq[1:]]) if seq else None for seq in seqs]
    for g in range(1, rank):
        assert table.left_mult[g - 1] == [
            by_perm[tuple(g + 1 if v == g else g if v == g + 1 else v for v in p)]
            for p in perms]
        assert table.right_mult[g - 1] == [
            by_perm[p[:g - 1] + (p[g], p[g - 1]) + p[g + 1:]] for p in perms]


# -- T'-columns read off the word tables ----------------------------------------

def _round_trip_col(table, g, wid):
    return table.to_tprime(table.tprime_gen_apply(g, table.tprime_word(wid)))


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_every_tprime_column_matches_the_round_trip(rank):
    # the round trip through the T basis is the reference for the descent rule:
    # a column is a single basis word exactly when the rule says so
    table = SymmetricGroupTable(rank)
    covered = 0
    for g in range(1, rank):
        for wid in range(len(table.words)):
            col = table.tp_left_col(g, wid)
            assert col == _round_trip_col(table, g, wid)
            is_word = table.tp_left_is_word(g, wid)
            assert (col == _unit_vec(table.left_mult[g - 1][wid])) == is_word
            covered += is_word
    assert covered


@pytest.mark.parametrize("rank, covered", [(3, 10), (4, 52), (5, 308), (6, 2088), (7, 16056)])
def test_word_rule_coverage(rank, covered):
    table = SymmetricGroupTable(rank)
    assert sum(table.tp_left_is_word(g, wid)
               for g in range(1, rank) for wid in range(len(table.words))) == covered


def test_hecke_suite_at_rank_6_needs_no_basis_change(monkeypatch, tmp_path):
    # every T' column the suite reads is a basis word, so the triangular
    # elimination back from the T basis never runs
    import qhecke.cli as cli
    import qhecke.hecke as hecke_mod

    def refuse(self, vec):
        raise AssertionError("to_tprime called")

    monkeypatch.setattr(hecke_mod, "_TABLE_CACHE", {})
    monkeypatch.setattr(SymmetricGroupTable, "to_tprime", refuse)
    path = tmp_path / "r.json"
    assert cli.main(["verify", "hecke", "--r", "6", "--seed", "0", "--out", str(path)]) == 0
