from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qhecke.qfield import (
    LaurentPolynomial,
    PoleError,
    Q_MINUS_QINV,
    Q_PLUS_QINV,
    RationalFunction,
    SpecializationPoint,
    _dense_exact_div,
    _dense_gcd,
    _dense_primitive,
    _idiv_qp,
    _mul_terms,
    _qp_pow,
    _strip_qp,
    normalize,
    specialize,
)


def L(terms):
    return LaurentPolynomial(terms)


@st.composite
def laurent_strategy(draw, max_terms=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        e = draw(st.integers(min_value=-4, max_value=4))
        c = draw(st.integers(min_value=-9, max_value=9))
        terms[e] = terms.get(e, 0) + c
    return LaurentPolynomial(terms)


@st.composite
def rational_function_strategy(draw):
    num = draw(laurent_strategy())
    den = draw(laurent_strategy())
    if den.is_zero:
        den = LaurentPolynomial.one()
    return RationalFunction(num, den)


@st.composite
def term_dict_strategy(draw):
    """A nonzero Laurent term dict with all-int or all-Fraction coefficients."""
    exps = draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5,
                         unique=True))
    if draw(st.booleans()):
        coeffs = st.integers(min_value=-9, max_value=9).filter(bool)
    else:
        coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)
    return {e: draw(coeffs) for e in exps}


@st.composite
def twin_strategy(draw, rational=True):
    """One value built twice, from int coefficients and from the same
    coefficients as Fractions.  A denominator is a random polynomial times a
    power of q + q^-1, so `_reduce` takes its monomial, (q^2 + 1)^k and
    general gcd paths."""
    ints = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9).filter(bool), max_size=4)
    num = draw(ints)
    den = _mul_terms(draw(ints), _qp_pow(draw(st.integers(0, 2)))) if rational else {}
    if not den:
        den = {0: draw(st.sampled_from([1, -1, 3]))}

    def build(cast):
        value = LaurentPolynomial({e: cast(c) for e, c in num.items()})
        if not rational:
            return value
        return RationalFunction(value, LaurentPolynomial({e: cast(c) for e, c in den.items()}))

    return build(int), build(Fraction)


def _coefficients(x) -> list:
    if isinstance(x, RationalFunction):
        return [*x.num.terms.values(), *x.den.terms.values()]
    return list(x.terms.values())


def _vanishes_at_i(terms: dict) -> bool:
    """Whether q^2 + 1 divides the Laurent polynomial: its value at q = i is 0."""
    real = imag = Fraction(0)
    for e, c in terms.items():
        unit = (1, 1j, -1, -1j)[e % 4]
        real += c * int(unit.real)
        imag += c * int(unit.imag)
    return real == 0 and imag == 0


class TestQPlusQinvKernels:
    @pytest.mark.parametrize("n", range(6))
    def test_power_is_binomial(self, n):
        assert _qp_pow(n) == {n - 2 * j: comb(n, j) for j in range(n + 1)}

    @given(p=term_dict_strategy(), k=st.integers(min_value=0, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_strip_recovers_the_factors(self, p, k):
        x = _mul_terms(p, _qp_pow(k))
        quot, count = _strip_qp(x, 12)
        assert count >= k
        assert _mul_terms(quot, _qp_pow(count)) == x
        assert all(type(c) is type(next(iter(p.values()))) for c in quot.values())

    @given(p=term_dict_strategy(), k=st.integers(min_value=0, max_value=1))
    @settings(max_examples=120, deadline=None)
    def test_division_fails_exactly_off_the_zeros_at_i(self, p, k):
        a = _mul_terms(p, _qp_pow(k))
        assert (_idiv_qp(a) is None) == (not _vanishes_at_i(a))

    @given(p=term_dict_strategy())
    @settings(max_examples=80, deadline=None)
    def test_division_undoes_the_product(self, p):
        assert _idiv_qp(_mul_terms(p, _qp_pow(1))) == p

    def test_strip_stops_at_the_limit(self):
        x = _mul_terms({0: 3}, _qp_pow(3))
        assert _strip_qp(x, 2) == (_mul_terms({0: 3}, _qp_pow(1)), 2)
        assert _strip_qp({2: 1, 0: 1, -2: 1}, 5) == ({2: 1, 0: 1, -2: 1}, 0)

    @given(num=term_dict_strategy(), a=st.integers(min_value=0, max_value=3),
           b=st.integers(min_value=0, max_value=3), s=st.integers(min_value=-3, max_value=3),
           c=st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_canonical_form_over_powers_of_q2_plus_1(self, num, a, b, s, c):
        qsq = L({2: 1, 0: 1})
        num_in = L(num) * qsq ** a
        den_in = L({s: c}) * qsq ** b
        f = RationalFunction(num_in, den_in)
        j = max(f.den.terms) // 2
        assert j <= b
        assert f.den == qsq ** j
        assert f.num * den_in == num_in * f.den
        if j > 0:
            assert not _vanishes_at_i(f.num.terms)


class TestLaurentPolynomial:
    def test_zero_is_empty_map(self):
        assert LaurentPolynomial({0: 0, 2: 0}).terms == {}
        assert LaurentPolynomial.zero().is_zero

    def test_degree_valuation(self):
        p = L({3: 1, -2: 5})
        assert p.degree() == 3
        assert p.valuation() == -2
        with pytest.raises(ValueError):
            LaurentPolynomial.zero().degree()

    def test_arithmetic(self):
        q = LaurentPolynomial.q()
        assert (q + 1) * (q - 1) == L({2: 1, 0: -1})
        assert q ** 3 == L({3: 1})
        assert (q - q) == LaurentPolynomial.zero()

    def test_bar_swaps_exponents(self):
        p = L({2: 3, -1: 1})
        assert p.bar() == L({-2: 3, 1: 1})

    def test_evaluate(self):
        p = L({1: 1, -1: -1})
        assert p.evaluate(Fraction(1, 2)) == Fraction(-3, 2)
        with pytest.raises(ZeroDivisionError):
            L({-1: 1}).evaluate(0)


class TestNormalize:
    def test_common_factor_cancels(self):
        f = normalize(L({2: 1, 0: -1}), L({1: 1, 0: -1}))
        assert f == RationalFunction(L({1: 1, 0: 1}))

    def test_already_reduced(self):
        f = normalize(L({1: 1, -1: -1}), L({1: 1, -1: 1}))
        assert f == Q_MINUS_QINV / Q_PLUS_QINV
        # no further cancellation: numerator and denominator stay degree 2
        assert f.num.degree() - f.num.valuation() == 2

    def test_zero_numerator(self):
        f = normalize(LaurentPolynomial.zero(), L({3: 1}))
        assert f.is_zero
        assert f.den == LaurentPolynomial.one()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            normalize(L({0: 1}), LaurentPolynomial.zero())

    def test_denominator_normalization(self):
        # denominator becomes a primitive integer polynomial with positive lead
        f = RationalFunction(L({0: 1}), L({1: Fraction(-2, 3), 0: Fraction(2, 3)}))
        assert f.den == L({1: 1, 0: -1}) or f.den == L({1: -1, 0: 1})
        assert max(f.den.terms) == 1 and f.den.terms[1] > 0

    @given(f=rational_function_strategy())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, f):
        assert RationalFunction(f.num, f.den) == f


class TestFieldArithmetic:
    def test_sum_of_deformed_terms(self):
        assert Q_MINUS_QINV + Q_PLUS_QINV == RationalFunction(L({1: 2}))

    def test_inverse_law(self):
        assert Q_PLUS_QINV * Q_PLUS_QINV.inverse() == RationalFunction.one()

    def test_braid_correction_coefficient(self):
        # ((q - q^-1)/(q + q^-1))^2, the coefficient in the deformed braid relation
        coeff = (Q_MINUS_QINV / Q_PLUS_QINV) ** 2
        expected = RationalFunction(L({4: 1, 2: -2, 0: 1}), L({4: 1, 2: 2, 0: 1}))
        assert coeff == expected

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction.one() / RationalFunction.zero()

    @given(a=rational_function_strategy(), b=rational_function_strategy(),
           c=rational_function_strategy())
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + RationalFunction.zero() == a
        assert a * RationalFunction.one() == a
        if not a.is_zero:
            assert a * a.inverse() == RationalFunction.one()


class TestSpecialize:
    def test_values(self):
        assert Q_MINUS_QINV.specialize(2) == Fraction(3, 2)
        assert Q_PLUS_QINV.specialize(1) == 2
        assert specialize(Q_PLUS_QINV, SpecializationPoint(Fraction(1))) == 2

    def test_pole(self):
        f = RationalFunction(L({0: 1}), L({1: 1, 0: -1}))
        with pytest.raises(PoleError):
            f.specialize(1)

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            SpecializationPoint(Fraction(0))
        with pytest.raises(ValueError):
            Q_PLUS_QINV.specialize(0)

    @given(a=rational_function_strategy(), b=rational_function_strategy())
    @settings(max_examples=60, deadline=None)
    def test_ring_homomorphism(self, a, b):
        t = Fraction(5, 3)
        try:
            va, vb = a.specialize(t), b.specialize(t)
        except PoleError:
            return
        assert (a + b).specialize(t) == va + vb
        assert (a * b).specialize(t) == va * vb


class TestIntCoefficients:
    """Laurent coefficients stay int while integral: a value built from int
    coefficients is the value built from the same Fractions, and no operation
    makes a float coefficient."""

    @staticmethod
    def _assert_twins(results):
        for x, y in results:
            assert x == y and hash(x) == hash(y) and str(x) == str(y)
            assert not any(isinstance(c, float) for v in (x, y) for c in _coefficients(v))
            for t in (Fraction(5, 3), Fraction(-2)):
                try:
                    value = x.specialize(t) if isinstance(x, RationalFunction) else x.evaluate(t)
                except PoleError:
                    with pytest.raises(PoleError):
                        y.specialize(t)
                    continue
                assert type(value) is Fraction
                assert value == (y.specialize(t) if isinstance(y, RationalFunction)
                                 else y.evaluate(t))

    @given(a=twin_strategy(), b=twin_strategy())
    @settings(max_examples=150, deadline=None)
    def test_rational_functions_agree(self, a, b):
        def ops(x, y):
            out = [x, x + y, x - y, x * y, -x, x + 3, 2 * x]
            return out + ([x / y, y.inverse()] if y else [])

        self._assert_twins(zip(ops(a[0], b[0]), ops(a[1], b[1])))

    @given(a=twin_strategy(rational=False), b=twin_strategy(rational=False))
    @settings(max_examples=100, deadline=None)
    def test_laurent_polynomials_agree_and_stay_int(self, a, b):
        def ops(x, y):
            rx, ry = RationalFunction(x), RationalFunction(y)
            return [x + y, x - y, x * y, -x, x ** 2, x.bar(), x + 3,
                    rx, rx + ry, rx - ry, rx * ry]

        ints = ops(a[0], b[0])
        self._assert_twins(zip(ints, ops(a[1], b[1])))
        assert all(type(c) is int for x in ints for c in _coefficients(x))

    def test_generators_have_int_coefficients(self):
        for x in (LaurentPolynomial.one(), LaurentPolynomial.q(-2),
                  LaurentPolynomial.constant(3), LaurentPolynomial({1: True}),
                  Q_MINUS_QINV, Q_PLUS_QINV.inverse()):
            assert all(type(c) is int for c in _coefficients(x))

    @given(a=st.lists(st.integers(-9, 9), min_size=1, max_size=5),
           b=st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_euclid_kernels_take_int_lists(self, a, b):
        # `_dense` hands the kernels ints: no int / int may make a float
        prim, factor = _dense_primitive(a)
        if any(a):
            assert all(type(c) is int for c in prim)
            assert [factor * c for c in prim] == a
        g = _dense_gcd(a, b)
        assert all(type(c) is int for c in g)
        for x in (a, b):
            if any(x) and g:
                quot = _dense_exact_div(x, g)
                assert quot is not None and not any(isinstance(c, float) for c in quot)


def test_dump_string_format():
    f = Q_MINUS_QINV / Q_PLUS_QINV
    assert f.dump_str() == "(q^2 - 1)/(q^2 + 1)"
    assert RationalFunction.constant(Fraction(3, 2)).dump_str() == "(3/2)/(1)"


def test_equal_values_hash_equal_across_types():
    # Python's rule for == and hash; a value-keyed memo over mixed matrix
    # coefficients relies on it
    from qhecke.tensor import OperatorMatrix
    for c in (0, 2, Fraction(-3, 4)):
        for v in (LaurentPolynomial.constant(c), RationalFunction.constant(c)):
            assert v == c == Fraction(c)
            assert hash(v) == hash(Fraction(c)) == hash(c)
    x = LaurentPolynomial({1: 2, -1: 1})
    assert RationalFunction(x) == x and hash(RationalFunction(x)) == hash(x)
    a = OperatorMatrix(1, {(0, 0): RationalFunction.constant(2)})
    b = OperatorMatrix(1, {(0, 0): Fraction(2)})
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
