"""Exact scalars: Laurent polynomials over Q and the rational-function field Q(q).

A Laurent polynomial is stored as a sparse map ``exponent -> coefficient``
with no zero coefficients (the zero polynomial is the empty map).  A
coefficient is an `int` while the arithmetic keeps it integral (integer
polynomials add and multiply without a `Fraction`) and a `Fraction` once a
division makes it one; an integral `Fraction` and its `int` compare, hash and
print alike, so the form of a coefficient never shows.  No division has
two int operands: the kernels divide by a `Fraction` (``_F1 / c``, the
content factor) or divide ints exactly (``//`` in `_dense_primitive`), so
no float is made.  A rational function is a pair ``num / den`` of Laurent
polynomials kept in a canonical reduced form, so that structural equality
(``==``) decides equality in the field:

* ``den`` is an ordinary polynomial (valuation 0) with integer coefficients,
  content 1 and positive leading coefficient;
* ``num`` and ``den`` have no common polynomial factor (``num`` may carry
  arbitrary ``q``-powers and fractional coefficients).

Every value is immutable; all operations return new objects.  No floating
point is used anywhere.

This module also owns the sparse kernels the other layers call: `_axpy`
(accumulate and drop zeros), `_mul_terms` (the Laurent product), and the
q + q^-1 kernels `_qp_divides`, `_idiv_qp`, `_strip_qp` and `_qp_pow`, which
act on term dicts with `int` or `Fraction` coefficients and serve both the
Hecke layer's integer numerators and the (q^2 + 1)^k fast path of `_reduce`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Mapping, Union

from .report import FrozenRecord

Scalar = Union[int, Fraction]

_F0 = Fraction(0)
_F1 = Fraction(1)


class PoleError(ArithmeticError):
    """Specialization was requested at a zero of the denominator."""


# ---------------------------------------------------------------------------
# sparse vectors over any scalar type (key -> nonzero value)
# ---------------------------------------------------------------------------

def _axpy(out: dict, a, pairs) -> dict:
    """``out += a * x`` in place over the (key, value) pairs of x; zeros are dropped.

    ``a=None`` stands for 1.
    """
    for k, v in pairs:
        if a is not None:
            v = a * v
        s = out.get(k)
        if s is not None:
            v = s + v
        if v:
            out[k] = v
        elif s is not None:
            del out[k]
    return out


# ---------------------------------------------------------------------------
# low-level term-dict helpers (exponent -> coefficient, zero coefficients absent)
# ---------------------------------------------------------------------------

def _neg_terms(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def _mul_terms(a: dict, b: dict, out: dict | None = None) -> dict:
    """Laurent product, added into ``out`` when given; the coefficients may be
    `int` or `Fraction`."""
    if out is None:
        out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _div_terms(a: dict, c: Scalar) -> dict:
    """a / c for a nonzero c; a itself, its coefficients untouched, when c is 1."""
    if c == 1:
        return a
    inv = _F1 / c
    return {e: v * inv for e, v in a.items()}


def _shift_terms(a: dict, k: int) -> dict:
    if k == 0:
        return dict(a)
    return {e + k: v for e, v in a.items()}


def _eval_terms(a: dict, t: Fraction) -> Fraction:
    return sum((c * t ** e for e, c in a.items()), _F0)


def _dense(a: dict) -> tuple[list[Scalar], int]:
    """Return (coefficient list from valuation upward, valuation)."""
    if not a:
        return [], 0
    lo, hi = min(a), max(a)
    return [a.get(e, 0) for e in range(lo, hi + 1)], lo


def _from_dense(coeffs: list[Scalar], val: int) -> dict:
    return {val + i: c for i, c in enumerate(coeffs) if c}


def _dense_trim(c: list[Scalar]) -> list[Scalar]:
    while c and not c[-1]:
        c.pop()
    return c


def _dense_divmod(a: list[Scalar], b: list[Scalar]) -> tuple[list[Fraction], list[Scalar]]:
    """Polynomial division with remainder over Q (dense, low-to-high lists)."""
    a = list(a)
    _dense_trim(a)
    db, inv = len(b) - 1, _F1 / b[-1]
    quot = [_F0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        k = len(a) - 1 - db
        f = a[-1] * inv
        quot[k] = f
        for i, bc in enumerate(b):
            a[k + i] -= f * bc
        _dense_trim(a)
    return quot, a


def _dense_exact_div(a: list[Scalar], b: list[Scalar]) -> list[Fraction] | None:
    quot, rem = _dense_divmod(a, b)
    return None if rem else quot


def _dense_primitive(a: list[Scalar]) -> tuple[list[int], Fraction]:
    """Scale to integer coefficients, content 1, positive leading coefficient.

    Returns (primitive, factor) with a == factor * primitive; the primitive
    coefficients are ints.
    """
    den_lcm = _int_lcm(*(c.denominator for c in a))
    ints = [int(c * den_lcm) for c in a]
    g = _int_gcd(*ints)
    if g == 0:
        return list(a), _F1
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints], Fraction(g, den_lcm)


def _dense_gcd(a: list[Scalar], b: list[Scalar]) -> list[int]:
    """Monic Euclid over Q, returned primitive with positive leading coefficient."""
    a, b = list(a), list(b)
    _dense_trim(a)
    _dense_trim(b)
    while b:
        _, r = _dense_divmod(a, b)
        a, b = b, r
    prim, _ = _dense_primitive(a)
    return prim


# ---------------------------------------------------------------------------
# the q + q^-1 kernels (Laurent dicts over int or Fraction)
# ---------------------------------------------------------------------------

def _qp_divides(a: dict) -> bool:
    """Whether q + q^-1 = q^-1 (q - i)(q + i) divides a rational Laurent
    polynomial: exactly when its value at q = i, found by summing
    coefficients by exponent mod 4, is 0."""
    at_i = [0, 0, 0, 0]
    for e, c in a.items():
        at_i[e & 3] += c
    return at_i[0] == at_i[2] and at_i[1] == at_i[3]


def _idiv_qp(a: dict) -> dict | None:
    """Exact division of a Laurent dict by q + q^-1, or None; `_qp_divides`
    decides before any division."""
    if not a:
        return {}
    if not _qp_divides(a):
        return None
    lo, hi = min(a), max(a)
    quot: dict = {}
    for e in range(hi - 1, lo, -1):
        v = a.get(e + 1, 0) - quot.get(e + 2, 0)
        if v:
            quot[e] = v
    if a.get(lo, 0) != quot.get(lo + 1, 0):
        return None
    if a.get(lo + 1, 0) != quot.get(lo, 0) + quot.get(lo + 2, 0):
        return None
    return quot


def _strip_qp(a: dict, limit: int) -> tuple[dict, int]:
    """Divide out up to `limit` factors of q + q^-1; return (quotient, count)."""
    n = 0
    while n < limit:
        quot = _idiv_qp(a)
        if quot is None:
            break
        a = quot
        n += 1
    return a, n


_QP_POWS: list[dict[int, int]] = [{0: 1}, {1: 1, -1: 1}]


def _qp_pow(n: int) -> dict[int, int]:
    """(q + q^-1)^n with integer coefficients (cached; do not mutate)."""
    while len(_QP_POWS) <= n:
        _QP_POWS.append(_mul_terms(_QP_POWS[-1], _QP_POWS[1]))
    return _QP_POWS[n]


def _qsq_den(k: int) -> dict:
    """(q^2 + 1)^k = q^k (q + q^-1)^k, the canonical denominator for k factors."""
    return _shift_terms(_qp_pow(k), k)


def _coerce_coeff(c) -> Scalar:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return int(c)                 # a bool becomes its int
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _term_str(e: int, c: Fraction, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    if e == 0:
        body = str(mag)
    else:
        var = "q" if e == 1 else f"q^{e}"
        body = var if mag == 1 else f"{mag}*{var}"
    if first:
        return sign + body
    return f" {sign} {body}"


def _terms_str(a: dict) -> str:
    if not a:
        return "0"
    parts = []
    for e in sorted(a, reverse=True):
        parts.append(_term_str(e, a[e], first=not parts))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentPolynomial:
    """Element of Q[q, q^-1], a sparse map from integer exponents to rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Scalar] | None = None):
        clean: dict[int, Scalar] = {}
        if terms:
            for e, c in terms.items():
                c = _coerce_coeff(c)
                if c:
                    clean[int(e)] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPolynomial":
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        return obj

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls._raw({0: 1})

    @classmethod
    def q(cls, exponent: int = 1) -> "LaurentPolynomial":
        return cls._raw({exponent: 1})

    @classmethod
    def constant(cls, c: Scalar) -> "LaurentPolynomial":
        c = _coerce_coeff(c)
        return cls._raw({0: c} if c else {})

    # -- queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    def valuation(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self.terms)

    def evaluate(self, t: Scalar) -> Fraction:
        t = Fraction(t)
        if t == 0 and self.terms and min(self.terms) < 0:
            raise ZeroDivisionError("cannot evaluate negative q-powers at 0")
        return _eval_terms(self.terms, t)

    def bar(self) -> "LaurentPolynomial":
        """The substitution q -> q^-1."""
        return LaurentPolynomial._raw({-e: c for e, c in self.terms.items()})

    # -- arithmetic

    def _promote(self, other):
        if isinstance(other, LaurentPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPolynomial.constant(other)
        return None

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return LaurentPolynomial._raw(_axpy(dict(self.terms), None, other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return LaurentPolynomial._raw(_axpy(dict(self.terms), -1, other.terms.items()))

    def __rsub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return LaurentPolynomial._raw(_axpy(dict(other.terms), -1, self.terms.items()))

    def __neg__(self):
        return LaurentPolynomial._raw(_neg_terms(self.terms))

    def __mul__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return LaurentPolynomial._raw(_mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of a Laurent polynomial are not polynomials")
        out = LaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))      # a constant equals its Fraction
        return hash(tuple(sorted(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return _terms_str(self.terms)

    def __repr__(self):
        return f"LaurentPolynomial({self.terms!r})"


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

def _reduce(num: dict, den: dict) -> tuple[dict, dict]:
    """Canonical reduced form of num/den as term dicts.  See module docstring."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {0: 1}
    dv = min(den)
    den0 = _shift_terms(den, -dv)
    num = _shift_terms(num, -dv)
    if len(den0) == 1:
        c = den0[0]
        return _div_terms(num, c), {0: 1}
    rest, k = _strip_qp(den0, max(den0))
    if len(rest) == 1:
        # den0 = c*(q^2+1)^k = c*q^k*(q+q^-1)^k; cancel without a general gcd
        num, s = _strip_qp(num, k)
        return _div_terms(_shift_terms(num, -s), rest[k]), _qsq_den(k - s)
    nv = min(num)
    ndense, _ = _dense(_shift_terms(num, -nv))
    ddense, _ = _dense(den0)
    g = _dense_gcd(ndense, ddense)
    if len(g) > 1:
        ndense = _dense_exact_div(ndense, g)
        ddense = _dense_exact_div(ddense, g)

    dprim, factor = _dense_primitive(ddense)
    if factor != 1:
        ndense = [c / factor for c in ndense]
    return _from_dense(ndense, nv), _from_dense(dprim, 0)


class RationalFunction:
    """Element of the field K = Q(q), stored as a canonical num/den pair."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_laurent(num)
        den = LaurentPolynomial.one() if den is None else _as_laurent(den)
        n, d = _reduce(num.terms, den.terms)
        object.__setattr__(self, "num", LaurentPolynomial._raw(n))
        object.__setattr__(self, "den", LaurentPolynomial._raw(d))

    @classmethod
    def _make(cls, num: LaurentPolynomial, den: LaurentPolynomial) -> "RationalFunction":
        """Trusted constructor: caller guarantees canonical form."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls._make(LaurentPolynomial.zero(), LaurentPolynomial.one())

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls._make(LaurentPolynomial.one(), LaurentPolynomial.one())

    @classmethod
    def q(cls, exponent: int = 1) -> "RationalFunction":
        return cls._make(LaurentPolynomial.q(exponent), LaurentPolynomial.one())

    @classmethod
    def constant(cls, c: Scalar) -> "RationalFunction":
        return cls._make(LaurentPolynomial.constant(c), LaurentPolynomial.one())

    # -- queries

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    # -- arithmetic

    def _promote(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(other)
        if isinstance(other, LaurentPolynomial):
            return RationalFunction._make(other, LaurentPolynomial.one())
        return None

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        if a.den.terms == b.den.terms:
            num = _axpy(dict(a.num.terms), None, b.num.terms.items())
            if len(a.den.terms) == 1:
                return RationalFunction._make(LaurentPolynomial._raw(num), a.den)
            n, d = _reduce(num, a.den.terms)
        else:
            n, d = _reduce(
                _axpy(_mul_terms(a.num.terms, b.den.terms), None,
                      _mul_terms(b.num.terms, a.den.terms).items()),
                _mul_terms(a.den.terms, b.den.terms))
        return RationalFunction._make(LaurentPolynomial._raw(n), LaurentPolynomial._raw(d))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return RationalFunction._make(-self.num, self.den)

    def __mul__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        if len(self.den.terms) == 1 and len(other.den.terms) == 1:
            # both denominators are 1: product of Laurent polynomials
            return RationalFunction._make(
                LaurentPolynomial._raw(_mul_terms(self.num.terms, other.num.terms)),
                LaurentPolynomial.one())
        n, d = _reduce(_mul_terms(self.num.terms, other.num.terms),
                       _mul_terms(self.den.terms, other.den.terms))
        return RationalFunction._make(LaurentPolynomial._raw(n), LaurentPolynomial._raw(d))

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        n, d = _reduce(self.den.terms, self.num.terms)
        return RationalFunction._make(LaurentPolynomial._raw(n), LaurentPolynomial._raw(d))

    def __truediv__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = RationalFunction.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self.num.terms == other.num.terms and self.den.terms == other.den.terms

    def __hash__(self):
        if len(self.den.terms) == 1:
            return hash(self.num)                   # it equals its numerator
        return hash((self.num, self.den))

    # -- specialization

    def specialize(self, point) -> Fraction:
        """Exact value at q = t for a nonzero rational t; raises PoleError at poles."""
        t = _as_point_value(point)
        dval = self.den.evaluate(t)
        if dval == 0:
            raise PoleError(f"pole at q = {t}: denominator {self.den} vanishes")
        return self.num.evaluate(t) / dval

    # -- formatting

    def __str__(self):
        if len(self.den.terms) == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self.num.terms!r}, {self.den.terms!r})"

    def dump_str(self) -> str:
        """The `(numerator)/(denominator)` form used in matrix dumps."""
        return f"({self.num})/({self.den})"


def _as_laurent(x) -> LaurentPolynomial:
    if isinstance(x, LaurentPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPolynomial.constant(x)
    if isinstance(x, Mapping):
        return LaurentPolynomial(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a Laurent polynomial")


def normalize(num, den) -> RationalFunction:
    """Canonical reduced representative of num/den; errors on a zero denominator."""
    return RationalFunction(num, den)


class SpecializationPoint(FrozenRecord):
    """A nonzero rational evaluation point for q."""

    def __init__(self, value: Fraction):
        value = Fraction(value)
        if value == 0:
            raise ValueError("specialization point must be nonzero")
        super().__init__(value=value)

    def __str__(self):
        return str(self.value)


def _as_point_value(point) -> Fraction:
    if isinstance(point, SpecializationPoint):
        return point.value
    t = Fraction(point)
    if t == 0:
        raise ValueError("specialization point must be nonzero")
    return t


def specialize(f: RationalFunction, point) -> Fraction:
    """Ring-homomorphism evaluation q -> t on K, with pole detection."""
    return f.specialize(point)


# frequently used elements
Q = RationalFunction.q()
Q_MINUS_QINV = RationalFunction(LaurentPolynomial({1: 1, -1: -1}))
Q_PLUS_QINV = RationalFunction(LaurentPolynomial({1: 1, -1: 1}))
ONE = RationalFunction.one()
HALF = RationalFunction.constant(Fraction(1, 2))
