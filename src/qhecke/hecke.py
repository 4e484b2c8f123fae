"""The type-A Iwahori-Hecke algebra over K = Q(q), in normal-form coordinates.

Basis words.  A basis element of rank r is encoded by a descent-count vector
``(c_1, ..., c_{r-1})`` with ``0 <= c_i <= i``; the entry ``c_i`` selects the
factor ``M_i = T_i T_{i-1} ... T_{i-c_i+1}`` from the descending chain at
level i (``c_i = 0`` means ``M_i = 1``), and the basis element is the product
``M_1 M_2 ... M_{r-1}``.  Concatenating the blocks gives a reduced word for a
permutation of {1..r}; the encoding is a bijection onto the symmetric group
and the length of the word is ``sum(c_i)``.

Multiplication.  Left multiplication by a generator T_g follows the length
rule on permutations: ``T_g * T_w = T_{gw}`` when the length goes up, and
``(q - q^-1) T_w + T_{gw}`` otherwise.  Products of general elements are
reduced generator by generator; the quadratic and braid relations are
consequences and are exercised by the test suite rather than assumed.  The
steps run fraction-free: each factor is brought to one shared denominator
(`_common`), `gen_mul` adds and shifts the integer Laurent numerators, and
each output coefficient is normalized once (`_from_common`).

The involutive generators ``T'_i = (2 T_i - (q - q^-1)) / (q + q^-1)`` give a
second normal-form basis (products of T' factors along the same words).  The
conversion between the two bases is triangular with respect to word length,
which is what `to_tprime_basis` exploits.  Maps given on basis words (the T'
words, the Goldman images, the T'-columns) extend linearly by `_linear`.

T'-columns.  Left multiplication by T'_g on T' coordinates needs the column
T'_g * T'_w (`tp_left_col`).  The T' generators are involutions and far ones
commute exactly, so cancelling g against the first g it commutes up to in the
word g.w, and then commuting far letters, rewrites the product into an equal
one.  When the rewritten word is a rearrangement of the normal-form word of
v = s_g w by far commutations -- decided by comparing the least word of each
commutation class -- the column is the basis word T'_v, with no arithmetic.
Any other column goes through the T basis and back by `to_tprime`: reaching
the word of v from it needs a braid move, and the braid relation of the T'
generators carries a correction term.  Products of T' words are cascades of
these columns along the left word (`word_image` with `tp_left_apply`).

Coefficients.  One engine serves every coefficient.  A coefficient that lies
in the localization Q[q, q^-1, (q+q^-1)^-1] -- all that these constructions
produce -- is stored in a compact integer form (`_LC`); any other (after a
division by q - 1, say) is stored as a `RationalFunction`.  The table routines
take both: a vector holding a `RationalFunction` shares a polynomial
denominator, carries `Fraction` numerators through the same steps and yields
`RationalFunction` values, and an `_LC` combined with a `RationalFunction`
converts itself.  The element constructors restore the `_LC` form wherever
the value allows.  `RationalFunction` values are produced again only at the
API boundary (`coeffs`, `repr`).  All values are immutable once built.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd as _int_gcd, lcm
from typing import Mapping

from .qfield import (HALF, LaurentPolynomial, RationalFunction, _axpy, _linear, _mul_terms,
                     _qp_pow, _qsq_den, _strip_qp)

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# words and permutations
# ---------------------------------------------------------------------------

def normal_form_words(rank: int) -> list[Word]:
    """All descent-count vectors of the given rank, in lexicographic order."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return list(itertools.product(*(range(i + 1) for i in range(1, rank))))


def check_word(word: Word, rank: int) -> None:
    if len(word) != rank - 1:
        raise ValueError(f"word {word} has wrong length for rank {rank}")
    for i, c in enumerate(word, start=1):
        if not 0 <= c <= i:
            raise ValueError(f"word {word}: entry {c} out of range at level {i}")


def word_parity(word: Word) -> int:
    return sum(word) & 1


def generator_sequence(word: Word) -> tuple[int, ...]:
    """The reduced word (1-based generator indices) of the basis element."""
    seq: list[int] = []
    for i, c in enumerate(word, start=1):
        seq.extend(range(i, i - c, -1))
    return tuple(seq)


def word_to_permutation(word: Word) -> tuple[int, ...]:
    """One-line permutation (images of 1..r) realized by the basis word."""
    rank = len(word) + 1
    check_word(word, rank)
    perm = list(range(rank))
    for g in reversed(generator_sequence(word)):
        a, b = g - 1, g
        perm = [b if v == a else a if v == b else v for v in perm]
    return tuple(v + 1 for v in perm)


def _first_factor(word: Word) -> tuple[int, Word]:
    """Split off the leading generator: word = T_g * rest with length - 1."""
    for j, c in enumerate(word):
        if c:
            rest = list(word)
            rest[j] = 0
            if c > 1:
                rest[j - 1] = c - 1
            return j + 1, tuple(rest)
    raise ValueError("identity word has no leading factor")


def _cancel_left(g: int, seq: tuple[int, ...]) -> tuple[int, ...]:
    """The word g.seq with g cancelled against the first g it commutes up to."""
    for j, a in enumerate(seq):
        if a == g:
            return seq[:j] + seq[j + 1:]
        if abs(a - g) == 1:
            break
    return (g,) + seq


def _commutation_key(seq: tuple[int, ...]) -> tuple[int, ...]:
    """The least word, lexicographically, equal to seq up to commuting far letters.

    Built greedily: the next letter is the smallest one that commutes to the
    front of what is left.
    """
    rest = list(seq)
    key = []
    while rest:
        best = None
        blocked: set[int] = set()      # letters an earlier letter keeps from the front
        for j, a in enumerate(rest):
            if a not in blocked and (best is None or a < rest[best]):
                best = j
            blocked.update((a - 1, a, a + 1))
        key.append(rest.pop(best))
    return tuple(key)


# ---------------------------------------------------------------------------
# localized coefficients: num / (d * (q + q^-1)^ek) with integer num
# ---------------------------------------------------------------------------

class _LC:
    """num / (d * (q+q^-1)^ek), canonical: gcd(content, d) = 1, q^2+1 ∤ num.

    Combined with a `RationalFunction` (either side of ``+``, ``-``, ``*``),
    an `_LC` converts itself and the result is a `RationalFunction`.
    """

    __slots__ = ("num", "d", "ek")

    def __init__(self, num: dict[int, int], d: int, ek: int):
        self.num = num
        self.d = d
        self.ek = ek

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        return (isinstance(other, _LC) and self.num == other.num
                and self.d == other.d and self.ek == other.ek)

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.d, self.ek))

    def __neg__(self) -> "_LC":
        return _LC({e: -c for e, c in self.num.items()}, self.d, self.ek)

    def __add__(self, other):
        if type(other) is not _LC:
            return _lc_to_rf(self) + other
        if not (self.num and other.num):
            return self if not other.num else other
        nums, (d, ek, _) = _common({0: self, 1: other})
        return _lc_norm(_axpy(dict(nums[0]), None, nums[1].items()), d, ek)

    def __radd__(self, other):
        return other + _lc_to_rf(self)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return other - _lc_to_rf(self)

    def __mul__(self, other):
        """A canonical numerator with ek > 0 is prime to q^2 + 1, which is
        irreducible over Q; by Gauss's lemma so is a product of two, so only a
        factor with ek == 0 can bring a q + q^-1 to strip.  A content gcd is
        needed only when d1 * d2 > 1."""
        if type(other) is not _LC:
            return _lc_to_rf(self) * other
        if not self.num or not other.num:
            return _LC_ZERO
        ek = self.ek + other.ek
        return _lc_norm(_mul_terms(self.num, other.num), self.d * other.d, ek,
                        0 if self.ek and other.ek else ek)

    def __rmul__(self, other):
        return other * _lc_to_rf(self)

    def __repr__(self):
        return f"_LC({self.num!r}, {self.d}, {self.ek})"


_LC_ZERO = _LC({}, 1, 0)


def _lc_norm(num: dict[int, int], d: int, ek: int, strip: int | None = None) -> _LC:
    """The canonical `_LC` of num / (d (q+q^-1)^ek), trying to divide out at
    most ``strip`` (default ek) factors of q + q^-1."""
    if not num:
        return _LC_ZERO
    num, stripped = _strip_qp(num, ek if strip is None else strip)
    ek -= stripped
    g = _int_gcd(d, *num.values()) if d > 1 else 1
    if g > 1:
        num = {e: c // g for e, c in num.items()}
        d //= g
    return _LC(num, d, ek)


_LC_ONE = _LC({0: 1}, 1, 0)


def _lc_to_rf(x: _LC) -> RationalFunction:
    if not x.num:
        return RationalFunction.zero()
    num = LaurentPolynomial._raw({e + x.ek: Fraction(c, x.d) for e, c in x.num.items()})
    return RationalFunction._make(num, LaurentPolynomial._raw(_qsq_den(x.ek)))


def _rf_to_lc(f: RationalFunction) -> _LC | None:
    """Convert when the denominator is a power of q^2+1 (else None)."""
    # a canonical denominator (q^2+1)^k leaves the monomial q^k
    rest, k = _strip_qp(f.den.terms, max(f.den.terms))
    if len(rest) != 1:
        return None
    d = lcm(*(c.denominator for c in f.num.terms.values()))
    return _lc_norm({e - k: int(c * d) for e, c in f.num.terms.items()}, d, k)


def _common(vec: dict) -> tuple[dict, tuple]:
    """vec's numerators over one denominator d (q+q^-1)^ek p: d and ek the lcm and max over
    its `_LC` values, p the product of its distinct RF denominators (None if it has none)."""
    d, ek, dens = 1, 0, []
    for c in vec.values():
        if type(c) is _LC:
            d, ek = lcm(d, c.d), max(ek, c.ek)
        elif c.den.terms not in dens:
            dens.append(c.den.terms)
    cofactors = [reduce(_mul_terms, dens[:i] + dens[i + 1:], {0: 1}) for i in range(len(dens))]
    p = _mul_terms(cofactors[0], dens[0]) if dens else None
    nums = {}
    for wid, c in vec.items():
        if type(c) is _LC:
            num, f, k = c.num if p is None else _mul_terms(c.num, p), d // c.d, ek - c.ek
        else:
            num, f, k = _mul_terms(c.num.terms, cofactors[dens.index(c.den.terms)]), d, ek
        if k:
            num = _mul_terms(num, _qp_pow(k))
        nums[wid] = {e: f * t for e, t in num.items()} if f != 1 else num
    return nums, (d, ek, p)


def _from_common(nums: dict, den: tuple) -> dict:
    """The nonzero coefficients num / den over a `_common` denominator (d, ek, p)."""
    d, ek, p = den
    if p is None:
        return {wid: _lc_norm(num, d, ek) for wid, num in nums.items() if num}
    den = LaurentPolynomial(_mul_terms(p, {e: d * c for e, c in _qp_pow(ek).items()}))
    return {wid: RationalFunction(LaurentPolynomial(num), den)
            for wid, num in nums.items() if num}


def _stored(c):
    """The stored form of a coefficient: `_LC` when it lies in the localization."""
    if type(c) is _LC:
        return c
    lc = _rf_to_lc(c)
    return c if lc is None else lc


def _field_value(c) -> RationalFunction:
    """A stored coefficient as an element of K, for the API boundary."""
    return _lc_to_rf(c) if type(c) is _LC else c


# ---------------------------------------------------------------------------
# the per-rank table: words, permutations, generator actions, lazy caches
# ---------------------------------------------------------------------------

class SymmetricGroupTable:
    """Tabulated symmetric group with the Hecke normal-form word indexing.

    Words are indexed by position in `normal_form_words(rank)`.  The tables
    below are built eagerly; the Goldman and T'-expansion caches are filled
    lazily because they are only needed by a subset of operations.

    The methods act on coefficient vectors (wid -> coefficient) whose values
    are `_LC` or `RationalFunction`; the cached expansions are all `_LC`.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.words = normal_form_words(rank)
        self.index: dict[Word, int] = {w: i for i, w in enumerate(self.words)}
        self.length = [sum(w) for w in self.words]
        self.identity = self.index[tuple([0] * (rank - 1))]
        self.first: list[tuple[int, int] | None] = [None] * len(self.words)
        for wid, w in enumerate(self.words):
            if wid != self.identity:
                g, rest = _first_factor(w)
                self.first[wid] = (g, self.index[rest])
        # shortest first; T_w = T_g T_rest swaps the values g, g+1 of rest's permutation
        self.perms = perms = [tuple(range(1, rank + 1))] * len(self.words)
        self.seqs: list[tuple[int, ...]] = [()] * len(self.words)
        for wid in sorted(range(len(self.words)), key=self.length.__getitem__)[1:]:
            g, rest = self.first[wid]
            perms[wid] = tuple(g + 1 if v == g else g if v == g + 1 else v for v in perms[rest])
            self.seqs[wid] = (g,) + self.seqs[rest]
        self.perm_index: dict[tuple[int, ...], int] = {p: i for i, p in enumerate(perms)}
        if len(self.perm_index) != len(self.words):
            raise AssertionError("normal-form words do not biject onto permutations")
        # left_mult[g-1][wid] = word index of s_g . w;
        # right_mult[g-1][wid] = word index of w . s_g
        self.left_mult: list[list[int]] = []
        self.right_mult: list[list[int]] = []
        for g in range(1, rank):
            lrow = []
            rrow = []
            for p in perms:
                moved = tuple(g + 1 if v == g else g if v == g + 1 else v for v in p)
                lrow.append(self.perm_index[moved])
                swapped = p[:g - 1] + (p[g], p[g - 1]) + p[g + 1:]
                rrow.append(self.perm_index[swapped])
            self.left_mult.append(lrow)
            self.right_mult.append(rrow)
        self._goldman: dict[int, dict[int, _LC]] = {self.identity: {self.identity: _LC_ONE}}
        self._tprime: dict[int, dict[int, _LC]] = {self.identity: {self.identity: _LC_ONE}}
        self._tp_left: dict[tuple[int, int], dict[int, _LC]] = {}
        self._seq_keys: list[tuple[int, ...] | None] = [None] * len(self.words)
        self._beta: dict[int, _LC] = {}

    # -- generator actions on coefficient vectors

    def gen_mul(self, row: list[int], nums: dict, m: int = 1, s: int = 0) -> dict:
        """(m T_g + s (q - q^-1)) on Laurent numerators over a shared denominator;
        ``row`` is ``left_mult[g-1]`` (left) or ``right_mult[g-1]`` (right).  Input dicts
        are shared into the output, never mutated."""
        length = self.length
        out: dict = {}
        for w, a in nums.items():
            v = row[w]
            if length[v] > length[w]:
                if v in nums:
                    continue                    # the pair is done at v
                u, au, av = w, a, {}
            else:
                u, v, au, av = v, w, nums.get(v, {}), a
            # T_g T_u = T_v and T_g T_v = T_u + (q - q^-1) T_v
            for x, b, c, k in ((u, av, au, s), (v, au, av, m + s)):
                y = b if m == 1 else {e: m * t for e, t in b.items()}
                if k and c:
                    if y is b:
                        y = dict(b)
                    for e, t in c.items():
                        y[e + 1] = y.get(e + 1, 0) + k * t
                        y[e - 1] = y.get(e - 1, 0) - k * t
                    y = {e: t for e, t in y.items() if t}
                if y:
                    out[x] = y
        return out

    def elem_mul(self, x: dict, y: dict) -> dict:
        # decompose the factor with the smaller support into generator cascades
        if len(x) <= len(y):
            decompose, anchor, rows, reverse = x, y, self.left_mult, True
        else:
            decompose, anchor, rows, reverse = y, x, self.right_mult, False
        cnums, (cd, cek, cp) = _common(decompose)
        anums, (ad, aek, ap) = _common(anchor)
        sums: dict = {}
        for wid, cn in cnums.items():
            tmp = anums
            seq = self.seqs[wid]
            for g in (reversed(seq) if reverse else seq):
                tmp = self.gen_mul(rows[g - 1], tmp)
            for k, t in tmp.items():
                sums[k] = _mul_terms(cn, t, sums.get(k))
        p = ap if cp is None else cp if ap is None else _mul_terms(cp, ap)
        return _from_common(sums, (cd * ad, cek + aek, p))

    def tprime_gen_apply(self, g: int, vec: dict) -> dict:
        """Left multiplication by T'_g = (2 T_g - (q - q^-1)) / (q + q^-1)."""
        nums, (d, ek, p) = _common(vec)
        return _from_common(self.gen_mul(self.left_mult[g - 1], nums, 2, -1), (d, ek + 1, p))

    def goldman_gen_apply(self, g: int, vec: dict) -> dict:
        """Left multiplication by the Goldman image (q - q^-1) - T_g of T_g."""
        nums, den = _common(vec)
        return _from_common(self.gen_mul(self.left_mult[g - 1], nums, -1, 1), den)

    # -- images of basis words, factor by factor

    def word_image(self, cache: dict, wid: int, step):
        """Image of the word ``wid`` under a map built along its first factor:
        T_g * rest goes to ``step(g, image of rest)``.

        ``cache`` maps word indices to images and must hold the identity word's.
        """
        image = cache.get(wid)
        if image is None:
            g, rest = self.first[wid]
            image = cache[wid] = step(g, self.word_image(cache, rest, step))
        return image

    def goldman_word(self, wid: int) -> dict[int, _LC]:
        return self.word_image(self._goldman, wid, self.goldman_gen_apply)

    def tprime_word(self, wid: int) -> dict[int, _LC]:
        return self.word_image(self._tprime, wid, self.tprime_gen_apply)

    # -- T'-basis coordinates

    def _beta_factor(self, L: int) -> _LC:
        """(q+q^-1)^L / 2^L, the inverse leading coefficient at length L."""
        cached = self._beta.get(L)
        if cached is None:
            cached = _lc_norm(dict(_qp_pow(L)), 2 ** L, 0)
            self._beta[L] = cached
        return cached

    @cached_property
    def by_length(self) -> list[int]:
        """Word indices, longest first and ascending among equal lengths."""
        return sorted(range(len(self.words)), key=lambda wid: -self.length[wid])

    def to_tprime(self, vec: dict) -> dict:
        """Coordinates in the T'-normal-form basis (triangular elimination).

        T'_w is a multiple of T_w plus shorter words, so the words are
        eliminated in `by_length` order, and ``out`` keeps that order.
        """
        out: dict = {}
        work = dict(vec)
        for wid in self.by_length:
            if not work:
                break
            a = work.pop(wid, None)
            if not a:
                continue
            beta = out[wid] = a * self._beta_factor(self.length[wid])
            _axpy(work, -beta, ((u, cu) for u, cu in self.tprime_word(wid).items() if u != wid))
        return out

    def from_tprime(self, vec: dict) -> dict:
        return _linear(vec, self.tprime_word)

    def tp_left_is_word(self, g: int, wid: int) -> bool:
        """Whether T'_g * T'_w is the basis word T'_v, v = s_g w, by the word rule."""
        v = self.left_mult[g - 1][wid]
        key = self._seq_keys[v]
        if key is None:
            key = self._seq_keys[v] = _commutation_key(self.seqs[v])
        return _commutation_key(_cancel_left(g, self.seqs[wid])) == key

    def tp_left_col(self, g: int, wid: int) -> dict[int, _LC]:
        """T'-coordinates of T'_g * T'_w — one column of left multiplication."""
        key = (g, wid)
        cached = self._tp_left.get(key)
        if cached is None:
            if self.tp_left_is_word(g, wid):
                cached = {self.left_mult[g - 1][wid]: _LC_ONE}
            else:
                cached = self.to_tprime(self.tprime_gen_apply(g, self.tprime_word(wid)))
            self._tp_left[key] = cached
        return cached

    def tp_left_apply(self, g: int, vec: dict) -> dict:
        """Left multiplication by T'_g on T'-coordinate vectors."""
        return _linear(vec, lambda wid: self.tp_left_col(g, wid))


_TABLE_CACHE: dict[int, SymmetricGroupTable] = {}


def symmetric_group_table(rank: int) -> SymmetricGroupTable:
    table = _TABLE_CACHE.get(rank)
    if table is None:
        table = SymmetricGroupTable(rank)
        _TABLE_CACHE[rank] = table
    return table


# ---------------------------------------------------------------------------
# public element types
# ---------------------------------------------------------------------------

def _as_field(c) -> RationalFunction:
    if isinstance(c, RationalFunction):
        return c
    if isinstance(c, (int, Fraction, LaurentPolynomial)):
        prom = RationalFunction.zero()._promote(c)
        if prom is not None:
            return prom
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


def _scalar(value):
    """A public scalar in stored form."""
    return _stored(_as_field(value))


def _word_vec(rank: int, coeffs: Mapping[Word, object] | None) -> dict:
    """Word-keyed public coefficients as a zero-free wid-keyed vector."""
    table = symmetric_group_table(rank)
    pairs = []
    for word, value in (coeffs or {}).items():
        word = tuple(word)
        check_word(word, rank)
        pairs.append((table.index[word], _as_field(value)))
    return _axpy({}, None, pairs)


class _WordVector:
    """Sparse coefficients on normal-form basis words, keyed by word index.

    ``_c`` maps word indices to nonzero coefficients in `_stored` form, which
    the constructor enforces, so ``==`` compares it directly.
    """

    __slots__ = ("rank", "_c")
    _letter = "T"                       # basis letter in the repr
    _zero = "0"                         # repr of the zero vector, formatted with rank

    def __init__(self, rank: int, coeffs: Mapping[Word, object] | None = None, *, _wids=None):
        self.rank = rank
        if _wids is None:
            _wids = _word_vec(rank, coeffs)
        self._c = {k: _stored(v) for k, v in _wids.items()}

    @property
    def coeffs(self) -> dict[Word, RationalFunction]:
        """Word-keyed view of the coefficients (a fresh dict)."""
        words = symmetric_group_table(self.rank).words
        return {words[wid]: _field_value(v) for wid, v in sorted(self._c.items())}

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.rank == other.rank and self._c == other._c

    def __repr__(self):
        if not self._c:
            return self._zero.format(rank=self.rank)
        words = symmetric_group_table(self.rank).words
        return " + ".join(f"({_field_value(v)})*{self._letter}{words[k]}"
                          for k, v in sorted(self._c.items()))


class HeckeElement(_WordVector):
    """Sparse linear combination of normal-form basis words, coefficients in K."""

    __slots__ = ()
    _zero = "HeckeElement(rank={rank}, 0)"

    @property
    def is_zero(self) -> bool:
        return not self._c

    # -- ring operations

    def _check_rank(self, other: "HeckeElement") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} != {other.rank}")

    def __add__(self, other):
        if isinstance(other, HeckeElement):
            self._check_rank(other)
            return HeckeElement(self.rank, _wids=_axpy(dict(self._c), None, other._c.items()))
        return self + _scalar_elem(self.rank, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, HeckeElement) else -_as_field(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return HeckeElement(self.rank, _wids={k: -v for k, v in self._c.items()})

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            self._check_rank(other)
            table = symmetric_group_table(self.rank)
            return HeckeElement(self.rank, _wids=table.elem_mul(self._c, other._c))
        return HeckeElement(self.rank, _wids=_axpy({}, _scalar(other), self._c.items()))

    def __rmul__(self, other):
        # scalars commute with everything; elements use __mul__
        if isinstance(other, HeckeElement):
            return NotImplemented
        return self.__mul__(other)

    def __truediv__(self, other):
        v = _as_field(other)
        return self * v.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction, LaurentPolynomial)):
            return self == _scalar_elem(self.rank, other)
        return super().__eq__(other)

    def __hash__(self):
        return hash((self.rank, tuple(sorted(self._c.items()))))

    # -- structure maps

    def goldman(self) -> "HeckeElement":
        """Image under the algebra involution determined by T_i -> (q-q^-1) - T_i."""
        table = symmetric_group_table(self.rank)
        return HeckeElement(self.rank, _wids=_linear(self._c, table.goldman_word))


def _scalar_elem(rank: int, value) -> HeckeElement:
    v = _scalar(value)
    table = symmetric_group_table(rank)
    return HeckeElement(rank, _wids=({table.identity: v} if v else {}))


class TPrimeExpansion(_WordVector):
    """Coordinates of an element in the T'-normal-form basis (stored as in HeckeElement)."""

    __slots__ = ()
    _letter = "T'"

    def parities(self) -> set[int]:
        length = symmetric_group_table(self.rank).length
        return {length[wid] & 1 for wid in self._c}

    @property
    def even_supported(self) -> bool:
        return self.parities() <= {0}


def to_tprime_basis(x: HeckeElement) -> TPrimeExpansion:
    """Re-express an element in the T'-normal-form basis."""
    table = symmetric_group_table(x.rank)
    return TPrimeExpansion(x.rank, _wids=table.to_tprime(x._c))


def from_tprime_basis(y: TPrimeExpansion) -> HeckeElement:
    """Inverse of `to_tprime_basis` (linear extension of the T'-word products)."""
    table = symmetric_group_table(y.rank)
    return HeckeElement(y.rank, _wids=table.from_tprime(y._c))


def goldman(x: HeckeElement) -> HeckeElement:
    return x.goldman()


def goldman_eigenproject(x: HeckeElement, sign: int) -> HeckeElement:
    """The projection (x + sign*goldman(x)) / 2 onto a Goldman eigenspace."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    g = x.goldman()
    return (x + g if sign == 1 else x - g) * HALF


# ---------------------------------------------------------------------------
# algebra factory
# ---------------------------------------------------------------------------

RANDOM_COEFF_BOUND = 4      # |c| <= this for the c q^k terms of `random_element`


class HeckeAlgebra:
    """Entry point for building elements of H_{K,r}(q)."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.table = symmetric_group_table(rank)

    def zero(self) -> HeckeElement:
        return HeckeElement(self.rank, _wids={})

    def one(self) -> HeckeElement:
        return HeckeElement(self.rank, _wids={self.table.identity: _LC_ONE})

    def generator(self, i: int) -> HeckeElement:
        """The generator T_i, 1 <= i <= rank-1."""
        if not 1 <= i <= self.rank - 1:
            raise ValueError(f"generator index {i} out of range for rank {self.rank}")
        word = tuple(1 if j == i - 1 else 0 for j in range(self.rank - 1))
        return HeckeElement(self.rank, _wids={self.table.index[word]: _LC_ONE})

    def tprime(self, i: int) -> HeckeElement:
        """T'_i = (2 T_i - (q - q^-1)) / (q + q^-1), an involutive generator."""
        if not 1 <= i <= self.rank - 1:
            raise ValueError(f"generator index {i} out of range for rank {self.rank}")
        vec = self.table.tprime_gen_apply(i, {self.table.identity: _LC_ONE})
        return HeckeElement(self.rank, _wids=vec)

    def basis_element(self, word: Word) -> HeckeElement:
        word = tuple(word)
        check_word(word, self.rank)
        return HeckeElement(self.rank, _wids={self.table.index[word]: _LC_ONE})

    def tprime_basis_element(self, word: Word) -> HeckeElement:
        """The product of T' factors along a normal-form word, in the T basis."""
        word = tuple(word)
        check_word(word, self.rank)
        wid = self.table.index[word]
        return HeckeElement(self.rank, _wids=self.table.tprime_word(wid))

    def random_element(self, rng, terms: int = 3) -> HeckeElement:
        """Seeded sparse element with small integer Laurent coefficients."""
        nwords = len(self.table.words)
        bound = RANDOM_COEFF_BOUND
        pairs = ((rng.randrange(nwords), RationalFunction(LaurentPolynomial(
                     {rng.randint(-2, 2): Fraction(rng.randint(-bound, bound))})))
                 for _ in range(terms))
        return HeckeElement(self.rank, _wids=_axpy({}, None, pairs))
