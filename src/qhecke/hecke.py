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
steps run fraction-free: `gen_mul` adds and shifts the integer Laurent
numerators of the stored form, and the result is normalized once.

Presentations.  `relation_failures` is the one check of t_i^2 = a t_i + 1,
t_i t_{i+1} t_i = t_{i+1} t_i t_{i+1} + c (t_i - t_{i+1}) and far commutation.
The T_i and their Goldman images G_i = (q - q^-1) - T_i take (a, c) =
(q - q^-1, 0); the T'_i below take (0, -u^2), u = (q - q^-1)/(q + q^-1).

The involutive generators ``T'_i = (2 T_i - (q - q^-1)) / (q + q^-1)`` give a
second normal-form basis (products of T' factors along the same words).  The
conversion between the two bases is triangular with respect to word length,
which is what `to_tprime_basis` exploits.  Maps given on basis words (the T'
words, the Goldman images, the T'-columns) extend linearly by `_linear`,
which also serves sums and scalar multiples.

T'-columns.  Left multiplication by T'_g on T' coordinates needs the column
T'_g * T'_w (`tp_left_col`), w = (c_1, ..., c_{r-1}).  Only T'_i^2 = 1 and the
commutation of far T' generators, both exact, make it the basis word T'_v,
v = s_g w, in three cases.  g = 1 toggles the first block.  If c_{g-1} = 0,
T'_g commutes past blocks 1..g-2 (their letters are at most g - 2); it then
starts block g when c_g = 0, or cancels the first letter of block g, leaving
block g-1 of length c_g - 1.  If c_{g-1} = a >= 1 and c_g = 0, it commutes past
the same blocks and turns block g-1 into block g of length a + 1.  The other
columns, c_{g-1} and c_g both at least 1, need a braid move, and the braid
relation of the T' generators carries a correction term, so they go through
the T basis and back by `to_tprime`.  Products of T' words are cascades of
these columns along the left word (`word_image` with `tp_left_apply`).

Coefficients.  A vector is stored in one form, the pair (nums, (d, ek, p)):
integer Laurent numerators keyed by word index over the one denominator
d (q+q^-1)^ek p.  p is None for the vectors these constructions produce, whose
values lie in the localization Q[q, q^-1, (q+q^-1)^-1]; after a division by
q - 1, say, it is a primitive integer polynomial.  `_canonical` makes the pair
unique for the value -- d prime to the numerators' content, ek minimal, p
prime to q^2 + 1 and to the numerators' gcd -- so ``==`` and ``hash`` are
structural, except that a scalar (support at most the identity word) hashes
like the value in K it equals.  `RationalFunction` values appear only at the
boundary (`coeffs`, `repr`, report witnesses, scalar hashes), through
`_lc_to_rf`.  All values are immutable once built.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd as _int_gcd, lcm
from typing import Mapping

from .qfield import (HALF, Q_MINUS_QINV, Q_PLUS_QINV, LaurentPolynomial, RationalFunction,
                     _axpy, _dense, _dense_exact_div, _dense_gcd, _from_dense, _idiv_qp,
                     _mul_terms, _qp_divides, _qp_pow, _strip_qp)

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


# ---------------------------------------------------------------------------
# stored vectors: integer Laurent numerators over one denominator d (q+q^-1)^ek p
# ---------------------------------------------------------------------------

_UNIT = (1, 0, None)                    # the denominator 1


def _unit_vec(wid: int) -> tuple:
    """The stored pair of the basis word ``wid``."""
    return {wid: {0: 1}}, _UNIT


def _pmul(a: dict | None, b: dict | None) -> dict | None:
    return b if a is None else a if b is None else _mul_terms(a, b)


def _canonical(nums: dict, den: tuple) -> tuple:
    """The canonical stored pair of the vector nums / (d (q+q^-1)^ek p).

    ``nums`` holds nonzero integer Laurent numerators and is not mutated; p is
    None or a primitive integer polynomial of valuation 0, positive leading
    coefficient and prime to q^2 + 1.  Unique for the value: p is made prime to
    the numerators' gcd, ek minimal and d prime to their content.
    """
    if not nums:
        return {}, _UNIT
    d, ek, p = den
    if p is not None:
        nums, p = _cancel_poly(nums, p)
    while ek and all(map(_qp_divides, nums.values())):
        nums, ek = {k: _idiv_qp(num) for k, num in nums.items()}, ek - 1
    g = _int_gcd(d, *(c for num in nums.values() for c in num.values())) if d > 1 else 1
    if g > 1:
        nums = {k: {e: c // g for e, c in num.items()} for k, num in nums.items()}
    return nums, (d // g, ek, p)


def _cancel_poly(nums: dict, p: dict) -> tuple[dict, dict | None]:
    """Divide p and every numerator by their gcd over Q (None for p once it is 1).

    The gcd is primitive, so by Gauss's lemma the quotients keep integer
    coefficients and p stays primitive with positive leading coefficient.
    """
    g = reduce(_dense_gcd, (_dense(num)[0] for num in nums.values()), _dense(p)[0])
    if len(g) == 1:
        return nums, p

    def divide(num):
        coeffs, lo = _dense(num)
        return {e: int(c) for e, c in _from_dense(_dense_exact_div(coeffs, g), lo).items()}

    p = divide(p)
    return {k: divide(num) for k, num in nums.items()}, (None if len(p) == 1 else p)


def _common(dens: list) -> tuple[tuple, list]:
    """One denominator for all of ``dens`` -- d the lcm, ek the max, p the
    product of the distinct p -- and for each den the Laurent factor that
    brings a numerator over it."""
    d = lcm(*(den[0] for den in dens))
    ek = max((den[1] for den in dens), default=0)
    ps = []
    for _, _, p in dens:
        if p is not None and p not in ps:
            ps.append(p)
    factors = []
    for di, ki, pi in dens:
        f = reduce(_mul_terms, (q for q in ps if q != pi), _qp_pow(ek - ki))
        factors.append(f if d == di else {e: d // di * c for e, c in f.items()})
    return (d, ek, reduce(_pmul, ps, None)), factors


def _accumulate(terms) -> dict:
    """The sum of c * image over the (c, image) terms, on Laurent numerators:
    ``image`` maps keys to numerators, and a key whose sum cancels is dropped."""
    out: dict = {}
    for c, image in terms:
        for u, t in image.items():
            s = _mul_terms(c, t, out.get(u))
            if s:
                out[u] = s
            else:
                del out[u]
    return out


def _linear(vec: tuple, image) -> tuple:
    """The stored pair of the sum of c * image(k) over the coefficients c of
    vec, each image a stored pair; the images go over one common denominator."""
    nums, (d, ek, p) = vec
    images = [image(k) for k in nums]
    # images that are distinct basis words only move vec's canonical numerators
    words = {u for inums, iden in images if iden == _UNIT and len(inums) == 1
             for u, t in inums.items() if t == {0: 1}}
    if len(words) == len(images):
        return dict(zip((next(iter(inums)) for inums, _ in images), nums.values())), vec[1]
    (cd, cek, cp), factors = _common([den for _, den in images])
    terms = ((c if f == {0: 1} else _mul_terms(c, f), inums)
             for c, f, (inums, _) in zip(nums.values(), factors, images))
    return _canonical(_accumulate(terms), (d * cd, ek + cek, _pmul(p, cp)))


def _field_pair(key, value: RationalFunction) -> tuple:
    """The stored pair of the nonzero ``value`` at ``key``.  d clears the
    numerator's coefficients, so it is prime to their content; the other
    factors are canonical when ``value`` is."""
    num, den = value.num.terms, value.den.terms
    # a canonical denominator (q^2+1)^j r leaves q^j r after j divisions by q + q^-1
    rest, j = _strip_qp(den, max(den))
    r = {e - j: int(c) for e, c in rest.items()}
    d = lcm(*(c.denominator for c in num.values()))
    return {key: {e - j: int(c * d) for e, c in num.items()}}, (d, j, None if r == {0: 1} else r)


def _from_field(pairs) -> tuple:
    """The stored pair of the sum of (key, `RationalFunction`) pairs, each
    coefficient brought in as a one-key pair."""
    vec = _axpy({}, None, pairs)
    return _linear(({k: {0: 1} for k in vec}, _UNIT), lambda k: _field_pair(k, vec[k]))


def _lc_to_rf(num: dict, den: tuple) -> RationalFunction:
    """One stored coefficient num / (d (q+q^-1)^ek p) as an element of K."""
    d, ek, p = den
    qsq = {e + ek: d * c for e, c in _qp_pow(ek).items()}        # d (q^2+1)^ek
    return RationalFunction(LaurentPolynomial({e + ek: c for e, c in num.items()}),
                            LaurentPolynomial(qsq if p is None else _mul_terms(p, qsq)))


# ---------------------------------------------------------------------------
# the per-rank table: words, generator actions, lazy caches
# ---------------------------------------------------------------------------

def _right_row(low: SymmetricGroupTable, r: int, g: int) -> list[int]:
    """right_mult[g-1] of rank r from the rank r-1 table ``low``.  With
    k = r-1-g, the block M = T_{r-1} ... T_{r-c} of the word (low, c) commutes
    with s_g when c < k, gains s_g = s_{r-1-c} when c = k, loses its last
    letter s_g when c = k+1, and turns s_g into s_{g-1} when c > k+1."""
    k = r - 1 - g
    n = len(low.length) * r
    row = [0] * n
    row[k::r] = range(k + 1, n, r)
    row[k + 1::r] = range(k, n, r)
    for cs, h in ((range(k), g), (range(k + 2, r), g - 1)):
        if cs:
            scaled = [x * r for x in low.right_mult[h - 1]]
            for c in cs:
                row[c::r] = [x + c for x in scaled]
    return row


class SymmetricGroupTable:
    """Tabulated symmetric group with the Hecke normal-form word indexing.

    Words are indexed by position in `normal_form_words(rank)`.  The word
    tables are built eagerly from those of rank - 1, by index arithmetic on
    the word codes; the Goldman and T'-expansion caches are filled lazily
    because they are only needed by a subset of operations.

    The methods act on canonical stored pairs (see `_canonical`); ``gen_mul``
    alone acts on bare numerators.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.words = normal_form_words(rank)
        self.index: dict[Word, int] = {w: i for i, w in enumerate(self.words)}
        self.identity = 0
        if rank == 1:
            self.length, self.seqs, self.first, self.right_mult = [0], [()], [None], []
        else:
            # the word (low, c) is low's word times the block M = T_{r-1} ... T_{r-c};
            # its index is low * r + c, as `normal_form_words` is lexicographic
            low, r, cs = symmetric_group_table(rank - 1), rank, range(rank)
            self.length = [n + c for n in low.length for c in cs]
            blocks = [tuple(range(r - 1, r - 1 - c, -1)) for c in cs]
            self.seqs: list[tuple[int, ...]] = [s + m for s in low.seqs for m in blocks]
            # the first factor is low's, or T_{r-1} of M when low is the identity,
            # which leaves block r-2 of length c - 1
            self.first: list[tuple[int, int] | None] = [None] + [
                (r - 1, (c - 1) * r) for c in cs[1:]] + [
                (g, rest * r + c) for g, rest in low.first[1:] for c in cs]
            # right_mult[g-1][wid] = word index of w . s_g
            self.right_mult: list[list[int]] = [_right_row(low, r, g)
                                                for g in range(1, r)]
        # left_mult[g-1][wid] = word index of s_g . w = (w^-1 . s_g)^-1, read off
        # right_mult through the inverses, w^-1 = rest^-1 . s_g for w = s_g . rest
        inv = [0] * len(self.words)
        for wid in sorted(range(1, len(self.words)), key=self.length.__getitem__):
            g, rest = self.first[wid]
            inv[wid] = self.right_mult[g - 1][inv[rest]]
        self.left_mult: list[list[int]] = [[inv[row[v]] for v in inv] for row in self.right_mult]
        self.one = _unit_vec(self.identity)
        self._goldman: dict[int, tuple] = {self.identity: self.one}
        self._tprime: dict[int, tuple] = {self.identity: self.one}
        self._tp_left: dict[tuple[int, int], tuple] = {}

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

    def elem_mul(self, x: tuple, y: tuple) -> tuple:
        if x == self.one:
            return y
        if y == self.one:
            return x
        # decompose the factor with the smaller support into generator cascades
        reverse = len(x[0]) <= len(y[0])
        (cnums, (cd, cek, cp)), (anums, (ad, aek, ap)) = (x, y) if reverse else (y, x)
        rows = self.left_mult if reverse else self.right_mult

        def cascade(wid):
            tmp = anums
            seq = self.seqs[wid]
            for g in (reversed(seq) if reverse else seq):
                tmp = self.gen_mul(rows[g - 1], tmp)
            return tmp

        sums = _accumulate((cn, cascade(wid)) for wid, cn in cnums.items())
        return _canonical(sums, (cd * ad, cek + aek, _pmul(cp, ap)))

    def tprime_gen_apply(self, g: int, vec: tuple) -> tuple:
        """Left multiplication by T'_g = (2 T_g - (q - q^-1)) / (q + q^-1)."""
        nums, (d, ek, p) = vec
        return _canonical(self.gen_mul(self.left_mult[g - 1], nums, 2, -1), (d, ek + 1, p))

    def goldman_gen_apply(self, g: int, vec: tuple) -> tuple:
        """Left multiplication by the Goldman image (q - q^-1) - T_g of T_g; it is
        -T_g^-1, a unit over Z[q, q^-1], so the pair stays canonical."""
        nums, den = vec
        return self.gen_mul(self.left_mult[g - 1], nums, -1, 1), den

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

    def goldman_word(self, wid: int) -> tuple:
        return self.word_image(self._goldman, wid, self.goldman_gen_apply)

    def tprime_word(self, wid: int) -> tuple:
        """T'_w = N_w / (q + q^-1)^l(w), N_w the generator steps along the word;
        N_w has 2^l(w) at T_w, so the pair is canonical as it stands."""
        return self.word_image(self._tprime, wid, lambda g, rest: (
            self.gen_mul(self.left_mult[g - 1], rest[0], 2, -1), (1, rest[1][1] + 1, None)))

    # -- T'-basis coordinates

    @cached_property
    def by_length(self) -> list[int]:
        """Word indices, longest first and ascending among equal lengths."""
        return sorted(range(len(self.words)), key=lambda wid: -self.length[wid])

    def to_tprime(self, vec: tuple) -> tuple:
        """Coordinates in the T'-normal-form basis (triangular elimination).

        N_w is 2^l(w) T_w plus shorter words, so the words are eliminated in
        `by_length` order, which ``out`` keeps, by ``work -= work[w] N_w / 2^l(w)``
        on integer numerators over vec's denominator, each over its own power of
        two.  The coordinate of T'_w is what was left at T_w times
        (q+q^-1)^l(w) / 2^l(w); all are normalized once, at the end.
        """
        nums, (d, ek, p) = vec
        length = self.length
        work = {k: (num, 0) for k, num in nums.items()}    # numerator / 2^s
        out: dict = {}
        for wid in self.by_length:
            if not work:
                break
            if wid not in work:
                continue
            a, s = work.pop(wid)
            s += length[wid]
            out[wid] = a, s
            for u, t in self.tprime_word(wid)[0].items():
                if u == wid:
                    continue
                b, sb = work.pop(u, ({}, s))
                top = max(s, sb)
                new = _mul_terms({e: -c << top - s for e, c in a.items()}, t,
                                 {e: c << top - sb for e, c in b.items()})
                if new:
                    work[u] = new, top
        # coordinate w is a (q+q^-1)^(l(w) - ek) / (2^s d p); put all over 2^top d (q+q^-1)^k p
        top = max((s for _, s in out.values()), default=0)
        k = max(0, ek - min((length[wid] for wid in out), default=ek))
        coords = {}
        for wid, (a, s) in out.items():
            a = _mul_terms(a, _qp_pow(length[wid] - ek + k))
            coords[wid] = {e: c << top - s for e, c in a.items()}
        return _canonical(coords, (d << top, k, p))

    def from_tprime(self, vec: tuple) -> tuple:
        return _linear(vec, self.tprime_word)

    def tp_left_is_word(self, g: int, wid: int) -> bool:
        """Whether T'_g * T'_w is the basis word T'_{s_g w}: g = 1, c_{g-1} = 0 or
        c_g = 0 (the descent rule of the module docstring)."""
        w = self.words[wid]
        return g == 1 or not w[g - 2] or not w[g - 1]

    def tp_left_col(self, g: int, wid: int) -> tuple:
        """T'-coordinates of T'_g * T'_w — one column of left multiplication."""
        key = (g, wid)
        cached = self._tp_left.get(key)
        if cached is None:
            if self.tp_left_is_word(g, wid):
                cached = _unit_vec(self.left_mult[g - 1][wid])
            else:
                cached = self.to_tprime(self.tprime_gen_apply(g, self.tprime_word(wid)))
            self._tp_left[key] = cached
        return cached

    def tp_left_apply(self, g: int, vec: tuple) -> tuple:
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
    if isinstance(c, (int, Fraction)):
        return RationalFunction.constant(c)
    if isinstance(c, LaurentPolynomial):
        return RationalFunction._make(c, LaurentPolynomial.one())
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


def _word_vec(rank: int, coeffs: Mapping[Word, object] | None) -> tuple:
    """Word-keyed public coefficients as a stored pair."""
    table = symmetric_group_table(rank)
    pairs = []
    for word, value in (coeffs or {}).items():
        word = tuple(word)
        check_word(word, rank)
        pairs.append((table.index[word], _as_field(value)))
    return _from_field(pairs)


class _WordVector:
    """Sparse coefficients on normal-form basis words, keyed by word index.

    ``_c`` is the canonical stored pair (numerators, denominator), so ``==``
    compares it directly.
    """

    __slots__ = ("rank", "_c")
    _letter = "T"                       # basis letter in the repr
    _zero = "0"                         # repr of the zero vector, formatted with rank

    def __init__(self, rank: int, coeffs: Mapping[Word, object] | None = None, *, _c=None):
        self.rank = rank
        self._c = _word_vec(rank, coeffs) if _c is None else _c

    @property
    def coeffs(self) -> dict[Word, RationalFunction]:
        """Word-keyed view of the coefficients (a fresh dict)."""
        words = symmetric_group_table(self.rank).words
        nums, den = self._c
        return {words[wid]: _lc_to_rf(num, den) for wid, num in sorted(nums.items())}

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.rank == other.rank and self._c == other._c

    def __repr__(self):
        if not self._c[0]:
            return self._zero.format(rank=self.rank)
        return " + ".join(f"({v})*{self._letter}{w}" for w, v in self.coeffs.items())


class HeckeElement(_WordVector):
    """Sparse linear combination of normal-form basis words, coefficients in K."""

    __slots__ = ()
    _zero = "HeckeElement(rank={rank}, 0)"

    @property
    def is_zero(self) -> bool:
        return not self._c[0]

    # -- ring operations

    def _check_rank(self, other: "HeckeElement") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} != {other.rank}")

    def __add__(self, other):
        if isinstance(other, HeckeElement):
            self._check_rank(other)
            # the linear extension of 0 -> self, 1 -> other
            return HeckeElement(self.rank, _c=_linear(({0: {0: 1}, 1: {0: 1}}, _UNIT),
                                                      (self._c, other._c).__getitem__))
        return self + _scalar_elem(self.rank, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, HeckeElement) else -_as_field(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        nums, den = self._c
        return HeckeElement(self.rank, _c=(
            {k: {e: -c for e, c in num.items()} for k, num in nums.items()}, den))

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            self._check_rank(other)
            table = symmetric_group_table(self.rank)
            return HeckeElement(self.rank, _c=table.elem_mul(self._c, other._c))
        # the scalar is one coefficient, at the identity word: extend it to self
        return HeckeElement(self.rank, _c=_linear(_scalar_elem(self.rank, other)._c,
                                                  lambda _: self._c))

    def __rmul__(self, other):
        # scalars commute with everything; elements use __mul__
        if isinstance(other, HeckeElement):
            return NotImplemented
        return self.__mul__(other)

    def __truediv__(self, other):
        return self * _as_field(other).inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction, LaurentPolynomial)):
            return self == _scalar_elem(self.rank, other)
        return super().__eq__(other)

    def __hash__(self):
        nums, (d, ek, p) = self._c
        identity = symmetric_group_table(self.rank).identity
        if nums.keys() <= {identity}:           # a scalar hashes like its value in K
            return hash(_lc_to_rf(nums.get(identity, {}), (d, ek, p)))
        return hash((self.rank, frozenset((k, frozenset(num.items())) for k, num in nums.items()),
                     d, ek, p and frozenset(p.items())))

    # -- structure maps

    def goldman(self) -> "HeckeElement":
        """Image under the algebra involution determined by T_i -> (q-q^-1) - T_i."""
        table = symmetric_group_table(self.rank)
        return HeckeElement(self.rank, _c=_linear(self._c, table.goldman_word))


def _scalar_elem(rank: int, value) -> HeckeElement:
    """``value`` at the identity word: its `_field_pair`, put through `_canonical`
    only when the denominator has a factor besides d."""
    value = _as_field(value)
    if not value:
        return HeckeElement(rank, _c=({}, _UNIT))
    nums, den = _field_pair(symmetric_group_table(rank).identity, value)
    return HeckeElement(rank, _c=(nums, den) if den[1:] == (0, None) else _canonical(nums, den))


class TPrimeExpansion(_WordVector):
    """Coordinates of an element in the T'-normal-form basis (stored as in HeckeElement)."""

    __slots__ = ()
    _letter = "T'"

    def parities(self) -> set[int]:
        length = symmetric_group_table(self.rank).length
        return {length[wid] & 1 for wid in self._c[0]}

    @property
    def even_supported(self) -> bool:
        return self.parities() <= {0}


def to_tprime_basis(x: HeckeElement) -> TPrimeExpansion:
    """Re-express an element in the T'-normal-form basis."""
    table = symmetric_group_table(x.rank)
    return TPrimeExpansion(x.rank, _c=table.to_tprime(x._c))


def from_tprime_basis(y: TPrimeExpansion) -> HeckeElement:
    """Inverse of `to_tprime_basis` (linear extension of the T'-word products)."""
    table = symmetric_group_table(y.rank)
    return HeckeElement(y.rank, _c=table.from_tprime(y._c))


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
        return HeckeElement(self.rank, _c=({}, _UNIT))

    def one(self) -> HeckeElement:
        return HeckeElement(self.rank, _c=self.table.one)

    def generator(self, i: int) -> HeckeElement:
        """The generator T_i, 1 <= i <= rank-1."""
        if not 1 <= i <= self.rank - 1:
            raise ValueError(f"generator index {i} out of range for rank {self.rank}")
        word = tuple(1 if j == i - 1 else 0 for j in range(self.rank - 1))
        return HeckeElement(self.rank, _c=_unit_vec(self.table.index[word]))

    def tprime(self, i: int) -> HeckeElement:
        """T'_i = (2 T_i - (q - q^-1)) / (q + q^-1), an involutive generator."""
        if not 1 <= i <= self.rank - 1:
            raise ValueError(f"generator index {i} out of range for rank {self.rank}")
        return HeckeElement(self.rank, _c=self.table.tprime_gen_apply(i, self.table.one))

    def basis_element(self, word: Word) -> HeckeElement:
        word = tuple(word)
        check_word(word, self.rank)
        return HeckeElement(self.rank, _c=_unit_vec(self.table.index[word]))

    def tprime_basis_element(self, word: Word) -> HeckeElement:
        """The product of T' factors along a normal-form word, in the T basis."""
        word = tuple(word)
        check_word(word, self.rank)
        return HeckeElement(self.rank, _c=self.table.tprime_word(self.table.index[word]))

    def random_element(self, rng, terms: int = 3) -> HeckeElement:
        """Seeded sparse element with small integer Laurent coefficients."""
        nwords = len(self.table.words)
        bound = RANDOM_COEFF_BOUND
        pairs = ((rng.randrange(nwords), RationalFunction(LaurentPolynomial(
                     {rng.randint(-2, 2): Fraction(rng.randint(-bound, bound))})))
                 for _ in range(terms))
        return HeckeElement(self.rank, _c=_from_field(pairs))


U_SQUARED = (Q_MINUS_QINV / Q_PLUS_QINV) ** 2      # u^2 of the T' braids and the X cubic


def relation_failures(gens: Mapping[int, HeckeElement], a=Q_MINUS_QINV, c=0) -> list[str]:
    """The relations (see the module docstring) that ``gens[1], ..., gens[r-1]``
    violate, named by index; the T'_i take a = 0, c = -`U_SQUARED`."""
    rank = len(gens) + 1
    one = HeckeAlgebra(rank).one()
    failures = [f"quadratic at i={i}" for i, t in gens.items() if t * t != a * t + one]
    failures += [f"braid at i={i}" for i in range(1, rank - 1)
                 if gens[i] * gens[i + 1] * gens[i]
                 != gens[i + 1] * gens[i] * gens[i + 1] + c * (gens[i] - gens[i + 1])]
    failures += [f"far commutation at ({i},{j})" for i in range(1, rank)
                 for j in range(i + 2, rank) if gens[i] * gens[j] != gens[j] * gens[i]]
    return failures
