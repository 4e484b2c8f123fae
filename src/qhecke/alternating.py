"""The q-analogue of the alternating group inside the Hecke algebra.

The fixed space of the Goldman involution is a subalgebra spanned by the
T'-normal-form words of even parity (parity = sum of the descent counts mod
2).  This module enumerates that basis, decides membership, builds the
involutive generators ``X_i = T'_1 T'_{i+1}`` and checks their presentation
(`x_relation_failures`), and verifies that the full Hecke algebra is the
Z2-crossed product of the even subalgebra along the weak action
``a -> T'_1 a T'_1`` with trivial cocycle.

That the even span E is closed under products is proved at every rank from
the r - 1 generators alone (`check_even_closure`), through
`hecke.relation_failures` with the (a, c) of the T_i.  The Goldman map gamma
sends T_w to the product of the G_g = (q - q^-1) - T_g along w's normal-form
word (`goldman_word`), a reduced word.  If the G_i satisfy the quadratic,
braid and far-commutation relations, that product is the same along every
reduced word of w, since any two are linked by braid moves (Matsumoto,
C. R. Acad. Sci. Paris 258, 1964).  Then gamma(T_g T_w) = G_g gamma(T_w):
directly when l(s_g w) > l(w), and by the quadratic relation otherwise; so
gamma is a unital algebra map.  If also gamma(T'_i) = -T'_i, then
gamma(T'_w) = (-1)^l(w) T'_w, so E is the fixed space of gamma, and the
fixed space of an algebra map is a subalgebra.

Given that and T'_1^2 = 1, every record of `verify_crossed_product_H` is a
corollary: E T'_1 is the odd span, conjugation by T'_1 preserves E, has
order two and is multiplicative, the cocycle is trivial, and the product
law is associativity.  Those records stay as evidence that exercises the
`crossed` checkers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

from .commutant import _rank
from .crossed import add_crossed_records, memoized_action
from .hecke import (
    HeckeAlgebra,
    HeckeElement,
    U_SQUARED,
    SymmetricGroupTable,
    Word,
    _lc_to_rf,
    _unit_vec,
    normal_form_words,
    relation_failures,
    word_parity,
)
from .qfield import LaurentPolynomial, RationalFunction
from .report import Report


@dataclass(frozen=True)
class EvenBasis:
    """The even-parity T'-normal-form words of a given rank."""

    rank: int
    words: tuple[Word, ...]

    def __len__(self):
        return len(self.words)


def enumerate_even_basis(rank: int) -> EvenBasis:
    """All even-parity words; they span the Goldman-fixed subalgebra."""
    if rank < 2:
        raise ValueError("even basis requires rank >= 2")
    words = tuple(w for w in normal_form_words(rank) if word_parity(w) == 0)
    return EvenBasis(rank, words)


def odd_word_count(rank: int) -> int:
    return sum(1 for w in normal_form_words(rank) if word_parity(w) == 1)


def is_in_alt(x: HeckeElement) -> bool:
    """Membership in the +1 Goldman eigenspace (the even subalgebra)."""
    return x.goldman() == x


def x_generator(rank: int, i: int) -> HeckeElement:
    """The involutive-pair generator X_i = T'_1 T'_{i+1}, 1 <= i <= rank-2."""
    if not 1 <= i <= rank - 2:
        raise ValueError(f"X generator index {i} out of range for rank {rank}")
    algebra = HeckeAlgebra(rank)
    return algebra.tprime(1) * algebra.tprime(i + 1)


def x_relation_failures(rank: int) -> list[str]:
    """The relations of the X_i that fail (none below rank 3): the cubic
    y^3 = -u^2 (y^2 - y) + 1 at X_1 and each X_{i-1} X_i, X_i^2 = 1 for i >= 2,
    and (X_i X_j)^2 = 1 for |i - j| > 1, in both orders."""
    xs = {i: x_generator(rank, i) for i in range(1, rank - 1)}
    one = HeckeAlgebra(rank).one()

    def involution_fails(y):
        return y * y != one

    def cubic_fails(y):
        y2 = y * y
        return y2 * y != -U_SQUARED * (y2 - y) + one

    failures = ["cubic at X_1"] if xs and cubic_fails(xs[1]) else []
    for i in range(2, rank - 1):
        if involution_fails(xs[i]):
            failures.append(f"involution at X_{i}")
        if cubic_fails(xs[i - 1] * xs[i]):
            failures.append(f"pair cubic at X_{i-1}X_{i}")
    failures += [f"far involution at X_{i}X_{j}" for i in xs for j in xs
                 if abs(i - j) > 1 and involution_fails(xs[i] * xs[j])]
    return failures


# ---------------------------------------------------------------------------
# closure of the even basis under multiplication
# ---------------------------------------------------------------------------

def check_even_closure(rank: int) -> list[str]:
    """Prove that the even T' words span a subalgebra; return the failed relations.

    The Goldman images G_i of the T_i must satisfy the Hecke relations and
    negate each T'_i (see the module docstring for why that proves closure).
    """
    algebra = HeckeAlgebra(rank)
    gens = {i: algebra.generator(i).goldman() for i in range(1, rank)}
    return ([f"Goldman {f}" for f in relation_failures(gens)]
            + [f"Goldman image of T'_{i} is not -T'_{i}" for i in gens
               if algebra.tprime(i).goldman() != -algebra.tprime(i)])


# ---------------------------------------------------------------------------
# the crossed-product structure of the full Hecke algebra
# ---------------------------------------------------------------------------

def tprime_product_coords(table: SymmetricGroupTable, left_wid: int, right_wid: int) -> tuple:
    """T'-coordinates of T'_{w1} * T'_{w2} as a stored pair, via cascaded generator actions."""
    return table.word_image({table.identity: _unit_vec(right_wid)}, left_wid,
                            table.tp_left_apply)


CROSSED_EXHAUSTIVE_RANK = 4   # basis pairs are exhausted up to this rank
CROSSED_SAMPLE_SIZE = 12      # seeded even elements sampled above it
EVEN_SAMPLE_TERMS = 2         # pair products summed in one sampled element


def _random_even_sparse(algebra: HeckeAlgebra, rng) -> HeckeElement:
    """Seeded sparse member of the even subalgebra: a short sum of pair products."""
    out = algebra.zero()
    for _ in range(EVEN_SAMPLE_TERMS):
        a = rng.randint(1, algebra.rank - 1)
        b = rng.randint(1, algebra.rank - 1)
        coeff = RationalFunction(LaurentPolynomial(
            {rng.randint(-2, 2): rng.randint(-3, 3)}))
        if coeff:
            out = out + algebra.tprime(a) * algebra.tprime(b) * coeff
    return out


def verify_crossed_product_H(rank: int, *, seed: int = 0) -> Report:
    """Check the crossed-product presentation of the Hecke algebra.

    Verifies: the even/odd direct-sum decomposition with both summands of
    dimension r!/2; that conjugation by T'_1 preserves the even subalgebra
    and squares to the identity; the crossed-system axioms for that action
    with trivial cocycle; and the four product-law formulas identifying the
    crossed product with the Hecke algebra.  Basis pairs are exhausted up to
    rank `CROSSED_EXHAUSTIVE_RANK`; beyond that a seeded sample of even
    elements is used.

    Given `check_even_closure` and T'_1^2 = 1, every record here is a
    corollary (see the module docstring); the records stay as evidence,
    exhaustive or sampled, that exercises the crossed-system checkers.

    The action is built once through `crossed.memoized_action`, so every
    check here and in the crossed-system checkers shares one conjugate per
    distinct element, computed once per call.
    """
    if rank < 2:
        raise ValueError("rank must be >= 2")
    report = Report("crossed-product-hecke", {"r": rank, "seed": seed})
    algebra = HeckeAlgebra(rank)
    table = algebra.table
    exhaustive = rank <= CROSSED_EXHAUSTIVE_RANK

    even = enumerate_even_basis(rank)
    n_even, n_odd = len(even), odd_word_count(rank)
    half = factorial(rank) // 2
    report.add("even-odd-word-counts", n_even == half and n_odd == half,
               expected=f"({half}, {half})", actual=f"({n_even}, {n_odd})")

    tp1 = algebra.tprime(1)
    one = algebra.one()

    # the Z2 action realizing the crossed product: conjugation by T'_1
    weak_action = memoized_action(lambda a: tp1 * a * tp1)

    if exhaustive:
        basis_elems = [algebra.tprime_basis_element(w) for w in even.words]
        samples = basis_elems
        pair_iter = [(a, b) for a in basis_elems for b in basis_elems]
    else:
        rng = random.Random(seed)
        samples = []
        while len(samples) < CROSSED_SAMPLE_SIZE:
            x = _random_even_sparse(algebra, rng)
            if not x.is_zero:
                samples.append(x)
        pair_iter = [(samples[i], samples[(i * 5 + 3) % len(samples)])
                     for i in range(len(samples))]

    # direct-sum decomposition: right multiples by T'_1 carry odd support only,
    # and together with the even words they exhaust the r! coordinates
    tp1_wid = table.index[(1,) + (0,) * (rank - 2)]
    odd_support_ok = True
    odd_seen: set[int] = set()
    if exhaustive:
        even_wids = [table.index[w] for w in even.words]
    else:
        rng_w = random.Random(seed + 1)
        all_even = [table.index[w] for w in even.words]
        even_wids = [all_even[rng_w.randrange(len(all_even))] for _ in range(CROSSED_SAMPLE_SIZE)]
    odd_coord_vectors = []
    for wid in even_wids:
        coords, den = tprime_product_coords(table, wid, tp1_wid)
        if {table.length[u] & 1 for u in coords} != {1}:
            odd_support_ok = False
            break
        odd_seen.update(coords)
        odd_coord_vectors.append({u: _lc_to_rf(c, den) for u, c in coords.items()})
    report.add("odd-part-from-even-times-conjugator", odd_support_ok,
               expected="odd-parity support", actual="ok" if odd_support_ok else "mixed parity")
    if exhaustive:
        odd_rank = _rank(odd_coord_vectors)
        report.add("decomposition-dims",
                   odd_rank == half and len(odd_seen) == half and n_even == half,
                   expected=f"({half}, {half})",
                   actual=f"({n_even}, {odd_rank})")

    # the weak action preserves the even subalgebra and has order <= 2
    preserves = all(is_in_alt(weak_action(-1, a)) for a in samples)
    report.add("weak-action-preserves-even-part", preserves)
    involutive = all(weak_action(-1, weak_action(-1, a)) == a for a in samples)
    report.add("weak-action-order-two", involutive)
    multiplicative = all(
        weak_action(-1, a * b) == weak_action(-1, a) * weak_action(-1, b)
        for a, b in pair_iter[: len(samples) * 2])
    report.add("weak-action-multiplicative", multiplicative)

    embed = {1: one, -1: tp1}
    add_crossed_records(report, weak_action, lambda s, t: one, one, samples,
                        embed.__getitem__, pair_iter)
    return report
