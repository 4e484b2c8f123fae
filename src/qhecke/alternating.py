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

The crossed-product records of `verify_crossed_product_H` are decided from
two premises, each tested once: P_gamma, that `check_even_closure` finds no
failed relation, and P_1, that T'_1^2 = 1.  Conjugation by T'_1 preserves E
by P_gamma, since gamma(T'_1 a T'_1) = T'_1 gamma(a) T'_1 for gamma an algebra
map with gamma(T'_1) = -T'_1.  By P_1 the map a -> T'_1 a T'_1 is conjugation
by T'_1, whose square is the trivial cocycle's value 1: it has order two and
is multiplicative, and `add_crossed_records` decides the crossed-system
axioms and the product law from P_1.  The direct-sum records (odd support of
E T'_1, dimensions) follow too: gamma(a T'_1) = -a T'_1 for a in E, and T'_1
is invertible.  They still read T'-coordinates from `tprime_product_coords`,
so `verify hecke` keeps running the T'-word cascade
(`SymmetricGroupTable.tp_left_col`) that `perfbench` counts on its workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

from .commutant import _rank
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


def add_crossed_records(report: Report, squares: bool, premise: str) -> None:
    """Add the ``crossed-system-axioms`` and ``crossed-product-law`` records of a
    Z2 action by conjugation with unit u_{-1} = u, decided by ``squares``, the
    test of ``premise``: u^2 = alpha(-1,-1), a scalar.

    Given it, u^-1 is u / alpha(-1,-1), so the action the records state (T'_1 a
    T'_1 on the Hecke side, sign phi f phi on tensor space) is psi_{-1}(a) =
    u a u^-1.  psi_{-1}^2 is conjugation by u^2, the identity, so the weak-action
    axiom psi_s psi_t = alpha(s,t) psi_st alpha(s,t)^-1 holds; psi_{-1} fixes the
    scalar alpha(-1,-1), so the cocycle axiom holds; alpha(s,1) = alpha(1,s) = 1
    by definition.  The product law (a1 u_s)(a2 u_t) = a1 psi_s(a2) alpha(s,t) u_st
    is then associativity: u a2 = psi_{-1}(a2) u, and u u = alpha(-1,-1).
    """
    report.add("crossed-system-axioms", squares)
    report.add("crossed-product-law", squares,
               expected=f"all pairs x 4 sign patterns, given {premise}",
               actual="all equal" if squares else f"{premise} fails")


CROSSED_EXHAUSTIVE_RANK = 4   # every even word is tested for odd support up to this rank
CROSSED_SAMPLE_SIZE = 12      # seeded even words tested above it


def verify_crossed_product_H(rank: int, *, seed: int = 0) -> Report:
    """Check the crossed-product presentation of the Hecke algebra.

    Verifies: the even/odd direct-sum decomposition with both summands of
    dimension r!/2, read from T'-coordinates of E T'_1 (every even word up
    to rank `CROSSED_EXHAUSTIVE_RANK`, a seeded sample of even words above
    it); that conjugation by T'_1 preserves the even subalgebra, from
    `check_even_closure`; and that it has order two, is multiplicative, and
    satisfies the crossed-system axioms and the product law with trivial
    cocycle, from T'_1^2 = 1 (see the module docstring).
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

    tp1 = algebra.tprime(1)
    involutive = tp1 * tp1 == algebra.one()
    report.add("weak-action-preserves-even-part", not check_even_closure(rank))
    report.add("weak-action-order-two", involutive)
    report.add("weak-action-multiplicative", involutive)
    add_crossed_records(report, involutive, "T'_1^2 = 1")
    return report
