"""Sampled crossed-system checks: a test oracle for the premise-decided records.

The suites decide the crossed-product records from exact identities
(`alternating.add_crossed_records`).  The checkers below test the same
statements element by element, with only ``*``, ``==`` and the supplied
callables, and serve as an independent oracle.

A crossed system over the group Z2 = {1, -1} consists of a weak action psi
(an automorphism for each group element) and a cocycle alpha valued in the
units of the base algebra, subject to

  (cs1)  psi_s(psi_t(a)) == alpha(s,t) * psi_{st}(a) * alpha(s,t)^{-1}
  (cs2)  psi_{s1}(alpha(s2,s3)) * alpha(s1, s2*s3) == alpha(s1,s2) * alpha(s1*s2, s3)
  (cs3)  alpha(s,1) == alpha(1,s) == 1

The cocycle values square to one (trivially on the Hecke side, sign *
identity on tensor space), so alpha(s,t) is its own inverse in (cs1).  The
induced multiplication on pairs (a, u_s) is

  (a1 u_s)(a2 u_t) = a1 * psi_s(a2) * alpha(s,t) u_{st}.

Toy algebra: the diagonal 2x2 matrices D over Q, with M_2(Q) = D + D u a
Z2-crossed product in two ways: with u the swap P (P^2 = 1, trivial cocycle)
and with u the rotation J (J^2 = -1, cocycle alpha(-1,-1) = -1).  Both
conjugations exchange the two diagonal entries.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from qhecke.alternating import enumerate_even_basis, is_in_alt
from qhecke.commutant import span_closure
from qhecke.hecke import HeckeAlgebra
from qhecke.qfield import LaurentPolynomial, RationalFunction
from qhecke.suites import suite_alt_centralizer, suite_hecke
from qhecke.tensor import (
    GradedSpace,
    OperatorMatrix,
    phi_tensor,
    rho_generators,
    specialize_matrix,
)

GROUP = (1, -1)


def check_crossed_axioms(apply_fn, alpha, one, samples) -> list[str]:
    """Return descriptions of axiom violations (empty list when all hold)."""
    bad: list[str] = []
    samples = list(samples)
    moved = {t: [apply_fn(t, a) for a in samples] for t in GROUP}
    for s in GROUP:
        for t in GROUP:
            for idx, a_t in enumerate(moved[t]):
                lhs = apply_fn(s, a_t)
                rhs = alpha(s, t) * moved[s * t][idx] * alpha(s, t)
                if not lhs == rhs:
                    bad.append(f"weak-action axiom fails at (s,t)=({s},{t}), sample {idx}")
    for s1 in GROUP:
        for s2 in GROUP:
            for s3 in GROUP:
                lhs = apply_fn(s1, alpha(s2, s3)) * alpha(s1, s2 * s3)
                rhs = alpha(s1, s2) * alpha(s1 * s2, s3)
                if not lhs == rhs:
                    bad.append(f"cocycle axiom fails at ({s1},{s2},{s3})")
    for s in GROUP:
        if not alpha(s, 1) == one or not alpha(1, s) == one:
            bad.append(f"unit normalization fails at s={s}")
    return bad


def check_crossed_embedding(apply_fn, alpha, embed, pairs) -> list[str]:
    """Check that the crossed-product law matches plain multiplication.

    ``embed(s)`` is the image of the basis unit u_s inside the target algebra;
    for each sample pair (a1, a2) and signs (s, t) the identity

        (a1 * embed(s)) * (a2 * embed(t))
            == a1 * psi_s(a2) * alpha(s,t) * embed(s*t)

    is verified with exact equality.
    """
    bad: list[str] = []
    for idx, (a1, a2) in enumerate(pairs):
        right = {t: a2 * embed(t) for t in GROUP}
        for s in GROUP:
            left, twisted = a1 * embed(s), a1 * apply_fn(s, a2)
            for t in GROUP:
                lhs = left * right[t]
                rhs = twisted * alpha(s, t) * embed(s * t)
                if not lhs == rhs:
                    bad.append(f"product law fails at (s,t)=({s},{t}), pair {idx}")
    return bad


def weak_action(conjugate):
    """The weak action with psi_1 the identity and psi_{-1} = ``conjugate``,
    which runs once per distinct argument value."""
    conjugate = cache(conjugate)
    return lambda s, a: a if s == 1 else conjugate(a)


def crossed_failures(act, alpha, one, embed, samples, pairs, contains) -> dict:
    """The violations of each sampled crossed-product record, by record name;
    ``contains`` tests membership in the base algebra."""
    return {
        "weak-action-preserves-even-part": [
            f"sample {i}" for i, a in enumerate(samples) if not contains(act(-1, a))],
        "weak-action-order-two": [
            f"sample {i}" for i, a in enumerate(samples) if act(-1, act(-1, a)) != a],
        "weak-action-multiplicative": [
            f"pair {i}" for i, (a, b) in enumerate(pairs[:2 * len(samples)])
            if act(-1, a * b) != act(-1, a) * act(-1, b)],
        "crossed-system-axioms": check_crossed_axioms(act, alpha, one, samples),
        "crossed-product-law": check_crossed_embedding(act, alpha, embed, pairs),
    }


# ---------------------------------------------------------------------------
# the Hecke side: H_r(q) over its even subalgebra, u_{-1} = T'_1
# ---------------------------------------------------------------------------

SAMPLE_SIZE = 12        # seeded even elements the suite sampled above rank 4
SAMPLE_TERMS = 2        # pair products summed in one sampled element


def random_even_sparse(algebra: HeckeAlgebra, rng):
    """Seeded sparse member of the even subalgebra: a short sum of pair products."""
    out = algebra.zero()
    for _ in range(SAMPLE_TERMS):
        a = rng.randint(1, algebra.rank - 1)
        b = rng.randint(1, algebra.rank - 1)
        coeff = RationalFunction(LaurentPolynomial(
            {rng.randint(-2, 2): rng.randint(-3, 3)}))
        if coeff:
            out = out + algebra.tprime(a) * algebra.tprime(b) * coeff
    return out


def hecke_samples(rank: int, seed: int = 0):
    """Every even basis element and basis pair up to rank 4; above it, the
    seeded elements and pairs ``verify hecke`` used to draw."""
    algebra = HeckeAlgebra(rank)
    if rank <= 4:
        samples = [algebra.tprime_basis_element(w) for w in enumerate_even_basis(rank).words]
        return samples, [(a, b) for a in samples for b in samples]
    rng = random.Random(seed)
    samples = []
    while len(samples) < SAMPLE_SIZE:
        x = random_even_sparse(algebra, rng)
        if not x.is_zero:
            samples.append(x)
    return samples, [(samples[i], samples[(i * 5 + 3) % len(samples)])
                     for i in range(len(samples))]


def hecke_crossed_failures(rank: int, seed: int = 0) -> dict:
    """The sampled Hecke-side records under conjugation by T'_1, trivial cocycle."""
    algebra = HeckeAlgebra(rank)
    tp1, one = algebra.tprime(1), algebra.one()
    samples, pairs = hecke_samples(rank, seed)
    return crossed_failures(weak_action(lambda a: tp1 * a * tp1), lambda s, t: one, one,
                            {1: one, -1: tp1}.__getitem__, samples, pairs, is_in_alt)


# ---------------------------------------------------------------------------
# the tensor side: the centralizer of H^1 over B, u_{-1} = phi (m = n)
# ---------------------------------------------------------------------------

def tensor_crossed_failures(m: int, r: int, point=None) -> dict:
    """The sampled square-block records on B (over Q(q), or B_t at q = ``point``),
    with omega and alpha as `suites._alt_centralizer_core` defines them;
    "preserves" reads as "omega maps B into B"."""
    space = GradedSpace(m, m, r)
    one = RationalFunction.one() if point is None else Fraction(1)

    def mat(matrix):
        return matrix if point is None else specialize_matrix(matrix, point)

    b_alg = span_closure([mat(g) for _, g in rho_generators(space)])
    phi, sign = mat(phi_tensor(space)), (-1) ** (r * (r - 1) // 2)
    ident = OperatorMatrix.identity(space.dim, one)
    samples = b_alg.elements
    return crossed_failures(
        weak_action(lambda f: (phi * f * phi).scale(sign)),
        lambda s, t: ident if 1 in (s, t) else ident.scale(sign), ident,
        {1: ident, -1: phi}.__getitem__, samples, [(a, b) for a in samples for b in samples],
        b_alg.contains)


NO_FAILURES = dict.fromkeys(["weak-action-preserves-even-part", "weak-action-order-two",
                             "weak-action-multiplicative", "crossed-system-axioms",
                             "crossed-product-law"], [])


class TestOracle:
    """The sampled checks find no violation wherever the suites pass the
    records from their premises."""

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_all_even_basis_pairs(self, rank):
        assert hecke_crossed_failures(rank) == NO_FAILURES
        assert suite_hecke(rank).passed

    @pytest.mark.parametrize("rank, seed", [(5, 0), (5, 1), (6, 0)])
    def test_the_former_hecke_samples(self, rank, seed):
        samples, pairs = hecke_samples(rank, seed)
        assert len(samples) == len(pairs) == SAMPLE_SIZE
        assert hecke_crossed_failures(rank, seed) == NO_FAILURES
        assert suite_hecke(rank, seed=seed).passed

    @pytest.mark.parametrize("m, r, point, mode", [
        (1, 3, None, "exact"), (1, 4, Fraction(2), "specialized")], ids=["1-1-3", "1-1-4"])
    def test_the_commutant_of_the_superalgebra_image(self, m, r, point, mode):
        assert tensor_crossed_failures(m, r, point) == NO_FAILURES
        assert suite_alt_centralizer(m, m, r, mode=mode).passed


# ---------------------------------------------------------------------------
# the checkers on the toy algebra
# ---------------------------------------------------------------------------

def _mat(a, b, c, d):
    return OperatorMatrix(2, {(0, 0): Fraction(a), (0, 1): Fraction(b),
                              (1, 0): Fraction(c), (1, 1): Fraction(d)})


def _diag(x, y):
    return _mat(x, 0, 0, y)


ONE = _diag(1, 1)
MINUS_ONE = _diag(-1, -1)
SWAP = _mat(0, 1, 1, 0)
ROT = _mat(0, 1, -1, 0)
SAMPLES = [_diag(1, 2), _diag(3, -5)]
PAIRS = [(_diag(1, 2), _diag(3, -5)), (_diag(-2, 7), _diag(1, 4)), (_diag(2, 2), _diag(0, 1))]


def _swapped(a):
    return SWAP * a * SWAP


def _trivial(s, t):
    return ONE


def _sign(s, t):
    return MINUS_ONE if s == t == -1 else ONE


class TestValidSystems:
    def test_swap_with_trivial_cocycle(self):
        act = weak_action(_swapped)
        assert check_crossed_axioms(act, _trivial, ONE, SAMPLES) == []
        assert check_crossed_embedding(act, _trivial, {1: ONE, -1: SWAP}.__getitem__,
                                       PAIRS) == []

    def test_rotation_with_sign_cocycle(self):
        # J a J^{-1} = -(J a J), as for the flip on tensor space
        act = weak_action(lambda a: (ROT * a * ROT).scale(Fraction(-1)))
        assert check_crossed_axioms(act, _sign, ONE, SAMPLES) == []
        assert check_crossed_embedding(act, _sign, {1: ONE, -1: ROT}.__getitem__, PAIRS) == []


class TestBrokenData:
    def test_non_involutive_action_trips_cs1_and_cs2(self):
        act = weak_action(lambda a: _swapped(a).scale(Fraction(2)))
        assert check_crossed_axioms(act, _trivial, ONE, SAMPLES) == [
            "weak-action axiom fails at (s,t)=(-1,-1), sample 0",
            "weak-action axiom fails at (s,t)=(-1,-1), sample 1",
            "cocycle axiom fails at (-1,1,1)",
            "cocycle axiom fails at (-1,1,-1)",
            "cocycle axiom fails at (-1,-1,1)",
            "cocycle axiom fails at (-1,-1,-1)",
        ]

    def test_samples_may_be_any_iterable(self):
        act = weak_action(lambda a: _swapped(a).scale(Fraction(2)))
        assert (check_crossed_axioms(act, _trivial, ONE, iter(SAMPLES))
                == check_crossed_axioms(act, _trivial, ONE, SAMPLES))

    def test_unnormalized_cocycle_trips_cs2_and_cs3(self):
        def alpha(s, t):
            return MINUS_ONE if (s, t) == (1, -1) else ONE

        assert check_crossed_axioms(weak_action(_swapped), alpha, ONE, SAMPLES) == [
            "cocycle axiom fails at (1,1,-1)",
            "cocycle axiom fails at (1,-1,-1)",
            "cocycle axiom fails at (-1,1,-1)",
            "cocycle axiom fails at (-1,-1,-1)",
            "unit normalization fails at s=-1",
        ]

    def test_wrong_action_trips_the_product_law(self):
        # the identity is a valid action, but not the one the swap induces
        act = weak_action(lambda a: a)
        assert check_crossed_axioms(act, _trivial, ONE, SAMPLES) == []
        assert check_crossed_embedding(act, _trivial, {1: ONE, -1: SWAP}.__getitem__,
                                       PAIRS) == [
            "product law fails at (s,t)=(-1,1), pair 0",
            "product law fails at (s,t)=(-1,-1), pair 0",
            "product law fails at (s,t)=(-1,1), pair 1",
            "product law fails at (s,t)=(-1,-1), pair 1",
            "product law fails at (s,t)=(-1,1), pair 2",
            "product law fails at (s,t)=(-1,-1), pair 2",
        ]

    def test_wrong_embedding_trips_the_product_law(self):
        # J squares to -1, which the trivial cocycle does not account for
        act = weak_action(_swapped)
        assert check_crossed_embedding(act, _trivial, {1: ONE, -1: ROT}.__getitem__,
                                       PAIRS) == [
            f"product law fails at (s,t)=(-1,-1), pair {i}" for i in range(len(PAIRS))]


class TestComputedOnce:
    def test_embedding_applies_the_action_once_per_pair_and_sign(self):
        calls = Counter()

        def act(s, a):
            calls[s, a] += 1
            return a if s == 1 else _swapped(a)

        check_crossed_embedding(act, _trivial, {1: ONE, -1: SWAP}.__getitem__, PAIRS)
        assert sum(calls.values()) <= 2 * len(PAIRS)
        assert max(calls.values()) == 1
