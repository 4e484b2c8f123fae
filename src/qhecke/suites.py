"""End-to-end verification suites over the Hecke algebra and tensor space.

Each suite runs a deterministic list of exact checks (seeded where sampling
is involved) and returns a `Report`.  Two evaluation modes exist for the
linear-algebra-heavy suites:

* ``exact``   — all spans, commutants and ranks over Q(q); the default for
  small tensor spaces (dimension at most 8) and the arbiter elsewhere;
* ``specialized`` — generators evaluated at two seeded nonzero rational
  points (never 0 or +-1) with all checks repeated per point and required to
  agree in value; on any disagreement the exact rerun decides the verdict,
  and is refused (`SizeBoundError`) above `EXACT_DIM_BOUND`.  `_certify`
  applies this policy, `commutant.certify` (which `certified_rank` shares),
  to both tensor suites.  The second point runs in a forked child while
  this process runs the first (`commutant.specialization_points`), so the
  suites build their generic generators before the points split.

At a point, a dimension can move away from its generic value in one
direction only, and which one depends on the kind of check:

* closure dimensions (the images of the generators) are ranks of specialized
  matrices, which can only drop: they can only undershoot, so a point that
  meets the prediction shows the generic dimension is at least the prediction;
* commutant and anticommutant dimensions are nullities of a specialized
  constraint system whose rank can only drop: they can only overshoot, so a
  point that meets the prediction shows the generic dimension is at most it;
* span equalities compare lengths once an inclusion is known or tested at
  the point.  Given the exact ``action-commutation``, this proves the two
  Schur-Weyl commutant equalities generically: rank_t(B) <= dim B <=
  dim A' <= nullity_t(A), and a pass makes the ends equal (likewise for A in
  B').  The double commutant (C in C'') and the collapse (C in A once the X's
  lie in A) stay evidence at the point: C''_t may move either way, and two
  closure ranks give no upper bound on dim A;
* containments and direct sums compare spaces at the point, each of which may
  have moved in its own direction; a pass there is evidence at that point.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from math import factorial

from .alternating import check_even_closure, enumerate_even_basis, is_in_alt, \
    odd_word_count, verify_crossed_product_H, x_generator
from .commutant import (
    EXACT_DIM_BOUND,
    AlgebraBasis,
    SizeBoundError,
    anticommutant_basis,
    certify,
    commutant_basis,
    direct_sum_check,
    span_closure,
    specialization_points,
)
from .crossed import check_crossed_axioms, check_crossed_embedding, memoized_action
from .hecke import HeckeAlgebra, goldman_eigenproject, to_tprime_basis
from .partitions import predicted_dimensions
from .qfield import Q_MINUS_QINV, Q_PLUS_QINV, RationalFunction
from .report import Report
from .tensor import (
    GradedSpace,
    OperatorMatrix,
    PiRepresentation,
    phi_tensor,
    rho_generators,
    sign_permutation_matrix,
    specialize_matrix,
)

SPECIALIZED_DIM_BOUND = 256
AUTO_EXACT_DIM = 8


def _resolve_mode(space_dim: int, mode: str | None, bound: int | None, *,
                  r: int = 2) -> str:
    if r < 2:
        raise SizeBoundError("tensor suites need r >= 2 (no generators below that)")
    if mode is None:
        mode = "exact" if space_dim <= AUTO_EXACT_DIM else "specialized"
    if mode not in ("exact", "specialized"):
        raise ValueError(f"unknown mode {mode!r}")
    limit = bound if bound is not None else (
        EXACT_DIM_BOUND if mode == "exact" else SPECIALIZED_DIM_BOUND)
    if space_dim > limit:
        raise SizeBoundError(
            f"tensor space dimension {space_dim} exceeds the {mode}-mode bound "
            f"{limit}; rerun with a larger --bound if this is intended")
    return mode


# ---------------------------------------------------------------------------
# Hecke-algebra relation suite
# ---------------------------------------------------------------------------

def _relation_failures(rank: int) -> tuple[list[str], list[str], list[str]]:
    """Violations of the quadratic/braid, involutive, and X-generator relations."""
    algebra = HeckeAlgebra(rank)
    one = algebra.one()
    u2 = (Q_MINUS_QINV / Q_PLUS_QINV) ** 2
    t = {i: algebra.generator(i) for i in range(1, rank)}
    tp = {i: algebra.tprime(i) for i in range(1, rank)}

    plain: list[str] = []
    for i in range(1, rank):
        if t[i] * t[i] != Q_MINUS_QINV * t[i] + one:
            plain.append(f"quadratic at i={i}")
    for i in range(1, rank - 1):
        if t[i] * t[i + 1] * t[i] != t[i + 1] * t[i] * t[i + 1]:
            plain.append(f"braid at i={i}")
    for i in range(1, rank):
        for j in range(i + 2, rank):
            if t[i] * t[j] != t[j] * t[i]:
                plain.append(f"far commutation at ({i},{j})")

    involutive: list[str] = []
    for i in range(1, rank):
        if tp[i] * tp[i] != one:
            involutive.append(f"involution at i={i}")
    for i in range(1, rank - 1):
        lhs = tp[i] * tp[i + 1] * tp[i]
        rhs = tp[i + 1] * tp[i] * tp[i + 1] - u2 * (tp[i] - tp[i + 1])
        if lhs != rhs:
            involutive.append(f"braid correction at i={i}")
    for i in range(1, rank):
        for j in range(i + 2, rank):
            if tp[i] * tp[j] != tp[j] * tp[i]:
                involutive.append(f"far commutation at ({i},{j})")

    xrel: list[str] = []
    if rank >= 3:
        xs = {i: x_generator(rank, i) for i in range(1, rank - 1)}
        x1 = xs[1]
        if x1 * x1 * x1 != -u2 * (x1 * x1 - x1) + one:
            xrel.append("cubic at X_1")
        for i in range(2, rank - 1):
            if xs[i] * xs[i] != one:
                xrel.append(f"involution at X_{i}")
            y = xs[i - 1] * xs[i]
            if y * y * y != -u2 * (y * y - y) + one:
                xrel.append(f"pair cubic at X_{i-1}X_{i}")
        for i in xs:
            for j in xs:
                if abs(i - j) > 1:
                    z = xs[i] * xs[j]
                    if z * z != one:
                        xrel.append(f"far involution at X_{i}X_{j}")
    return plain, involutive, xrel


def suite_hecke(r: int, *, seed: int = 0, bound: int = 6) -> Report:
    """Relations, even-basis counting, and the crossed-product presentation."""
    if not 2 <= r <= bound:
        raise SizeBoundError(f"rank {r} outside the supported range 2..{bound}")
    report = Report("hecke", {"r": r, "seed": seed})
    plain, involutive, xrel = _relation_failures(r)
    report.add("generator-relations", not plain, expected="all hold",
               actual="all hold" if not plain else "; ".join(plain))
    report.add("involutive-generator-relations", not involutive, expected="all hold",
               actual="all hold" if not involutive else "; ".join(involutive))
    if r >= 3:
        report.add("even-generator-relations", not xrel, expected="all hold",
                   actual="all hold" if not xrel else "; ".join(xrel))

    half = factorial(r) // 2
    n_even, n_odd = len(enumerate_even_basis(r)), odd_word_count(r)
    report.add("even-odd-word-counts", (n_even, n_odd) == (half, half),
               expected=f"({half}, {half})", actual=f"({n_even}, {n_odd})")

    crossed = verify_crossed_product_H(r, seed=seed)
    for check in crossed.checks:
        if check.name != "even-odd-counts":   # already reported above
            report.checks.append(check)
    return report


def suite_alt(r: int, *, seed: int = 0, bound: int = 6) -> Report:
    """Even-subalgebra suite: counts, closure under products, X relations."""
    if not 2 <= r <= bound:
        raise SizeBoundError(f"rank {r} outside the supported range 2..{bound}")
    report = Report("alt", {"r": r, "seed": seed})
    half = factorial(r) // 2
    n_even = len(enumerate_even_basis(r))
    report.add("even-basis-count", n_even == half, expected=half, actual=n_even)

    closure = check_even_closure(r) if r <= 5 else check_even_closure(
        r, sample_pairs=50, seed=seed)
    witness = "; ".join(
        f"T'{w1} * T'{w2} hits odd word {w} with coeff {c}"
        for w1, w2, w, c in closure.violations[:5]) or None
    report.add("even-basis-closure", closure.passed,
               expected=f"{closure.pairs_checked} products even-supported",
               actual="closed" if closure.passed else f"{len(closure.violations)} violations",
               witness=witness)

    _, _, xrel = _relation_failures(r)
    if r >= 3:
        report.add("even-generator-relations", not xrel, expected="all hold",
                   actual="all hold" if not xrel else "; ".join(xrel))

    # membership criterion agrees with even-parity support on seeded samples
    algebra = HeckeAlgebra(r)
    rng = random.Random(seed)
    agree = True
    for _ in range(10):
        x = algebra.random_element(rng, terms=3)
        for candidate in (x, goldman_eigenproject(x, 1)):
            if is_in_alt(candidate) != to_tprime_basis(candidate).even_supported:
                agree = False
    report.add("membership-matches-even-support", agree)
    return report


# ---------------------------------------------------------------------------
# tensor-space suites
# ---------------------------------------------------------------------------

def _closure_of(gens: list[OperatorMatrix], dim: int, one) -> AlgebraBasis:
    if not gens:
        return AlgebraBasis(dim, [OperatorMatrix.identity(dim, one)], closed=True)
    return span_closure(gens)


def _certify(report: Report, mode: str, seed: int, dim: int, core) -> None:
    """Run ``core(report, point)`` under the mode's certification policy.

    ``point=None`` asks the core for its checks over Q(q).  Exact mode runs
    that once.  Specialized mode `certify`s the core's records at the two
    points, each run into a sub-report: records compare by name, status,
    expected and actual.  When they agree, both points' records stand,
    renamed ``q=t: ``, followed by ``point-agreement``.  When they differ,
    a ``point-disagreement`` record names the disputed checks and the exact
    rerun's records, renamed ``exact-arbitration: ``, decide the verdict.
    Every generator denominator is a power of q times a power of q^2 + 1, so
    no nonzero rational is a pole and the points are `draw_points(seed)`.
    The core runs at the second point in a forked child, concurrently with
    the first, and its records come back pickled; whatever the child does,
    the records are those of a serial run.
    """
    if mode == "exact":
        core(report, None)
        return

    def run(point):
        sub = Report("point", {})
        core(sub, point)
        return sub.checks

    pairs, arbitrated = certify(run, lambda: run(None), dim, seed=seed)
    (t1, first), (t2, second) = pairs
    if arbitrated is None:
        report.checks.extend(replace(c, name=f"q={t}: {c.name}")
                             for t, checks in pairs for c in checks)
        report.add("point-agreement", True,
                   expected="identical outcomes at both points",
                   actual=f"points {t1}, {t2} agree")
        return
    first, second = {c.name: c for c in first}, {c.name: c for c in second}
    disputed = [name for name in {**first, **second} if first.get(name) != second.get(name)]
    report.info("point-disagreement", expected="identical outcomes at both points",
                actual=f"points {t1}, {t2} disagree on: " + ", ".join(disputed))
    report.checks.extend(replace(c, name="exact-arbitration: " + c.name) for c in arbitrated)


def suite_schur_weyl(m: int, n: int, r: int, *, mode: str | None = None,
                     seed: int = 0, bound: int | None = None) -> Report:
    """Double-commutant checks between the Hecke and superalgebra images."""
    space = GradedSpace(m, n, r)
    mode = _resolve_mode(space.dim, mode, bound, r=r)
    report = Report("schur-weyl", {"m": m, "n": n, "r": r, "seed": seed, "mode": mode})
    rep = PiRepresentation(space)
    t_gens = rep.t_matrices()
    rho = rho_generators(space)
    rho_gens = [g for _, g in rho]

    bad = [f"T_{i+1} vs {name}" for i, tmat in enumerate(t_gens)
           for name, g in rho if not tmat.commutes_with(g)]
    report.add("action-commutation", not bad, expected="all generator pairs commute",
               actual="all commute" if not bad else "; ".join(bad[:6]))

    pred = predicted_dimensions(m, n, r)
    _certify(report, mode, seed, space.dim,
             lambda sub, point: _schur_weyl_core(sub, point, space, t_gens, rho_gens, pred))
    return report


def _schur_weyl_core(report: Report, point, space: GradedSpace,
                     t_gens, rho_gens, pred) -> None:
    if point is None:
        one = RationalFunction.one()
    else:
        one = Fraction(1)
        t_gens = [specialize_matrix(g, point) for g in t_gens]
        rho_gens = [specialize_matrix(g, point) for g in rho_gens]
    a_alg = _closure_of(t_gens, space.dim, one)
    b_alg = _closure_of(rho_gens, space.dim, one)
    report.add("hecke-image-dimension", len(a_alg) == pred.dimA,
               expected=pred.dimA, actual=len(a_alg))
    report.info("superalgebra-image-dimension", actual=len(b_alg))
    # B in A' and A in B' hold iff the generators commute
    commute = all(t.commutes_with(g) for t in t_gens for g in rho_gens)
    ca = commutant_basis(a_alg)
    report.add("commutant-of-hecke-image-is-superalgebra-image",
               commute and len(ca) == len(b_alg),
               expected=f"span equality at dim {len(b_alg)}",
               actual=f"dims {len(ca)} vs {len(b_alg)}")
    cb = commutant_basis(b_alg)
    report.add("commutant-of-superalgebra-image-is-hecke-image",
               commute and len(cb) == len(a_alg),
               expected=f"span equality at dim {len(a_alg)}",
               actual=f"dims {len(cb)} vs {len(a_alg)}")


def suite_alt_centralizer(m: int, n: int, r: int, *, mode: str | None = None,
                          seed: int = 0, bound: int | None = None) -> Report:
    """Centralizer structure of the even subalgebra's tensor image."""
    space = GradedSpace(m, n, r)
    mode = _resolve_mode(space.dim, mode, bound, r=r)
    report = Report("alt-centralizer",
                    {"m": m, "n": n, "r": r, "seed": seed, "mode": mode})
    rep = PiRepresentation(space)
    pred = predicted_dimensions(m, n, r)
    for name, ok, exp, act in [
        ("predicted-even-piece-halving", pred.dimA0 == 2 * pred.dimC0,
         f"{pred.dimA0} = 2*{pred.dimC0}", f"dimA0={pred.dimA0}, dimC0={pred.dimC0}"),
        ("predicted-unpaired-piece-equality", pred.dimA1 == pred.dimC1,
         f"{pred.dimA1} = {pred.dimC1}", f"dimA1={pred.dimA1}, dimC1={pred.dimC1}"),
    ]:
        report.add(name, ok, expected=exp, actual=act)

    # fill rep's generator cache before the points split, so both start warm
    rep.x_matrices()
    rep.t_matrices()
    if m == n:
        rep.tprime_matrices()
    _certify(report, mode, seed, space.dim,
             lambda sub, point: _alt_centralizer_core(sub, point, space, rep, pred, seed))
    return report


def _alt_centralizer_core(report: Report, point, space: GradedSpace,
                          rep: PiRepresentation, pred, seed: int) -> None:
    one = RationalFunction.one() if point is None else Fraction(1)
    dim = space.dim

    def mat(matrix):
        return matrix if point is None else specialize_matrix(matrix, point)

    x_gens = [mat(g) for g in rep.x_matrices()]
    t_gens = [mat(g) for g in rep.t_matrices()]
    c_alg = _closure_of(x_gens, dim, one)
    report.add("even-image-dimension", len(c_alg) == pred.dimC,
               expected=pred.dimC, actual=len(c_alg))
    a_alg = _closure_of(t_gens, dim, one)
    report.add("hecke-image-dimension", len(a_alg) == pred.dimA,
               expected=pred.dimA, actual=len(a_alg))

    d_alg = commutant_basis(c_alg)
    report.info("even-centralizer-dimension", actual=len(d_alg))
    cd = commutant_basis(d_alg)
    # C lies in its double commutant in any field
    report.add("double-commutant-returns-even-image", len(cd) == len(c_alg),
               expected=f"span equality at dim {len(c_alg)}",
               actual=f"dims {len(cd)} vs {len(c_alg)}")

    if space.m == space.n:
        sign = (-1) ** (space.r * (space.r - 1) // 2)
        tp_gens = [mat(g) for g in rep.tprime_matrices()]
        phi = mat(phi_tensor(space))
        ident = OperatorMatrix.identity(dim, one)
        signed = one if sign == 1 else -one
        sign_one = ident.scale(signed)
        squares = phi * phi == sign_one
        report.add("flip-squares-to-sign", squares,
                   expected=f"({sign})*identity", actual="equal" if squares else "differs")
        anti = all(tp.anticommutes_with(phi) for tp in tp_gens)
        report.add("flip-anticommutes-with-involutive-generators", anti)

        b_alg = _closure_of([mat(g) for _, g in rho_generators(space)], dim, one)
        report.info("superalgebra-image-dimension", actual=len(b_alg))
        bd = anticommutant_basis(tp_gens)
        report.add("anticommutant-dimension-matches", len(bd) == len(b_alg),
                   expected=len(b_alg), actual=len(bd))
        phi_b = AlgebraBasis(dim, [phi * bm for bm in b_alg.elements])
        flips_into = all(bd.contains(f) for f in phi_b.elements)
        report.add("flip-maps-commutant-onto-anticommutant", flips_into)
        report.add("centralizer-splits-as-direct-sum",
                   direct_sum_check(d_alg, b_alg, phi_b),
                   expected=f"{len(d_alg)} = {len(b_alg)} + {len(phi_b)}",
                   actual=f"dims ({len(d_alg)}; {len(b_alg)}, {len(phi_b)})")
        report.add("centralizer-dimension-doubles", len(d_alg) == 2 * len(b_alg),
                   expected=2 * len(b_alg), actual=len(d_alg))

        # the weak action omega: conjugation by the flip, times the sign
        omega = memoized_action(lambda f: (phi * f * phi).scale(signed))
        basis_sample = b_alg.elements[:12]
        omega_closes = all(b_alg.contains(omega(-1, f)) for f in basis_sample)
        omega_invol = all(omega(-1, omega(-1, f)) == f for f in basis_sample)
        report.add("conjugation-preserves-commutant", omega_closes)
        report.add("conjugation-has-order-two", omega_invol)

        def alpha(s, t):
            return ident if (s == 1 or t == 1) else sign_one

        axiom_failures = check_crossed_axioms(omega, alpha, ident, basis_sample)
        report.add("crossed-system-axioms", not axiom_failures,
                   witness="; ".join(axiom_failures[:5]) if axiom_failures else None)

        rng = random.Random(seed)
        pool = b_alg.elements
        pairs = [(pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))])
                 for _ in range(min(8, len(pool) * len(pool)))]
        embed = {1: ident, -1: phi}
        law_failures = check_crossed_embedding(omega, alpha, embed.__getitem__, pairs)
        report.add("crossed-product-law", not law_failures,
                   expected=f"{len(pairs)} pairs x 4 sign patterns",
                   actual="all equal" if not law_failures else f"{len(law_failures)} failures",
                   witness="; ".join(law_failures[:5]) if law_failures else None)

    if space.n == 0 and space.m * space.m < space.r:
        # A is closed and unital, so C lies in A once the X generators do
        collapse = all(a_alg.contains(x) for x in x_gens) and len(a_alg) == len(c_alg)
        report.add("small-row-collapse", collapse,
                   expected=f"images coincide at dim {pred.dimA}",
                   actual=f"dims {len(a_alg)} vs {len(c_alg)}" + ("" if collapse else " (differ)"))


def suite_specialization(m: int, n: int, r: int, *, points=None,
                         seed: int = 0, bound: int | None = None) -> Report:
    """Cross-checks at explicit rational points and at the classical point q=1."""
    space = GradedSpace(m, n, r)
    _resolve_mode(space.dim, "specialized", bound, r=r)
    rep = PiRepresentation(space)
    images = (rep.t_matrices(), rep.x_matrices())   # built before the points split

    def image_ranks(t):
        """Ranks of the T- and X-generated images at q = t."""
        return tuple(len(_closure_of([specialize_matrix(g, t) for g in gens],
                                     space.dim, Fraction(1)))
                     for gens in images)

    points, ranks = zip(*specialization_points(points, seed, image_ranks))
    dims_a, dims_c = (list(d) for d in zip(*ranks))
    report = Report("specialization",
                    {"m": m, "n": n, "r": r, "seed": seed,
                     "points": ",".join(str(p) for p in points)})
    pred = predicted_dimensions(m, n, r)

    report.add("hecke-image-rank-agreement", len(set(dims_a)) == 1 and dims_a[0] == pred.dimA,
               expected=f"rank {pred.dimA} at all points",
               actual=f"ranks {dims_a} at points {[str(p) for p in points]}")
    report.add("even-image-rank-agreement", len(set(dims_c)) == 1 and dims_c[0] == pred.dimC,
               expected=f"rank {pred.dimC} at all points",
               actual=f"ranks {dims_c} at points {[str(p) for p in points]}")

    # classical point: the sign-permutation action, built independently
    classical_ok = True
    involutive_ok = True
    ident = OperatorMatrix.identity(space.dim, Fraction(1))
    for i in range(1, r):
        spec = specialize_matrix(rep.t_matrix(i), 1)
        if spec != sign_permutation_matrix(space, i):
            classical_ok = False
        if spec * spec != ident:
            involutive_ok = False
    report.add("classical-point-matches-sign-permutation", classical_ok,
               expected="entrywise equality for every generator",
               actual="equal" if classical_ok else "differs")
    report.add("classical-point-involutions", involutive_ok)

    st1 = [specialize_matrix(g, 1) for g in rep.t_matrices()]
    rank_at_1 = len(_closure_of(st1, space.dim, Fraction(1)))
    report.info("hecke-image-rank-at-classical-point", actual=rank_at_1,
                expected=f"generic {pred.dimA}; a drop here is allowed")
    return report
