"""End-to-end verification suites over the Hecke algebra and tensor space.

Each suite runs a deterministic list of exact checks (seeded where sampling
is involved) and returns a `Report`.  One relation test, two derivations:
both Hecke suites run `hecke.relation_failures` (t_i^2 = a t_i + 1, braids
with correction c (t_i - t_{i+1}), far commutation) once, on the T_i with
(a, c) = (q - q^-1, 0).  The relations of the T'_i, (0, -u^2), and of the
Goldman images G_i follow once each is checked to be its linear expression
in T_i; otherwise they are multiplied out, so failing reports keep their
bytes (the `alternating` docstring).  The T'_i relations imply the cubic
presentation of the X_i = T'_1 T'_{i+1}, so ``even-generator-relations`` is
decided from them, multiplies no X_i and names a failed T' relation.  In
`suite_alt`, ``even-basis-closure`` is a proof at every rank from generator
relations only (`check_even_closure`): the G_i = (q - q^-1) - T_i satisfy the
Hecke relations, so the Goldman map is an algebra map by Matsumoto's theorem,
and it negates each T'_i, so the even span is its fixed space.  The same
premises decide ``membership-matches-even-support``: gamma(T'_w) =
(-1)^l(w) T'_w, so an element is gamma-fixed exactly when its T'-support is
even, for every element and not only for samples.  Two evaluation modes
exist for the linear-algebra-heavy suites:

* ``exact``   — all spans, commutants and ranks over Q(q); the default for
  small tensor spaces (dimension at most 8) and the arbiter elsewhere;
* ``specialized`` — generators evaluated at two seeded nonzero rational
  points (never 0 or +-1) with all checks repeated per point and required to
  agree in value; on any disagreement the exact rerun decides the verdict,
  and is refused (`SizeBoundError`) above `EXACT_DIM_BOUND`.  `_certify`
  applies this policy, the one `commutant.certify` (which `certified_rank`
  shares) applies, to both tensor suites.  Where exact premises make every
  record a proof, a run whose records all pass at the first point stops
  there (see "One point" below).  The suites test their premises over Q(q)
  once, before the points split.

At a point, a dimension can move away from its generic value in one
direction only, and which one depends on the kind of check:

* closure dimensions (the images of the generators) are ranks of specialized
  matrices, which can only drop: they can only undershoot, so a point that
  meets the prediction shows the generic dimension is at least the prediction;
* commutant and anticommutant dimensions are nullities of a specialized
  constraint system whose rank can only drop: they can only overshoot, so a
  point that meets the prediction shows the generic dimension is at most it;
* span equalities compare lengths once an inclusion is known or tested at
  the point.  One exact test, `_commutation_failures` (every T_i against
  every superalgebra generator over Q(q)), decides ``action-commutation``;
  the commutant records and premise (iv) below read its result, and a pass
  holds at every point because specialization is a ring map.  Given it, the
  length comparisons prove the two Schur-Weyl commutant equalities
  generically: rank_t(B) <= dim B <= dim A' <= nullity_t(A), and a pass
  makes the ends equal (likewise for A in B').  The double commutant (C in
  C'') is a proof at the point when the trace form of C_t is nondegenerate
  (`commutant.trace_form_certificate`): C_t is then semisimple and
  C_t'' = C_t, so its length is len(C_t) without eliminating D's commutant;
  otherwise that elimination decides.  When the trace form is nondegenerate
  and len(C_t) <= dim V, its Casimir also gives len(D_t) = dim C_t', and D's
  basis is not built; otherwise D is eliminated.  Exact mode decides both
  the same way over Q(q), where a pass is a proof.  Generically a pass at a
  point stays evidence, as C''_t may move either way, except at m = n ("One
  point" below).  The collapse (A = C, read as len(A_t) = len(C_t) given the
  quadratic below) stays evidence at the point: both are ranks at t, and
  nothing bounds dim A - dim C from above;
* the Hecke image rests on one exact premise, tested once over Q(q) before
  the points split: T_j^2 = (q - q^-1) T_j + 1 for every j, decided on the
  two-site block R of T_j = 1 (x) R (x) 1 (`_quadratic`).  With Y_j =
  2 T_j - (q - q^-1) = (q + q^-1) T'_j it gives Y_j^2 = (q + q^-1)^2, so
  T'_j^2 = 1 and T'_1 X_i T'_1 = T'_{i+1} T'_1 = X_i^-1, which lies in C (a
  finite-dimensional algebra holds the inverse of each invertible element).
  So C + C T'_1 is closed under products; it holds 1, T'_1 and T'_{i+1} =
  T'_1 X_i, hence every T_j, and lies in A: A = C + C T'_1 = C + C T_1.
  That holds over Q(q) and at every rational t != 0, where t + t^-1 != 0
  (it is +-2 at q = +-1), so the T's are never closed: len(A_t) is len(C_t)
  plus the rank of the residuals of the c T_1 modulo C_t (`_images`), and
  ``hecke-image-dimension`` is the premise and that length against the
  prediction.  C is closed from the X~_i = Y_1 Y_{i+1} = (q + q^-1)^2 X_i,
  whose entries are Laurent polynomials; at t each enters as an integer
  multiple of X_i(t) ("Integer generators" below).  `verify
  specialize` reads both ranks the same way, at its points and at q = 1:
  ``hecke-image-rank-agreement`` is the premise and the ranks, and
  ``classical-point-involutions`` is the premise alone, since at q = 1 it
  reads T_i(1)^2 = 1 and specialization is a ring map;
* the square split (m = n) rests on four generator identities, tested once
  over Q(q) before the points split: (i) phi^2 = +-1; (ii) phi T'_i =
  -T'_i phi; (iii) T'_1^2 = 1; (iv) every superalgebra generator commutes
  with every T'_i.  As (q + q^-1) T'_i = Y_i = 2 T_i - (q - q^-1), (ii) is
  tested as phi Y_i = -Y_i phi, (iii) is T_1's quadratic above, and (iv) is
  the one commutation test, on the cheaper T_i; the anticommutant at t is
  that of the Y_j(t), which is anti(T'_t).  By (iv), B commutes with each
  T'_i, hence with each X_i = T'_1 T'_{i+1}, so B lies in D.  By (ii), phi
  commutes with each X_i, so phi B lies in D.  By (ii) and (iv), each phi b
  anticommutes with every T'_i, so phi B lies in anti(T'):
  ``flip-maps-commutant-onto-anticommutant`` is (ii) and (iv).  An x in
  both B and phi B commutes and anticommutes with T'_1, which is invertible
  by (iii), so x = 0; phi is invertible by (i), so dim phi B = dim B.  At
  t, 2 len(B_t) <= 2 dim B <= dim D <= len(D_t), so
  ``centralizer-splits-as-direct-sum`` is (i)-(iv) and len(D_t) =
  2 len(B_t), and a pass proves D = B + phi B over Q(q) and at t.  The
  same chain, len(B_t) <= dim phi B <= dim anti(T') <= len(anti_t), makes
  ``anticommutant-dimension-matches`` a proof.  The weak action omega(f) =
  sign phi f phi is conjugation by phi, since phi^-1 = sign phi by (i), so it
  is an automorphism and ``conjugation-preserves-commutant`` tests it on B's
  generators.  The cocycle alpha(-1,-1) = sign * identity is phi^2 by (i), so
  ``conjugation-has-order-two``, ``crossed-system-axioms`` and
  ``crossed-product-law`` are (i) (`alternating.add_crossed_records`), over
  Q(q) and at every point.

One point.  Given exact premises tested over Q(q) before the points
split, each pass/fail record below that passes at a point t proves its
statement over Q(q).  So when the premises hold and every pass/fail record
passes at the first point, `_certify` stops there and writes
``proved-at-one-point`` in place of ``point-agreement``; otherwise the
second point runs and the points are compared as above.  A rank can only
drop at t and a nullity only grow; len(X_t) is a length at t, dim X one
over Q(q).  Info records then report generic values too.

  Schur-Weyl, given action-commutation (B in A' and A in B' over Q(q)):
  commutant-of-hecke-image-is-     len(B_t) <= dim B <= dim A' <= len(A'_t)
    superalgebra-image
  commutant-of-superalgebra-       len(A_t) <= dim A <= dim B' <= len(B'_t)
    image-is-hecke-image
  hecke-image-dimension            dim A = len(A_t), by the row above

  alt-centralizer at m = n, given (i)-(iv) and predicted dim A = 2 dim C:
  flip-squares-to-sign,            (i)
    conjugation-has-order-two,
    crossed-system-axioms,
    crossed-product-law
  flip-anticommutes-with-          (ii)
    involutive-generators
  flip-maps-commutant-onto-        (ii) and (iv)
    anticommutant
  centralizer-splits-as-direct-    2 len(B_t) <= 2 dim B <= dim D <= len(D_t),
    sum, centralizer-dimension-    len(D_t) from the Casimir of C_t or the
    doubles                        elimination of D_t (the same number)
  anticommutant-dimension-matches  len(B_t) <= dim B <= dim anti <= len(anti_t)
  double-commutant-returns-even-   C <= C'' <= {rho, phi}', and
    image, even-image-dimension    dim {rho, phi}' <= len(C_t) <= dim C   [a]
  hecke-image-dimension            len(A_t) <= dim A <= 2 dim C = len(A_t) [b]
  conjugation-preserves-commutant  omega(B) lies in B over Q(q)           [c]

[a] By (ii) and (iv), rho and phi commute with every X_i, so C and C'' = D'
    (rho and phi lie in D) lie in {rho, phi}'.  At t the split makes D_t =
    B_t + phi B_t, the algebra that rho_t and phi_t generate, so {rho_t,
    phi_t}' = D_t' = C_t'', of length len(C_t) when the double-commutant
    record passes, and the nullity of {rho, phi} only grows at t.  The split
    reads only len(D_t): the Casimir of C_t gives it where the trace form is
    nondegenerate and len(C_t) <= dim V, and D_t is eliminated elsewhere.
[b] A = C + C T'_1 by the quadratic (the Hecke image above), the record's
    premise, so dim A <= 2 dim C; 2 dim C = 2 len(C_t) is the predicted
    dim A by [a] and the prediction, which holds at every m = n (each hook
    is conjugation-paired); `suite_alt_centralizer` checks it.
[c] sign phi b phi commutes with every T'_i by (ii) and (iv), so it lies in
    D = B + phi B; its phi B part both commutes and anticommutes with T'_1,
    so it is 0 by (i) and (iii).

Integer generators.  At a point t every generator the records read enters as
a primitive integer matrix c g(t), c a nonzero rational, made without a
`Fraction`: the T_i, Y_j and X~_i from the two-site rule (`tensor.pi_T`),
the others by `tensor.integral_specialization`.  The records read only
spans: the unital algebra the generators generate (the c_i g_i generate the
one the g_i do), its length, the residuals of C T_1 modulo C, commutants and
anticommutants (X c g = +-c g X exactly when X g = +-g X), and membership in
B.  The trace form's verdict and the Casimir's tr(Omega^-1) belong to the
algebra C, not to its basis: a rescaled basis has the Gram M G M, M diagonal
and invertible; where M is not a unit mod p = 2^127 - 1 the certificate may
decline, and then the eliminations give the same lengths.  So every record
at t is that of the values g(t).  The unit of a closure at t is the int 1
and `LinearSpan` eliminates over Q fraction-free, so the closures, their
spans and the residuals of C T_1 hold ints.  The exact values stay where they
are read: the classical-point comparison of `verify specialize`,
`commutant.certified_rank` and `dump`.

On the Hecke side, `verify_crossed_product_H` decides the crossed-product
records from `check_even_closure` and T'_1^2 = 1 (the `alternating`
docstring); only its direct-sum records read T'-coordinates, of every even
word up to rank 4 and of a sample of 12 seeded even words above it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .alternating import add_crossed_records, check_even_closure, enumerate_even_basis, \
    verify_crossed_product_H
from .commutant import (
    EXACT_DIM_BOUND,
    AlgebraBasis,
    LinearSpan,
    SizeBoundError,
    anticommutant_basis,
    _arbitrate,
    _evaluations,
    commutant_basis,
    span_closure,
    specialization_points,
    trace_form_certificate,
)
from .hecke import U_SQUARED, HeckeAlgebra, relation_failures
from .partitions import predicted_dimensions
from .qfield import Q_MINUS_QINV, Q_PLUS_QINV, RationalFunction
from .report import Report
from .tensor import (
    GradedSpace,
    OperatorMatrix,
    PiRepresentation,
    integral_specialization,
    phi_tensor,
    pi_T,
    rho_generators,
    sign_permutation_matrix,
    specialize_matrix,
    y_matrices,
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

def _add_relations(report: Report, name: str, failures: list[str]) -> None:
    report.add(name, not failures, expected="all hold",
               actual="; ".join(failures) or "all hold")


def _t_failures(algebra: HeckeAlgebra) -> list[str]:
    """The failed relations of the T_i: (a, c) = (q - q^-1, 0)."""
    return relation_failures({i: algebra.generator(i) for i in range(1, algebra.rank)})


def _tprime_failures(algebra: HeckeAlgebra, t_failures: list[str]) -> list[str]:
    """The failed relations of the T'_i, (a, c) = (0, -u^2): none when
    ``t_failures``, those of the T_i, is [] and each T'_i is (2 T_i -
    (q - q^-1)) / (q + q^-1) (the `alternating` docstring); else multiplied out."""
    tps = {i: algebra.tprime(i) for i in range(1, algebra.rank)}
    scale, shift = 2 / Q_PLUS_QINV, Q_MINUS_QINV / Q_PLUS_QINV
    if t_failures == [] and all(tp == scale * algebra.generator(i) - shift
                                for i, tp in tps.items()):
        return []
    return relation_failures(tps, a=0, c=-U_SQUARED)


def _add_even_relations(report: Report, r: int, tprime_failures: list[str]) -> None:
    """``even-generator-relations`` (r >= 3), implied by the T'_i relations."""
    if r >= 3:
        _add_relations(report, "even-generator-relations",
                       [f"T' {f}" for f in tprime_failures])


def suite_hecke(r: int, *, seed: int = 0, bound: int = 6) -> Report:
    """Relations, even-basis counting, and the crossed-product presentation."""
    if not 2 <= r <= bound:
        raise SizeBoundError(f"rank {r} outside the supported range 2..{bound}")
    report = Report("hecke", {"r": r, "seed": seed})
    algebra = HeckeAlgebra(r)
    t_failures = _t_failures(algebra)
    _add_relations(report, "generator-relations", t_failures)
    tprime_failures = _tprime_failures(algebra, t_failures)
    _add_relations(report, "involutive-generator-relations", tprime_failures)
    _add_even_relations(report, r, tprime_failures)
    report.checks += verify_crossed_product_H(r, seed=seed, t_failures=t_failures).checks
    return report


def suite_alt(r: int, *, bound: int = 6) -> Report:
    """Even-subalgebra suite: counts, closure under products, X relations, membership."""
    if not 2 <= r <= bound:
        raise SizeBoundError(f"rank {r} outside the supported range 2..{bound}")
    report = Report("alt", {"r": r})
    half = factorial(r) // 2
    n_even = len(enumerate_even_basis(r))
    report.add("even-basis-count", n_even == half, expected=half, actual=n_even)

    algebra = HeckeAlgebra(r)
    t_failures = _t_failures(algebra)
    failures = check_even_closure(r, t_failures)
    report.add("even-basis-closure", not failures,
               expected="Goldman images of T_i satisfy the Hecke relations and negate each T'_i",
               actual="closed" if not failures else f"{len(failures)} relations fail",
               witness="; ".join(failures) or None)

    _add_even_relations(report, r, _tprime_failures(algebra, t_failures))
    # the closure premises give gamma(T'_w) = (-1)^l(w) T'_w for every w
    report.add("membership-matches-even-support", not failures)
    return report


# ---------------------------------------------------------------------------
# tensor-space suites
# ---------------------------------------------------------------------------

def _closure_of(gens: list[OperatorMatrix], dim: int, one) -> AlgebraBasis:
    if not gens:
        return AlgebraBasis(dim, [OperatorMatrix.identity(dim, one)])
    return span_closure(gens)


def _certify(report: Report, mode: str, seed: int, dim: int, core,
             proof: str | None = None) -> None:
    """Run ``core(report, point)`` under the mode's certification policy.

    ``point=None`` asks the core for its checks over Q(q).  Exact mode runs
    that once.  Specialized mode runs the core at the points, each run into a
    sub-report; records compare by name, status, expected and actual, as
    `commutant.certify` compares values.  ``proof`` names the exact premises
    under which every record of the core is a proof once all pass at one
    point (the module docstring's table), or is None when they do not hold.
    Then a run whose pass/fail records all pass at the first point stops:
    those records stand, renamed ``q=t: ``, followed by
    ``proved-at-one-point``.  Otherwise the second point runs.  When the two
    agree, both points' records stand, followed by ``point-agreement``.  When
    they differ, a ``point-disagreement`` record names the disputed checks
    and the exact rerun's records, renamed ``exact-arbitration: ``, decide
    the verdict.  Every generator denominator is a power of q times a power
    of q^2 + 1, so no nonzero rational is a pole and the points are
    `draw_points(seed)`.
    """
    if mode == "exact":
        core(report, None)
        return

    def run(point):
        sub = Report("point", {})
        core(sub, point)
        return sub.checks

    evaluations = _evaluations([], seed, run)
    t1, first = next(evaluations)
    if proof is not None and all(c.status != "fail" for c in first):
        report.checks.extend(c.renamed(f"q={t1}: {c.name}") for c in first)
        report.add("proved-at-one-point", True,
                   expected=f"every record a proof given {proof}",
                   actual=f"all records pass at q={t1}")
        return
    pairs = [(t1, first), next(evaluations)]
    t2, second = pairs[1]
    arbitrated = _arbitrate(pairs, lambda: run(None), dim)
    if arbitrated is None:
        report.checks.extend(c.renamed(f"q={t}: {c.name}")
                             for t, checks in pairs for c in checks)
        report.add("point-agreement", True,
                   expected="identical outcomes at both points",
                   actual=f"points {t1}, {t2} agree")
        return
    first, second = {c.name: c for c in first}, {c.name: c for c in second}
    disputed = [name for name in {**first, **second} if first.get(name) != second.get(name)]
    report.info("point-disagreement", expected="identical outcomes at both points",
                actual=f"points {t1}, {t2} disagree on: " + ", ".join(disputed))
    report.checks.extend(c.renamed("exact-arbitration: " + c.name) for c in arbitrated)


def suite_schur_weyl(m: int, n: int, r: int, *, mode: str | None = None,
                     seed: int = 0, bound: int | None = None) -> Report:
    """Double-commutant checks between the Hecke and superalgebra images."""
    space = GradedSpace(m, n, r)
    mode = _resolve_mode(space.dim, mode, bound, r=r)
    report = Report("schur-weyl", {"m": m, "n": n, "r": r, "seed": seed, "mode": mode})
    rep = PiRepresentation(space)
    rho = rho_generators(space)
    rho_gens = [g for _, g in rho]

    bad = _commutation_failures(rep.t_matrices(), rho)
    report.add("action-commutation", not bad, expected="all generator pairs commute",
               actual="all commute" if not bad else "; ".join(bad[:6]))

    pred = predicted_dimensions(m, n, r)
    _certify(report, mode, seed, space.dim, lambda sub, point: _schur_weyl_core(
        sub, point, rep, rho_gens, pred, not bad),
        proof=None if bad else "action-commutation")
    return report


def _commutation_failures(t_gens, rho) -> list[str]:
    """The pairs of a T_i and a named superalgebra generator that do not commute."""
    return [f"T_{i+1} vs {name}" for i, tmat in enumerate(t_gens)
            for name, g in rho if not tmat.commutes_with(g)]


def _schur_weyl_core(report: Report, point, rep: PiRepresentation,
                     rho_gens, pred, commute: bool) -> None:
    if point is None:
        one, t_gens = RationalFunction.one(), rep.t_matrices()
    else:
        one, t_gens = 1, rep.hecke_generators(point)[0]
        rho_gens = [integral_specialization(g, point) for g in rho_gens]
    a_alg = _closure_of(t_gens, rep.space.dim, one)
    b_alg = _closure_of(rho_gens, rep.space.dim, one)
    report.add("hecke-image-dimension", len(a_alg) == pred.dimA,
               expected=pred.dimA, actual=len(a_alg))
    report.info("superalgebra-image-dimension", actual=len(b_alg))
    # B in A' and A in B' hold iff the generators commute, over Q(q) and so at t
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

    quadratic = _quadratic(space)
    square = proof = None
    if m == n:
        # premises (i)-(iv) of the split, once over Q(q); see the module docstring
        rho = rho_generators(space)
        phi = phi_tensor(space)
        sign = (-1) ** (r * (r - 1) // 2)
        square = ([g for _, g in rho], phi, sign, (
            phi * phi == OperatorMatrix.identity(space.dim).scale(sign),
            all(y.anticommutes_with(phi) for y in y_matrices(rep.t_matrices(), Q_MINUS_QINV)),
            quadratic,
            not _commutation_failures(rep.t_matrices(), rho)))
        if all(square[3]) and pred.dimA == 2 * pred.dimC:
            proof = "premises (i)-(iv)"
    _certify(report, mode, seed, space.dim, lambda sub, point: _alt_centralizer_core(
        sub, point, space, pred, quadratic, rep.hecke_generators(point), square),
        proof=proof)
    return report


def _quadratic(space: GradedSpace) -> bool:
    """T^2 = (q - q^-1) T + 1 over Q(q) on the block R = T_1 at r = 2: each
    T_j is 1 (x) R (x) 1, an injective unital algebra map of R."""
    block = pi_T(GradedSpace(space.m, space.n, 2), 1)
    return block * block == block.scale(Q_MINUS_QINV) + OperatorMatrix.identity(block.dim)


def _images(gens, dim: int, one):
    """(C, len(A)) from ``gens`` = (the T_j, Y_j and X~_i), over Q(q) or at
    q = t: C closed from the X~_i, and, given the quadratic, A = C + C T_1
    (module docstring), so len(A) is len(C) plus the rank of the residuals of
    the c T_1 modulo C, which a residual up to scale (`LinearSpan._clear`) gives."""
    (t1, *_), _, x_gens = gens
    c_alg = _closure_of(x_gens, dim, one)
    c_span, residuals = c_alg.span(), LinearSpan()
    rank = 0
    for c in c_alg.elements:
        vec = (c * t1).flatten()
        c_span._clear(vec)
        rank += residuals.add(vec)
    return c_alg, len(c_alg) + rank


def _alt_centralizer_core(report: Report, point, space: GradedSpace, pred,
                          quadratic: bool, gens, square=None) -> None:
    one = RationalFunction.one() if point is None else 1
    dim = space.dim

    def mat(matrix):
        return matrix if point is None else integral_specialization(matrix, point)

    c_alg, dim_a = _images(gens, dim, one)
    report.add("even-image-dimension", len(c_alg) == pred.dimC,
               expected=pred.dimC, actual=len(c_alg))
    report.add("hecke-image-dimension", quadratic and dim_a == pred.dimA,
               expected=pred.dimA, actual=dim_a)

    # C lies in its double commutant in any field; a nondegenerate trace form
    # makes C semisimple, and then C'' = C and the Casimir gives len(D) (see
    # `commutant`); D's basis is built only where that length is not given
    semisimple, dim_d = trace_form_certificate(c_alg)
    if dim_d is None:
        d_alg = commutant_basis(c_alg)
        dim_d = len(d_alg)
    report.info("even-centralizer-dimension", actual=dim_d)
    dim_cd = len(c_alg) if semisimple else len(commutant_basis(d_alg))
    report.add("double-commutant-returns-even-image", dim_cd == len(c_alg),
               expected=f"span equality at dim {len(c_alg)}",
               actual=f"dims {dim_cd} vs {len(c_alg)}")

    if square is not None:   # m = n: generic rho generators, phi, sign of phi^2, (i)-(iv)
        rho_gens, phi, sign, (squares, anti, involutive, commute) = square
        phi = mat(phi)
        report.add("flip-squares-to-sign", squares,
                   expected=f"({sign})*identity", actual="equal" if squares else "differs")
        report.add("flip-anticommutes-with-involutive-generators", anti)

        b_alg = _closure_of([mat(g) for g in rho_gens], dim, one)
        report.info("superalgebra-image-dimension", actual=len(b_alg))
        bd = anticommutant_basis(gens[1])   # anti(Y_t) = anti(T'_t)
        report.add("anticommutant-dimension-matches", len(bd) == len(b_alg),
                   expected=len(b_alg), actual=len(bd))
        report.add("flip-maps-commutant-onto-anticommutant", anti and commute)
        report.add("centralizer-splits-as-direct-sum",
                   squares and anti and involutive and commute
                   and dim_d == 2 * len(b_alg),
                   expected=f"{dim_d} = {len(b_alg)} + {len(b_alg)}",
                   actual=f"dims ({dim_d}; {len(b_alg)}, {len(b_alg)})")
        report.add("centralizer-dimension-doubles", dim_d == 2 * len(b_alg),
                   expected=2 * len(b_alg), actual=dim_d)

        # the weak action omega(f) = sign phi f phi is conjugation by phi given
        # (i), an automorphism, so its generator images decide closure
        omega_closes = all(b_alg.contains((phi * g * phi).scale(sign))
                           for g in b_alg.generators)
        report.add("conjugation-preserves-commutant", omega_closes)
        report.add("conjugation-has-order-two", squares)
        add_crossed_records(report, squares, f"phi^2 = ({sign})*identity")

    if space.n == 0 and space.m * space.m < space.r:
        # C lies in A, and given the quadratic A = C + C T_1
        collapse = quadratic and dim_a == len(c_alg)
        report.add("small-row-collapse", collapse,
                   expected=f"images coincide at dim {pred.dimA}",
                   actual=f"dims {dim_a} vs {len(c_alg)}" + ("" if collapse else " (differ)"))


def suite_specialization(m: int, n: int, r: int, *, points=None,
                         seed: int = 0, bound: int | None = None) -> Report:
    """Cross-checks at explicit rational points and at the classical point q=1."""
    space = GradedSpace(m, n, r)
    _resolve_mode(space.dim, "specialized", bound, r=r)
    rep = PiRepresentation(space)
    quadratic = _quadratic(space)

    def image_ranks(t):
        """len(A) and len(C) at q = t, read off C given the quadratic."""
        c_alg, dim_a = _images(rep.hecke_generators(t), space.dim, 1)
        return dim_a, len(c_alg)

    pairs = specialization_points(points, seed, image_ranks)
    points, ranks = zip(*pairs)
    dims_a, dims_c = (list(d) for d in zip(*ranks))
    report = Report("specialization",
                    {"m": m, "n": n, "r": r, "seed": seed,
                     "points": ",".join(str(p) for p in points)})
    pred = predicted_dimensions(m, n, r)

    report.add("hecke-image-rank-agreement",
               quadratic and len(set(dims_a)) == 1 and dims_a[0] == pred.dimA,
               expected=f"rank {pred.dimA} at all points",
               actual=f"ranks {dims_a} at points {[str(p) for p in points]}")
    report.add("even-image-rank-agreement", len(set(dims_c)) == 1 and dims_c[0] == pred.dimC,
               expected=f"rank {pred.dimC} at all points",
               actual=f"ranks {dims_c} at points {[str(p) for p in points]}")

    # classical point: the sign-permutation action, built independently
    classical_ok = all(specialize_matrix(rep.t_matrix(i), 1) == sign_permutation_matrix(space, i)
                       for i in range(1, r))
    report.add("classical-point-matches-sign-permutation", classical_ok,
               expected="entrywise equality for every generator",
               actual="equal" if classical_ok else "differs")
    # the quadratic at q = 1 reads T_i(1)^2 = 1, as specialization is a ring map
    report.add("classical-point-involutions", quadratic)
    # C is closed once per point, so not again when q = 1 is one of the points
    classical = dict(pairs).get(1) or image_ranks(Fraction(1))
    report.info("hecke-image-rank-at-classical-point", actual=classical[0],
                expected=f"generic {pred.dimA}; a drop here is allowed")
    return report
