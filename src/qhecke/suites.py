"""End-to-end verification suites over the Hecke algebra and tensor space.

Each suite runs a deterministic list of exact checks (seeded where sampling
is involved) and returns a `Report`.  One routine, `hecke.relation_failures`,
checks t_i^2 = a t_i + 1, the braids with correction c (t_i - t_{i+1}) and far
commutation: (a, c) = (q - q^-1, 0) for the T_i and the Goldman images G_i,
(0, -u^2) for the T'_i; the X_i have theirs in `x_relation_failures`.  In
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
  the point.  One exact test, `_commutation_failures` (every T_i against
  every superalgebra generator over Q(q)), decides ``action-commutation``;
  the commutant records and premise (iv) below read its result, and a pass
  holds at every point because specialization is a ring map.  Given it, the
  length comparisons prove the two Schur-Weyl commutant equalities
  generically: rank_t(B) <= dim B <= dim A' <= nullity_t(A), and a pass
  makes the ends equal (likewise for A in B').  The double commutant (C in
  C'') is a proof at the point when the trace form of C_t is nondegenerate
  (`commutant.trace_form_is_nondegenerate`): C_t is then semisimple and
  C_t'' = C_t, so its length is len(C_t) without eliminating D's commutant;
  otherwise that elimination decides.  Exact mode decides it the same way
  over Q(q), where a pass is a proof.  Generically a pass at a point stays
  evidence: C''_t may move either way.  The collapse (C in A once the X's
  lie in A) stays evidence at the point: two closure ranks give no upper
  bound on dim A;
* the square split (m = n) rests on four generator identities, tested once
  over Q(q) before the points split: (i) phi^2 = +-1; (ii) phi T'_i =
  -T'_i phi; (iii) T'_1^2 = 1; (iv) every superalgebra generator commutes
  with every T'_i.  As (q + q^-1) T'_i = 2 T_i - (q - q^-1), (iv) is the
  one commutation test, on the cheaper T_i.  By (iv), B commutes with each
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

On the Hecke side, `verify_crossed_product_H` decides the crossed-product
records from `check_even_closure` and T'_1^2 = 1 (the `alternating`
docstring); only its direct-sum records read T'-coordinates, of every even
word up to rank 4 and of a sample of 12 seeded even words above it.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import factorial

from .alternating import add_crossed_records, check_even_closure, enumerate_even_basis, \
    verify_crossed_product_H, x_relation_failures
from .commutant import (
    EXACT_DIM_BOUND,
    AlgebraBasis,
    SizeBoundError,
    anticommutant_basis,
    certify,
    commutant_basis,
    span_closure,
    specialization_points,
    trace_form_is_nondegenerate,
)
from .hecke import U_SQUARED, HeckeAlgebra, relation_failures
from .partitions import predicted_dimensions
from .qfield import RationalFunction
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

def _add_relations(report: Report, name: str, failures: list[str]) -> None:
    report.add(name, not failures, expected="all hold",
               actual="; ".join(failures) or "all hold")


def suite_hecke(r: int, *, seed: int = 0, bound: int = 6) -> Report:
    """Relations, even-basis counting, and the crossed-product presentation."""
    if not 2 <= r <= bound:
        raise SizeBoundError(f"rank {r} outside the supported range 2..{bound}")
    report = Report("hecke", {"r": r, "seed": seed})
    algebra = HeckeAlgebra(r)
    _add_relations(report, "generator-relations",
                   relation_failures({i: algebra.generator(i) for i in range(1, r)}))
    _add_relations(report, "involutive-generator-relations",
                   relation_failures({i: algebra.tprime(i) for i in range(1, r)},
                                     a=0, c=-U_SQUARED))
    if r >= 3:
        _add_relations(report, "even-generator-relations", x_relation_failures(r))
    report.checks += verify_crossed_product_H(r, seed=seed).checks
    return report


def suite_alt(r: int, *, seed: int = 0, bound: int = 6) -> Report:
    """Even-subalgebra suite: counts, closure under products, X relations, membership."""
    if not 2 <= r <= bound:
        raise SizeBoundError(f"rank {r} outside the supported range 2..{bound}")
    report = Report("alt", {"r": r, "seed": seed})
    half = factorial(r) // 2
    n_even = len(enumerate_even_basis(r))
    report.add("even-basis-count", n_even == half, expected=half, actual=n_even)

    failures = check_even_closure(r)
    report.add("even-basis-closure", not failures,
               expected="Goldman images of T_i satisfy the Hecke relations and negate each T'_i",
               actual="closed" if not failures else f"{len(failures)} relations fail",
               witness="; ".join(failures) or None)

    if r >= 3:
        _add_relations(report, "even-generator-relations", x_relation_failures(r))
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

    bad = _commutation_failures(t_gens, rho)
    report.add("action-commutation", not bad, expected="all generator pairs commute",
               actual="all commute" if not bad else "; ".join(bad[:6]))

    pred = predicted_dimensions(m, n, r)
    _certify(report, mode, seed, space.dim, lambda sub, point: _schur_weyl_core(
        sub, point, space, t_gens, rho_gens, pred, not bad))
    return report


def _commutation_failures(t_gens, rho) -> list[str]:
    """The pairs of a T_i and a named superalgebra generator that do not commute."""
    return [f"T_{i+1} vs {name}" for i, tmat in enumerate(t_gens)
            for name, g in rho if not tmat.commutes_with(g)]


def _schur_weyl_core(report: Report, point, space: GradedSpace,
                     t_gens, rho_gens, pred, commute: bool) -> None:
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

    # fill rep's generator cache before the points split, so both start warm
    rep.x_matrices()
    rep.t_matrices()
    square = None
    if m == n:
        # premises (i)-(iv) of the split, once over Q(q); see the module docstring
        rho = rho_generators(space)
        phi, tp_gens = phi_tensor(space), rep.tprime_matrices()
        sign = (-1) ** (r * (r - 1) // 2)
        ident = OperatorMatrix.identity(space.dim)
        square = ([g for _, g in rho], phi, sign, (
            phi * phi == ident.scale(sign),
            all(tp.anticommutes_with(phi) for tp in tp_gens),
            tp_gens[0] * tp_gens[0] == ident,
            not _commutation_failures(rep.t_matrices(), rho)))
    _certify(report, mode, seed, space.dim, lambda sub, point: _alt_centralizer_core(
        sub, point, space, rep, pred, square))
    return report


def _alt_centralizer_core(report: Report, point, space: GradedSpace,
                          rep: PiRepresentation, pred, square=None) -> None:
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
    # C lies in its double commutant in any field; a nondegenerate trace form
    # makes C semisimple, and then C'' = C (see `commutant`)
    dim_cd = (len(c_alg) if trace_form_is_nondegenerate(c_alg)
              else len(commutant_basis(d_alg)))
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
        bd = anticommutant_basis([mat(g) for g in rep.tprime_matrices()])
        report.add("anticommutant-dimension-matches", len(bd) == len(b_alg),
                   expected=len(b_alg), actual=len(bd))
        report.add("flip-maps-commutant-onto-anticommutant", anti and commute)
        report.add("centralizer-splits-as-direct-sum",
                   squares and anti and involutive and commute
                   and len(d_alg) == 2 * len(b_alg),
                   expected=f"{len(d_alg)} = {len(b_alg)} + {len(b_alg)}",
                   actual=f"dims ({len(d_alg)}; {len(b_alg)}, {len(b_alg)})")
        report.add("centralizer-dimension-doubles", len(d_alg) == 2 * len(b_alg),
                   expected=2 * len(b_alg), actual=len(d_alg))

        # the weak action omega(f) = sign phi f phi is conjugation by phi given
        # (i), an automorphism, so its generator images decide closure
        omega_closes = all(b_alg.contains((phi * g * phi).scale(sign))
                           for g in b_alg.generators)
        report.add("conjugation-preserves-commutant", omega_closes)
        report.add("conjugation-has-order-two", squares)
        add_crossed_records(report, squares, f"phi^2 = ({sign})*identity")

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
