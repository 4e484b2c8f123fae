"""Acceptance suite: one test per acceptance criterion, all exact.

Every check here is an exact identity over Q(q) (or over Q after an exact
rational specialization); there are no numerical tolerances anywhere.  Each
test prints a PASS line naming the criterion so the run doubles as a
machine-checkable acceptance report:

    pytest tests/test_acceptance.py -v -s
"""

from fractions import Fraction
from math import factorial

from qhecke.alternating import (
    check_even_closure,
    enumerate_even_basis,
    odd_word_count,
    verify_crossed_product_H,
    x_relation_failures,
)
from qhecke.commutant import (
    certified_rank,
    commutant_basis,
    span_closure,
    span_equal,
)
from qhecke.hecke import U_SQUARED, HeckeAlgebra, relation_failures, symmetric_group_table
from qhecke.partitions import predicted_dimensions
from qhecke.suites import (
    suite_alt_centralizer,
    suite_schur_weyl,
    suite_specialization,
)
from qhecke.tensor import (
    GradedSpace,
    OperatorMatrix,
    PiRepresentation,
    rho_generators,
    sign_permutation_matrix,
    specialize_matrix,
)
from test_alternating import column_violations
from test_crossed import hecke_crossed_failures

COMMUTATION_CASES = [(1, 1, 2), (1, 1, 3), (2, 1, 2), (1, 2, 2), (2, 2, 2), (2, 0, 3)]
DOUBLE_COMMUTANT_CASES = [(1, 1, 2), (1, 1, 3), (2, 0, 3), (1, 0, 2)]


def report(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


def checks_by_name(rep):
    return {c.name: c for c in rep.checks}


def test_criterion_1_relation_suites():
    # quadratic/braid/commutation relations, their involutive counterparts,
    # and the even-generator presentation, exactly, for every rank up to 6
    for r in range(2, 7):
        algebra = HeckeAlgebra(r)
        plain = relation_failures({i: algebra.generator(i) for i in range(1, r)})
        involutive = relation_failures({i: algebra.tprime(i) for i in range(1, r)},
                                       a=0, c=-U_SQUARED)
        xrel = x_relation_failures(r)
        assert not plain, (r, plain)
        assert not involutive, (r, involutive)
        assert not xrel, (r, xrel)
    report(1, "generator, involutive and even-generator relations hold exactly for r <= 6")


def test_criterion_2_counting_and_closure():
    for r in range(2, 7):
        half = factorial(r) // 2
        assert len(enumerate_even_basis(r)) == half, r
        assert odd_word_count(r) == half, r
    for r in range(2, 8):
        assert check_even_closure(r) == [], r
    for r in range(2, 6):
        assert not column_violations(symmetric_group_table(r)), r
    report(2, "even/odd word counts are r!/2 for r <= 6; even basis closed under products "
              "for r <= 7, from the Goldman images' Hecke relations, and the T'-generator "
              "columns agree for r <= 5")


def test_criterion_3_crossed_product_of_hecke_algebra():
    for r in (2, 3, 4):
        rep = verify_crossed_product_H(r)
        assert rep.passed, [c.name for c in rep.failures()]
        half = factorial(r) // 2
        named = checks_by_name(rep)
        assert named["decomposition-dims"].actual == f"({half}, {half})"
        assert named["crossed-system-axioms"].status == "pass"
        assert named["crossed-product-law"].status == "pass"
        # the records are decided from T'_1^2 = 1 and the closure premises;
        # the sampled checks confirm them on every pair of even basis elements
        assert not any(hecke_crossed_failures(r).values())
    report(3, "crossed-product presentation verified on all basis pairs for r <= 4, "
              "with the even/odd decomposition of dimensions (r!/2, r!/2)")


def test_criterion_4_action_commutation():
    for m, n, r in COMMUTATION_CASES:
        space = GradedSpace(m, n, r)
        rep = PiRepresentation(space)
        for i in range(1, r):
            t = rep.t_matrix(i)
            for name, g in rho_generators(space):
                assert t.commutes_with(g), (m, n, r, i, name)
    report(4, f"Hecke and superalgebra generator actions commute exactly on {COMMUTATION_CASES}")


def test_criterion_5_schur_weyl_double_commutant():
    for m, n, r in DOUBLE_COMMUTANT_CASES:
        rep = suite_schur_weyl(m, n, r, mode="exact")
        assert rep.passed, (m, n, r, [c.name for c in rep.failures()])
        named = checks_by_name(rep)
        predicted = predicted_dimensions(m, n, r).dimA
        assert named["hecke-image-dimension"].actual == str(predicted)
        assert named["commutant-of-hecke-image-is-superalgebra-image"].status == "pass"
        assert named["commutant-of-superalgebra-image-is-hecke-image"].status == "pass"
    report(5, f"double-commutant span equalities and hook-dimension counts hold exactly "
              f"on {DOUBLE_COMMUTANT_CASES}")


def test_criterion_6_square_case_structure():
    for m, n, r in [(1, 1, 2), (1, 1, 3)]:
        rep = suite_alt_centralizer(m, n, r, mode="exact")
        assert rep.passed, (m, n, r, [c.name for c in rep.failures()])
        named = checks_by_name(rep)
        for name in ("flip-squares-to-sign",
                     "flip-anticommutes-with-involutive-generators",
                     "centralizer-splits-as-direct-sum",
                     "centralizer-dimension-doubles",
                     "conjugation-preserves-commutant",
                     "conjugation-has-order-two",
                     "crossed-system-axioms",
                     "crossed-product-law"):
            assert named[name].status == "pass", (m, n, r, name)
    rep = suite_alt_centralizer(2, 2, 2, mode="specialized")
    assert rep.passed, [c.name for c in rep.failures()]
    assert any(c.name == "point-agreement" and c.status == "pass" for c in rep.checks)
    report(6, "square-case flip/crossed-product structure exact on (1,1,2), (1,1,3); "
              "(2,2,2) certified at two points with exact arbitration available")


def test_criterion_7_alternating_reciprocity():
    for m, n, r in [(1, 1, 2), (1, 1, 3)]:
        space = GradedSpace(m, n, r)
        rep = PiRepresentation(space)
        x_gens = rep.x_matrices()
        if x_gens:
            c_alg = span_closure(x_gens)
            d_alg = commutant_basis(c_alg)
        else:
            c_alg = span_closure([OperatorMatrix.identity(space.dim)])
            d_alg = commutant_basis([], dim=space.dim)
        back = commutant_basis(d_alg)
        assert span_equal(back, c_alg), (m, n, r)
        assert len(c_alg) == predicted_dimensions(m, n, r).dimC
    report(7, "the centralizer of the even image has the even image as its exact "
              "commutant on (1,1,2) and (1,1,3)")


def test_criterion_8_general_case_dimensions():
    table = predicted_dimensions(2, 0, 3)
    assert (table.dimA, table.dimC) == (5, 3)
    assert table.dimA0 == 4 == 2 * table.dimC0
    assert table.dimA1 == 1 == table.dimC1
    rep = suite_alt_centralizer(2, 0, 3, mode="exact")
    assert rep.passed, [c.name for c in rep.failures()]
    named = checks_by_name(rep)
    assert named["hecke-image-dimension"].actual == "5"      # independent matrix rank
    assert named["even-image-dimension"].actual == "3"
    report(8, "(2,0,3): dimA=5, dimC=3 with dimA0=4=2*dimC0, dimA1=1=dimC1, "
              "matching formula and exact matrix ranks")


def test_criterion_9_collapse_regime():
    space = GradedSpace(2, 0, 5)
    rep = suite_alt_centralizer(2, 0, 5, mode="specialized")
    assert rep.passed, [c.name for c in rep.failures()]
    named = checks_by_name(rep)
    for prefix_check in [c for c in rep.checks if c.name.endswith("small-row-collapse")]:
        assert prefix_check.status == "pass"
    assert any(c.name.endswith("hecke-image-dimension") and c.actual == "42"
               for c in rep.checks)
    # the span of all basis-word images has rank 42, certified at two points
    pi_rep = PiRepresentation(space)
    from qhecke.hecke import normal_form_words
    words = [pi_rep.word_matrix(w) for w in normal_form_words(5)]
    cert = certified_rank(words, points=[Fraction(2), Fraction(5, 3)])
    assert cert.rank == 42
    report(9, "(2,0,5): full and even images coincide at dimension 42, certified at "
              "two rational points with exact arbitration wired in")


def test_criterion_10_specialization_sanity():
    space = GradedSpace(1, 1, 3)
    pi_rep = PiRepresentation(space)
    for i in (1, 2):
        assert specialize_matrix(pi_rep.t_matrix(i), 1) == sign_permutation_matrix(space, i)
    cases = sorted(set(COMMUTATION_CASES + DOUBLE_COMMUTANT_CASES + [(2, 0, 5)]))
    for m, n, r in cases:
        rep = suite_specialization(m, n, r)
        assert rep.passed, (m, n, r, [c.name for c in rep.failures()])
        named = checks_by_name(rep)
        assert named["hecke-image-rank-agreement"].status == "pass"
        assert named["even-image-rank-agreement"].status == "pass"
    report(10, "classical-point action equals the signed permutation operator "
               f"entrywise; two-point rank certificates agree on {cases}")
