import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest

import qhecke.cli as cli
import qhecke.commutant as commutant
import qhecke.suites as suites
import qhecke.tensor as tensor
from qhecke.commutant import (
    anticommutant_basis,
    commutant_basis,
    draw_points,
    span_closure,
    span_equal,
    trace_form_certificate,
)
from qhecke.hecke import U_SQUARED, HeckeAlgebra, SymmetricGroupTable, relation_failures
from qhecke.partitions import predicted_dimensions
from qhecke.qfield import Q_MINUS_QINV, RationalFunction
from qhecke.report import Report
from qhecke.suites import (
    SizeBoundError,
    suite_alt,
    suite_alt_centralizer,
    suite_hecke,
    suite_schur_weyl,
    suite_specialization,
)
from qhecke.tensor import (
    GradedSpace,
    OperatorMatrix,
    PiRepresentation,
    rho_generators,
    specialize_matrix,
)


def check_map(report):
    return {c.name: c for c in report.checks}


def count_products(monkeypatch):
    """Record each `SymmetricGroupTable.elem_mul` call, split into the products
    with a unit factor and the others."""
    calls, units = [], []
    elem_mul = SymmetricGroupTable.elem_mul

    def counted(self, x, y):
        (units if self.one in (x, y) else calls).append(1)
        return elem_mul(self, x, y)

    monkeypatch.setattr(SymmetricGroupTable, "elem_mul", counted)
    return calls, units


_PI_T = tensor.pi_T


def _off_its_quadratic(space, i, point=None):
    """T_i with the two-site rule's block R made 3 R - (q - q^-1) (at q = a/b,
    ab times that): it lies in the span of 1 and T_i and its Y is 3 Y, so
    every length stays, but R^2 = (q - q^-1) R + 1 fails."""
    qm = Q_MINUS_QINV
    if point is not None:
        t = Fraction(point)
        qm = t.numerator ** 2 - t.denominator ** 2
    return _PI_T(space, i, point).scale(3) - OperatorMatrix.identity(space.dim, qm)


def break_the_quadratic(monkeypatch):
    """Build every T_i, generic and at the points, from the broken rule."""
    for module in (tensor, suites):
        monkeypatch.setattr(module, "pi_T", _off_its_quadratic)


def break_t2(monkeypatch):
    """Make T_2 act in products as the transposition s_2, dropping the (q - q^-1)
    term of the length rule, so T_2^2 = 1 fails the quadratic.  Only the T
    action of `elem_mul` (m = 1, s = 0) changes: the T'_i and the Goldman
    images are built as before, so each linear identity still holds."""
    gen_mul = SymmetricGroupTable.gen_mul

    def broken(self, row, nums, m=1, s=0):
        if (m, s) == (1, 0) and (row is self.left_mult[1] or row is self.right_mult[1]):
            return {row[w]: a for w, a in nums.items()}
        return gen_mul(self, row, nums, m, s)

    monkeypatch.setattr(SymmetricGroupTable, "gen_mul", broken)


def assert_records_match_the_multiplied_relations(rank):
    """The records that the suites read off the T_i relations name exactly the
    relations that `relation_failures` finds by multiplying out the T'_i and
    the Goldman images G_i (the oracle)."""
    algebra = HeckeAlgebra(rank)
    gens = range(1, rank)
    tprime = relation_failures({i: algebra.tprime(i) for i in gens}, a=0, c=-U_SQUARED)
    goldman = [f"Goldman {f}" for f in relation_failures(
        {i: algebra.generator(i).goldman() for i in gens})]
    hecke = check_map(suite_hecke(rank, bound=rank))
    alt = check_map(suite_alt(rank, bound=rank))
    assert hecke["involutive-generator-relations"].actual == ("; ".join(tprime) or "all hold")
    assert (hecke["weak-action-preserves-even-part"].status == "pass") == (not goldman)
    assert alt["even-basis-closure"].witness == ("; ".join(goldman) or None)
    for checks in (hecke, alt):
        if rank >= 3:
            assert checks["even-generator-relations"].actual == (
                "; ".join(f"T' {f}" for f in tprime) or "all hold")


class TestHeckeSuite:
    def test_rank3_passes_with_counts(self):
        report = suite_hecke(3)
        assert report.passed
        checks = check_map(report)
        assert checks["even-odd-word-counts"].actual == "(3, 3)"

    def test_rank4_counts(self):
        report = suite_hecke(4)
        assert report.passed
        assert check_map(report)["even-odd-word-counts"].actual == "(12, 12)"

    def test_rank2_decomposition(self):
        report = suite_hecke(2)
        assert report.passed
        assert check_map(report)["decomposition-dims"].actual == "(1, 1)"

    def test_rank6_product_count_is_bounded(self, monkeypatch):
        # the products are the 33 of the T relation check and the premise
        # T'_1^2 = 1; the T' and Goldman relations, and from them the X_i
        # relations and `check_even_closure`, are read off the T ones.  A
        # sampled, repeated, T', G or X product that creeps back shows here
        # without timing
        calls, units = count_products(monkeypatch)
        assert suite_hecke(6, seed=0).passed
        assert len(calls) <= 34 and len(calls) + len(units) <= 34

    @staticmethod
    def scale_second(monkeypatch, owner, name):
        """Replace ``owner.name`` by a builder that returns twice its value at index 2."""
        build = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda self, i: build(self, i) * 2 if i == 2 else build(self, i))

    def test_scaled_generator_fails_its_relations(self, monkeypatch):
        self.scale_second(monkeypatch, HeckeAlgebra, "generator")
        record = check_map(suite_hecke(3))["generator-relations"]
        assert (record.status, record.actual) == ("fail", "quadratic at i=2; braid at i=1")

    def test_scaled_tprime_fails_the_involutive_relations(self, monkeypatch):
        self.scale_second(monkeypatch, HeckeAlgebra, "tprime")
        checks = check_map(suite_hecke(3))
        record = checks["involutive-generator-relations"]
        assert (record.status, record.actual) == ("fail", "quadratic at i=2; braid at i=1")
        assert checks["generator-relations"].status == "pass"

    @pytest.mark.parametrize("suite, failed", [
        (suite_hecke, ["involutive-generator-relations", "even-generator-relations"]),
        (suite_alt, ["even-generator-relations"]),
    ], ids=["suite_hecke", "suite_alt"])
    def test_scaled_tprime_fails_the_even_relations(self, suite, failed, monkeypatch):
        # the X_i relations are decided from the T'_i ones, so a broken T'_2
        # fails them and the record names the T' relations that fail
        self.scale_second(monkeypatch, HeckeAlgebra, "tprime")
        checks = check_map(suite(5))
        assert [c.name for c in checks.values() if c.status == "fail"] == failed
        assert checks["even-generator-relations"].actual == (
            "T' quadratic at i=2; T' braid at i=1; T' braid at i=2")

    @pytest.mark.parametrize("rank", range(2, 8))
    def test_records_agree_with_the_multiplied_relations(self, rank):
        assert_records_match_the_multiplied_relations(rank)

    @pytest.mark.parametrize("rank", [3, 5])
    def test_a_broken_t_relation_multiplies_the_others_out(self, rank, monkeypatch):
        # with a T relation failing nothing is derived, so the T' and Goldman
        # records name what the multiplied relations name
        break_t2(monkeypatch)
        assert_records_match_the_multiplied_relations(rank)

    @pytest.mark.parametrize("args, digest", [
        (["hecke", "--r", "3", "--seed", "0"],
         "0290d2e02828c6bdf02f1195d49d1a2db31b40810a9b3677d1085762b4797236"),
        (["hecke", "--r", "5", "--seed", "0"],
         "f889b53d64aab676c48735e58a8cca0c4e8aacdad24c109cf59947e02c110f3f"),
        (["alt", "--r", "3"],
         "22224d5a3251c0cb8f09196b09293e31e7902a6aa0d87cc4115b178b22b1504c"),
        (["alt", "--r", "5"],
         "6eb3b1f6e4dca3ba8ccf3b347594683401ca92304657b4ff403383f725089317"),
    ], ids=["hecke-3", "hecke-5", "alt-3", "alt-5"])
    def test_a_broken_t_relation_keeps_the_failing_report_bytes(self, args, digest,
                                                                 tmp_path, monkeypatch):
        # the failing reports as they were when every relation was multiplied out
        break_t2(monkeypatch)
        path = tmp_path / "r.json"
        assert cli.main(["verify", *args, "--out", str(path)]) == 1
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_out_of_range(self):
        with pytest.raises(SizeBoundError):
            suite_hecke(7)
        with pytest.raises(SizeBoundError):
            suite_hecke(1)


class TestAltSuite:
    def test_rank4(self):
        report = suite_alt(4)
        assert report.passed
        checks = check_map(report)
        assert checks["even-basis-count"].actual == "12"
        assert checks["even-basis-closure"].status == "pass"

    def test_rank6_reads_no_tprime_coordinates(self, monkeypatch):
        # membership is decided from the closure premises, not from sampled
        # T'-expansions, so no element is converted to the T' basis
        def refuse(table, vec):
            raise AssertionError("to_tprime called")

        monkeypatch.setattr(SymmetricGroupTable, "to_tprime", refuse)
        report = suite_alt(6)
        assert report.passed
        assert check_map(report)["membership-matches-even-support"].status == "pass"

    def test_rank6_product_count_is_bounded(self, monkeypatch):
        # only the T relations are multiplied; the Goldman and T' relations
        # are read off them
        calls, units = count_products(monkeypatch)
        assert suite_alt(6).passed
        assert len(calls) <= 33 and len(calls) + len(units) <= 33

    def test_rank5_full_closure(self):
        report = suite_alt(5)
        assert report.passed
        closure = check_map(report)["even-basis-closure"]
        assert (closure.expected, closure.actual) == (
            "Goldman images of T_i satisfy the Hecke relations and negate each T'_i", "closed")


class TestSchurWeylSuite:
    def test_exact_small_square(self):
        report = suite_schur_weyl(1, 1, 2)
        assert report.passed
        checks = check_map(report)
        assert checks["hecke-image-dimension"].actual == "2"
        assert checks["superalgebra-image-dimension"].actual == "8"

    def test_specialized_mode_proves_at_one_point(self):
        # given action-commutation a pass at one point is a proof: no second point
        report = suite_schur_weyl(1, 1, 2, mode="specialized")
        assert report.passed
        assert report.checks[-1].name == "proved-at-one-point"
        assert {c.name.partition(": ")[0] for c in report.checks[1:-1]} == {"q=2"}

    def test_size_bound(self):
        with pytest.raises(SizeBoundError):
            suite_schur_weyl(2, 2, 4, mode="exact")   # dim 256 > exact bound
        with pytest.raises(SizeBoundError):
            suite_schur_weyl(2, 2, 5)                 # dim 1024 > any default bound
        with pytest.raises(SizeBoundError):
            suite_schur_weyl(1, 1, 1)

    def test_bound_override(self):
        report = suite_schur_weyl(1, 1, 2, mode="exact", bound=4)
        assert report.passed
        with pytest.raises(SizeBoundError):
            suite_schur_weyl(1, 1, 3, mode="exact", bound=4)


COMMUTANT_CHECKS = ("commutant-of-hecke-image-is-superalgebra-image",
                    "commutant-of-superalgebra-image-is-hecke-image")


def _extra_generator(space):
    """The superalgebra generators plus a matrix unit that does not commute
    with the T's: B grows."""
    return [*rho_generators(space),
            ("E01", OperatorMatrix(space.dim, {(0, 1): RationalFunction.one()}))]


def _swapped(g):
    """g conjugated by the swap of basis vectors 0 and 1."""
    def swap(k):
        return 1 - k if k < 2 else k
    return OperatorMatrix(g.dim, {(swap(i), swap(j)): v for (i, j), v in g.entries.items()})


def _conjugated(space):
    """The superalgebra generators with basis vectors 0 and 1 swapped: B moves
    to a conjugate of itself, so every dimension stays and only the
    commutation test can tell."""
    return [(name, _swapped(g)) for name, g in rho_generators(space)]


class TestSchurWeylCommutantChecks:
    """The two commutant checks compare lengths once the generators commute;
    they must agree with the two-sided `span_equal` and never pass on lengths
    alone."""

    @pytest.mark.parametrize("point, expected", [
        (Fraction(1), "fail"),   # the superalgebra image drops to 8 < 12 = dim A'
        (Fraction(2), "pass"),
        (None, "pass"),          # over Q(q)
    ], ids=["q=1", "q=2", "Q(q)"])
    def test_core_agrees_with_span_equal(self, point, expected):
        space = GradedSpace(1, 1, 3)
        rep = PiRepresentation(space)
        t_gens = rep.t_matrices()
        rho = rho_generators(space)
        rho_gens = [g for _, g in rho]
        report = Report("core", {})
        suites._schur_weyl_core(report, point, rep, rho_gens,
                                predicted_dimensions(1, 1, 3),
                                not suites._commutation_failures(t_gens, rho))
        if point is not None:
            t_gens = [specialize_matrix(g, point) for g in t_gens]
            rho_gens = [specialize_matrix(g, point) for g in rho_gens]
        a_alg, b_alg = span_closure(t_gens), span_closure(rho_gens)
        oracle = [span_equal(commutant_basis(a_alg), b_alg),
                  span_equal(commutant_basis(b_alg), a_alg)]
        checks = check_map(report)
        assert [checks[name].status for name in COMMUTANT_CHECKS] == [expected] * 2
        assert oracle == [expected == "pass"] * 2

    @pytest.mark.parametrize("mutation", [_extra_generator, _conjugated],
                             ids=["extra-generator", "conjugated"])
    @pytest.mark.parametrize("shape, mode", [((1, 1, 2), "exact"), ((1, 1, 3), "specialized")],
                             ids=["1-1-2-exact", "1-1-3-specialized"])
    def test_noncommuting_generators_fail(self, mutation, shape, mode, monkeypatch):
        monkeypatch.setattr(suites, "rho_generators", mutation)
        report = suite_schur_weyl(*shape, mode=mode)
        assert check_map(report)["action-commutation"].status == "fail"
        names = {c.name for c in report.checks}
        assert "proved-at-one-point" not in names
        assert mode == "exact" or names & {"point-agreement", "point-disagreement"}
        for name in COMMUTANT_CHECKS:
            records = [c for c in report.checks
                       if c.name == name or c.name.endswith(": " + name)]
            assert records and all(c.status == "fail" for c in records), name
            if mutation is _conjugated:   # equal lengths: only commutation fails them
                assert all(len(set(c.actual[len("dims "):].split(" vs "))) == 1
                           for c in records), name


class TestOneCommutationTest:
    """Both tensor suites test each T_i against each superalgebra generator
    once, over Q(q); the points and premise (iv) read that result."""

    @pytest.mark.parametrize("suite", [suite_schur_weyl, suite_alt_centralizer],
                             ids=["schur-weyl", "alt-centralizer"])
    def test_serial_specialized_run_commutes_only_the_generic_generators(
            self, suite, monkeypatch):
        tested, commutes = [], OperatorMatrix.commutes_with

        def recording(a, b):
            tested.append((a, b))
            return commutes(a, b)

        monkeypatch.setattr(OperatorMatrix, "commutes_with", recording)
        assert suite(1, 1, 3, mode="specialized").passed
        space = GradedSpace(1, 1, 3)
        t_gens, rho = PiRepresentation(space).t_matrices(), rho_generators(space)
        assert len(tested) == (space.r - 1) * len(rho)
        assert tested == [(t, g) for t in t_gens for _, g in rho]


SQUARE_CHECKS = ("flip-squares-to-sign", "flip-anticommutes-with-involutive-generators",
                 "anticommutant-dimension-matches", "flip-maps-commutant-onto-anticommutant",
                 "centralizer-splits-as-direct-sum", "centralizer-dimension-doubles",
                 "conjugation-preserves-commutant", "conjugation-has-order-two",
                 "crossed-system-axioms", "crossed-product-law")


def _identity_flip(space):
    """phi = I: it squares to +1 where the sign is -1 and commutes with T'."""
    return OperatorMatrix.identity(space.dim)


class TestSquareBlockFailures:
    """The square records are decided from premises tested over Q(q) and from
    lengths at the point; each mutation must fail exactly the records that
    depend on what it breaks, in both modes."""

    @pytest.mark.parametrize("target, mutation, failing", [
        ("rho_generators", _extra_generator,
         {"anticommutant-dimension-matches", "flip-maps-commutant-onto-anticommutant",
          "centralizer-splits-as-direct-sum", "centralizer-dimension-doubles",
          "conjugation-preserves-commutant"}),
        # every length stays: only premise (iv) and omega on B's generators tell
        ("rho_generators", _conjugated,
         {"flip-maps-commutant-onto-anticommutant", "centralizer-splits-as-direct-sum",
          "conjugation-preserves-commutant"}),
        # (i) fails, and omega^2 = id and the crossed-product records are
        # decided from it, though sign * phi f phi = -f has order two here
        ("phi_tensor", _identity_flip,
         {"flip-squares-to-sign", "flip-anticommutes-with-involutive-generators",
          "flip-maps-commutant-onto-anticommutant", "centralizer-splits-as-direct-sum",
          "conjugation-has-order-two", "crossed-system-axioms", "crossed-product-law"}),
        # (iii) is T_1's quadratic, which is also the premise of A = C + C T_1;
        # the broken rule leaves every Y, up to scale, and so every length
        ("pi_T", _off_its_quadratic, {"centralizer-splits-as-direct-sum"}),
    ], ids=["extra-generator", "conjugated", "identity-flip", "t1-off-its-quadratic"])
    @pytest.mark.parametrize("mode", ["exact", "specialized"])
    def test_mutation_fails_exactly_its_records(self, target, mutation, failing, mode,
                                                monkeypatch):
        for module in (suites, tensor):
            monkeypatch.setattr(module, target, mutation)
        report = suite_alt_centralizer(1, 1, 3, mode=mode)
        statuses = {}
        for c in report.checks:
            statuses.setdefault(c.name.rpartition(": ")[2], set()).add(c.status)
        assert {name: statuses[name] for name in SQUARE_CHECKS} == {
            name: {"fail" if name in failing else "pass"} for name in SQUARE_CHECKS}
        # a broken premise leaves the records evidence: both points run
        assert mode == "exact" or "point-agreement" in statuses
        assert "proved-at-one-point" not in statuses


class TestAltCentralizerSuite:
    def test_square_records_sample_nothing(self, monkeypatch):
        # the square records are decided from premises (i)-(iv) and lengths
        def refuse(*args):
            raise AssertionError("random.Random called")

        monkeypatch.setattr(random, "Random", refuse)
        assert suite_alt_centralizer(1, 1, 3, mode="exact").passed

    def test_scalar_even_image_at_r2(self):
        report = suite_alt_centralizer(1, 1, 2)
        assert report.passed
        checks = check_map(report)
        assert checks["even-image-dimension"].actual == "1"
        assert checks["even-centralizer-dimension"].actual == "16"
        assert checks["centralizer-dimension-doubles"].actual == "16"

    def test_general_case_dimensions(self):
        report = suite_alt_centralizer(2, 0, 3)
        assert report.passed
        checks = check_map(report)
        assert checks["even-image-dimension"].actual == "3"
        assert checks["hecke-image-dimension"].actual == "5"
        assert "flip-squares-to-sign" not in checks   # only for m == n

    def test_collapse_fails_when_a_generator_breaks_the_quadratic(self, monkeypatch):
        # the 3 T_j - (q - q^-1) generate the same algebra, so every length
        # stays at 42; only the premise T_j^2 = (q - q^-1) T_j + 1 of
        # A = C + C T_1 can fail
        break_the_quadratic(monkeypatch)
        report = suite_alt_centralizer(2, 0, 5)
        assert not report.passed
        for name in ("hecke-image-dimension", "small-row-collapse"):
            records = [c for c in report.checks if c.name.endswith(": " + name)]
            assert len(records) == 2 and all(c.status == "fail" for c in records), name
        checks = check_map(report)
        assert checks["q=2: even-image-dimension"].status == "pass"
        assert checks["q=2: hecke-image-dimension"].actual == "42"
        assert checks["q=2: small-row-collapse"].actual == "dims 42 vs 42 (differ)"

    @staticmethod
    def _count_calls(monkeypatch, name):
        """The results of every call the suites make to ``suites.<name>``."""
        calls, original = [], getattr(suites, name)

        def counting(*args, **kwargs):
            calls.append(original(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(suites, name, counting)
        return calls

    @pytest.mark.parametrize("gens, status, actual", [
        # upper triangular (x) I_4: its double commutant M_2 (x) I_4 is larger
        ([((0, 0),), ((0, 1),)], "fail", "dims 4 vs 3"),
        # K[N] (x) I_4 with N^2 = 0: not semisimple, yet its own double commutant
        ([((0, 1),)], "pass", "dims 2 vs 2"),
    ], ids=["upper-triangular", "dual-numbers"])
    def test_double_commutant_of_a_non_semisimple_image_is_eliminated(
            self, gens, status, actual, monkeypatch):
        # the trace form of either image is degenerate, so only the
        # elimination of D's commutant can decide the record
        space = GradedSpace(2, 0, 3)
        x_gens = [OperatorMatrix(8, {(a * 4 + x, b * 4 + x): Fraction(1)
                                     for (a, b) in units for x in range(4)})
                  for units in gens]
        t_gens = PiRepresentation(space).hecke_generators(2)[0]
        calls = self._count_calls(monkeypatch, "commutant_basis")
        report = Report("core", {})
        suites._alt_centralizer_core(report, Fraction(2), space, predicted_dimensions(2, 0, 3),
                                     True, (t_gens, [], x_gens))
        record = check_map(report)["double-commutant-returns-even-image"]
        assert (record.status, record.actual) == (status, actual)
        assert len(calls) == 2      # D, then D's commutant

    @pytest.mark.parametrize("certified, calls", [(True, 0), (False, 4)],
                             ids=["certificate", "forced-fallback"])
    def test_double_commutant_is_eliminated_only_without_the_certificate(
            self, certified, calls, monkeypatch):
        # serial (2,1,3): no commutant where the trace form is nondegenerate
        # (the Casimir gives len(D)), D and its commutant at each point where
        # the fallback runs
        if not certified:
            monkeypatch.setattr(suites, "trace_form_certificate", lambda alg: (False, None))
        counted = self._count_calls(monkeypatch, "commutant_basis")
        report = suite_alt_centralizer(2, 1, 3)
        assert report.passed
        assert len(counted) == calls

    def test_square_block_builds_its_generic_generators_once(self, monkeypatch):
        # specialized (1,1,3): the premises are tested over Q(q) before
        # the points split, and no point tests membership in an anticommutant
        rho, phi, anti = (self._count_calls(monkeypatch, name) for name in
                          ("rho_generators", "phi_tensor", "anticommutant_basis"))
        searched = []
        contains = commutant.AlgebraBasis.contains

        def recording(alg, matrix):
            searched.append(alg)
            return contains(alg, matrix)

        monkeypatch.setattr(commutant.AlgebraBasis, "contains", recording)
        report = suite_alt_centralizer(1, 1, 3, mode="specialized")
        assert report.passed
        # one anticommutant: given (i)-(iv) the first point's pass is a proof
        assert (len(rho), len(phi), len(anti)) == (1, 1, 1)
        assert searched and not any(alg is bd for alg in searched for bd in anti)

    def test_collapse_regime_small(self):
        report = suite_alt_centralizer(1, 0, 2)
        assert report.passed
        assert "small-row-collapse" in check_map(report)

    def test_unbalanced_grading_exact(self):
        report = suite_alt_centralizer(1, 2, 2, mode="exact", bound=64)
        assert report.passed
        checks = check_map(report)
        assert checks["hecke-image-dimension"].actual == "2"
        assert checks["even-image-dimension"].actual == "1"
        assert "flip-squares-to-sign" not in checks

    def test_unbalanced_grading_specialized_default(self):
        report = suite_schur_weyl(2, 1, 2)   # dim 9 picks specialized mode
        assert report.passed
        assert report.params["mode"] == "specialized"


class TestHeckeImageFromEvenImage:
    """Given T_j^2 = (q - q^-1) T_j + 1 for every j, A = C + C T_1, so the
    alt-centralizer core and `verify specialize` read len(A) off C and never
    close the T's; the closure of the T's and C built from the X_i = T'_1
    T'_{i+1} are the oracles."""

    @staticmethod
    def _core_checks(m, n, r, point):
        space = GradedSpace(m, n, r)
        rep = PiRepresentation(space)
        assert suites._quadratic(space)
        report = Report("core", {})
        suites._alt_centralizer_core(report, point, space, predicted_dimensions(m, n, r),
                                     True, rep.hecke_generators(point))
        return rep, check_map(report)

    @pytest.mark.parametrize("m, n, r, field", [
        (2, 1, 3, "q=2"), (1, 2, 3, "q=2"), (2, 0, 4, "q=2"), (3, 0, 3, "q=2"),
        (1, 1, 4, "q=2"), (2, 1, 2, "q=2"), (1, 1, 3, "Q(q)"), (1, 0, 3, "Q(q)"),
        (1, 1, 3, "q=1"), (2, 0, 4, "q=1"), (1, 1, 3, "q=-1"), (2, 0, 4, "q=-1"),
        (2, 1, 3, "q=-1")])
    def test_hecke_image_length_is_the_closure_of_the_ts(self, m, n, r, field):
        # A = C + C T_1 holds at every rational point, q = +-1 included, where
        # t + t^-1 = +-2; the seeded stream never draws +-1
        point = {"Q(q)": None, "q=2": Fraction(2), "q=1": Fraction(1),
                 "q=-1": Fraction(-1)}[field]
        rep, checks = self._core_checks(m, n, r, point)
        t_gens = rep.t_matrices()
        if point is not None:
            t_gens = [specialize_matrix(g, point) for g in t_gens]
        record = checks["hecke-image-dimension"]
        assert record.status == "pass"
        assert record.actual == str(len(span_closure(t_gens)))

    @pytest.mark.parametrize("shape", [(2, 1, 3), (1, 1, 4), (2, 0, 4)],
                             ids=lambda s: "-".join(map(str, s)))
    @pytest.mark.parametrize("point", [Fraction(2), Fraction(15, 7), 1, 2, Fraction(-3, 2)],
                             ids=["q=2", "q=15/7", "int-1", "int-2", "q=-3/2"])
    def test_even_generators_at_a_point_are_proportional_to_the_xs(self, shape, point):
        # integer matrices of content 1, each a nonzero multiple of X_i(t),
        # built from the two-site rule
        rep = PiRepresentation(GradedSpace(*shape))
        x_gens = rep.hecke_generators(point)[2]
        for scaled, x in zip(x_gens, rep.x_matrices(), strict=True):
            value = specialize_matrix(x, point)
            assert all(type(v) is int for v in scaled.entries.values())
            assert gcd(*scaled.entries.values()) == 1
            key = next(iter(value.entries))
            assert value.scale(Fraction(scaled.entries[key]) / value.entries[key]) == scaled

    @pytest.mark.parametrize("shape", [(1, 1, 3), (2, 0, 3)], ids=["1-1-3", "2-0-3"])
    def test_even_image_from_laurent_generators_has_the_length_of_c(self, shape):
        rep = PiRepresentation(GradedSpace(*shape))
        x_tilde = rep.hecke_generators()[2]
        assert all(len(v.den.terms) == 1 for x in x_tilde for v in x.entries.values())
        assert len(span_closure(x_tilde)) == len(span_closure(rep.x_matrices()))

    @staticmethod
    def _recorded_closures(monkeypatch):
        """The generator lists of every closure the suites run, and the T's:
        generic, and at the drawn points and at q = 1 both as values and as
        the integer multiples the suites evaluate."""
        closed, closure = [], suites.span_closure

        def recording(gens):
            closed.append(list(gens))
            return closure(gens)

        monkeypatch.setattr(suites, "span_closure", recording)

        def ts(shape):
            rep = PiRepresentation(GradedSpace(*shape))
            points = [Fraction(1), *draw_points(0)]
            return {*rep.t_matrices(),
                    *(evaluate(g, t) for g in rep.t_matrices() for t in points
                      for evaluate in (specialize_matrix, tensor.integral_specialization)),
                    *(g for t in points for g in rep.hecke_generators(t)[0])}

        return closed, ts

    @pytest.mark.parametrize("shape, mode", [((2, 1, 3), "specialized"), ((1, 1, 3), "exact"),
                                             ((2, 0, 4), "specialized")],
                             ids=["2-1-3-specialized", "1-1-3-exact", "2-0-4-specialized"])
    def test_the_core_never_closes_the_ts(self, shape, mode, monkeypatch):
        closed, ts = self._recorded_closures(monkeypatch)
        assert suite_alt_centralizer(*shape, mode=mode).passed
        assert closed and not any(g in ts(shape) for gens in closed for g in gens)
        assert sum(len(gens) == shape[2] - 2 for gens in closed) == (1 if mode == "exact" else 2)

    @pytest.mark.parametrize("shape", [(1, 1, 3), (2, 1, 3), (2, 0, 4)],
                             ids=lambda s: "-".join(map(str, s)))
    def test_specialize_never_closes_the_ts_nor_reads_the_xs(self, shape, monkeypatch):
        # both ranks are read off C, at the two drawn points and at q = 1
        closed, ts = self._recorded_closures(monkeypatch)

        def refuse(rep):
            raise AssertionError("PiRepresentation.x_matrices called")

        monkeypatch.setattr(PiRepresentation, "x_matrices", refuse)
        assert suite_specialization(*shape).passed
        assert len(closed) == 3 and all(len(gens) == shape[2] - 2 for gens in closed)
        assert not any(g in ts(shape) for gens in closed for g in gens)

    @pytest.mark.parametrize("shape, digest", [
        ((1, 1, 3), "6682e1c25ce59366899ce8e857bf039fd9fa6417e0f63f17a19f6d3fbef11df8"),
        ((2, 1, 3), "25b52c40549ecce23eff3ab38ca2469a7e13ee1ff19ef1f52806fa1d062c15cd"),
    ], ids=["1-1-3", "2-1-3"])
    def test_specialize_closes_c_once_per_distinct_point(self, shape, digest, monkeypatch):
        # q = 1 among the points: its ranks serve the classical-point record too
        closed, _ = self._recorded_closures(monkeypatch)
        report = suite_specialization(*shape, points=[1, -1])
        assert len(closed) == 2
        text = json.dumps(report.as_dict(), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestTwoSitePremise:
    """The quadratic is decided once over Q(q) on the two-site block R of
    T_j = 1 (x) R (x) 1; at a point the T_j, Y_j and X~_i come from the
    two-site rule, and no matrix over Q(q) on the tensor space is multiplied."""

    @pytest.mark.parametrize("shape", [(1, 0, 2), (0, 1, 3), (2, 0, 3), (1, 1, 2), (1, 1, 3),
                                       (2, 1, 3), (1, 2, 3), (0, 2, 3), (2, 0, 4), (1, 1, 4)],
                             ids=lambda s: "-".join(map(str, s)))
    @pytest.mark.parametrize("broken", [False, True], ids=["rule", "broken-rule"])
    def test_block_premise_agrees_with_every_t(self, shape, broken, monkeypatch):
        if broken:
            break_the_quadratic(monkeypatch)
        space = GradedSpace(*shape)
        ident = OperatorMatrix.identity(space.dim)
        every_t = all(t * t == t.scale(Q_MINUS_QINV) + ident
                      for t in PiRepresentation(space).t_matrices())
        assert suites._quadratic(space) == every_t == (not broken)

    @pytest.mark.parametrize("mode", ["exact", "specialized"])
    def test_a_broken_rule_fails_only_the_hecke_image(self, mode, monkeypatch):
        # every length stays; the failed premise alone fails the record
        def records(report):
            return [(c.name, c.status, c.expected, c.actual) for c in report.checks]

        clean = records(suite_alt_centralizer(2, 1, 3, mode=mode))
        break_the_quadratic(monkeypatch)
        broken = records(suite_alt_centralizer(2, 1, 3, mode=mode))
        changed = [(a, b) for a, b in zip(clean, broken, strict=True) if a != b]
        names = [b[0] for _, b in changed]
        assert names == (["hecke-image-dimension"] if mode == "exact" else
                         [f"q={t}: hecke-image-dimension" for t in draw_points(0)])
        assert all(a[1:] == ("pass", *b[2:]) and b[1] == "fail" for a, b in changed)

    def test_specialized_run_multiplies_no_field_matrix_on_the_tensor_space(self, monkeypatch):
        field_products, mul = [], OperatorMatrix.__mul__

        def recording(a, b):
            if any(isinstance(v, RationalFunction)
                   for m in (a, b) for v in m.entries.values()):
                field_products.append(a.dim)
            return mul(a, b)

        monkeypatch.setattr(OperatorMatrix, "__mul__", recording)
        assert suite_alt_centralizer(2, 1, 3, mode="specialized").passed
        assert field_products == [9]    # R * R, the quadratic on the 9-dimensional block


class TestIntegerGeneratorsAtAPoint:
    """At a point the suites evaluate each generator as an integer multiple
    of its value (the Hecke generators from the two-site rule, the others by
    `integral_specialization`).  Spans, and so the lengths of
    closures, commutants and anticommutants and the trace form's (verdict,
    length), do not move: the `specialize_matrix` generators are the
    oracle."""

    @pytest.mark.parametrize("shape", [(2, 1, 3), (1, 1, 4), (2, 0, 4), (2, 2, 2)],
                             ids=lambda s: "-".join(map(str, s)))
    @pytest.mark.parametrize("point", [Fraction(15, 7), Fraction(-3, 2)],
                             ids=["q=15/7", "q=-3/2"])
    def test_lengths_equal_those_of_the_values(self, shape, point):
        space = GradedSpace(*shape)
        rep = PiRepresentation(space)
        _, ys, x_tilde = rep.hecke_generators()
        families = {"T": rep.t_matrices(), "rho": [g for _, g in rho_generators(space)],
                    "Y": ys, "X~": x_tilde}
        for name, gens in families.items():
            if not gens:
                continue
            lengths = []
            for evaluate in (tensor.integral_specialization, specialize_matrix):
                at = [evaluate(g, point) for g in gens]
                alg = span_closure(at)
                lengths.append((len(alg), len(commutant_basis(at)),
                                len(anticommutant_basis(at)), trace_form_certificate(alg)))
            assert lengths[0] == lengths[1], name

    @staticmethod
    def _all_ints(span):
        return all(type(v) is int for row in span._by_pivot.values() for v in row.values())

    @pytest.mark.parametrize("shape", [(2, 1, 3), (2, 1, 2)], ids=["2-1-3", "2-1-2"])
    def test_even_image_and_its_residuals_hold_no_fraction(self, shape, monkeypatch):
        # integer generators, the int unit and fraction-free elimination keep
        # C, its span and the span of the residuals of the c T_1 on ints; at
        # r = 2 C is the unit alone
        residual_spans = []

        class Recording(commutant.LinearSpan):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                residual_spans.append(self)

        monkeypatch.setattr(suites, "LinearSpan", Recording)
        space = GradedSpace(*shape)
        rep = PiRepresentation(space)
        c_alg, dim_a = suites._images(rep.hecke_generators(draw_points(0)[0]), space.dim, 1)
        (residuals,) = residual_spans
        assert dim_a == len(c_alg) + residuals.rank > len(c_alg)
        assert all(type(v) is int for m in c_alg.elements for v in m.entries.values())
        assert self._all_ints(c_alg.span()) and self._all_ints(residuals)

    def test_square_block_closures_hold_no_fraction(self, monkeypatch):
        # every closure of the (2,2,3) run, B's in the square block included
        closures, closure_of = [], suites._closure_of

        def recording(gens, dim, one):
            closures.append(closure_of(gens, dim, one))
            return closures[-1]

        monkeypatch.setattr(suites, "_closure_of", recording)
        assert suite_alt_centralizer(2, 2, 3, seed=0).passed
        assert len(closures) == 2    # C, then B; all records pass at the first point
        for alg in closures:
            assert all(type(v) is int for m in alg.elements for v in m.entries.values())
            assert self._all_ints(alg.span())


class TestSpecializationSuite:
    def test_defaults(self):
        report = suite_specialization(1, 1, 3)
        assert report.passed
        checks = check_map(report)
        assert checks["classical-point-matches-sign-permutation"].status == "pass"
        assert checks["hecke-image-rank-at-classical-point"].status == "info"

    def test_explicit_point(self):
        report = suite_specialization(1, 1, 2, points=[2])
        assert report.passed
        assert report.params["points"].startswith("2,")

    def test_two_explicit_points_agree(self):
        from fractions import Fraction
        report = suite_specialization(1, 1, 4, points=[2, Fraction(3, 2)])
        assert report.passed
        assert report.params["points"] == "2,3/2"
        named = {c.name: c for c in report.checks}
        assert named["even-image-rank-agreement"].status == "pass"

    @pytest.mark.parametrize("shape", [(1, 1, 3), (2, 1, 3)], ids=["1-1-3", "2-1-3"])
    def test_rank_records_fail_when_a_generator_breaks_the_quadratic(self, shape, monkeypatch):
        # the 3 T_j - (q - q^-1) generate the same image, and the ranks read
        # off C stay at the prediction; only the premise T_j^2 = (q - q^-1)
        # T_j + 1 of A = C + C T_1 and of T_j(1)^2 = 1 can fail the two records
        ranks = check_map(suite_specialization(*shape))["hecke-image-rank-agreement"].actual
        break_the_quadratic(monkeypatch)
        report = suite_specialization(*shape)
        assert not report.passed
        checks = check_map(report)
        assert checks["hecke-image-rank-agreement"].status == "fail"
        assert checks["hecke-image-rank-agreement"].actual == ranks
        assert checks["classical-point-involutions"].status == "fail"

    def test_rejects_zero_point(self):
        with pytest.raises(ValueError):
            suite_specialization(1, 1, 2, points=[0])
        with pytest.raises(ValueError):
            suite_specialization(1, 1, 2, points=[2, 0])


class TestPointDisagreement:
    """At q = 1 the tensor images degenerate, so the points 1 and 2 disagree
    and the exact rerun over Q(q) must decide the verdict."""

    @pytest.fixture(autouse=True)
    def disagreeing_points(self, monkeypatch):
        monkeypatch.setattr(commutant, "_point_stream",
                            lambda seed: iter([Fraction(1), Fraction(2)]))

    @pytest.mark.parametrize("suite", [suite_schur_weyl, suite_alt_centralizer],
                             ids=["schur-weyl", "alt-centralizer"])
    def test_exact_arbitration_decides(self, suite):
        report = suite(1, 1, 3, mode="specialized")
        assert report.passed
        checks = check_map(report)
        note = checks["point-disagreement"]
        assert note.status == "info"
        assert "points 1, 2" in note.actual
        assert "superalgebra-image-dimension" in note.actual
        assert "q=" not in note.actual
        arbitrated = [c for c in report.checks if c.name.startswith("exact-arbitration: ")]
        assert arbitrated and all(c.status != "fail" for c in arbitrated)
        assert not any(c.name.startswith("q=") for c in report.checks)
        assert "point-agreement" not in checks
        # a closure rank drops at q = 1: the first point proves nothing
        assert "proved-at-one-point" not in checks

    def test_a_differing_value_alone_is_arbitrated(self):
        # equal statuses, different info values: still a disagreement
        def core(report, point):
            report.info("dimension", actual=point)

        report = Report("demo", {})
        suites._certify(report, "specialized", 0, 8, core)
        assert [(c.name, c.actual) for c in report.checks] == [
            ("point-disagreement", "points 1, 2 disagree on: dimension"),
            ("exact-arbitration: dimension", "None"),
        ]

    def test_a_differing_witness_alone_is_not_arbitrated(self):
        # a witness illustrates a failure; the value is status, expected, actual
        def core(report, point):
            report.add("dimension", False, actual="0", witness=f"at {point}")

        report = Report("demo", {})
        suites._certify(report, "specialized", 0, 8, core)
        assert [(c.name, c.witness) for c in report.checks] == [
            ("q=1: dimension", "at 1"), ("q=2: dimension", "at 2"),
            ("point-agreement", None)]

    @pytest.mark.parametrize("suite, digest, arbitrated", [
        (suite_schur_weyl,
         "ecdeb7dc5821c98779519e9e9f1454c12c139e1a989dc76f00093db17badf44b", 4),
        (suite_alt_centralizer,
         "6cccf4e6461ad50a71947277b02912fc84af6f34280938b2722c3e03fe601c5c", 15),
    ], ids=["schur-weyl", "alt-centralizer"])
    def test_arbitrated_report_bytes_are_pinned(self, suite, digest, arbitrated):
        report = suite(1, 1, 3, mode="specialized")
        text = json.dumps(report.as_dict(), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert sum(c.name.startswith("exact-arbitration: ")
                   for c in report.checks) == arbitrated

    def test_arbitration_above_the_exact_bound_is_refused(self, monkeypatch, capsys):
        monkeypatch.setattr(commutant, "EXACT_DIM_BOUND", 4)
        with pytest.raises(SizeBoundError, match="disagreed.*exact-mode bound 4"):
            suite_schur_weyl(1, 1, 3, mode="specialized")
        code = cli.main(["verify", "schur-weyl", "--m", "1", "--n", "1", "--r", "3",
                         "--mode", "specialized"])
        assert code == 2
        assert "disagreed" in capsys.readouterr().err


class TestOnePoint:
    """Where exact premises make every record a proof, `_certify` stops at
    the first point once every pass/fail record passes there."""

    @staticmethod
    def certify(ok, proof):
        seen = []

        def core(report, point):
            seen.append(point)
            report.add("dimension", ok, actual="3")
            report.info("size", actual="9")

        report = Report("demo", {})
        suites._certify(report, "specialized", 0, 8, core, proof)
        return [(c.name, c.status) for c in report.checks], seen

    def test_a_pass_given_the_premises_stops_at_the_first_point(self):
        checks, seen = self.certify(True, "a premise")
        assert seen == draw_points(0)[:1] == [2]
        assert checks == [("q=2: dimension", "pass"), ("q=2: size", "info"),
                          ("proved-at-one-point", "pass")]

    @pytest.mark.parametrize("ok, proof", [(False, "a premise"), (True, None)],
                             ids=["failing-record", "no-premises"])
    def test_otherwise_both_points_run(self, ok, proof):
        checks, seen = self.certify(ok, proof)
        assert seen == draw_points(0) == [2, 15]
        assert [name for name, _ in checks] == [
            "q=2: dimension", "q=2: size", "q=15: dimension", "q=15: size",
            "point-agreement"]

    def test_the_proof_record_names_the_point_and_the_premises(self):
        report = suite_alt_centralizer(1, 1, 3, mode="specialized")
        record = report.checks[-1]
        assert (record.name, record.status) == ("proved-at-one-point", "pass")
        assert record.expected == "every record a proof given premises (i)-(iv)"
        assert record.actual == "all records pass at q=2"
        assert {c.name.partition(": ")[0] for c in report.checks
                if c.name.startswith("q=")} == {"q=2"}


class TestDeterminism:
    @pytest.mark.parametrize("factory", [
        lambda: suite_hecke(3, seed=0),
        lambda: suite_alt(4),
        lambda: suite_schur_weyl(1, 1, 2, seed=0),
        lambda: suite_alt_centralizer(1, 1, 2, seed=0),
        lambda: suite_specialization(1, 1, 2, seed=0),
    ])
    def test_reports_are_reproducible(self, factory):
        first = json.dumps(factory().as_dict(), sort_keys=True)
        second = json.dumps(factory().as_dict(), sort_keys=True)
        assert first == second


class TestReport:
    def test_overall_reflects_failures(self):
        report = Report("demo", {})
        report.add("good", True)
        assert report.passed
        report.add("bad", False, expected="x", actual="y")
        assert not report.passed
        assert [c.name for c in report.failures()] == ["bad"]

    @pytest.mark.parametrize("ok, status, witness", [
        (0, "fail", "w"), (False, "fail", "w"), (1, "pass", None)])
    def test_witness_kept_exactly_on_failure(self, ok, status, witness):
        rec = Report("d").add("bad", ok, witness="w")
        assert (rec.status, rec.witness) == (status, witness)

    def test_info_does_not_fail(self):
        report = Report("demo", {})
        report.info("note", actual="42")
        assert report.passed
        assert report.as_dict()["checks"][0]["status"] == "info"
