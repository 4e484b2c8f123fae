import hashlib
import json
import random
from fractions import Fraction

import pytest

import qhecke.alternating as alternating
import qhecke.cli as cli
import qhecke.commutant as commutant
import qhecke.suites as suites
from qhecke.commutant import commutant_basis, span_closure, span_equal
from qhecke.hecke import HeckeAlgebra, SymmetricGroupTable
from qhecke.partitions import predicted_dimensions
from qhecke.qfield import RationalFunction
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
        # the products are the relation checks and the premises T'_1^2 = 1 and
        # `check_even_closure`, from which the crossed-product records are
        # decided; a sampled or repeated product that creeps back shows here
        # without timing
        calls, units = [], []
        elem_mul = SymmetricGroupTable.elem_mul

        def counted(self, x, y):
            (units if self.one in (x, y) else calls).append(1)
            return elem_mul(self, x, y)

        monkeypatch.setattr(SymmetricGroupTable, "elem_mul", counted)
        assert suite_hecke(6, seed=0).passed
        assert len(calls) <= 130 and len(calls) + len(units) <= 130

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

    @pytest.mark.parametrize("suite", [suite_hecke, suite_alt])
    def test_scaled_x1_fails_the_even_relations(self, suite, monkeypatch):
        build = alternating.x_generator
        monkeypatch.setattr(alternating, "x_generator",
                            lambda rank, i: build(rank, i) * 2 if i == 1 else build(rank, i))
        checks = check_map(suite(5))
        record = checks["even-generator-relations"]
        assert (record.status, record.actual) == (
            "fail", "cubic at X_1; pair cubic at X_1X_2; far involution at X_1X_3; "
                    "far involution at X_3X_1")
        assert [c.name for c in checks.values() if c.status == "fail"] == [
            "even-generator-relations"]

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

    def test_specialized_mode_agrees(self):
        report = suite_schur_weyl(1, 1, 2, mode="specialized")
        assert report.passed
        assert any(c.name == "point-agreement" for c in report.checks)

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
        t_gens = PiRepresentation(space).t_matrices()
        rho = rho_generators(space)
        rho_gens = [g for _, g in rho]
        report = Report("core", {})
        suites._schur_weyl_core(report, point, space, t_gens, rho_gens,
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
        monkeypatch.setattr(commutant, "_may_fork", lambda: False)
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
    ], ids=["extra-generator", "conjugated", "identity-flip"])
    @pytest.mark.parametrize("mode", ["exact", "specialized"])
    def test_mutation_fails_exactly_its_records(self, target, mutation, failing, mode,
                                                monkeypatch):
        monkeypatch.setattr(suites, target, mutation)
        report = suite_alt_centralizer(1, 1, 3, mode=mode)
        statuses = {}
        for c in report.checks:
            statuses.setdefault(c.name.rpartition(": ")[2], set()).add(c.status)
        assert {name: statuses[name] for name in SQUARE_CHECKS} == {
            name: {"fail" if name in failing else "pass"} for name in SQUARE_CHECKS}
        assert mode == "exact" or "point-agreement" in statuses


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

    def test_collapse_fails_when_the_even_image_leaves_the_hecke_image(self):
        # conjugated X's span a conjugate of C: both images keep dimension 42,
        # so only the membership of the X's in A can fail the collapse
        space = GradedSpace(2, 0, 5)
        rep = PiRepresentation(space)
        x_gens = [_swapped(g) for g in rep.x_matrices()]
        rep.x_matrices = lambda: x_gens
        report = Report("core", {})
        suites._alt_centralizer_core(report, Fraction(2), space, rep,
                                     predicted_dimensions(2, 0, 5))
        checks = check_map(report)
        assert checks["even-image-dimension"].actual == "42"
        assert checks["hecke-image-dimension"].actual == "42"
        assert checks["small-row-collapse"].status == "fail"
        assert checks["small-row-collapse"].actual == "dims 42 vs 42 (differ)"

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
        rep = PiRepresentation(space)
        x_gens = [OperatorMatrix(8, {(a * 4 + x, b * 4 + x): Fraction(1)
                                     for (a, b) in units for x in range(4)})
                  for units in gens]
        rep.x_matrices = lambda: x_gens
        calls = self._count_calls(monkeypatch, "commutant_basis")
        report = Report("core", {})
        suites._alt_centralizer_core(report, Fraction(2), space, rep,
                                     predicted_dimensions(2, 0, 3))
        record = check_map(report)["double-commutant-returns-even-image"]
        assert (record.status, record.actual) == (status, actual)
        assert len(calls) == 2      # D, then D's commutant

    @pytest.mark.parametrize("certified, calls", [(True, 2), (False, 4)],
                             ids=["certificate", "forced-fallback"])
    def test_double_commutant_is_eliminated_only_without_the_certificate(
            self, certified, calls, monkeypatch):
        # serial (2,1,3): one commutant per point where the trace form is
        # nondegenerate, two where the fallback runs
        monkeypatch.setattr(commutant, "_may_fork", lambda: False)
        if not certified:
            monkeypatch.setattr(suites, "trace_form_is_nondegenerate", lambda alg: False)
        counted = self._count_calls(monkeypatch, "commutant_basis")
        report = suite_alt_centralizer(2, 1, 3)
        assert report.passed
        assert len(counted) == calls

    def test_square_block_builds_its_generic_generators_once(self, monkeypatch):
        # serial specialized (1,1,3): the premises are tested over Q(q) before
        # the points split, and no point tests membership in an anticommutant
        monkeypatch.setattr(commutant, "_may_fork", lambda: False)
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
        assert (len(rho), len(phi), len(anti)) == (1, 1, 2)
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


class TestDeterminism:
    @pytest.mark.parametrize("factory", [
        lambda: suite_hecke(3, seed=0),
        lambda: suite_alt(4, seed=0),
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
