import json
from fractions import Fraction

import pytest

import qhecke.cli as cli
import qhecke.suites as suites
from qhecke.commutant import commutant_basis, span_closure, span_equal
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

    def test_rank5_full_closure(self):
        report = suite_alt(5)
        assert report.passed
        assert "3600" in check_map(report)["even-basis-closure"].expected


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
        rho_gens = [g for _, g in rho_generators(space)]
        report = Report("core", {})
        suites._schur_weyl_core(report, "", point, space, t_gens, rho_gens,
                                predicted_dimensions(1, 1, 3))
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


class TestAltCentralizerSuite:
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
        suites._alt_centralizer_core(report, "", Fraction(2), space, rep,
                                     predicted_dimensions(2, 0, 5), 0)
        checks = check_map(report)
        assert checks["even-image-dimension"].actual == "42"
        assert checks["hecke-image-dimension"].actual == "42"
        assert checks["small-row-collapse"].status == "fail"
        assert checks["small-row-collapse"].actual == "dims 42 vs 42 (differ)"

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
        report = suite_specialization(1, 1, 2, t=2)
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
            suite_specialization(1, 1, 2, t=0)
        with pytest.raises(ValueError):
            suite_specialization(1, 1, 2, points=[2, 0])


class TestPointDisagreement:
    """At q = 1 the tensor images degenerate, so the points 1 and 2 disagree
    and the exact rerun over Q(q) must decide the verdict."""

    @pytest.fixture(autouse=True)
    def disagreeing_points(self, monkeypatch):
        monkeypatch.setattr(suites, "draw_points", lambda seed: [Fraction(1), Fraction(2)])

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
        def core(report, prefix, point):
            report.info(prefix + "dimension", actual=point)

        report = Report("demo", {})
        suites._certify(report, "specialized", 0, 8, core)
        assert [(c.name, c.actual) for c in report.checks] == [
            ("point-disagreement", "points 1, 2 disagree on: dimension"),
            ("exact-arbitration: dimension", "None"),
        ]

    def test_arbitration_above_the_exact_bound_is_refused(self, monkeypatch, capsys):
        monkeypatch.setattr(suites, "EXACT_DIM_BOUND", 4)
        with pytest.raises(SizeBoundError, match="disagreed"):
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

    def test_info_does_not_fail(self):
        report = Report("demo", {})
        report.info("note", actual="42")
        assert report.passed
        assert report.as_dict()["checks"][0]["status"] == "info"
