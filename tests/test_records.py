"""The plain record classes and the start-up cost of importing the CLI."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qhecke.alternating import enumerate_even_basis
from qhecke.commutant import AlgebraBasis, RankCertificate, span_closure
from qhecke.partitions import hook_classify, predicted_dimensions
from qhecke.qfield import SpecializationPoint
from qhecke.report import CheckRecord, Report
from qhecke.tensor import GradedSpace, OperatorMatrix, RootDatum

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ("cli", "suites", "partitions", "alternating", "hecke", "tensor", "commutant", "qfield")
# stdlib modules a `qhecke.cli` process should not pay for: `dataclasses`
# imports `inspect`, which imports `ast`, `dis`, `tokenize` and more
HEAVY = ("dataclasses", "inspect")


def outside_imports() -> set[str]:
    """Every module that the sources under src/qhecke import from outside the package."""
    names = set()
    for path in sorted((SRC / "qhecke").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    return names


def modules_after(statement: str) -> set[str]:
    """The names in `sys.modules` of a fresh interpreter after ``statement``."""
    code = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return set(out.split())


class TestStartup:
    def test_no_source_imports_dataclasses(self):
        names = outside_imports()
        assert "fractions" in names          # the scan sees the package's imports
        assert not {n for n in names if n.partition(".")[0] == "dataclasses"}

    def test_cli_import_loads_every_layer_and_nothing_heavy(self):
        loaded = modules_after("import qhecke.cli")
        # the perfbench tracer looks each layer up in sys.modules after this import
        assert {f"qhecke.{layer}" for layer in LAYERS} <= loaded
        # whatever the other stdlib imports pull in on this Python version is not qhecke's cost
        others = sorted(outside_imports() - set(HEAVY))
        baseline = modules_after("\n".join(f"import {name}" for name in others))
        assert not set(HEAVY) & (loaded - baseline)


def frozen_samples():
    """Two independently built copies of each frozen record."""
    def build():
        return [GradedSpace(1, 1, 2), RootDatum(1, 1), SpecializationPoint(Fraction(3, 2)),
                hook_classify(1, 1, 3), predicted_dimensions(1, 1, 2), enumerate_even_basis(3),
                RankCertificate(2, (Fraction(2),), exact=False)]
    return list(zip(build(), build()))


class TestFrozenRecords:
    @pytest.mark.parametrize("a, b", frozen_samples(), ids=lambda r: type(r).__name__)
    def test_equal_records_hash_alike(self, a, b):
        assert a is not b and a == b and hash(a) == hash(b) and {a: 1}[b] == 1

    @pytest.mark.parametrize("a, b", frozen_samples(), ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_assigned_or_deleted(self, a, b):
        field = next(iter(vars(a)))
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b

    def test_keywords_repr_and_inequality(self):
        space = GradedSpace(m=1, n=1, r=2)
        assert space == GradedSpace(1, 1, 2) and space != GradedSpace(1, 1, 3)
        assert space != (1, 1, 2) and space != RootDatum(1, 1)
        assert repr(space) == "GradedSpace(m=1, n=1, r=2)"
        assert repr(RankCertificate(rank=3, points=(), exact=True)) == \
            "RankCertificate(rank=3, points=(), exact=True)"

    def test_graded_space_rejects_bad_shapes(self):
        for args in [(0, 0, 1), (-1, 2, 1), (1, 1, 0)]:
            with pytest.raises(ValueError):
                GradedSpace(*args)

    def test_specialization_point_is_a_nonzero_fraction(self):
        with pytest.raises(ValueError):
            SpecializationPoint(0)
        point = SpecializationPoint(2)
        assert point.value == Fraction(2) and type(point.value) is Fraction
        assert point == SpecializationPoint(Fraction(4, 2)) and str(point) == "2"


class TestCheckRecord:
    def test_equality_ignores_the_witness(self):
        a = CheckRecord("c", "fail", "1", "2", witness="w")
        assert a == CheckRecord("c", "fail", "1", "2") == CheckRecord("c", "fail", "1", "2", "v")
        assert a != CheckRecord("c", "fail", "1", "3", witness="w")
        assert a != CheckRecord("d", "fail", "1", "2", witness="w")

    def test_records_and_reports_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(CheckRecord("c", "pass"))
        with pytest.raises(TypeError):
            hash(Report("r"))

    def test_renamed_keeps_outcome_and_witness(self):
        a = CheckRecord("c", "fail", "1", "2", witness="w")
        b = a.renamed("q=2: c")
        assert (b.name, b.status, b.expected, b.actual, b.witness) == ("q=2: c", "fail", "1", "2", "w")
        assert a.name == "c" and b.as_dict() == {**a.as_dict(), "name": "q=2: c"}

    def test_report_defaults_are_fresh(self):
        a, b = Report("r"), Report("r")
        a.add("x", True)
        assert b.checks == [] and b.params == {} and a != b
        assert Report("r", {"m": 1}, []) == Report(name="r", params={"m": 1})


class TestAlgebraBasis:
    def test_generators_are_not_shared(self):
        one = OperatorMatrix.identity(2, Fraction(1))
        a, b = AlgebraBasis(2, [one]), AlgebraBasis(2, [one])
        assert a.generators == [] and a.generators is not b.generators
        a.generators.append(one)
        assert b.generators == []

    def test_equality_and_repr_leave_out_the_cached_span(self):
        gens = [OperatorMatrix.identity(2, Fraction(1))]
        a, b = span_closure(gens), span_closure(gens)
        assert a._span is not None and a._span is not b._span and a == b
        assert "_span" not in repr(a) and repr(a).startswith("AlgebraBasis(dim=2, elements=[")
        assert a.contains(gens[0])
