import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import qhecke.cli as cli
import qhecke.commutant as commutant
import qhecke.suites as suites
from qhecke.commutant import (
    AlgebraBasis,
    LinearSpan,
    SizeBoundError,
    anticommutant_basis,
    certified_rank,
    certify,
    commutant_basis,
    direct_sum_check,
    draw_points,
    span_closure,
    span_equal,
    specialization_points,
)
from qhecke.hecke import normal_form_words
from qhecke.qfield import LaurentPolynomial, RationalFunction
from qhecke.tensor import (
    GradedSpace,
    OperatorMatrix,
    PiRepresentation,
    phi_tensor,
    rho_generators,
    specialize_matrix,
)

ONE = RationalFunction.one()


# -- independent oracle: dense nullspace dimension at a rational point --------

def brute_force_commutant_dim(generators, dim, t):
    """Dense Fraction Gaussian elimination on the commutation system at q=t."""
    gens = []
    for g in generators:
        dense = [[Fraction(0)] * dim for _ in range(dim)]
        for (i, j), v in g.entries.items():
            dense[i][j] = v.specialize(t)
        gens.append(dense)
    rows = []
    for g in gens:
        for i in range(dim):
            for j in range(dim):
                row = [Fraction(0)] * (dim * dim)
                for k in range(dim):
                    row[i * dim + k] += g[k][j]
                    row[k * dim + j] -= g[i][k]
                if any(row):
                    rows.append(row)
    rank = 0
    ncols = dim * dim
    pivot_rows = []
    for row in rows:
        row = row[:]
        for pcol, prow in pivot_rows:
            if row[pcol]:
                f = row[pcol]
                for c in range(ncols):
                    row[c] -= f * prow[c]
        nz = [c for c in range(ncols) if row[c]]
        if nz:
            p = nz[0]
            inv = 1 / row[p]
            pivot_rows.append((p, [v * inv for v in row]))
            rank += 1
    return ncols - rank


# -- independent oracle: dense Gauss-Jordan over Q --------------------------

def dense_rref(vectors, ncols):
    """(pivot, dense row) pairs of the reduced row echelon form of the span."""
    rows = [[Fraction(vec.get(c, 0)) for c in range(ncols)] for vec in vectors]
    out = []
    for col in range(ncols):
        piv = next((i for i, row in enumerate(rows) if row[col]), None)
        if piv is None:
            continue
        prow = rows.pop(piv)
        prow = [v / prow[col] for v in prow]
        rows = [[a - row[col] * b for a, b in zip(row, prow)] for row in rows]
        out = [(p, [a - row[col] * b for a, b in zip(row, prow)]) for p, row in out]
        out.append((col, prow))
    return out


def dense_residual(vec, rref, ncols):
    res = [Fraction(vec.get(c, 0)) for c in range(ncols)]
    for p, row in rref:
        f = res[p]
        res = [a - f * b for a, b in zip(res, row)]
    return {c: v for c, v in enumerate(res) if v}


def dense_rref_mod(vectors, ncols, p):
    """`dense_rref` over F_p, entries in [0, p); over Q when p is None."""
    if p is None:
        return dense_rref(vectors, ncols)
    rows = [[vec.get(c, 0) % p for c in range(ncols)] for vec in vectors]
    out = []
    for col in range(ncols):
        piv = next((i for i, row in enumerate(rows) if row[col]), None)
        if piv is None:
            continue
        inv = pow(rows[piv][col], -1, p)
        prow = [v * inv % p for v in rows.pop(piv)]
        rows = [[(a - row[col] * b) % p for a, b in zip(row, prow)] for row in rows]
        out = [(q, [(a - row[col] * b) % p for a, b in zip(row, prow)]) for q, row in out]
        out.append((col, prow))
    return out


def dense_residual_mod(vec, rref, ncols, p):
    if p is None:
        return dense_residual(vec, rref, ncols)
    res = [vec.get(c, 0) % p for c in range(ncols)]
    for q, row in rref:
        f = res[q]
        res = [(a - f * b) % p for a, b in zip(res, row)]
    return {c: v for c, v in enumerate(res) if v}


NCOLS = 8
_coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
_sparse = st.dictionaries(st.integers(0, NCOLS - 1), _coeffs, min_size=1, max_size=4)


class TestLinearSpan:
    @given(data=st.data(), base=st.lists(_sparse, min_size=1, max_size=7),
           probes=st.lists(_sparse, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_elimination(self, data, base, probes):
        # dependent rows (combinations of two base rows) join the base rows,
        # and a random order makes later rows take pivots left of earlier ones
        combos = data.draw(st.lists(
            st.tuples(st.integers(0, len(base) - 1), st.integers(0, len(base) - 1),
                      _coeffs, _coeffs), max_size=4))
        rows = list(base)
        for i, j, a, b in combos:
            comb = {}
            for col in base[i].keys() | base[j].keys():
                v = a * base[i].get(col, 0) + b * base[j].get(col, 0)
                if v:
                    comb[col] = v
            rows.append(comb)
        rows = data.draw(st.permutations(rows))

        span = LinearSpan()
        for k, row in enumerate(rows):
            before = span.rank
            grew = span.add(row)
            rref = dense_rref(rows[:k + 1], NCOLS)
            assert span.rank == len(rref) == before + grew
        assert sorted(p for p, _ in span.rows) == [p for p, _ in rref]
        earlier = set()
        for pivot, row in span.rows:
            assert min(row) == pivot and row[pivot] == 1
            assert not earlier & row.keys()
            earlier.add(pivot)
        for vec in rows + probes:
            expected = dense_residual(vec, rref, NCOLS)
            assert span.reduce(vec) == expected
            assert span.contains(vec) == (not expected)

    @pytest.mark.parametrize("modulus", [None, 7, 2**127 - 1], ids=["Q", "F_7", "F_2^127-1"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_dense_elimination_over_each_field(self, modulus, data):
        # the same rows over Q and, as ints with no entry 0 mod p, over F_p
        if modulus is None:
            coeffs = _coeffs
        else:
            coeffs = st.integers(1 - modulus, modulus - 1).filter(lambda v: v % modulus)
        sparse = st.dictionaries(st.integers(0, NCOLS - 1), coeffs, min_size=1, max_size=4)
        base = data.draw(st.lists(sparse, min_size=1, max_size=7))
        rows = list(base)
        for i, j, a, b in data.draw(st.lists(
                st.tuples(st.integers(0, len(base) - 1), st.integers(0, len(base) - 1),
                          coeffs, coeffs), max_size=4)):
            comb = {col: a * base[i].get(col, 0) + b * base[j].get(col, 0)
                    for col in base[i].keys() | base[j].keys()}
            if modulus is not None:
                comb = {col: v % modulus for col, v in comb.items()}
            rows.append({col: v for col, v in comb.items() if v})
        rows = data.draw(st.permutations(rows))
        probes = data.draw(st.lists(sparse, max_size=4))

        def canonical(vec):
            return vec if modulus is None else {c: v % modulus for c, v in vec.items()}

        span = LinearSpan(modulus)
        for k, row in enumerate(rows):
            before = span.rank
            grew = span.add(row)
            rref = dense_rref_mod(rows[:k + 1], NCOLS, modulus)
            assert span.rank == len(rref) == before + grew
        assert sorted(p for p, _ in span.rows) == [p for p, _ in rref]
        earlier = set()
        for pivot, row in span.rows:
            assert min(row) == pivot and row[pivot] == 1
            assert not earlier & row.keys()
            earlier.add(pivot)
            if modulus is not None:
                assert all(type(v) is int and 0 < v < modulus for v in row.values())
        for vec in rows + probes:
            expected = dense_residual_mod(vec, rref, NCOLS, modulus)
            assert canonical(span.reduce(vec)) == expected
            assert span.contains(vec) == (not expected)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_fraction_free_rows_match_elimination_over_fractions(self, data):
        # int vectors with multi-limb entries mixed with Fraction vectors: the
        # stored rows are primitive ints with a positive pivot entry, and rank,
        # rows and residuals are those of elimination over Fraction
        big = st.integers(-2**90, 2**90).filter(bool)
        vectors = st.one_of(
            st.dictionaries(st.integers(0, NCOLS - 1), big, min_size=1, max_size=5), _sparse)
        base = data.draw(st.lists(vectors, min_size=1, max_size=7))
        rows = list(base)
        for i, j, a, b in data.draw(st.lists(
                st.tuples(st.integers(0, len(base) - 1), st.integers(0, len(base) - 1),
                          st.one_of(big, _coeffs), _coeffs), max_size=4)):
            comb = {col: a * base[i].get(col, 0) + b * base[j].get(col, 0)
                    for col in base[i].keys() | base[j].keys()}
            rows.append({col: v for col, v in comb.items() if v})
        rows = [row for row in data.draw(st.permutations(rows)) if row]
        probes = data.draw(st.lists(vectors, max_size=4))

        span = LinearSpan()
        for k, row in enumerate(rows):
            rref = dense_rref(rows[:k], NCOLS)
            new = dense_residual(row, rref, NCOLS)
            assert span.add(row) == bool(new)
            assert span.rank == len(rref) + bool(new)
            if new:   # the new row is the residual, divided by its pivot entry
                pivot, stored = span.rows[-1]
                assert pivot == min(new)
                assert stored == {col: v / new[pivot] for col, v in new.items()}
        for pivot, row in span._by_pivot.items():
            assert all(type(v) is int for v in row.values())
            assert gcd(*row.values()) == 1 and row[pivot] > 0 and min(row) == pivot
        for pivot, row in span.rows:
            assert row[pivot] == 1
        rref = dense_rref(rows, NCOLS)
        for vec in rows + probes:
            expected = dense_residual(vec, rref, NCOLS)
            assert span.reduce(vec) == expected
            assert span.contains(vec) == (not expected)


class TestSpanClosure:
    def test_identity_only(self):
        ident = OperatorMatrix.identity(3)
        assert len(span_closure([ident])) == 1

    def test_quadratic_generator_stabilizes_at_two(self):
        # a generator satisfying a quadratic relation spans {I, T}
        sp = GradedSpace(1, 1, 2)
        t = PiRepresentation(sp).t_matrix(1)
        alg = span_closure([t])
        assert len(alg) == 2

    def test_idempotent(self):
        sp = GradedSpace(1, 1, 2)
        alg = span_closure(PiRepresentation(sp).t_matrices())
        again = span_closure(alg.elements)
        assert len(again) == len(alg)
        assert span_equal(again, alg)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            span_closure([OperatorMatrix.identity(2), OperatorMatrix.identity(3)])
        with pytest.raises(ValueError):
            span_closure([])   # no generator fixes the ambient dimension


class TestCommutant:
    def test_commutant_of_identity_is_everything(self):
        ident = OperatorMatrix.identity(3)
        full = commutant_basis([ident])
        assert len(full) == 9

    def test_empty_constraints_need_dim(self):
        full = commutant_basis([], dim=2)
        assert len(full) == 4
        with pytest.raises(ValueError):
            commutant_basis([])

    def test_hecke_image_commutant_dim_8(self):
        sp = GradedSpace(1, 1, 2)
        rep = PiRepresentation(sp)
        a_alg = span_closure(rep.t_matrices())
        com = commutant_basis(a_alg)
        assert len(com) == 8
        # independent dense oracle at two points
        for t in (Fraction(2), Fraction(7, 2)):
            assert brute_force_commutant_dim(a_alg.generators, sp.dim, t) == 8
        # every basis element genuinely commutes
        for mat in com.elements:
            for g in a_alg.generators:
                assert mat.commutes_with(g)

    @pytest.mark.parametrize("case", [
        "1-1-2-hecke-image", "1-1-3-hecke-image", "exact-1-1-3-even-image",
        "point-2-1-2-hecke-image", "point-2-1-2-hecke-image-at-5-3", "point-2-1-2-scalars",
    ], ids=["2", "3", "exact-1-1-3-even-image", "point-2-1-2-hecke-image",
            "point-2-1-2-hecke-image-at-5-3", "point-2-1-2-scalars"])
    def test_double_commutant_returns_hecke_image(self, case):
        # the commutant of a commutant is the algebra again: Hecke images of
        # (1,1,r) over Q(q), the even image of (1,1,3) over Q(q), and at a
        # point over Q, where q = 5/3 puts 3 and 15 in the denominators
        t = Fraction(5, 3) if case.endswith("5-3") else Fraction(5, 2)
        point_space = GradedSpace(2, 1, 2)
        alg = {
            "1-1-2-hecke-image":
                lambda: span_closure(PiRepresentation(GradedSpace(1, 1, 2)).t_matrices()),
            "1-1-3-hecke-image":
                lambda: span_closure(PiRepresentation(GradedSpace(1, 1, 3)).t_matrices()),
            "exact-1-1-3-even-image":
                lambda: span_closure(PiRepresentation(GradedSpace(1, 1, 3)).x_matrices()),
            "point-2-1-2-hecke-image":
                lambda: span_closure([specialize_matrix(g, t)
                                      for g in PiRepresentation(point_space).t_matrices()]),
            "point-2-1-2-hecke-image-at-5-3":
                lambda: span_closure([specialize_matrix(g, t)
                                      for g in PiRepresentation(point_space).t_matrices()]),
            "point-2-1-2-scalars":
                lambda: span_closure([OperatorMatrix.identity(point_space.dim, Fraction(1))]),
        }[case]()
        assert span_equal(commutant_basis(commutant_basis(alg)), alg)


def _units(dim, *positions):
    """The sum of the matrix units E_ab at the given positions, over Q."""
    return OperatorMatrix(dim, {pos: Fraction(1) for pos in positions})


def _times_identity(m, k):
    """m (x) I_k: entry (a, b) of m at (a*k + x, b*k + x) for every x < k."""
    return OperatorMatrix(m.dim * k, {(a * k + x, b * k + x): v
                                      for (a, b), v in m.entries.items() for x in range(k)})


def _even_image(m, n, r, t=None):
    """C, the algebra the X_i generate: over Q(q), or at q = t."""
    gens = PiRepresentation(GradedSpace(m, n, r)).x_matrices()
    return span_closure(gens if t is None else [specialize_matrix(g, t) for g in gens])


def _sqrt2(k):
    """x (x) I_k for x = [[0, 2], [1, 0]], x^2 = 2: Q(sqrt 2) on k copies of Q^2."""
    return _times_identity(OperatorMatrix(2, {(0, 1): Fraction(2), (1, 0): Fraction(1)}), k)


class TestTraceFormCertificate:
    """`trace_form_certificate` decides the Gram tr(c_i c_j) mod p, over Q(q)
    at `_GRAM_POINT`; it must hold on semisimple algebras only, and only on
    entries with residues there.  Where it holds and len(C) <= dim, the
    Casimir gives len(C'), which must be the length of the eliminated
    commutant."""

    @pytest.mark.parametrize("alg, length", [
        # 9 elements on Q^3: no length, as len(C) > dim
        (lambda: AlgebraBasis(3, [_units(3, (a, b)) for a in range(3) for b in range(3)]), None),
        (lambda: span_closure([_diag(1, 2, 3)]), 3),
    ], ids=["full-matrix-algebra", "diagonal-algebra"])
    def test_semisimple_algebras(self, alg, length):
        assert commutant.trace_form_certificate(alg()) == (True, length)

    @pytest.mark.parametrize("t", [Fraction(2), Fraction(7, 3)], ids=["q=2", "q=7/3"])
    @pytest.mark.parametrize("m, n, r", [(2, 1, 3), (1, 2, 3), (3, 0, 3), (1, 1, 4),
                                         (2, 0, 4), (2, 2, 3), (2, 1, 4)])
    def test_casimir_length_at_a_point(self, m, n, r, t):
        c_alg = _even_image(m, n, r, t)
        d_alg = commutant_basis(c_alg)
        assert len(c_alg) <= c_alg.dim
        assert commutant.trace_form_certificate(c_alg) == (True, len(d_alg))
        if c_alg.dim <= 27:
            assert len(commutant_basis(d_alg)) == len(c_alg)

    @pytest.mark.parametrize("m, n, r", [(1, 1, 3), (1, 0, 3)])
    def test_casimir_length_over_q_of_q(self, m, n, r):
        c_alg = _even_image(m, n, r)
        assert commutant.trace_form_certificate(c_alg) == (True, len(commutant_basis(c_alg)))

    @pytest.mark.parametrize("m, n, r", [(1, 1, 3), (2, 0, 3), (1, 1, 4)])
    def test_even_image_over_q_of_q(self, m, n, r):
        assert commutant.trace_form_certificate(_even_image(m, n, r))[0]

    @pytest.mark.parametrize("gens, length", [
        ([_sqrt2(1)], 2),
        ([_sqrt2(2)], 8),
        # Q(sqrt 2) on two copies of Q^2 and Q on Q^1: 2^2 + 2^2 + 1^2
        ([OperatorMatrix(5, _sqrt2(2).entries), _units(5, (4, 4))], 9),
    ], ids=["once", "twice", "with-a-rational-block"])
    def test_non_split_field(self, gens, length):
        # over Q(sqrt 2) the algebra splits into two blocks of multiplicity k
        alg = span_closure(gens)
        assert len(commutant_basis(alg)) == length
        assert commutant.trace_form_certificate(alg) == (True, length)

    @pytest.mark.parametrize("gens, double_dim", [
        # upper triangular (x) I_4: the unit E_01 spans its radical, and the
        # double commutant is M_2 (x) I_4
        ([_units(2, (0, 0)), _units(2, (0, 1))], 4),
        # K[N] (x) I_4 with N^2 = 0: not semisimple, yet its own double commutant
        ([_units(2, (0, 1))], 2),
    ], ids=["upper-triangular", "dual-numbers"])
    def test_algebras_with_a_radical(self, gens, double_dim):
        # on Q^2 itself, with len(C) = 3 > 2 and 2 = 2, the verdict alone declines
        assert commutant.trace_form_certificate(span_closure(gens)) == (False, None)
        alg = span_closure([_times_identity(g, 4) for g in gens])
        assert commutant.trace_form_certificate(alg) == (False, None)
        assert len(commutant_basis(commutant_basis(alg))) == double_dim
        # the same algebra over Q(q) is declined at the Gram point too
        generic = span_closure([OperatorMatrix(8, {key: RationalFunction.constant(v)
                                                   for key, v in m.entries.items()})
                                for m in alg.generators])
        assert commutant.trace_form_certificate(generic) == (False, None)

    def test_entries_outside_q(self):
        # the Gram of the identity alone is (2), over Q and, evaluated at
        # the Gram point, over Q(q); its commutant is all of M_2
        assert commutant.trace_form_certificate(
            AlgebraBasis(2, [OperatorMatrix.identity(2, Fraction(1))])) == (True, 4)
        assert commutant.trace_form_certificate(
            AlgebraBasis(2, [OperatorMatrix.identity(2, ONE)])) == (True, 4)

    def test_pole_at_the_gram_point(self):
        # 1/(q - 2) has no value at q = 2; 1/(q - 3) has one
        assert commutant._GRAM_POINT == 2

        def inverse_of(root):
            return AlgebraBasis(1, [OperatorMatrix(1, {(0, 0): RationalFunction(
                LaurentPolynomial.one(), LaurentPolynomial({1: 1, 0: -root}))})])

        assert commutant.trace_form_certificate(inverse_of(2)) == (False, None)
        assert commutant.trace_form_certificate(inverse_of(3)) == (True, 1)

    def test_exact_suite_eliminates_no_double_commutant(self, monkeypatch):
        # exact (1,1,3): the certificate holds over Q(q) and gives len(D), so
        # neither D nor its commutant is eliminated
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return commutant_basis(*args, **kwargs)

        monkeypatch.setattr(suites, "commutant_basis", counting)
        report = suites.suite_alt_centralizer(1, 1, 3, mode="exact")
        assert report.passed and report.params["mode"] == "exact"
        assert calls == []

    def test_denominator_divisible_by_p(self, monkeypatch):
        # the Gram is diag(1, 1/9); mod 3 the second element has no residue
        alg = AlgebraBasis(2, [_diag(1, 0), _diag(0, Fraction(1, 3))])
        monkeypatch.setattr(commutant, "_PRIME", 5)
        assert commutant.trace_form_certificate(alg) == (True, 2)
        monkeypatch.setattr(commutant, "_PRIME", 3)
        assert commutant.trace_form_certificate(alg) == (False, None)

    def test_degenerate_gram_mod_a_small_prime_keeps_the_report(self, monkeypatch, tmp_path):
        # 11 divides the Gram determinant of C at both points of (2,1,3) and
        # no denominator there, so the certificate fails and the suite
        # eliminates D and D's commutant at each point: the same report
        def report_bytes(path):
            assert cli.main(["verify", "alt-centralizer", "--m", "2", "--n", "1", "--r", "3",
                             "--out", str(path)]) == 0
            return path.read_bytes()

        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return commutant_basis(*args, **kwargs)

        expected = report_bytes(tmp_path / "certified.json")
        monkeypatch.setattr(commutant, "_PRIME", 11)
        for t in draw_points(0):
            c_alg = _even_image(2, 1, 3, t)
            assert all(commutant._residues(c, 11, {}) for c in c_alg.elements)
            assert commutant.trace_form_certificate(c_alg) == (False, None)
        monkeypatch.setattr(suites, "commutant_basis", counting)
        assert report_bytes(tmp_path / "eliminated.json") == expected
        assert len(calls) == 4


def _diag(*values):
    return OperatorMatrix(len(values), {(i, i): Fraction(v) for i, v in enumerate(values)})


@st.composite
def _constraint_sets(draw):
    """Small sparse Fraction matrices, sometimes with a dependent extra one."""
    dim = draw(st.integers(2, 4))
    entry = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    mats = [OperatorMatrix(dim, draw(st.dictionaries(entry, _coeffs, min_size=1,
                                                     max_size=dim + 2)))
            for _ in range(draw(st.integers(1, 3)))]
    extra = draw(st.sampled_from(["none", "multiple", "sum", "scalar"]))
    if extra == "multiple":
        mats.append(mats[0].scale(draw(_coeffs)))
    elif extra == "sum":
        mats.append(mats[0] + mats[-1])
    elif extra == "scalar":
        mats.append(OperatorMatrix.identity(dim, draw(_coeffs)))
    mats = [m for m in mats if m.entries] or [OperatorMatrix.identity(dim, Fraction(1))]
    return mats


def _dense_rows(g, sign):
    """All dim^2 rows of X*G - sign*G*X = 0, built densely in (i, j) order,
    with the empty ones dropped."""
    dim = g.dim
    rows = []
    for i in range(dim):
        for j in range(dim):
            row = {}
            for k in range(dim):
                if (k, j) in g.entries:
                    row[i * dim + k] = row.get(i * dim + k, 0) + g.entries[k, j]
                if (i, k) in g.entries:
                    row[k * dim + j] = row.get(k * dim + j, 0) - sign * g.entries[i, k]
            row = {col: v for col, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


class TestNullspaceOracle:
    """`commutant_basis` and `anticommutant_basis` against the system itself:
    every element X solves X*G = sign*G*X for every constraint G, is 1 at its
    own free column (its largest) and 0 at the other elements' free columns,
    and there are as many elements as dim^2 minus the rank of the dense rows,
    eliminated over `Fraction`.  Solutions, independent and as many as the
    nullity, they are a basis of the solution space."""

    @staticmethod
    def check(build, sign, mats):
        basis = build(mats)
        for x in basis.elements:
            for g in mats:
                assert x * g == (g * x if sign == 1 else -(g * x))
        free = [max(x.flatten()) for x in basis.elements]
        for x, col in zip(basis.elements, free):
            flat = x.flatten()
            assert flat[col] == 1
            assert not flat.keys() & (set(free) - {col})
        dim = mats[0].dim
        rows = [row for g in mats for row in _dense_rows(g, sign)]
        assert len(basis) == dim * dim - len(dense_rref(rows, dim * dim))
        return basis

    @given(mats=_constraint_sets())
    @settings(max_examples=150, deadline=None)
    def test_bases_solve_the_system_and_span_its_nullspace(self, mats):
        self.check(commutant_basis, 1, mats)
        self.check(anticommutant_basis, -1, mats)

    @pytest.mark.parametrize("build, sign, mats, expected_len", [
        (commutant_basis, 1, [_diag(1, 8)], 2),
        # the diagonal sum G[j,j] + G[i,i] cancels at (0, 1) and (1, 0)
        (anticommutant_basis, -1, [_diag(1, -1)], 2),
        (anticommutant_basis, -1, [_diag(1, 6)], 0),
        # entries with denominators: pivots are inverted over Q, never cleared
        (commutant_basis, 1, [_diag(1, Fraction(1, 3))], 2),
        (anticommutant_basis, -1, [_diag(Fraction(1, 3), Fraction(-1, 3))], 2),
    ], ids=["commutant-diag-1-8", "anticommutant-diag-1-minus-1", "anticommutant-diag-1-6",
            "commutant-diag-1-third", "anticommutant-diag-third-minus-third"])
    def test_diagonal_constraints(self, build, sign, mats, expected_len):
        assert len(self.check(build, sign, mats)) == expected_len

    @pytest.mark.parametrize("t", [Fraction(5, 2), Fraction(5, 3)], ids=["5-2", "5-3"])
    def test_suite_systems_at_a_point(self, t):
        # the commutant of the Hecke image and the anticommutant of the T'
        # generators of (2,1,2) at q = t, as the point suites build them
        rep = PiRepresentation(GradedSpace(2, 1, 2))
        t_gens = [specialize_matrix(g, t) for g in rep.t_matrices()]
        tp_gens = [specialize_matrix(g, t) for g in rep.tprime_matrices()]
        d_alg = self.check(commutant_basis, 1, t_gens)
        assert d_alg.elements == commutant_basis(span_closure(t_gens)).elements
        self.check(anticommutant_basis, -1, tp_gens)


@st.composite
def _row_cases(draw):
    """A small sparse matrix with Fraction, int or RationalFunction entries,
    often diagonal ones that cancel, and a sign."""
    dim = draw(st.integers(1, 4))
    entry = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    g = OperatorMatrix(dim, draw(st.dictionaries(entry, _coeffs, min_size=1,
                                                 max_size=dim * dim)))
    if draw(st.booleans()):
        g = g + OperatorMatrix.identity(dim, draw(_coeffs))
    kind = draw(st.sampled_from(["fraction", "integer", "rational-function"]))
    if kind == "integer":       # as the suites' generators enter a point
        g = OperatorMatrix(dim, commutant._integer_form(g.entries)[1])
    elif kind == "rational-function":
        g = OperatorMatrix(dim, {key: RationalFunction.constant(v) * RationalFunction.q(
            draw(st.integers(-1, 1))) for key, v in g.entries.items()})
    return g, draw(st.sampled_from([1, -1]))


class TestCommutationRows:
    @given(case=_row_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_rows(self, case):
        g, sign = case
        assert list(commutant._commutation_rows(g, sign)) == _dense_rows(g, sign)

    def test_residues_are_balanced(self):
        g = OperatorMatrix(2, {(0, 0): Fraction(1), (0, 1): Fraction(3),
                               (1, 0): Fraction(1, 2), (1, 1): Fraction(-1)})
        assert commutant._residues(g, 7, {}).entries == {
            (0, 0): 1, (0, 1): 3, (1, 0): -3, (1, 1): -1}


_INT_CASES = {
    "upper-triangular": [OperatorMatrix(2, {(0, 0): 2, (0, 1): 3, (1, 1): 5})],
    "signed-diagonal": [OperatorMatrix(2, {(0, 0): 1, (1, 1): -1})],
    "two-3x3": [OperatorMatrix(3, {(0, 1): 2, (1, 2): -3, (2, 0): 1}),
                OperatorMatrix(3, {(0, 0): 4, (1, 1): 4, (2, 2): 7, (2, 1): 1})],
}


class TestIntEntries:
    """Plain int entries are taken as elements of Q."""

    @pytest.mark.parametrize("build", [commutant_basis, anticommutant_basis, span_closure],
                             ids=["commutant", "anticommutant", "closure"])
    @pytest.mark.parametrize("case", sorted(_INT_CASES))
    def test_match_fraction_entries(self, build, case):
        ints = _INT_CASES[case]
        fractions = [OperatorMatrix(m.dim, {k: Fraction(v) for k, v in m.entries.items()})
                     for m in ints]
        got = build(ints)
        assert got.elements == build(fractions).elements
        assert all(type(v) in (int, Fraction) for m in got.elements for v in m.entries.values())

    def test_int_pivot_is_inverted_exactly(self):
        span = LinearSpan()
        assert span.add({1: 2, 3: 3})
        assert span.rows == [(1, {1: 1, 3: Fraction(3, 2)})]
        assert type(span.rows[0][1][1]) is Fraction


class TestAnticommutant:
    def test_square_case_dimension_matches(self):
        sp = GradedSpace(1, 1, 2)
        rep = PiRepresentation(sp)
        anti = anticommutant_basis(rep.tprime_matrices())
        b_alg = span_closure([g for _, g in rho_generators(sp)])
        assert len(anti) == len(b_alg) == 8
        flip = phi_tensor(sp)
        for mat in b_alg.elements:
            assert anti.contains(flip * mat)
        for mat in anti.elements:
            for g in rep.tprime_matrices():
                assert mat.anticommutes_with(g)

    def test_empty_constraints_give_everything(self):
        assert len(anticommutant_basis([], dim=2)) == 4
        with pytest.raises(ValueError):
            anticommutant_basis([])

    def test_trivial_space(self):
        # one-dimensional tensor space: T'_1 acts as identity, so only 0 anticommutes
        sp = GradedSpace(1, 0, 2)
        rep = PiRepresentation(sp)
        anti = anticommutant_basis(rep.tprime_matrices())
        assert len(anti) == 0


class TestDirectSum:
    def test_whole_equals_part(self):
        sp = GradedSpace(1, 1, 2)
        alg = span_closure(PiRepresentation(sp).t_matrices())
        empty = AlgebraBasis(sp.dim, [])
        assert direct_sum_check(alg, alg, empty)

    def test_centralizer_splits(self):
        sp = GradedSpace(1, 1, 2)
        rep = PiRepresentation(sp)
        b_alg = span_closure([g for _, g in rho_generators(sp)])
        flip = phi_tensor(sp)
        phi_b = AlgebraBasis(sp.dim, [flip * m for m in b_alg.elements])
        whole = commutant_basis([], dim=sp.dim)
        assert direct_sum_check(whole, b_alg, phi_b)

    def test_overlapping_parts_rejected(self):
        sp = GradedSpace(1, 1, 2)
        alg = span_closure(PiRepresentation(sp).t_matrices())
        assert not direct_sum_check(alg, alg, alg)


class TestRankCertificates:
    def test_scalar_multiples(self):
        ident = OperatorMatrix.identity(2)
        cert = certified_rank([ident, ident.scale(RationalFunction.constant(2))])
        assert cert.rank == 1 and not cert.exact
        assert len(cert.points) == 2

    def test_word_matrices_rank(self):
        sp = GradedSpace(1, 1, 3)
        rep = PiRepresentation(sp)
        words = [rep.word_matrix(w) for w in normal_form_words(3)]
        spec = certified_rank(words, seed=4)
        exact = certified_rank(words, "exact")
        assert spec.rank == exact.rank == 6
        assert exact.exact

    def test_one_dimensional_space_rank(self):
        # scalar action: all word matrices are q-power multiples of [1]
        sp = GradedSpace(1, 0, 3)
        rep = PiRepresentation(sp)
        words = [rep.word_matrix(w) for w in normal_form_words(3)]
        spec = certified_rank(words)
        exact = certified_rank(words, "exact")
        assert spec.rank == exact.rank == 1

    def test_disagreement_raises_and_arbitrates(self):
        vanishing = OperatorMatrix(
            2, {(0, 0): RationalFunction(LaurentPolynomial({1: 1, 0: -2}))})
        cert = certified_rank([vanishing], points=[Fraction(2), Fraction(3)])
        assert cert.rank == 1 and cert.exact and cert.points == ()

    def test_matrices_of_different_dimensions_rejected(self):
        mats = [OperatorMatrix.identity(2), OperatorMatrix.identity(3)]
        with pytest.raises(ValueError, match="one dimension"):
            certified_rank(mats)
        with pytest.raises(ValueError, match="one dimension"):
            certified_rank(mats, "exact")

    def test_points_avoid_degenerate_values(self):
        for seed in range(5):
            pts = draw_points(seed)
            assert len(pts) == 2 and len(set(pts)) == 2
            assert all(p not in (0, 1, -1) for p in pts)
        assert draw_points(3) == draw_points(3)

    def test_pole_at_drawn_point_triggers_redraw(self):
        # seed 0 draws t=2 first; an entry with a pole there must be skipped
        assert draw_points(0, count=1)[0] == Fraction(2)
        withpole = OperatorMatrix(2, {
            (0, 0): RationalFunction(LaurentPolynomial.one(),
                                     LaurentPolynomial({1: 1, 0: -2}))})
        cert = certified_rank([withpole], seed=0)
        assert cert.rank == 1
        assert Fraction(2) not in cert.points

    def test_pole_at_explicit_point_propagates(self):
        from qhecke.qfield import PoleError
        withpole = OperatorMatrix(2, {
            (0, 0): RationalFunction(LaurentPolynomial.one(),
                                     LaurentPolynomial({1: 1, 0: -2}))})
        with pytest.raises(PoleError):
            certified_rank([withpole], points=[Fraction(2), Fraction(3)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            certified_rank([])


class TestPointPolicy:
    """Certificates take their points as the specialized suites do: explicit
    points checked and filled up to two from the seeded `draw_points` stream,
    and one `certify` compares the values there and arbitrates."""

    # generic rank 1, rank 0 at q = 2 (the first point seed 0 draws)
    VANISHING = OperatorMatrix(
        2, {(0, 0): RationalFunction(LaurentPolynomial({1: 1, 0: -2}))})

    def test_one_explicit_point_is_filled_from_the_stream(self):
        pairs, _ = certify(lambda t: len(specialize_matrix(self.VANISHING, t).entries),
                           lambda: 1, 2, points=[2])
        assert [t for t, _ in pairs] == [2, 15] and [v for _, v in pairs] == [0, 1]
        cert = certified_rank([self.VANISHING], points=[2])
        assert cert.rank == 1 and cert.exact
        ident = OperatorMatrix.identity(2)
        assert certified_rank([ident], points=[15]).points == (15, 2)

    def test_repeated_point_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            certified_rank([self.VANISHING], points=[2, 2])
        with pytest.raises(ValueError, match="nonzero"):
            certified_rank([self.VANISHING], points=[0, 2])

    def test_empty_points_are_drawn(self):
        ident = OperatorMatrix.identity(2)
        assert (certified_rank([ident], points=[], seed=3)
                == certified_rank([ident], seed=3))
        cert = certified_rank([self.VANISHING], points=[])
        assert cert.rank == 1 and cert.exact

    @pytest.mark.parametrize("seed", range(4))
    def test_drawn_points_are_draw_points(self, seed):
        cert = certified_rank([OperatorMatrix.identity(3)], seed=seed)
        assert cert.points == tuple(draw_points(seed))

    def test_pole_takes_the_next_point_of_the_stream(self):
        withpole = OperatorMatrix(2, {
            (0, 0): RationalFunction(LaurentPolynomial.one(),
                                     LaurentPolynomial({1: 1, 0: -2}))})
        assert certified_rank([withpole], seed=0).points == tuple(
            draw_points(0, count=3)[1:])

    def test_a_pole_at_every_point_ends_the_stream(self):
        from qhecke.qfield import PoleError
        points = draw_points(0, count=200)
        assert len(points) == len(set(points)) == 87
        assert not {0, 1, -1} & set(points)
        poles = {divmod(k, 10): RationalFunction(LaurentPolynomial.one(), LaurentPolynomial(
                     {1: t.denominator, 0: -t.numerator})) for k, t in enumerate(points)}
        with pytest.raises(PoleError, match="no two pole-free points"):
            certified_rank([OperatorMatrix(10, poles)])

    def test_matrices_over_q_are_certified(self):
        # entries in Q are their own value at every point
        mats = [OperatorMatrix(2, {(0, 0): Fraction(3, 2), (1, 0): 4}),
                OperatorMatrix.identity(2, Fraction(1))]
        assert certified_rank(mats).rank == 2

    def test_arbitration_above_the_exact_bound_is_refused(self, monkeypatch):
        monkeypatch.setattr(commutant, "EXACT_DIM_BOUND", 1)
        with pytest.raises(SizeBoundError, match="exact-mode bound 1"):
            certified_rank([self.VANISHING], points=[2, 3])
        # an agreement needs no arbitration
        assert certified_rank([OperatorMatrix.identity(2)]).rank == 1

    @staticmethod
    def traced(evaluate):
        """``evaluate`` and the list of points it is called at, in order."""
        seen = []

        def run(t):
            seen.append(t)
            return evaluate(t)

        return run, seen

    def test_an_explicit_pole_at_the_second_point_propagates(self):
        from qhecke.qfield import PoleError

        def evaluate(t):
            if t == 2:
                raise PoleError("pole at 2")
            return t

        run, seen = self.traced(evaluate)
        with pytest.raises(PoleError, match="pole at 2"):
            specialization_points([3, 2], 0, run)
        assert seen == [3, 2]

    def test_an_exception_at_a_point_propagates(self):
        def evaluate(t):
            if t == 5:
                raise ValueError(f"fails at {t}")
            return t

        run, seen = self.traced(evaluate)
        with pytest.raises(ValueError, match="fails at 5"):
            specialization_points([3, 5], 0, run)
        assert seen == [3, 5]

    def test_a_drawn_pole_is_skipped(self):
        from qhecke.qfield import PoleError
        drawn = draw_points(0, count=3)

        def evaluate(t):
            if t == drawn[1]:
                raise PoleError(f"pole at {t}")
            return -t

        run, seen = self.traced(evaluate)
        pairs = specialization_points(None, 0, run)
        assert pairs == [(drawn[0], -drawn[0]), (drawn[2], -drawn[2])]
        assert seen == drawn    # one after the other, in stream order


class TestCertify:
    """`certify` compares the values at the points and arbitrates exactly
    only when they differ, within `EXACT_DIM_BOUND`."""

    @staticmethod
    def never():
        raise AssertionError("exact arbitration must not run")

    def test_agreement_returns_the_pairs_without_arbitration(self):
        pairs, arbitrated = certify(lambda t: 7, self.never, 1000, points=[2, 3])
        assert pairs == [(2, 7), (3, 7)] and arbitrated is None

    def test_disagreement_runs_the_exact_rerun_once(self):
        calls = []

        def exact():
            calls.append(None)
            return "exact"

        pairs, arbitrated = certify(lambda t: t, exact, commutant.EXACT_DIM_BOUND,
                                    points=[2, 3])
        assert pairs == [(2, 2), (3, 3)]
        assert arbitrated == "exact" and len(calls) == 1

    def test_disagreement_above_the_bound_is_refused(self):
        dim = commutant.EXACT_DIM_BOUND + 1
        with pytest.raises(SizeBoundError, match="disagreed") as exc:
            certify(lambda t: t, self.never, dim, points=[2, 3])
        assert f"exact-mode bound {commutant.EXACT_DIM_BOUND}" in str(exc.value)
        assert "points 2 and 3 disagreed" in str(exc.value)


class TestExactRank:
    # exact ranks run the same `LinearSpan` elimination, over Q(q)
    @staticmethod
    def exact(matrices):
        return certified_rank(matrices, "exact").rank

    def test_rational_function_rows(self):
        qp = RationalFunction(LaurentPolynomial({1: 1, -1: 1}))
        row1 = OperatorMatrix(2, {(0, 0): ONE / qp, (0, 1): ONE})
        row2 = OperatorMatrix(2, {(0, 0): ONE, (0, 1): qp})
        assert self.exact([row1, row2]) == 1

    def test_structured_rank_deficiency(self):
        # the 24 word images at (1,1,4) span a space of dimension sum(d^2)
        # over the hooks
        from qhecke.partitions import predicted_dimensions
        sp = GradedSpace(1, 1, 4)
        rep = PiRepresentation(sp)
        words = [rep.word_matrix(w) for w in normal_form_words(4)]
        assert self.exact(words) == predicted_dimensions(1, 1, 4).dimA == 20

    def test_shifted_and_scaled_rows(self):
        # rows that are q-power and rational multiples of each other collapse
        rng = random.Random(21)
        base = {i: RationalFunction(LaurentPolynomial(
            {rng.randint(-2, 2): rng.randint(1, 4)})) for i in range(6)}
        rows = [base,
                {k: v * RationalFunction.q(3) for k, v in base.items()},
                {k: v * RationalFunction.constant(Fraction(-7, 2)) for k, v in base.items()}]
        assert self.exact([OperatorMatrix.from_flat(3, row) for row in rows]) == 1
