import os
import random
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import qhecke.commutant as commutant
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


class TestSpanClosure:
    def test_identity_only(self):
        ident = OperatorMatrix.identity(3)
        assert len(span_closure([ident])) == 1

    def test_quadratic_generator_stabilizes_at_two(self):
        # a generator satisfying a quadratic relation spans {I, T}
        sp = GradedSpace(1, 1, 2)
        t = PiRepresentation(sp).t_matrix(1)
        alg = span_closure([t])
        assert len(alg) == 2 and alg.closed

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

    @pytest.mark.parametrize("r", [2, 3])
    def test_double_commutant_returns_hecke_image(self, r):
        sp = GradedSpace(1, 1, r)
        rep = PiRepresentation(sp)
        a_alg = span_closure(rep.t_matrices())
        double = commutant_basis(commutant_basis(a_alg))
        assert span_equal(double, a_alg)

    @pytest.mark.parametrize("case, prime", [
        ("exact-1-1-3-even-image", None),
        ("point-2-1-2-hecke-image", None),
        ("point-2-1-2-scalars", None),
        # t = 5/2 puts 2 in the denominators, so every nullspace falls back to Q
        ("point-2-1-2-hecke-image", 2),
    ], ids=["exact-1-1-3-even-image", "point-2-1-2-hecke-image", "point-2-1-2-scalars",
            "point-2-1-2-hecke-image-over-Q"])
    def test_early_stop_matches_full_elimination(self, case, prime, monkeypatch):
        # the commutant of a recorded commutant reads fewer constraint
        # matrices than the plain list of the same basis, with the same result;
        # at a point the F_p engine stops early, and the Q engine when it runs
        sp = GradedSpace(2, 1, 2)
        t = Fraction(5, 2)
        b_alg = {
            "exact-1-1-3-even-image":
                lambda: span_closure(PiRepresentation(GradedSpace(1, 1, 3)).x_matrices()),
            "point-2-1-2-hecke-image":
                lambda: span_closure([specialize_matrix(g, t)
                                      for g in PiRepresentation(sp).t_matrices()]),
            "point-2-1-2-scalars":
                lambda: span_closure([OperatorMatrix.identity(sp.dim, Fraction(1))]),
        }[case]()
        if prime is not None:
            monkeypatch.setattr(commutant, "_PRIME", prime)
        calls = []
        original = commutant._commutation_rows

        def counting(constraint, sign):
            calls.append(constraint)
            return original(constraint, sign)

        monkeypatch.setattr(commutant, "_commutation_rows", counting)
        d_alg = commutant_basis(b_alg)
        assert d_alg._commutant_of is b_alg

        def reads():
            # the Q engine reads D's own matrices, the F_p engine their residues
            over_q = sum(1 for g in calls if any(g is e for e in d_alg.elements))
            counts = {"Q": over_q, "F_p": len(calls) - over_q}
            calls.clear()
            return counts

        engine = "F_p" if case.startswith("point") and prime is None else "Q"
        reads()
        double = commutant_basis(d_alg)
        stopped = reads()
        plain = commutant_basis(list(d_alg.elements))
        full = reads()
        assert plain._commutant_of is None
        assert stopped[engine] < full[engine] == len(d_alg)
        if engine == "F_p":
            assert stopped["Q"] == full["Q"] == 0
        assert double.elements == plain.elements
        assert span_equal(double, b_alg)

    def test_only_closed_bases_are_recorded(self):
        sp = GradedSpace(1, 1, 2)
        t_gens = PiRepresentation(sp).t_matrices()
        closed = span_closure(t_gens)
        assert commutant_basis(closed)._commutant_of is closed
        unclosed = AlgebraBasis(sp.dim, list(closed.elements), closed=False)
        assert commutant_basis(unclosed)._commutant_of is None
        assert commutant_basis(t_gens)._commutant_of is None
        assert commutant_basis([], dim=sp.dim)._commutant_of is None
        assert anticommutant_basis(closed)._commutant_of is None


def _q_path(mats, sign, dim):
    """The nullspace basis `_echelon_nullspace` gives over Q."""
    rows = (row for g in mats for row in commutant._commutation_rows(g, sign))
    vecs = commutant._echelon_nullspace(rows, dim * dim, Fraction(1))
    return [OperatorMatrix.from_flat(dim, v) for v in vecs]


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
    return dim, mats


class TestNullspaceAtAPoint:
    """Nullspaces with entries in Q are eliminated mod p, lifted and verified;
    they must be the Q path's bases element for element."""

    @given(case=_constraint_sets())
    @settings(max_examples=150, deadline=None)
    def test_matches_elimination_over_q(self, case):
        dim, mats = case
        for sign, build in ((1, commutant_basis), (-1, anticommutant_basis)):
            expected = _q_path(mats, sign, dim)
            vecs = commutant._nullspace_at_point(mats, sign, dim, None)
            assert vecs is not None     # the F_p path itself answered
            assert [OperatorMatrix.from_flat(dim, v) for v in vecs] == expected
            assert build(mats).elements == expected

    @staticmethod
    def _record_answers(monkeypatch):
        answers = []
        original = commutant._nullspace_at_point

        def recording(*args):
            answers.append(original(*args))
            return answers[-1]

        monkeypatch.setattr(commutant, "_nullspace_at_point", recording)
        return answers

    @pytest.mark.parametrize("build, sign, mats, expected_len", [
        # diag(1, 8) is the identity mod 7: every matrix commutes with it there
        (commutant_basis, 1, [_diag(1, 8)], 2),
        # diag(1, 6) is diag(1, -1) mod 7: the off-diagonal units anticommute there
        (anticommutant_basis, -1, [_diag(1, 6)], 0),
    ], ids=["commutant", "anticommutant"])
    def test_rank_drop_mod_p_falls_back(self, build, sign, mats, expected_len, monkeypatch):
        # the mod-7 basis lifts without trouble and only the exact check rejects it
        monkeypatch.setattr(commutant, "_PRIME", 7)
        answers = self._record_answers(monkeypatch)
        result = build(mats)
        assert answers == [None]
        assert result.elements == _q_path(mats, sign, 2)
        assert len(result) == expected_len

    @pytest.mark.parametrize("prime, t", [(7, Fraction(5, 2)), (3, Fraction(5, 3))],
                             ids=["lifts-rejected-mod-7", "denominator-divisible-by-3"])
    def test_suite_systems_fall_back_to_the_same_bases(self, prime, t, monkeypatch):
        # mod 7 the lifted bases are wrong or do not lift; mod 3 the T
        # matrices at 5/3 have denominators 3 and 15
        sp = GradedSpace(2, 1, 2)
        rep = PiRepresentation(sp)
        a_alg = span_closure([specialize_matrix(g, t) for g in rep.t_matrices()])
        tp_gens = [specialize_matrix(g, t) for g in rep.tprime_matrices()]
        d_alg = commutant_basis(a_alg)
        expected = [d_alg, commutant_basis(d_alg), anticommutant_basis(tp_gens)]
        monkeypatch.setattr(commutant, "_PRIME", prime)
        answers = self._record_answers(monkeypatch)
        d_small = commutant_basis(a_alg)
        got = [d_small, commutant_basis(d_small), anticommutant_basis(tp_gens)]
        assert answers == [None, None, None]
        assert [b.elements for b in got] == [b.elements for b in expected]

    def test_denominator_divisible_by_p_is_never_inverted(self, monkeypatch):
        monkeypatch.setattr(commutant, "_PRIME", 3)
        assert commutant._nullspace_at_point([_diag(1, Fraction(1, 3))], 1, 2, None) is None

    def test_early_stop_at_a_point_reads_no_further_matrix(self, monkeypatch):
        # B = upper triangular, recorded as a commutant of the scalars, so the
        # rank bound is 4 - 1 = 3; diag(1, 2) and E_01 reach it, and the third
        # generator, whose denominator 7 has no inverse mod 7, is never read
        mats = [_diag(1, 2), OperatorMatrix(2, {(0, 1): Fraction(1)}), _diag(Fraction(1, 7), 0)]
        scalars = AlgebraBasis(2, [OperatorMatrix.identity(2, Fraction(1))], closed=True)
        source = AlgebraBasis(2, list(mats), closed=True, generators=list(mats),
                              _commutant_of=scalars)
        monkeypatch.setattr(commutant, "_PRIME", 7)
        answers = self._record_answers(monkeypatch)
        result = commutant_basis(source)
        assert len(answers) == 1 and answers[0] is not None   # F_p answered
        assert result.elements == _q_path(mats, 1, 2)
        assert result.elements == [OperatorMatrix.identity(2, Fraction(1))]

    def test_reconstruction_bound(self):
        p = commutant._PRIME
        bound = isqrt(p // 2)
        assert 2 * bound * bound < p < 2 * (bound + 1) ** 2

        def residue(x):
            return x.numerator * pow(x.denominator, -1, p) % p

        inside = [Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(bound),
                  Fraction(-bound), Fraction(1, bound), Fraction(-bound, bound - 1)]
        for x in inside:
            assert commutant._reconstruct(residue(x), p) == x
        for x in [Fraction(bound + 1), Fraction(-(bound + 1)), Fraction(1, bound + 1),
                  Fraction(bound, bound + 1)]:
            assert commutant._reconstruct(residue(x), p) is None


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


@st.composite
def _row_cases(draw):
    """A small sparse matrix with Fraction, RationalFunction or balanced
    residue entries, often diagonal ones that cancel, and a sign."""
    dim = draw(st.integers(1, 4))
    entry = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    g = OperatorMatrix(dim, draw(st.dictionaries(entry, _coeffs, min_size=1,
                                                 max_size=dim * dim)))
    if draw(st.booleans()):
        g = g + OperatorMatrix.identity(dim, draw(_coeffs))
    kind = draw(st.sampled_from(["fraction", "rational-function", "residue"]))
    p = None
    if kind == "rational-function":
        g = OperatorMatrix(dim, {key: RationalFunction.constant(v) * RationalFunction.q(
            draw(st.integers(-1, 1))) for key, v in g.entries.items()})
    elif kind == "residue":
        p = draw(st.sampled_from([5, 7, commutant._PRIME]))
        g = commutant._residues(g, p, {})
    return g, draw(st.sampled_from([1, -1])), p


class TestCommutationRows:
    @given(case=_row_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_rows(self, case):
        g, sign, p = case
        rows = list(commutant._commutation_rows(g, sign))
        assert rows == _dense_rows(g, sign)
        if p is not None:
            assert all(-p // 2 < v <= p // 2 for v in g.entries.values())
            assert all(-p < v < p and v % p for row in rows for v in row.values())

    def test_residues_are_balanced(self):
        g = OperatorMatrix(2, {(0, 0): Fraction(1), (0, 1): Fraction(3),
                               (1, 0): Fraction(1, 2), (1, 1): Fraction(-1)})
        assert commutant._residues(g, 7, {}).entries == {
            (0, 0): 1, (0, 1): 3, (1, 0): -3, (1, 1): -1}

    def test_diagonal_residues_cancel_mod_p(self):
        # diag(1, -1) reduces to 1 and p - 1 in [0, p), whose sum p would
        # enter the anticommutant rows as a nonzero entry that is 0 mod p
        mats = [_diag(1, -1)]
        expected = _q_path(mats, -1, 2)
        vecs = commutant._nullspace_at_point(mats, -1, 2, None)
        assert vecs is not None
        assert [OperatorMatrix.from_flat(2, v) for v in vecs] == expected
        assert anticommutant_basis(mats).elements == expected
        assert len(expected) == 2


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


class _Unpicklable:
    """A value compared by its point that pickle refuses to carry."""

    def __init__(self, t):
        self.t = t

    def __eq__(self, other):
        return isinstance(other, _Unpicklable) and other.t == self.t

    def __reduce__(self):
        raise TypeError("not picklable")


class TestForkedPoint:
    """`specialization_points` evaluates its second candidate in one forked
    child; every fallback gives the pairs and values of the serial run, and no
    child outlives the call."""

    @staticmethod
    def points(evaluate, points=None, seed=0):
        """The pairs, and the candidates evaluated in this process."""
        parent, here = os.getpid(), []

        def traced(t):
            if os.getpid() == parent:
                here.append(t)
            return evaluate(t)

        return specialization_points(points, seed, traced), here

    @staticmethod
    def serial(evaluate, monkeypatch, **kw):
        with monkeypatch.context() as m:
            m.setattr(commutant, "_may_fork", lambda: False)
            return TestForkedPoint.points(evaluate, **kw)

    def test_the_child_value_is_used(self, monkeypatch):
        pairs, here = self.points(lambda t: (t, t * t))
        assert pairs == self.serial(lambda t: (t, t * t), monkeypatch)[0]
        assert pairs == [(t, (t, t * t)) for t in draw_points(0)]
        assert here == (draw_points(0)[:1] if commutant._may_fork() else draw_points(0))

    def test_an_exception_only_in_the_child_falls_back(self, monkeypatch):
        parent = os.getpid()

        def evaluate(t):
            if os.getpid() != parent:
                raise RuntimeError("child only")
            return 2 * t

        pairs, here = self.points(evaluate, points=[3, 5])
        assert pairs == self.serial(evaluate, monkeypatch, points=[3, 5])[0] == [(3, 6), (5, 10)]
        assert here == [3, 5]

    def test_a_value_pickle_cannot_carry_falls_back(self, monkeypatch):
        pairs, here = self.points(_Unpicklable, seed=4)
        assert pairs == self.serial(_Unpicklable, monkeypatch, seed=4)[0]
        assert here == draw_points(4)

    def test_a_child_that_exits_falls_back(self, monkeypatch):
        parent = os.getpid()

        def evaluate(t):
            if os.getpid() != parent:
                os._exit(1)
            return t + 1

        pairs, here = self.points(evaluate, seed=2)
        assert pairs == self.serial(evaluate, monkeypatch, seed=2)[0]
        assert here == draw_points(2)

    def test_a_failed_fork_runs_serially(self, monkeypatch):
        def refuse():
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", refuse)
        pairs, here = self.points(lambda t: -t, points=[7])
        assert pairs == self.serial(lambda t: -t, monkeypatch, points=[7])[0]
        assert here == [7, draw_points(0)[0]]

    def test_one_usable_cpu_does_not_fork(self, monkeypatch):
        def forbidden():
            raise AssertionError("os.fork must not be called")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", forbidden)
        pairs, here = self.points(lambda t: t)
        assert pairs == [(t, t) for t in draw_points(0)] and here == draw_points(0)

    def test_a_parent_exception_propagates_and_leaves_no_child(self):
        parent = os.getpid()

        def evaluate(t):
            if os.getpid() != parent:
                time.sleep(60)
            raise ValueError(f"parent fails at {t}")

        started = time.monotonic()
        with pytest.raises(ValueError, match="parent fails at 3"):
            specialization_points([3, 5], 0, evaluate)
        assert time.monotonic() - started < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_explicit_pole_at_the_child_point_propagates(self):
        from qhecke.qfield import PoleError

        def evaluate(t):
            if t == 2:
                raise PoleError("pole at 2")
            return t

        with pytest.raises(PoleError, match="pole at 2"):
            specialization_points([3, 2], 0, evaluate)


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
