import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qhecke.commutant import (
    AlgebraBasis,
    LinearSpan,
    RankDisagreementError,
    anticommutant_basis,
    certified_rank,
    commutant_basis,
    direct_sum_check,
    draw_points,
    rank_with_certificate,
    span_closure,
    span_equal,
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

    @pytest.mark.parametrize("case", ["exact-1-1-3-even-image",
                                      "point-2-1-2-hecke-image",
                                      "point-2-1-2-scalars"])
    def test_early_stop_matches_full_elimination(self, case, monkeypatch):
        # the commutant of a recorded commutant reads fewer constraint
        # matrices than the plain list of the same basis, with the same result
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
        import qhecke.commutant as commutant
        calls = []
        original = commutant._commutation_rows

        def counting(constraint, sign):
            calls.append(constraint)
            return original(constraint, sign)

        monkeypatch.setattr(commutant, "_commutation_rows", counting)
        d_alg = commutant_basis(b_alg)
        assert d_alg._commutant_of is b_alg
        calls.clear()
        double = commutant_basis(d_alg)
        stopped_after = len(calls)
        calls.clear()
        plain = commutant_basis(list(d_alg.elements))
        assert plain._commutant_of is None
        assert stopped_after < len(calls) == len(d_alg)
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
        cert = rank_with_certificate([ident, ident.scale(RationalFunction.constant(2))])
        assert cert.rank == 1 and not cert.exact
        assert len(cert.points) == 2

    def test_word_matrices_rank(self):
        sp = GradedSpace(1, 1, 3)
        rep = PiRepresentation(sp)
        words = [rep.word_matrix(w) for w in normal_form_words(3)]
        spec = rank_with_certificate(words, seed=4)
        exact = rank_with_certificate(words, "exact")
        assert spec.rank == exact.rank == 6
        assert exact.exact

    def test_one_dimensional_space_rank(self):
        # scalar action: all word matrices are q-power multiples of [1]
        sp = GradedSpace(1, 0, 3)
        rep = PiRepresentation(sp)
        words = [rep.word_matrix(w) for w in normal_form_words(3)]
        spec = rank_with_certificate(words)
        exact = rank_with_certificate(words, "exact")
        assert spec.rank == exact.rank == 1

    def test_disagreement_raises_and_arbitrates(self):
        vanishing = OperatorMatrix(
            2, {(0, 0): RationalFunction(LaurentPolynomial({1: 1, 0: -2}))})
        with pytest.raises(RankDisagreementError):
            rank_with_certificate([vanishing], points=[Fraction(2), Fraction(3)])
        cert = certified_rank([vanishing], points=[Fraction(2), Fraction(3)])
        assert cert.rank == 1 and cert.exact

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
        cert = rank_with_certificate([withpole], seed=0)
        assert cert.rank == 1
        assert Fraction(2) not in cert.points

    def test_pole_at_explicit_point_propagates(self):
        from qhecke.qfield import PoleError
        withpole = OperatorMatrix(2, {
            (0, 0): RationalFunction(LaurentPolynomial.one(),
                                     LaurentPolynomial({1: 1, 0: -2}))})
        with pytest.raises(PoleError):
            rank_with_certificate([withpole], points=[Fraction(2), Fraction(3)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            rank_with_certificate([])


class TestExactRank:
    # exact ranks run the same `LinearSpan` elimination, over Q(q)
    @staticmethod
    def exact(matrices):
        return rank_with_certificate(matrices, "exact").rank

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
