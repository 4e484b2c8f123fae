"""Exact linear algebra over K: spans, subalgebra closure, commutants, ranks.

Vectors are sparse maps column -> coefficient; matrices enter flattened
row-major.  One elimination engine, `LinearSpan` and `_echelon_nullspace`,
serves both fields a span or nullspace lies over: Q(q) (exact mode) with
``+ - * /``, and Q at a specialization point, fraction-free on ints.  Given a
prime modulus p, `LinearSpan` runs over F_p on plain ints, taking every entry
it writes mod p and inverting with ``pow(c, -1, p)``; that serves only the
trace form and its Casimir (`_inverse_mod`).  Pivots are chosen at the first
nonzero column in lexicographic position, and a vector's residual modulo a
span does not depend on the order its rows are applied in, which makes every
produced basis deterministic.

`LinearSpan` indexes its rows by pivot column, so reducing a vector touches
only the rows whose pivots the vector (or its running residual) reaches, not
every stored row.  A nondegenerate trace form proves the double commutant
without eliminating a commutant's commutant, and its Casimir gives the
commutant's length without eliminating the commutant; see "The double
commutant" and "The commutant's length" below.

One row builder, `_commutation_rows`, makes the commutation rows over both
fields.  It visits only the entries (i, j) whose row can be nonzero,
those where G has an entry in row i or in column j.

The double commutant.  Let C be a unital algebra of matrices over K (Q at
a point, Q(q) in exact mode) acting on V = K^dim, with basis c_1..c_n,
closed under products, and let D = C' be its commutant, as `commutant_basis`
returns it (commuting with the generators is commuting with the algebra they
generate).  The certificate `trace_form_certificate` proves C'' = C,
hence dim D' = n, without eliminating D's basis (Curtis-Reiner,
*Representation Theory of Finite Groups and Associative Algebras*, sections 3
and 25; Jacobson, *Basic Algebra II*, section 4.3):

* it reduces the c_i mod p with `_residues`; reduction Z_(p) -> F_p is a ring
  map, so the Gram matrix tr(c_i c_j) mod p is the reduction of the Gram
  over Q, and rank_p(Gram) = n makes its determinant nonzero mod p, so
  det(Gram) != 0 over Q;
* over Q(q) it first evaluates the c_i at the fixed point `_GRAM_POINT`.
  Every entry lies in the local ring of Q(q) at that point (a pole there
  declines), and evaluation is a ring map on it, so the Gram of the
  evaluated c_i is the evaluation of the Gram: its determinant, nonzero at
  the point by the step above, is nonzero over Q(q).  Either way the trace
  form of C is nondegenerate;
* any x in the radical of C makes every xy, y in C, an element of that
  nilpotent ideal, so tr(xy) = 0; nondegeneracy gives x = 0.  So rad(C) = 0
  and C is semisimple;
* V is then a semisimple C-module, and the density theorem gives
  End_{C'}(V) = C, that is C'' = C.

A Gram of lower rank proves nothing either way: a non-semisimple algebra
can be its own double commutant (K[N], N^2 = 0) or not (the upper
triangular 2 x 2 matrices), so then eliminating D's commutant decides.

The commutant's length.  When the certificate holds, the same Gram G is
nondegenerate over the algebraic closure, so there C = + M_{d_k} is
semisimple and V = + S_k^{m_k}, with tr_V = m_k tr on block k.  In block k
the matrix units E_ab and E_ba / m_k are dual under the trace form, so the
Casimir Omega = sum_i c_i c^i, with c^i = sum_j (G^-1)_ij c_j, is
sum_k (d_k / m_k) e_k, and tr_V(Omega^-1) = sum_k m_k^2 = dim C' (the
dimension of a nullspace does not change with the field).
`trace_form_certificate` computes it mod p from the same residues and Gram,
when n <= dim.  That cut is measured: per point, the Casimir took 0.02-0.7
times the time of eliminating C' on the tensor shapes with n/dim <= 0.75,
and 1.7-12 times on those with n/dim >= 1.09; no shape up to dim 81 lies
between.  The length is exact:

* G is a unit mod p, so G^-1 and Omega lie over Z_(p) and reduce to the
  G^-1 and Omega computed mod p;
* det Omega = prod_k (d_k / m_k)^(d_k m_k), and d_k, m_k <= dim < p, so it
  is a p-unit, Omega^-1 reduces too, and tr(Omega^-1) mod p is the residue
  of the integer dim C' in [0, dim^2]; as dim^2 < p, it is that integer;
* over Q(q), G, its inverse and Omega lie in the local ring at
  `_GRAM_POINT` (the first step above) and evaluate there to those of the
  evaluated basis, whose Omega has a unit determinant by the second step:
  the structure constants G^-1 (tr(c_i c_j c_l))_l lie in the local ring too,
  so the evaluated basis spans a unital algebra that the certificate makes
  semisimple.  So Omega^-1 lies in the local ring, and tr(Omega^-1), the
  constant dim C' over Q(q), is what the point gives: the generic length.

Specialization points come from one seeded stream; `draw_points(seed)` is
its start.  One policy, `specialization_points`, takes the points: explicit
ones must be rational, nonzero and distinct, and fewer than two are filled
up to two from the stream, skipping the explicit ones; a drawn point at a
pole gives way to the next point of the stream, while a pole at an explicit
point propagates.  The candidates are evaluated one after the other, in this
process (`_evaluations`).  One certification path serves the rank
certificate `certified_rank`, through `certify`, and the tensor suites,
through `suites._certify`, which may stop after the first point: the values
at the points must all agree.  On a disagreement the exact computation over
Q(q) decides (`_arbitrate`), and is refused with `SizeBoundError` above
`EXACT_DIM_BOUND`.  `certified_rank` evaluates the rank of the specialized
matrices (`specialize_matrix`); its exact rank, the `LinearSpan` elimination
over Q(q), can also be requested outright.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Sequence

from .qfield import PoleError, RationalFunction, _axpy
from .report import FrozenRecord, Record
from .tensor import OperatorMatrix, specialize_matrix

EXACT_DIM_BOUND = 64


class SizeBoundError(ValueError):
    """The requested instance exceeds the configured tensor-space bound."""


class ClosureError(RuntimeError):
    """Product closure failed to stabilize within the round bound."""


# ---------------------------------------------------------------------------
# incremental sparse echelon span
# ---------------------------------------------------------------------------

class LinearSpan:
    """Row space with incremental insertion.

    Each stored row is nonzero at its pivot, its smallest column, and 0 at the
    pivots of the rows stored before it.  Hence a vector's residual modulo the
    span -- the vector minus the combination of rows that clears every pivot
    column -- is unique, whatever order the rows are applied in.

    Over Q(q) rows are 1 at their pivot.  Over Q (no ``modulus``) they are
    primitive int vectors with a positive pivot entry, and a `Fraction`
    vector is scaled to ints as it enters; `_clear` takes integer
    combinations only and gives the vector times a nonzero integer minus a
    combination of rows that clears every pivot: a nonzero multiple of the
    unique residual, 0 exactly when it is and spanning its line, so rank and
    membership are exact without a `Fraction`.  `reduce` divides that
    multiplier out; `rows` divides each row by its pivot entry.

    With a prime ``modulus`` p the span lies over F_p: entries are ints, every
    entry it writes is taken mod p, rows are 1 at their pivot, and pivots are
    inverted by ``pow(c, -1, p)``.  Vectors given to it must hold no entry
    that is 0 mod p.
    """

    __slots__ = ("_by_pivot", "_modulus")

    def __init__(self, modulus: int | None = None):
        self._by_pivot: dict[int, dict] = {}   # pivot column -> row, in insertion order
        self._modulus = modulus

    @property
    def rows(self) -> list[tuple[int, dict]]:
        """(pivot column, row vector) pairs in insertion order, each row 1 at
        its pivot."""
        return [(pivot, row if type(d := row[pivot]) is not int or d == 1
                 else {col: Fraction(v, d) for col, v in row.items()})
                for pivot, row in self._by_pivot.items()]

    @property
    def rank(self) -> int:
        return len(self._by_pivot)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec modulo the span (vec is not modified): over Q the
        residual up to scale of `_clear`, divided by its multiplier."""
        res = dict(vec)
        scale = self._clear(res)
        return res if scale == 1 else {col: Fraction(v, scale) for col, v in res.items()}

    def _clear(self, vec: dict) -> int:
        """`reduce` in place up to scale: vec becomes m times its residual, for
        the returned multiplier m (1 except over Q).

        The pivot columns present in the residual wait in a heap and are
        cleared smallest first.  A row with pivot k only adds columns > k, so
        a cleared pivot never returns and rows the residual never reaches are
        not visited.  Over Q, vec is scaled to ints first.
        """
        by_pivot, p = self._by_pivot, self._modulus
        scale = 1
        if p is None and Fraction in map(type, vec.values()):
            scale, ints = _integer_form(vec)
            vec.update(ints)
        heap = [col for col in vec if col in by_pivot]
        heapq.heapify(heap)
        while heap:
            pivot = heapq.heappop(heap)
            c = vec.pop(pivot, None)
            if not c:                    # cancelled after it was queued
                continue
            row = by_pivot[pivot]
            d = row[pivot]
            if type(d) is int and d != 1:    # over Q: vec <- (d/g) vec - (c/g) row
                g = gcd(c, d)
                if g != d:
                    f = d // g
                    scale *= f
                    for col, v in vec.items():
                        vec[col] = v * f
                c //= g
            c = -c                       # negated once per row, not per entry
            # hand-written: a new pivot key is pushed onto the heap (an _axpy form is ~2% slower)
            for col, v in row.items():
                if col == pivot:
                    continue
                s = vec.get(col)
                if s is None:
                    vec[col] = c * v if p is None else c * v % p
                    if col in by_pivot:
                        heapq.heappush(heap, col)
                else:
                    s = s + c * v if p is None else (s + c * v) % p
                    if s:
                        vec[col] = s
                    else:
                        del vec[col]
        return scale

    def add(self, vec: dict) -> bool:
        """Insert vec if independent; returns True when the rank grew."""
        res = dict(vec)
        self._clear(res)
        return self._insert(res)

    def _insert(self, res: dict) -> bool:
        """Store a residual as a new row, if nonzero: over Q primitive with a
        positive pivot entry, else normalized to 1 at its pivot."""
        if not res:
            return False
        pivot = min(res)
        c, p = res[pivot], self._modulus
        if p is not None:
            inv = pow(c, -1, p)
            res = {col: v * inv % p for col, v in res.items()}
        elif type(c) is int:
            g = gcd(*res.values()) if c > 0 else -gcd(*res.values())
            if g != 1:
                res = {col: v // g for col, v in res.items()}
        else:
            inv = 1 / c
            res = {col: v * inv for col, v in res.items()}
        self._by_pivot[pivot] = res
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def _back_eliminate(self) -> None:
        """Bring the rows to reduced row echelon form, largest pivot first: a
        finished row is 0 at every other pivot, so reducing a row modulo the
        finished ones clears its entries at their pivots and adds no other.
        A Q row that was scaled is made primitive again."""
        done = LinearSpan(self._modulus)
        for pivot in sorted(self._by_pivot, reverse=True):
            row = self._by_pivot[pivot]
            if done._clear(row) == 1:
                done._by_pivot[pivot] = row
            else:
                done._insert(row)
        self._by_pivot.update(done._by_pivot)


def _integer_form(entries: dict) -> tuple[int, dict]:
    """The lcm of the entries' denominators (in Q) and the entries times it."""
    den = lcm(*(v.denominator for v in entries.values()))
    return den, {key: v.numerator * (den // v.denominator) for key, v in entries.items()}


# ---------------------------------------------------------------------------
# algebra bases and closure
# ---------------------------------------------------------------------------

class AlgebraBasis(Record):
    """Linearly independent matrices spanning a subspace of End(V^{x r}).

    Bases compare by dim, elements and generators, not by the cached span."""

    def __init__(self, dim: int, elements: list[OperatorMatrix],
                 generators: list[OperatorMatrix] | None = None,
                 _span: LinearSpan | None = None):
        self.dim = dim                        # ambient matrix dimension
        self.elements = elements
        self.generators = [] if generators is None else generators
        self._span = _span

    def __len__(self):
        return len(self.elements)

    def span(self) -> LinearSpan:
        if self._span is None:
            span = LinearSpan()
            for m in self.elements:
                if not span.add(m.flatten()):
                    raise ValueError("basis elements are not independent")
            self._span = span
        return self._span

    def contains(self, matrix: OperatorMatrix) -> bool:
        return self.span().contains(matrix.flatten())


def _common_dim(matrices: Iterable[OperatorMatrix]) -> int:
    """The one dimension of the given matrices (ValueError if none or several)."""
    dims = {m.dim for m in matrices}
    if len(dims) != 1:
        raise ValueError(f"need generators of one dimension, got {sorted(dims)}")
    return dims.pop()


def _infer_one(matrices: Iterable[OperatorMatrix]):
    for m in matrices:
        for v in m.entries.values():
            if isinstance(v, (Fraction, int)):
                return 1
            return RationalFunction.one()
    return RationalFunction.one()


def span_closure(generators: Sequence[OperatorMatrix]) -> AlgebraBasis:
    """Basis of the unital subalgebra generated by the given matrices.

    Repeatedly multiplies accepted basis elements by the generators on the
    right, reducing each candidate against the current span, until no product
    adds a new direction.  Aborts with `ClosureError` if the number of
    evaluated products exceeds dim^2 * max(dim^2, #gens), which cannot happen
    for a genuine subalgebra but guards the loop.
    """
    generators = list(generators)
    dim = _common_dim(generators)
    one = _infer_one(generators)
    bound = dim * dim * max(dim * dim, len(generators))

    span = LinearSpan()
    basis: list[OperatorMatrix] = []
    for m in [OperatorMatrix.identity(dim, one), *generators]:
        if span.add(m.flatten()):
            basis.append(m)
    products = 0
    head = 0
    while head < len(basis):
        m = basis[head]
        head += 1
        for g in generators:
            products += 1
            if products > bound:
                raise ClosureError(f"closure did not stabilize within {bound} products")
            p = m * g
            if span.add(p.flatten()):
                basis.append(p)
    return AlgebraBasis(dim, basis, generators=generators, _span=span)


# ---------------------------------------------------------------------------
# commutant / anticommutant as exact nullspaces
# ---------------------------------------------------------------------------

def _echelon_nullspace(rows: Iterable[dict], ncols: int, one) -> list[dict]:
    """Basis of the solution space of the homogeneous system (sparse rows).
    The rows are reduced in place, without a copy, so callers pass rows they
    do not keep.
    """
    span = LinearSpan()
    by_pivot, clear, insert = span._by_pivot, span._clear, span._insert
    for row in rows:
        clear(row)
        insert(row)
    span._back_eliminate()
    # one basis vector per free column; a reduced row has its non-pivot
    # entries in free columns only
    basis = {free: {free: one} for free in range(ncols) if free not in by_pivot}
    for pivot, row in span.rows:
        for col, v in row.items():
            if col != pivot:
                basis[col][pivot] = -v
    return list(basis.values())


def _commutation_rows(constraint: OperatorMatrix, sign: int) -> Iterable[dict]:
    """Rows of the linear system X*G - sign*G*X = 0 in the unknowns X[i,k].

    Entry (i, j) of the system reads column j of G at columns i*dim + k and
    row i of G at columns k*dim + j; the two parts meet only at i*dim + j,
    where G[j,j] and -sign*G[i,i] add up.  So the row of (i, j) is empty
    unless G has an entry in row i or in column j, and only those pairs are
    visited, in (i, j) order; the empty rows are not yielded.
    """
    dim = constraint.dim
    by_row: dict[int, list[tuple[int, object]]] = {}   # i -> (k*dim, -sign * G[i,k])
    by_col: dict[int, list[tuple[int, object]]] = {}   # j -> (k, G[k,j])
    diag: dict[int, tuple[object, object]] = {}        # i -> (G[i,i], -sign * G[i,i])
    for (a, b), v in constraint.entries.items():
        w = -v if sign == 1 else v
        by_row.setdefault(a, []).append((b * dim, w))
        by_col.setdefault(b, []).append((a, v))
        if a == b:
            diag[a] = (v, w)
    cols = sorted(by_col)
    for i in range(dim):
        base = i * dim
        left = by_row.get(i)
        left_ii = diag[i][1] if i in diag else None
        for j in (range(dim) if left else cols):
            row = {base + k: v for k, v in by_col.get(j, ())}
            if left:
                row.update([(kd + j, w) for kd, w in left])
                if left_ii is not None and j in diag:   # the one overlap
                    s = diag[j][0] + left_ii
                    if s:
                        row[base + j] = s
                    else:
                        del row[base + j]
            if row:
                yield row


def _constraint_matrices(source, dim: int | None) -> tuple[int, list[OperatorMatrix]]:
    """Ambient dimension and constraint matrices: a basis's generating set
    (its elements when it has none) or the given list; ``dim`` is needed
    only for an empty list."""
    if isinstance(source, AlgebraBasis):
        return source.dim, list(source.generators or source.elements)
    mats = list(source)
    if mats:
        return mats[0].dim, mats
    if dim is None:
        raise ValueError("empty constraint set needs an explicit dim")
    return dim, []


def _nullspace(mats: list[OperatorMatrix], sign: int, dim: int) -> list[dict]:
    """Reduced-echelon basis of {X : X*G = sign*G*X for every G in mats},
    eliminated over the entries' field."""
    rows = (row for g in mats for row in _commutation_rows(g, sign))
    return _echelon_nullspace(rows, dim * dim, _infer_one(mats))


def commutant_basis(source, *, dim: int | None = None) -> AlgebraBasis:
    """Basis of all matrices commuting with the given generators.

    ``source`` may be an `AlgebraBasis` (its generating set is used; commuting
    with generators implies commuting with the generated algebra) or an
    explicit list of matrices.  An empty constraint list yields the full
    matrix algebra, which requires passing ``dim``.
    """
    dim, mats = _constraint_matrices(source, dim)
    vecs = _nullspace(mats, 1, dim)
    # a commutant is closed under products; no generating set smaller than
    # the basis is known for it, so it carries none and `_constraint_matrices`
    # reads its elements
    return AlgebraBasis(dim, [OperatorMatrix.from_flat(dim, v) for v in vecs])


def anticommutant_basis(source, *, dim: int | None = None) -> AlgebraBasis:
    """Basis of the space of matrices anticommuting with every generator.

    The result is a subspace, not a subalgebra, and carries no generator
    list.  An empty constraint list yields the whole matrix space, which
    requires passing ``dim``.
    """
    src_dim, mats = _constraint_matrices(source, dim)
    vecs = _nullspace(mats, -1, src_dim)
    elems = [OperatorMatrix.from_flat(src_dim, v) for v in vecs]
    return AlgebraBasis(src_dim, elems)


# ---------------------------------------------------------------------------
# the double commutant: a trace-form certificate
# ---------------------------------------------------------------------------

# where the certificate evaluates a basis over Q(q)
_GRAM_POINT = Fraction(2)

# A Mersenne prime.  The Casimir gives dim C' mod p, which is dim C' itself
# as dim^2 < p (module docstring, "The commutant's length").
_PRIME = 2**127 - 1


def _residues(g: OperatorMatrix, p: int, inverses: dict) -> OperatorMatrix | None:
    """g with every entry reduced mod p to its balanced residue in
    (-p/2, p/2]; None when an entry is not in Q or its denominator is
    divisible by p.  ``inverses`` caches denominator inverses."""
    half = p // 2
    out = {}
    for key, v in g.entries.items():
        if isinstance(v, Fraction):
            num, den = v.numerator, v.denominator
        elif isinstance(v, int):
            num, den = v, 1
        else:
            return None
        inv = inverses.get(den)
        if inv is None:
            if not den % p:
                return None
            inv = inverses[den] = pow(den, -1, p)
        if residue := num * inv % p:
            out[key] = residue - p if residue > half else residue
    return OperatorMatrix._raw(g.dim, out)


def _inverse_mod(rows: list[dict], p: int, invert: bool = True) -> list[dict] | None:
    """The rows of M^-1 mod p for the n x n matrix M of the given sparse rows
    (entries in [0, p), none 0), or None when M is singular mod p.  M | I is
    reduced by one `LinearSpan`; the rows are extended in place.  Without
    ``invert``, M alone is reduced, and a nonsingular M gives []; at n = 126
    and 132 that costs a quarter to a third of the inverse."""
    n = len(rows)
    span = LinearSpan(p)
    for i, row in enumerate(rows):
        if invert:
            row[n + i] = 1
        span._clear(row)
        if not row or min(row) >= n:    # M's part of the row is cleared: singular
            return None
        span._insert(row)
    if not invert:
        return []
    span._back_eliminate()
    return [{col - n: v for col, v in span._by_pivot[i].items() if col >= n}
            for i in range(n)]


def trace_form_certificate(alg: AlgebraBasis) -> tuple[bool, int | None]:
    """Whether the Gram matrix tr(c_i c_j) of the basis c_1..c_n of ``alg``
    has rank n mod `_PRIME`, and then, when n <= dim, dim C' read off the
    Casimir; a basis over Q(q) is evaluated at `_GRAM_POINT` first.  The
    verdict is False when an entry has a pole there or no residue mod p (a
    denominator divisible by p); the length is None when the verdict is
    False or n > dim, where the Gram is reduced but not inverted.

    Over a unital closed ``alg``, a True verdict proves that its double
    commutant is itself, and the length is that of its commutant, at a point
    and over Q(q); the module docstring gives both arguments.  Element i is
    indexed by its transposed positions (b, a) as it is read, so the half row
    tr(c_i c_j), j <= i, pairs c_i[a,b] with c_j[b,a] of the elements read so
    far; tr(c_i c_j) = tr(c_j c_i) fills the other half.
    """
    p = _PRIME
    generic = isinstance(_infer_one(alg.elements), RationalFunction)
    inverses: dict[int, int] = {}
    transposed: dict[tuple[int, int], list[tuple[int, int]]] = {}   # (b, a) -> [(j, c_j[a,b])]
    residues: list[OperatorMatrix] = []
    half: list[list[int]] = []
    for i, c in enumerate(alg.elements):
        if generic:
            try:
                c = specialize_matrix(c, _GRAM_POINT)
            except PoleError:
                return False, None
        res = _residues(c, p, inverses)
        if res is None:
            return False, None
        residues.append(res)
        for (a, b), v in res.entries.items():
            transposed.setdefault((b, a), []).append((i, v))
        row = [0] * (i + 1)
        for key, x in res.entries.items():
            for j, y in transposed.get(key, ()):
                row[j] += x * y
        half.append([v % p for v in row])
    n, dim = len(half), alg.dim
    gram = [{j: v for j, v in enumerate(chain(half[i], (half[j][i] for j in range(i + 1, n))))
             if v} for i in range(n)]
    dual = _inverse_mod(gram, p, invert=n <= dim)
    if dual is None:
        return False, None
    if n > dim:
        return True, None
    # the Casimir: Omega = sum_i c_i c^i with c^i = sum_j (G^-1)_ij c_j
    omega: dict[tuple[int, int], int] = {}
    for c, coeffs in zip(residues, dual):
        c_dual: dict[tuple[int, int], int] = {}
        for j, h in coeffs.items():
            _axpy(c_dual, h, residues[j].entries.items())
        # entries below n p^2 are left unreduced: reducing them is slower here
        _axpy(omega, None, (c * OperatorMatrix._raw(dim, c_dual)).entries.items())
    rows: list[dict[int, int]] = [{} for _ in range(dim)]
    for (a, b), v in omega.items():
        if r := v % p:
            rows[a][b] = r
    inverse = _inverse_mod(rows, p)
    if inverse is None:     # Omega is a unit mod p once the Gram is (module docstring)
        return True, None
    return True, sum(row.get(a, 0) for a, row in enumerate(inverse)) % p


# ---------------------------------------------------------------------------
# span comparisons
# ---------------------------------------------------------------------------

def span_equal(a: AlgebraBasis, b: AlgebraBasis) -> bool:
    """Mutual membership in both directions (never by dimension alone)."""
    if a.dim != b.dim:
        return False
    return (all(a.contains(m) for m in b.elements)
            and all(b.contains(m) for m in a.elements))


def direct_sum_check(whole: AlgebraBasis, part1: AlgebraBasis, part2: AlgebraBasis) -> bool:
    """True iff the parts are independent and together span the whole."""
    if not (whole.dim == part1.dim == part2.dim):
        return False
    if len(part1) + len(part2) != len(whole):
        return False
    span = LinearSpan()
    for m in part1.elements + part2.elements:
        if not span.add(m.flatten()):
            return False
    return all(span.contains(m.flatten()) for m in whole.elements)


# ---------------------------------------------------------------------------
# rank certificates
# ---------------------------------------------------------------------------

class RankCertificate(FrozenRecord):
    def __init__(self, rank: int, points: tuple[Fraction, ...], exact: bool):
        super().__init__(rank=rank, points=points, exact=exact)


_STREAM_SIZE = len({Fraction(a, b) for a in range(2, 20) for b in range(1, 8)}) - 1  # not 1


def _point_stream(seed: int) -> Iterator[Fraction]:
    """Seeded distinct points a/b, never 0 or +-1; ends after all of them."""
    rng = random.Random(seed)
    seen: set[Fraction] = set()
    while len(seen) < _STREAM_SIZE:
        t = Fraction(rng.randint(2, 19), rng.randint(1, 7))
        if t != 1 and t not in seen:
            seen.add(t)
            yield t


def draw_points(seed: int, count: int = 2) -> list[Fraction]:
    """The first ``count`` points of the seeded stream."""
    return list(islice(_point_stream(seed), count))


def _evaluations(explicit: list[Fraction], seed: int,
                 evaluate: Callable[[Fraction], object]
                 ) -> Iterator[tuple[Fraction, object]]:
    """``evaluate`` at the candidates one after the other, as (t, value)
    pairs: the explicit points, then the seeded stream without them.  A drawn
    point where ``evaluate`` raises `PoleError` is skipped; a pole at an
    explicit point propagates.  `PoleError` also follows the last candidate."""
    for t in chain(explicit, (t for t in _point_stream(seed) if t not in explicit)):
        try:
            value = evaluate(t)
        except PoleError:
            if t in explicit:
                raise
            continue
        yield t, value
    raise PoleError("the seeded point stream has no two pole-free points")


def specialization_points(points: Sequence | None, seed: int,
                          evaluate: Callable[[Fraction], object]
                          ) -> list[tuple[Fraction, object]]:
    """The specialization points and ``evaluate`` at each, as (t, value) pairs.

    Explicit points must be rational, nonzero and distinct; a pole there
    propagates.  Fewer than two are filled up to two from the seeded stream,
    skipping the explicit points and any drawn point where ``evaluate``
    raises `PoleError`.  ``points=[]`` is the same as None.
    """
    explicit = [Fraction(p) for p in points or ()]
    if 0 in explicit:
        raise ValueError("specialization points must be nonzero")
    repeated = [p for i, p in enumerate(explicit) if p in explicit[:i]]
    if repeated:
        raise ValueError(f"specialization point {repeated[0]} is given more than once; "
                         "rank agreement needs distinct points")
    return list(islice(_evaluations(explicit, seed, evaluate), max(2, len(explicit))))


def _arbitrate(pairs: list[tuple[Fraction, object]], exact: Callable[[], object],
               dim: int):
    """None when all values of the (t, value) pairs agree, else ``exact()``
    (never None); above `EXACT_DIM_BOUND` that rerun is refused instead."""
    if all(value == pairs[0][1] for _, value in pairs):
        return None
    if dim > EXACT_DIM_BOUND:
        *rest, last = (str(t) for t, _ in pairs)
        raise SizeBoundError(
            f"specialized points {', '.join(rest)} and {last} disagreed, and exact "
            f"arbitration at tensor space dimension {dim} exceeds the exact-mode "
            f"bound {EXACT_DIM_BOUND}")
    return exact()


def certify(evaluate: Callable[[Fraction], object], exact: Callable[[], object],
            dim: int, *, points: Sequence | None = None, seed: int = 0
            ) -> tuple[list[tuple[Fraction, object]], object]:
    """Compare ``evaluate`` at the `specialization_points`: the (t, value)
    pairs and None when all values agree, else the pairs and ``exact()``
    (never None); above `EXACT_DIM_BOUND` that rerun is refused instead."""
    pairs = specialization_points(points, seed, evaluate)
    return pairs, _arbitrate(pairs, exact, dim)


def _rank(vectors: Iterable[dict]) -> int:
    """Rank over the entries' field: Q(q) for exact vectors, Q at a point."""
    span = LinearSpan()
    for vec in vectors:
        span.add(vec)
    return span.rank


def certified_rank(matrices: Sequence[OperatorMatrix], mode: str = "specialized", *,
                   points: Sequence | None = None, seed: int = 0) -> RankCertificate:
    """Rank of the span of the given matrices, with its certification trail:
    by `certify` at the points, or over Q(q) in exact mode and on arbitration."""
    dim = _common_dim(matrices)
    if mode == "exact":
        return RankCertificate(_rank(m.flatten() for m in matrices), (), exact=True)
    if mode != "specialized":
        raise ValueError(f"unknown mode {mode!r}")
    pairs, arbitrated = certify(
        lambda t: _rank(specialize_matrix(m, t).flatten() for m in matrices),
        lambda: certified_rank(matrices, "exact"), dim, points=points, seed=seed)
    return arbitrated or RankCertificate(pairs[0][1], tuple(t for t, _ in pairs), exact=False)
