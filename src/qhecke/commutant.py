"""Exact linear algebra over K: spans, subalgebra closure, commutants, ranks.

Vectors are sparse maps column -> coefficient; matrices enter flattened
row-major.  The elimination code is generic in the coefficient field: it only
needs ``+ - * /``, truthiness for zero tests, and ``1 / c`` for inverses, so
the same routines run over Q(q) (exact mode) and over Q at a specialization
point (fast mode).  Pivots are chosen at the first nonzero column in
lexicographic position, and a vector's residual modulo a span does not depend
on the order its rows are applied in, which makes every produced basis
deterministic.

`LinearSpan` indexes its rows by pivot column, so reducing a vector touches
only the rows whose pivots the vector (or its running residual) reaches, not
every stored row.  The commutant of a commutant stops eliminating as soon as
the rank leaves room for nothing beyond the algebra it started from; see
`commutant_basis`.

Rank certification follows a two-tier strategy: the default evaluates all
matrices at two seeded nonzero rational points (avoiding 0 and +-1 and any
poles) and demands agreement; the same `LinearSpan` elimination run over Q(q)
is the arbiter whenever the points disagree, and can be requested outright.
There is one elimination engine, whatever the field.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .qfield import PoleError, RationalFunction, _axpy
from .tensor import OperatorMatrix


class ClosureError(RuntimeError):
    """Product closure failed to stabilize within the round bound."""


class RankDisagreementError(RuntimeError):
    """Specialized ranks differ between points; exact mode must arbitrate."""

    def __init__(self, ranks, points):
        super().__init__(f"specialized ranks disagree: {ranks} at points {points}")
        self.ranks = ranks
        self.points = points


# ---------------------------------------------------------------------------
# incremental sparse echelon span
# ---------------------------------------------------------------------------

class LinearSpan:
    """Row space with incremental insertion; rows are pivot-normalized.

    Each stored row has coefficient 1 at its pivot, its smallest column, and 0
    at the pivots of the rows stored before it.  Hence a vector's residual
    modulo the span -- the vector minus the combination of rows that clears
    every pivot column -- is unique, whatever order the rows are applied in.
    """

    __slots__ = ("_by_pivot",)

    def __init__(self):
        self._by_pivot: dict[int, dict] = {}   # pivot column -> row, in insertion order

    @property
    def rows(self) -> list[tuple[int, dict]]:
        """(pivot column, row vector) pairs in insertion order."""
        return list(self._by_pivot.items())

    @property
    def rank(self) -> int:
        return len(self._by_pivot)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec modulo the span (vec is not modified).

        The pivot columns present in the residual wait in a heap and are
        cleared smallest first.  A row with pivot p only adds columns > p, so
        a cleared pivot never returns and rows the residual never reaches are
        not visited.
        """
        vec = dict(vec)
        by_pivot = self._by_pivot
        heap = [col for col in vec if col in by_pivot]
        heapq.heapify(heap)
        while heap:
            pivot = heapq.heappop(heap)
            c = vec.pop(pivot, None)     # the row's 1 there clears it
            if not c:                    # cancelled after it was queued
                continue
            # hand-written: a new pivot key is pushed onto the heap (an _axpy form is ~2% slower)
            for col, v in by_pivot[pivot].items():
                if col == pivot:
                    continue
                s = vec.get(col)
                if s is None:
                    vec[col] = -(c * v)
                    if col in by_pivot:
                        heapq.heappush(heap, col)
                else:
                    s = s - c * v
                    if s:
                        vec[col] = s
                    else:
                        del vec[col]
        return vec

    def add(self, vec: dict) -> bool:
        """Insert vec if independent; returns True when the rank grew."""
        res = self.reduce(vec)
        if not res:
            return False
        pivot = min(res)
        inv = 1 / res[pivot]
        self._by_pivot[pivot] = {c: v * inv for c, v in res.items()}
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


# ---------------------------------------------------------------------------
# algebra bases and closure
# ---------------------------------------------------------------------------

@dataclass
class AlgebraBasis:
    """Linearly independent matrices spanning a subspace of End(V^{x r})."""

    dim: int                                  # ambient matrix dimension
    elements: list[OperatorMatrix]
    closed: bool = False
    generators: list[OperatorMatrix] = field(default_factory=list)
    _span: LinearSpan | None = field(default=None, repr=False)
    # set by `commutant_basis`: the closed algebra this basis is the commutant of
    _commutant_of: AlgebraBasis | None = field(default=None, repr=False, compare=False)

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


def _infer_one(matrices: Iterable[OperatorMatrix]):
    for m in matrices:
        for v in m.entries.values():
            if isinstance(v, Fraction):
                return Fraction(1)
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
    dims = {g.dim for g in generators}
    if len(dims) != 1:
        raise ValueError(f"need generators of one dimension, got {sorted(dims)}")
    dim = dims.pop()
    one = _infer_one(generators)
    bound = dim * dim * max(dim * dim, len(generators))

    span = LinearSpan()
    basis: list[OperatorMatrix] = []
    queue: list[OperatorMatrix] = []
    for m in [OperatorMatrix.identity(dim, one), *generators]:
        if span.add(m.flatten()):
            basis.append(m)
            queue.append(m)
    products = 0
    head = 0
    while head < len(queue):
        m = queue[head]
        head += 1
        for g in generators:
            products += 1
            if products > bound:
                raise ClosureError(f"closure did not stabilize within {bound} products")
            p = m * g
            if span.add(p.flatten()):
                basis.append(p)
                queue.append(p)
    return AlgebraBasis(dim, basis, closed=True, generators=generators, _span=span)


# ---------------------------------------------------------------------------
# commutant / anticommutant as exact nullspaces
# ---------------------------------------------------------------------------

def _echelon_nullspace(rows: Iterable[dict], ncols: int, one,
                       max_rank: int | None = None) -> list[dict]:
    """Basis of the solution space of the homogeneous system (sparse rows).

    With ``max_rank`` set, rows stop being read once the rank reaches it; the
    caller vouches that the full system's rank is at most ``max_rank``.
    """
    span = LinearSpan()
    for row in rows:
        if span.rank == max_rank:
            break
        span.add(row)
    # back-eliminate to reduced row echelon form, largest pivot first: a
    # finished row is 0 at every other pivot, so clearing one pivot entry of a
    # row leaves its other entries at pivot columns as they were
    rows_ = span.rows
    reduced: dict[int, dict] = {}
    for pivot, row in sorted(rows_, reverse=True):    # pivots are distinct
        out = dict(row)
        for col, c in row.items():
            if col != pivot and col in reduced:
                _axpy(out, -c, reduced[col].items())
        reduced[pivot] = out
    # one basis vector per free column; a reduced row has its non-pivot
    # entries in free columns only
    basis = {free: {free: one} for free in range(ncols) if free not in reduced}
    for pivot, _ in rows_:
        for col, v in reduced[pivot].items():
            if col != pivot:
                basis[col][pivot] = -v
    return list(basis.values())


def _commutation_rows(constraint: OperatorMatrix, sign: int) -> Iterable[dict]:
    """Rows of the linear system X*G - sign*G*X = 0 in the unknowns X[i,k]."""
    dim = constraint.dim
    by_row: dict[int, list[tuple[int, object]]] = {}   # i -> (k, -sign * G[i,k])
    by_col: dict[int, list[tuple[int, object]]] = {}   # j -> (k, G[k,j])
    for (a, b), v in constraint.entries.items():
        by_row.setdefault(a, []).append((b, -v if sign == 1 else v))
        by_col.setdefault(b, []).append((a, v))
    for i in range(dim):
        base = i * dim
        left = by_row.get(i, ())
        for j in range(dim):
            row = _axpy({}, None, ((base + k, v) for k, v in by_col.get(j, ())))
            _axpy(row, None, ((k * dim + j, w) for k, w in left))
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


def commutant_basis(source, *, dim: int | None = None) -> AlgebraBasis:
    """Basis of all matrices commuting with the given generators.

    ``source`` may be an `AlgebraBasis` (its generating set is used; commuting
    with generators implies commuting with the generated algebra) or an
    explicit list of matrices.  An empty constraint list yields the full
    matrix algebra, which requires passing ``dim``.

    Early stop for the commutant of a commutant.  When ``source`` is a closed
    `AlgebraBasis` B, the result D records B.  Closed means B is the algebra
    generated by its constraint matrices, as `span_closure` and this function
    build it, so every element of B commutes with D: B is contained in D'.
    When D is passed back in, its commutant D' therefore has dimension at
    least len(B), and the constraint system rank at most dim^2 - len(B).
    Elimination stops reading constraint rows once the rank reaches that
    bound.  The row space is then already the full system's, so the reduced
    echelon basis returned is the same as without the stop.  Plain lists,
    unclosed bases and the empty list are never recorded.
    """
    dim, mats = _constraint_matrices(source, dim)
    one = _infer_one(mats)
    inner = source._commutant_of if isinstance(source, AlgebraBasis) else None
    max_rank = None if inner is None else dim * dim - len(inner)
    rows = (row for g in mats for row in _commutation_rows(g, sign=1))
    vecs = _echelon_nullspace(rows, dim * dim, one, max_rank)
    elems = [OperatorMatrix.from_flat(dim, v) for v in vecs]
    closed_source = source if isinstance(source, AlgebraBasis) and source.closed else None
    # a commutant is closed under products; no generating set smaller than
    # the basis is known for it, so the basis doubles as the generator list
    return AlgebraBasis(dim, elems, closed=True, generators=list(elems),
                        _commutant_of=closed_source)


def anticommutant_basis(source, *, dim: int | None = None) -> AlgebraBasis:
    """Basis of the space of matrices anticommuting with every generator.

    The result is a subspace, not a subalgebra: `closed` stays False and no
    generator list is attached.  An empty constraint list yields the whole
    matrix space, which requires passing ``dim``.
    """
    src_dim, mats = _constraint_matrices(source, dim)
    one = _infer_one(mats)
    rows = (row for g in mats for row in _commutation_rows(g, sign=-1))
    vecs = _echelon_nullspace(rows, src_dim * src_dim, one)
    elems = [OperatorMatrix.from_flat(src_dim, v) for v in vecs]
    return AlgebraBasis(src_dim, elems, closed=False)


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

@dataclass(frozen=True)
class RankCertificate:
    rank: int
    points: tuple[Fraction, ...]
    exact: bool


def draw_points(seed: int, count: int = 2, avoid: frozenset = frozenset()) -> list[Fraction]:
    """Seeded nonzero rational points, excluding 0 and +-1 (never generic)."""
    rng = random.Random(seed)
    out: list[Fraction] = []
    while len(out) < count:
        t = Fraction(rng.randint(2, 19), rng.randint(1, 7))
        if t in (0, 1, -1) or t in out or t in avoid:
            continue
        out.append(t)
    return out


def _rank(vectors: Iterable[dict]) -> int:
    """Rank over the entries' field: Q(q) for exact vectors, Q at a point."""
    span = LinearSpan()
    for vec in vectors:
        span.add(vec)
    return span.rank


def _specialized(vec: dict, t: Fraction) -> dict:
    out = {}
    for col, v in vec.items():
        val = v.specialize(t) if isinstance(v, RationalFunction) else Fraction(v)
        if val:
            out[col] = val
    return out


def _specialized_rank(vectors: list[dict], t: Fraction) -> int:
    return _rank(_specialized(vec, t) for vec in vectors)


def rank_with_certificate(matrices: Sequence[OperatorMatrix], mode: str = "specialized",
                          *, points: Sequence[Fraction] | None = None,
                          seed: int = 0, max_retries: int = 8) -> RankCertificate:
    """Rank of the span of the given matrices, with its certification trail."""
    if not matrices:
        raise ValueError("need a nonempty list of matrices")
    vectors = [m.flatten() for m in matrices]
    if mode == "exact":
        return RankCertificate(_rank(vectors), (), exact=True)
    if mode != "specialized":
        raise ValueError(f"unknown mode {mode!r}")

    if points is not None:
        pts = [Fraction(p) for p in points]
        ranks = [_specialized_rank(vectors, t) for t in pts]
    else:
        pts = []
        ranks = []
        attempt = 0
        while len(pts) < 2:
            cand = draw_points(seed + attempt, count=1, avoid=frozenset(pts))[0]
            attempt += 1
            if attempt > max_retries + 2:
                raise PoleError("could not find pole-free specialization points")
            try:
                r = _specialized_rank(vectors, cand)
            except PoleError:
                continue
            pts.append(cand)
            ranks.append(r)
    if len(set(ranks)) != 1:
        raise RankDisagreementError(ranks, pts)
    return RankCertificate(ranks[0], tuple(pts), exact=False)


def certified_rank(matrices: Sequence[OperatorMatrix], mode: str = "specialized",
                   **kw) -> RankCertificate:
    """Like `rank_with_certificate` but auto-arbitrates disagreements exactly."""
    try:
        return rank_with_certificate(matrices, mode, **kw)
    except RankDisagreementError:
        return rank_with_certificate(matrices, "exact")
