"""Exact linear algebra over K: spans, subalgebra closure, commutants, ranks.

Vectors are sparse maps column -> coefficient; matrices enter flattened
row-major.  One elimination engine, `LinearSpan` and `_echelon_nullspace`,
serves every field.  It only needs ``+ - * /``, truthiness for zero tests
and ``1 / c`` for inverses, so it runs over Q(q) (exact mode) and over Q at a
specialization point; given a prime modulus p it runs over F_p on plain
ints, takes every entry it writes mod p and inverts with ``pow(c, -1, p)``.
Pivots are chosen at the first nonzero column in lexicographic position, and
a vector's residual modulo a span does not depend on the order its rows are
applied in, which makes every produced basis deterministic.

`LinearSpan` indexes its rows by pivot column, so reducing a vector touches
only the rows whose pivots the vector (or its running residual) reaches, not
every stored row.  The commutant of a commutant stops eliminating as soon as
the rank leaves room for nothing beyond the algebra it started from; see
`commutant_basis`.

One row builder, `_commutation_rows`, makes the commutation rows for every
engine below.  It visits only the entries (i, j) whose row can be nonzero,
those where G has an entry in row i or in column j.

Nullspaces at a point.  When the constraint entries of `commutant_basis` or
`anticommutant_basis` lie in Q (their first one a `Fraction` or an `int`),
the reduced echelon nullspace at the point t is first computed over F_p for
the prime p = 2^127 - 1, by the `_echelon_nullspace` that runs over Q: the
same rows of `_commutation_rows`, pivot rule, early stop, back-elimination
and basis builder.  A constraint matrix is reduced mod p only when its rows
are first read, so the early stop leaves later matrices untouched.  The
constraint entries enter as balanced residues in (-p/2, p/2], so a row
entry, a sum of at most two of them, is 0 exactly when it is 0 mod p and the
rows need no second reduction.  Each entry is lifted to Q by rational
reconstruction (|numerator|, denominator <= isqrt(p // 2)), and each lifted
matrix is checked exactly, in integer-scaled form, against the constraint
matrices.  A pass proves that the lifted basis is the one the Q path
returns:

* every denominator read is a unit mod p, so the rows read reduce mod p and
  rank_p <= rank_t, hence nullity_p >= nullity_t;
* there are nullity_p lifted vectors and each passes the exact check, so they
  lie in the nullspace W at t.  Each is 1 at its own free column, 0 at the
  other free columns and nonzero only at smaller pivot columns otherwise, so
  the largest columns are distinct: the vectors are independent, span W, and
  nullity_p = nullity_t.  The largest columns of the nonzero vectors of W are
  exactly the free columns of the reduced echelon form at t, so the two sets
  of free columns agree, and W has one basis that is the unit vector on them
  there: the Q path's, element for element;
* under the early stop (the mod-p rank reached dim^2 - len(B), and B is in D'
  exactly at t), rank_t of the rows read is at least that bound, which is at
  least the full system's rank at t: the matrices read already have the full
  nullspace, and the check runs against only those.  Otherwise it runs
  against all of them.

A denominator divisible by p, an entry that does not lift or a failed check
falls back to `_echelon_nullspace` over Q, which also remains the only engine
over Q(q).  Either way the result, and every report built on it, is the same.

Specialization points come from one seeded stream; `draw_points(seed)` is
its start.  One policy, `specialization_points`, takes the points: explicit
ones must be rational, nonzero and distinct, and fewer than two are filled
up to two from the stream, skipping the explicit ones; a drawn point at a
pole gives way to the next point of the stream, while a pole at an explicit
point propagates.  The first two candidate points are evaluated at once: a
child made by `os.fork` evaluates the second and sends its value back
pickled through a pipe while this process evaluates the first.  Any child
failure (an exception, a value pickle cannot carry, a dead child) has this
process evaluate the second point itself, so the pairs, every exception and
the pole policy are those of the serial run, and no child outlives the
call.  The run stays serial without `os.fork`, with fewer than two usable
CPUs, while another thread is alive, under a profile or trace function, or
when the fork fails.  One certification path, `certify`, serves the tensor
suites (`suites._certify`) and the rank certificate `certified_rank`: it
evaluates at those points and demands that all values agree.  On a
disagreement the exact computation over Q(q) decides, and is refused with
`SizeBoundError` above `EXACT_DIM_BOUND`.  `certified_rank` evaluates the
rank of the specialized matrices (`specialize_matrix`); its exact rank, the
`LinearSpan` elimination over Q(q), can also be requested outright.
"""

from __future__ import annotations

import heapq
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Iterator, Sequence

from .qfield import PoleError, RationalFunction
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
    """Row space with incremental insertion; rows are pivot-normalized.

    Each stored row has coefficient 1 at its pivot, its smallest column, and 0
    at the pivots of the rows stored before it.  Hence a vector's residual
    modulo the span -- the vector minus the combination of rows that clears
    every pivot column -- is unique, whatever order the rows are applied in.

    With a prime ``modulus`` p the span lies over F_p: entries are ints, every
    entry it writes is taken mod p, and pivots are inverted by ``pow(c, -1,
    p)``.  Vectors given to it must hold no entry that is 0 mod p.
    """

    __slots__ = ("_by_pivot", "_modulus")

    def __init__(self, modulus: int | None = None):
        self._by_pivot: dict[int, dict] = {}   # pivot column -> row, in insertion order
        self._modulus = modulus

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
        cleared smallest first.  A row with pivot k only adds columns > k, so
        a cleared pivot never returns and rows the residual never reaches are
        not visited.
        """
        return self._clear(dict(vec))

    def _clear(self, vec: dict) -> dict:
        """`reduce` in place: vec becomes its residual."""
        by_pivot, p = self._by_pivot, self._modulus
        heap = [col for col in vec if col in by_pivot]
        heapq.heapify(heap)
        while heap:
            pivot = heapq.heappop(heap)
            c = vec.pop(pivot, None)     # the row's 1 there clears it
            if not c:                    # cancelled after it was queued
                continue
            c = -c                       # negated once per row, not per entry
            # hand-written: a new pivot key is pushed onto the heap (an _axpy form is ~2% slower)
            for col, v in by_pivot[pivot].items():
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
        return vec

    def add(self, vec: dict) -> bool:
        """Insert vec if independent; returns True when the rank grew."""
        return self._insert(self._clear(dict(vec)))

    def _insert(self, res: dict) -> bool:
        """Store a residual as a new row, normalized at its pivot, if nonzero."""
        if not res:
            return False
        pivot = min(res)
        c, p = res[pivot], self._modulus
        if p is None:
            inv = Fraction(1, c) if isinstance(c, int) else 1 / c
            self._by_pivot[pivot] = {col: v * inv for col, v in res.items()}
        else:
            inv = pow(c, -1, p)
            self._by_pivot[pivot] = {col: v * inv % p for col, v in res.items()}
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
    return AlgebraBasis(dim, basis, closed=True, generators=generators, _span=span)


# ---------------------------------------------------------------------------
# commutant / anticommutant as exact nullspaces
# ---------------------------------------------------------------------------

def _echelon_nullspace(rows: Iterable[dict], ncols: int, one,
                       max_rank: int | None = None,
                       modulus: int | None = None) -> list[dict]:
    """Basis of the solution space of the homogeneous system (sparse rows),
    over F_p for a prime ``modulus`` p (then ``one`` is 1, and the other
    entries are ints in (-p, 0)).  The rows are reduced in place, without a
    copy, so callers pass rows they do not keep.

    With ``max_rank`` set, rows stop being read once the rank reaches it; the
    caller vouches that the full system's rank is at most ``max_rank``.
    """
    span = LinearSpan(modulus)
    by_pivot, clear, insert = span._by_pivot, span._clear, span._insert
    for row in rows:
        if len(by_pivot) == max_rank:
            break
        insert(clear(row))
    # back-eliminate to reduced row echelon form, largest pivot first: a
    # finished row is 0 at every other pivot, so reducing a row modulo the
    # finished ones clears its entries at their pivots and adds no other
    reduced = LinearSpan(modulus)
    for pivot in sorted(by_pivot, reverse=True):
        reduced._by_pivot[pivot] = reduced._clear(by_pivot[pivot])
    # one basis vector per free column; a reduced row has its non-pivot
    # entries in free columns only
    basis = {free: {free: one} for free in range(ncols) if free not in by_pivot}
    for pivot, row in by_pivot.items():
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
    visited, in (i, j) order; the empty rows are not yielded.  G stores no
    zeros; with ints (balanced residues mod p, as `_residues` gives) every
    entry of a row then lies in (-p, p) and is 0 exactly when it is 0 mod p.
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


# ---------------------------------------------------------------------------
# nullspaces at a point: eliminate mod p, lift to Q, verify exactly
# ---------------------------------------------------------------------------

# A Mersenne prime.  Lifts reach 63-bit numerators and denominators; with
# 2^61 - 1 they would stop at 30 bits, which entries of the even centralizer
# already exceed at (2,0,5) and t = 15 (40 bits).
_PRIME = 2**127 - 1


def _residues(g: OperatorMatrix, p: int, inverses: dict) -> OperatorMatrix | None:
    """g with every entry reduced mod p to its balanced residue in
    (-p/2, p/2]; None when an entry is not in Q or its denominator is
    divisible by p.  ``inverses`` caches denominator inverses.

    Balanced, a sum of two residues lies in (-p, p), so the rows that
    `_commutation_rows` builds from them hold no entry that is 0 mod p; from
    [0, p), G[j,j] - sign*G[i,i] could reach p and become a pivot that has no
    inverse."""
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


def _reconstruct(a: int, p: int) -> Fraction | None:
    """The fraction n/d with |n|, d <= isqrt(p // 2) and n = a*d mod p, if any.

    Extended Euclid on (p, a), stopped at the first remainder within the
    bound (Wang).  Since 2 * bound^2 < p, at most one such fraction exists.
    """
    bound = isqrt(p // 2)
    r0, r1, s0, s1 = p, a % p, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1, s0, s1 = r1, r0 - quo * r1, s1, s0 - quo * s1
    if not 0 < abs(s1) <= bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1 if s1 > 0 else -r1, abs(s1))


def _integer_form(entries: dict) -> dict:
    """The entries (in Q) times the lcm of their denominators, as ints."""
    den = lcm(*(v.denominator for v in entries.values()))
    return {key: v.numerator * (den // v.denominator) for key, v in entries.items()}


def _commutator_test(g: OperatorMatrix, sign: int):
    """The exact test whether an integer matrix X ((i, k) -> int) solves
    X*G = sign*G*X; G (entries in Q) is scaled to integers, which the
    homogeneous equation allows."""
    g_rows: dict[int, list] = {}
    g_cols: dict[int, list] = {}
    for (a, b), w in _integer_form(g.entries).items():
        g_rows.setdefault(a, []).append((b, w))
        g_cols.setdefault(b, []).append((a, w))

    def solves(x: dict) -> bool:
        out: dict[tuple[int, int], int] = {}
        for (i, k), v in x.items():
            for j, w in g_rows.get(k, ()):      # X[i,k] G[k,j] -> (i, j)
                out[i, j] = out.get((i, j), 0) + v * w
            for a, w in g_cols.get(i, ()):      # G[a,i] X[i,k] -> (a, k)
                out[a, k] = out.get((a, k), 0) - sign * w * v
        return not any(out.values())

    return solves


def _nullspace_at_point(mats: list[OperatorMatrix], sign: int, dim: int,
                        max_rank: int | None) -> list[dict] | None:
    """`_echelon_nullspace` of the commutation system, computed mod `_PRIME`.

    Returns the lifted basis once it is verified over Q, else None; the module
    docstring says why a returned basis is the one the Q path gives.
    """
    p = _PRIME
    inverses: dict[int, int] = {}
    residues: list[OperatorMatrix | None] = []   # of the matrices read, in order

    def rows():
        # lazy: the early stop leaves later matrices unread, residues and all
        for g in mats:
            residues.append(_residues(g, p, inverses))
            if residues[-1] is None:
                return
            yield from _commutation_rows(residues[-1], sign)

    vecs = _echelon_nullspace(rows(), dim * dim, 1, max_rank, p)
    if residues and residues[-1] is None:    # a matrix read has no residues mod p
        return None
    lifted: dict[int, Fraction | None] = {}
    for vec in vecs:
        for col, v in vec.items():
            if v not in lifted:
                lifted[v] = _reconstruct(v, p)
            if lifted[v] is None:
                return None
            vec[col] = lifted[v]
    # the exact check, against the matrices whose rows were read
    tests = [_commutator_test(g, sign) for g in mats[:len(residues)]]
    for vec in vecs:
        x = _integer_form({divmod(col, dim): v for col, v in vec.items()})
        if not all(solves(x) for solves in tests):
            return None
    return vecs


def _nullspace(mats: list[OperatorMatrix], sign: int, dim: int,
               max_rank: int | None = None) -> list[dict]:
    """Reduced-echelon basis of {X : X*G = sign*G*X for every G in mats}:
    certified mod p at a point, else eliminated over the entries' field."""
    one = _infer_one(mats)
    if isinstance(one, Fraction):
        vecs = _nullspace_at_point(mats, sign, dim, max_rank)
        if vecs is not None:
            return vecs
    rows = (row for g in mats for row in _commutation_rows(g, sign))
    return _echelon_nullspace(rows, dim * dim, one, max_rank)


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
    echelon basis returned is the same as without the stop.  At a point the
    rank mod p decides the stop (see the module docstring).  Plain lists,
    unclosed bases and the empty list are never recorded.
    """
    dim, mats = _constraint_matrices(source, dim)
    inner = source._commutant_of if isinstance(source, AlgebraBasis) else None
    max_rank = None if inner is None else dim * dim - len(inner)
    vecs = _nullspace(mats, 1, dim, max_rank)
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
    vecs = _nullspace(mats, -1, src_dim)
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


def _may_fork() -> bool:
    """Whether a second point may run in a forked child: `os.fork` exists, at
    least two CPUs are usable, no other thread is alive (a fork copies only
    the calling thread) and no profile or trace function is set (so a
    profiler sees both points)."""
    if not hasattr(os, "fork") or sys.getprofile() or sys.gettrace():
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2:
        return False
    import threading
    return threading.active_count() == 1


class _Ahead:
    """``evaluate(t)`` started in one forked child while the caller goes on.

    The child pickles the value into a pipe and always ends with `os._exit`.
    `value` reads it back.  On any child failure (an exception, a value pickle
    cannot carry, a dead child), and when no child could start, `value`
    computes ``evaluate(t)`` itself, so every exception is raised in this
    process with its own type and traceback.  `close` kills and reaps a child
    whose value was not read; after it no child of this object is left.
    """

    def __init__(self, evaluate: Callable[[Fraction], object], t: Fraction):
        self._evaluate, self._t, self._pid = evaluate, t, None
        if not _may_fork():
            return
        try:
            read, write = os.pipe()
        except OSError:
            return
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return
        if pid == 0:
            code = 1
            try:
                os.close(read)
                import pickle
                data = pickle.dumps(evaluate(t), pickle.HIGHEST_PROTOCOL)
                with open(write, "wb") as pipe:
                    pipe.write(data)
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self._pid, self._pipe = pid, open(read, "rb")

    def value(self):
        if self._pid is not None:
            data = self._pipe.read()
            self._pipe.close()
            _, status = os.waitpid(self._pid, 0)
            self._pid = None
            if os.waitstatus_to_exitcode(status) == 0:
                import pickle
                try:
                    return pickle.loads(data)
                except Exception:       # bytes that do not load are a child failure too
                    pass
        return self._evaluate(self._t)

    def close(self) -> None:
        if self._pid is not None:
            import signal
            pid, self._pid = self._pid, None
            self._pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def specialization_points(points: Sequence | None, seed: int,
                          evaluate: Callable[[Fraction], object]
                          ) -> list[tuple[Fraction, object]]:
    """The specialization points and ``evaluate`` at each, as (t, value) pairs.

    Explicit points must be rational, nonzero and distinct; a pole there
    propagates.  Fewer than two are filled up to two from the seeded stream,
    skipping the explicit points and any drawn point where ``evaluate``
    raises `PoleError`.  ``points=[]`` is the same as None.

    The first two candidates (explicit points first, then drawn ones) are
    evaluated at once: the second in a forked child (`_Ahead`) while this
    process evaluates the first.  The pairs, and any exception, are those of
    evaluating every candidate here in turn, and no child outlives the call.
    """
    explicit = [Fraction(p) for p in points or ()]
    if 0 in explicit:
        raise ValueError("specialization points must be nonzero")
    repeated = [p for i, p in enumerate(explicit) if p in explicit[:i]]
    if repeated:
        raise ValueError(f"specialization point {repeated[0]} is given more than once; "
                         "rank agreement needs distinct points")
    candidates = chain(explicit, (t for t in _point_stream(seed) if t not in explicit))
    head = list(islice(candidates, 2))
    ahead = _Ahead(evaluate, head[1])      # the stream holds far more than two points
    need = max(2, len(explicit))
    out = []
    try:
        for t in chain(head, candidates):
            try:
                out.append((t, ahead.value() if t is head[1] else evaluate(t)))
            except PoleError:
                if t in explicit:
                    raise
                continue
            if len(out) == need:
                return out
    finally:
        ahead.close()
    raise PoleError("the seeded point stream has no two pole-free points")


def certify(evaluate: Callable[[Fraction], object], exact: Callable[[], object],
            dim: int, *, points: Sequence | None = None, seed: int = 0
            ) -> tuple[list[tuple[Fraction, object]], object]:
    """Compare ``evaluate`` at the `specialization_points`: the (t, value)
    pairs and None when all values agree, else the pairs and ``exact()``
    (never None); above `EXACT_DIM_BOUND` that rerun is refused instead."""
    pairs = specialization_points(points, seed, evaluate)
    if all(value == pairs[0][1] for _, value in pairs):
        return pairs, None
    if dim > EXACT_DIM_BOUND:
        *rest, last = (str(t) for t, _ in pairs)
        raise SizeBoundError(
            f"specialized points {', '.join(rest)} and {last} disagreed, and exact "
            f"arbitration at tensor space dimension {dim} exceeds the exact-mode "
            f"bound {EXACT_DIM_BOUND}")
    return pairs, exact()


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
