"""Exact operator matrices on the graded tensor power of a Z2-graded space.

The space V has homogeneous basis v_1 .. v_{m+n}; the first m vectors have
degree 0 and the rest degree 1.  Basis vectors of the r-fold tensor power are
indexed by letter tuples (k_1, ..., k_r), enumerated in lexicographic order;
matrix rows/columns use that lexicographic rank (0-based).

Three families of operators are built here, all with entries in Q(q):

* the Hecke action: each generator acts on two adjacent tensor slots by a
  graded swap-plus-deformation rule (and its involutive normalized variant),
  which at q = a/b also gives integer matrices (`pi_T`);
* the quantized-superalgebra action: one-site matrices for sigma, the
  diagonal weight operators, and the raising/lowering operators, extended to
  r slots by the coproduct-expanded sums;
* the graded flip: the signed tensor power of v_i -> v_{2m-i+1} (square
  space, m == n), which anticommutes with every involutive Hecke generator.

Matrices are sparse maps (row, col) -> coefficient with no stored zeros; the
arithmetic is generic in the coefficient field, so the same class carries
exact Q(q) entries, their rational specializations and the integer multiples
of those that `integral_specialization` makes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping

from .hecke import HeckeElement, symmetric_group_table
from .qfield import Q_MINUS_QINV, Q_PLUS_QINV, PoleError, RationalFunction, _as_point_value, _axpy
from .report import FrozenRecord


class GradedSpace(FrozenRecord):
    """Parameters of the graded tensor power: dim V_0 = m, dim V_1 = n, power r."""

    def __init__(self, m: int, n: int, r: int):
        if m < 0 or n < 0 or m + n < 1 or r < 1:
            raise ValueError("need m, n >= 0, m + n >= 1, r >= 1")
        super().__init__(m=m, n=n, r=r)

    @property
    def letters(self) -> int:
        return self.m + self.n

    @property
    def dim(self) -> int:
        return self.letters ** self.r

    def degree(self, k: int) -> int:
        """Degree of the basis vector v_k (letters are 1-based)."""
        if not 1 <= k <= self.letters:
            raise ValueError(f"letter {k} out of range")
        return 0 if k <= self.m else 1

    def indices(self) -> Iterable[tuple[int, ...]]:
        """All letter tuples in lexicographic (rank) order."""
        return itertools.product(range(1, self.letters + 1), repeat=self.r)

    def rank_of(self, idx: tuple[int, ...]) -> int:
        out = 0
        for k in idx:
            out = out * self.letters + (k - 1)
        return out

    def index_of(self, rank: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.r):
            rank, rem = divmod(rank, self.letters)
            out.append(rem + 1)
        return tuple(reversed(out))


class OperatorMatrix:
    """Sparse square matrix; coefficient type is any exact field element."""

    __slots__ = ("dim", "entries", "_rows")

    def __init__(self, dim: int, entries: Mapping[tuple[int, int], object] | None = None):
        self.dim = dim
        self.entries: dict[tuple[int, int], object] = _axpy({}, None, (entries or {}).items())

    @classmethod
    def identity(cls, dim: int, one=None) -> "OperatorMatrix":
        one = RationalFunction.one() if one is None else one
        return cls(dim, {(i, i): one for i in range(dim)})

    @property
    def nnz(self) -> int:
        return len(self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def _check_dim(self, other: "OperatorMatrix") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_dim(other)
        return self._raw(self.dim, _axpy(dict(self.entries), None, other.entries.items()))

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + (-other)

    def __neg__(self) -> "OperatorMatrix":
        return self._raw(self.dim, {k: -v for k, v in self.entries.items()})

    def __mul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_dim(other)
        rows = getattr(other, "_rows", None)   # built once: entries never change
        if rows is None:
            rows = other._rows = {}
            for (k, j), v in other.entries.items():
                rows.setdefault(k, []).append((j, v))
        out: dict[tuple[int, int], object] = {}
        for (i, k), u in self.entries.items():
            _axpy(out, u, [((i, j), v) for j, v in rows.get(k, ())])
        return self._raw(self.dim, out)

    @classmethod
    def _raw(cls, dim: int, entries: dict) -> "OperatorMatrix":
        obj = object.__new__(cls)
        obj.dim = dim
        obj.entries = entries
        return obj

    def scale(self, c) -> "OperatorMatrix":
        if not c:
            return self._raw(self.dim, {})
        return self._raw(self.dim, {k: v * c for k, v in self.entries.items()})

    def __eq__(self, other):
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        # entries are never mutated after construction
        return hash((self.dim, frozenset(self.entries.items())))

    def __repr__(self):
        return f"OperatorMatrix(dim={self.dim}, nnz={self.nnz})"

    def commutes_with(self, other: "OperatorMatrix") -> bool:
        return (self * other) == (other * self)

    def anticommutes_with(self, other: "OperatorMatrix") -> bool:
        return (self * other) == -(other * self)

    def flatten(self) -> dict[int, object]:
        """Row-major vector view, used by the linear-algebra layer."""
        d = self.dim
        return {i * d + j: v for (i, j), v in self.entries.items()}

    @classmethod
    def from_flat(cls, dim: int, vec: Mapping[int, object]) -> "OperatorMatrix":
        return cls._raw(dim, {divmod(k, dim): v for k, v in vec.items() if v})

    def dump_lines(self, limit: int | None = None) -> list[str]:
        """Sparse dump: `row col (num)/(den)` per entry, lexicographic order."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        lines = []
        for (i, j) in sorted(self.entries)[:limit]:
            v = self.entries[(i, j)]
            if isinstance(v, RationalFunction):
                s = v.dump_str()
            elif isinstance(v, Fraction):
                s = f"({v.numerator})/({v.denominator})"
            else:
                s = str(v)
            lines.append(f"{i} {j} {s}")
        return lines


def _operator(space: GradedSpace,
              images: Callable[[tuple[int, ...]], Iterable[tuple]]) -> OperatorMatrix:
    """The linear map sending each basis tensor to the sum of the (tensor,
    coefficient) pairs that ``images`` gives for it; columns in rank order."""
    rank_of = space.rank_of
    pairs = [((rank_of(t), col), c)
             for col, idx in enumerate(space.indices()) for t, c in images(idx)]
    return OperatorMatrix._raw(space.dim, _axpy({}, None, pairs))


# ---------------------------------------------------------------------------
# the Hecke action
# ---------------------------------------------------------------------------

def _two_site_operator(space: GradedSpace, i: int,
                       rule: Callable[[int, int], list]) -> OperatorMatrix:
    """Embed a two-letter rule at tensor slots (i, i+1), identity elsewhere."""
    if not 1 <= i <= space.r - 1:
        raise ValueError(f"site index {i} out of range for r={space.r}")
    letters = range(1, space.letters + 1)
    local = {(k, l): rule(k, l) for k in letters for l in letters}
    return _operator(space, lambda idx: [(idx[:i - 1] + pair + idx[i + 1:], c)
                                         for pair, c in local[idx[i - 1:i + 1]]])


def pi_T(space: GradedSpace, i: int, point=None) -> OperatorMatrix:
    """Matrix of the Hecke generator T_i on the graded tensor power; at q = a/b
    (``point``) the int matrix ab T_i(a/b): q, q^-1, 1 in the rule are a^2, b^2, ab."""
    if point is None:
        q, qinv, one = RationalFunction.q(), RationalFunction.q(-1), RationalFunction.one()
    else:
        t = _as_point_value(point)
        q, qinv, one = t.numerator ** 2, t.denominator ** 2, t.numerator * t.denominator
    qm = q - qinv
    diag = {0: q, 1: -qinv}    # ((-1)^d (q+q^-1) + (q-q^-1)) / 2 for degree d

    def rule(k: int, l: int) -> list:
        if k == l:
            return [((k, l), diag[space.degree(k)])]
        sign = -one if space.degree(k) * space.degree(l) else one
        if k < l:
            return [((l, k), sign), ((k, l), qm)]
        return [((l, k), sign)]

    return _two_site_operator(space, i, rule)


def y_matrices(t_gens: list[OperatorMatrix], qm) -> list[OperatorMatrix]:
    """The Y_j = 2 T_j - (q - q^-1) = (q + q^-1) T'_j from the T_j and ``qm`` =
    q - q^-1, both over Q(q) or both ab times their values at q = a/b."""
    return [t.scale(2) - OperatorMatrix.identity(t.dim, qm) for t in t_gens]


def pi_Tprime(space: GradedSpace, i: int) -> OperatorMatrix:
    """Matrix of the involutive generator T'_i = Y_i / (q + q^-1)."""
    return y_matrices([pi_T(space, i)], Q_MINUS_QINV)[0].scale(Q_PLUS_QINV.inverse())


def sign_permutation_matrix(space: GradedSpace, i: int) -> OperatorMatrix:
    """The classical signed swap of slots (i, i+1): the q -> 1 limit oracle.

    Built directly from the sign rule v_k ⊗ v_l -> (-1)^{|k||l|} v_l ⊗ v_k,
    with Fraction entries, independently of the q-deformed construction.
    """
    def rule(k: int, l: int) -> list:
        return [((l, k), Fraction((-1) ** (space.degree(k) * space.degree(l))))]

    return _two_site_operator(space, i, rule)


# ---------------------------------------------------------------------------
# the quantized-superalgebra action
# ---------------------------------------------------------------------------

class RootDatum(FrozenRecord):
    """Root data of the general linear superalgebra of shape (m, n).

    The simple-root index set is I = {1, ..., m+n-1}; index m is the odd one
    (when n >= 1).  The bilinear form is +1 on the first m weight directions
    and -1 on the rest, and the pairing used by the one-site weight matrices
    is (alpha_i, eps_b).
    """

    def __init__(self, m: int, n: int):
        super().__init__(m=m, n=n)

    @property
    def index_set(self) -> range:
        return range(1, self.m + self.n)

    def parity(self, i: int) -> int:
        return 1 if (i == self.m and self.n >= 1) else 0

    def eps_form(self, a: int, b: int) -> int:
        if a != b:
            return 0
        return 1 if a <= self.m else -1

    def alpha_pairing(self, i: int, b: int) -> int:
        """(alpha_i, eps_b) with alpha_i = eps_i - eps_{i+1}."""
        return self.eps_form(i, b) - self.eps_form(i + 1, b)


def rho_sigma(space: GradedSpace) -> OperatorMatrix:
    """Diagonal grading involution: sign (-1)^(total degree)."""
    one = RationalFunction.one()
    return _operator(space, lambda idx: [
        (idx, -one if sum(space.degree(k) for k in idx) % 2 else one)])


def rho_weight(space: GradedSpace, b: int) -> OperatorMatrix:
    """Diagonal q-weight operator counting occurrences of the letter b."""
    if not 1 <= b <= space.letters:
        raise ValueError(f"weight index {b} out of range")
    return rho_weight_vector(space, tuple(int(k == b) for k in range(1, space.letters + 1)))


def rho_weight_vector(space: GradedSpace, weights: tuple[int, ...]) -> OperatorMatrix:
    """Diagonal action of a general integer weight: v_j scales by q^weights[j-1].

    This realizes an arbitrary element of the coweight lattice as the product
    of dual-basis weight operators raised to the given integer exponents.
    """
    if len(weights) != space.letters:
        raise ValueError(f"need {space.letters} weight entries")
    return _operator(space, lambda idx: [
        (idx, RationalFunction.q(sum(weights[k - 1] for k in idx)))])


def _rho_root(space: GradedSpace, datum: RootDatum, i: int, raising: bool) -> OperatorMatrix:
    """Root operator at root i, coproduct-expanded over the r slots.

    The raising operator moves a letter i+1 at slot t to i and weighs it by
    q to the negated pairing sum over the slots after t; the lowering operator
    moves i to i+1 and uses the pairing sum over the slots before t.
    """
    if i not in datum.index_set:
        raise ValueError(f"root index {i} out of range")
    p = datum.parity(i)
    src, dst = (i + 1, i) if raising else (i, i + 1)

    def images(idx):
        for t in range(space.r):
            if idx[t] != src:
                continue
            if raising:
                expo = -sum(datum.alpha_pairing(i, idx[s]) for s in range(t + 1, space.r))
            else:
                expo = sum(datum.alpha_pairing(i, idx[s]) for s in range(t))
            coeff = RationalFunction.q(expo)
            if p and sum(space.degree(idx[s]) for s in range(t)) % 2:
                coeff = -coeff
            yield idx[:t] + (dst,) + idx[t + 1:], coeff

    return _operator(space, images)


def rho_e(space: GradedSpace, datum: RootDatum, i: int) -> OperatorMatrix:
    """Raising operator at root i, coproduct-expanded over the r slots."""
    return _rho_root(space, datum, i, raising=True)


def rho_f(space: GradedSpace, datum: RootDatum, i: int) -> OperatorMatrix:
    """Lowering operator at root i, coproduct-expanded over the r slots."""
    return _rho_root(space, datum, i, raising=False)


def rho_generator(space: GradedSpace, kind: str, index: int | None = None,
                  datum: RootDatum | None = None) -> OperatorMatrix:
    """Dispatch by generator label: 'sigma', 'qh' (weight), 'e', 'f'."""
    datum = datum or RootDatum(space.m, space.n)
    if kind == "sigma":
        return rho_sigma(space)
    if kind == "qh":
        return rho_weight(space, index)
    if kind == "e":
        return rho_e(space, datum, index)
    if kind == "f":
        return rho_f(space, datum, index)
    raise ValueError(f"unknown generator label {kind!r}")


def rho_generators(space: GradedSpace) -> list[tuple[str, OperatorMatrix]]:
    """Labelled generator matrices of the superalgebra image, fixed order."""
    datum = RootDatum(space.m, space.n)
    out = [("sigma", rho_sigma(space))]
    for b in range(1, space.letters + 1):
        out.append((f"qh{b}", rho_weight(space, b)))
    for i in datum.index_set:
        out.append((f"e{i}", rho_e(space, datum, i)))
        out.append((f"f{i}", rho_f(space, datum, i)))
    return out


# ---------------------------------------------------------------------------
# the graded flip (square case)
# ---------------------------------------------------------------------------

def phi_tensor(space: GradedSpace) -> OperatorMatrix:
    """Signed tensor power of the flip v_k -> v_{2m-k+1}; requires m == n."""
    if space.m != space.n:
        raise ValueError("the graded flip needs dim V_0 == dim V_1")
    two_m = 2 * space.m
    one = RationalFunction.one()

    def images(idx):
        # sign exponent: sum over slots i >= 2 of the degrees before slot i
        expo = sum(space.degree(k) * (space.r - j - 1) for j, k in enumerate(idx))
        return [(tuple(two_m - k + 1 for k in idx), -one if expo % 2 else one)]

    return _operator(space, images)


# ---------------------------------------------------------------------------
# representing Hecke elements and specializing
# ---------------------------------------------------------------------------

class PiRepresentation:
    """Cached matrices of the Hecke action for one graded space."""

    def __init__(self, space: GradedSpace):
        self.space = space
        self.table = symmetric_group_table(space.r)
        self._gens: dict[tuple[str, int], OperatorMatrix] = {}
        self._words = {self.table.identity: OperatorMatrix.identity(space.dim)}

    def _generator(self, key: tuple[str, int], build) -> OperatorMatrix:
        mat = self._gens.get(key)
        if mat is None:
            mat = self._gens[key] = build()
        return mat

    def t_matrix(self, i: int) -> OperatorMatrix:
        return self._generator(("T", i), lambda: pi_T(self.space, i))

    def tprime_matrix(self, i: int) -> OperatorMatrix:
        return self._generator(("T'", i), lambda: pi_Tprime(self.space, i))

    def t_matrices(self) -> list[OperatorMatrix]:
        return [self.t_matrix(i) for i in range(1, self.space.r)]

    def tprime_matrices(self) -> list[OperatorMatrix]:
        return [self.tprime_matrix(i) for i in range(1, self.space.r)]

    def x_matrix(self, i: int) -> OperatorMatrix:
        """Image of the even generator X_i = T'_1 T'_{i+1}."""
        if not 1 <= i <= self.space.r - 2:
            raise ValueError(f"X generator index {i} out of range")
        return self._generator(("X", i), lambda: self.tprime_matrix(1) * self.tprime_matrix(i + 1))

    def x_matrices(self) -> list[OperatorMatrix]:
        return [self.x_matrix(i) for i in range(1, self.space.r - 1)]

    def hecke_generators(self, point=None) -> tuple:
        """The T_j, Y_j and X~_i = Y_1 Y_{i+1} = (q + q^-1)^2 X_i over Q(q) (Laurent
        entries), or at q = a/b primitive integer multiples of their values."""
        if point is None:
            ts, qm, prim = self.t_matrices(), Q_MINUS_QINV, lambda g: g
        else:
            t = _as_point_value(point)
            ts = [pi_T(self.space, j, t) for j in range(1, self.space.r)]
            qm, prim = t.numerator ** 2 - t.denominator ** 2, _primitive
        ys = y_matrices(ts, qm)
        return [prim(g) for g in ts], [prim(y) for y in ys], [prim(ys[0] * y) for y in ys[1:]]

    def word_matrix(self, word) -> OperatorMatrix:
        return self.table.word_image(self._words, self.table.index[tuple(word)],
                                     lambda g, rest: self.t_matrix(g) * rest)

    def represent(self, x: HeckeElement) -> OperatorMatrix:
        """Linear extension of the action over the normal-form basis."""
        if x.rank != self.space.r:
            raise ValueError(f"element rank {x.rank} != tensor power {self.space.r}")
        out: dict = {}
        for word, c in x.coeffs.items():
            _axpy(out, c, self.word_matrix(word).entries.items())
        return OperatorMatrix._raw(self.space.dim, out)


def represent(x: HeckeElement, space: GradedSpace) -> OperatorMatrix:
    return PiRepresentation(space).represent(x)


def integral_specialization(matrix: OperatorMatrix, point) -> OperatorMatrix:
    """A primitive integer matrix (its entries have gcd 1) that is a nonzero
    rational multiple of the value at q = t; raises PoleError as
    `specialize_matrix` does.

    With every entry a Laurent polynomial over Z and t = a/b, entry p is
    b^hi a^-lo p(a/b) = sum_e c_e a^(e-lo) b^(hi-e), lo and hi the least and
    greatest exponent in the matrix, so no `Fraction` is made.  Other entries
    are specialized and their denominators cleared.
    """
    t = _as_point_value(point)
    values = set(matrix.entries.values())
    if all(isinstance(v, RationalFunction) and len(v.den.terms) == 1 for v in values):
        a, b = t.numerator, t.denominator
        exps = [e for v in values for e in v.num.terms]
        lo, hi = min(exps, default=0), max(exps, default=0)
        at = {v: sum(c * a ** (e - lo) * b ** (hi - e) for e, c in v.num.terms.items())
              for v in values}
        entries = {k: at[v] for k, v in matrix.entries.items()}
    else:
        entries = specialize_matrix(matrix, t).entries
    scale = lcm(*(v.denominator for v in entries.values()))
    return _primitive(OperatorMatrix._raw(matrix.dim, {k: int(v * scale)
                                                       for k, v in entries.items() if v}))


def _primitive(matrix: OperatorMatrix) -> OperatorMatrix:
    """An integer matrix divided by the gcd of its entries."""
    g = gcd(*matrix.entries.values())
    return OperatorMatrix._raw(matrix.dim, {k: v // g for k, v in matrix.entries.items()})


def specialize_matrix(matrix: OperatorMatrix, point) -> OperatorMatrix:
    """Entrywise evaluation at q = t, entries in Q kept; raises PoleError naming the entry.

    Each distinct entry value is evaluated once (the generators repeat a few
    values many times), so a pole names the first entry that holds it.
    """
    t = _as_point_value(point)
    out: dict[tuple[int, int], Fraction] = {}
    values: dict[object, Fraction] = {}
    for key, v in matrix.entries.items():
        val = values.get(v)
        if val is None:
            try:
                val = values[v] = (v.specialize(t) if isinstance(v, RationalFunction)
                                   else Fraction(v))
            except PoleError as exc:
                raise PoleError(f"entry {key[0]},{key[1]}: {exc}") from None
        if val:
            out[key] = val
    return OperatorMatrix._raw(matrix.dim, out)
