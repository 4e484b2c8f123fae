"""Partitions, hooks, and the predicted centralizer dimensions.

Partitions of r are weakly decreasing tuples of positive integers.  The
enumeration order is descending lexicographic: (r) first, (1,...,1) last,
comparing entrywise at the first difference.  A partition lies in the
(m,n)-hook when every row beyond the m-th has length at most n; the hook set
splits into the self-paired part (conjugate also a hook) and the rest, which
drives the dimension bookkeeping for the even subalgebra's image:

* the full image has dimension  sum of d^2 over hook partitions;
* the even image counts each conjugate pair once, splits each self-conjugate
  shape into two half-size blocks, and keeps the unpaired shapes whole.

Here d is the number of standard Young tableaux of the shape, computed by the
hook-length formula (the test suite cross-checks it against brute-force
tableau enumeration).
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .report import FrozenRecord

Partition = tuple[int, ...]


def check_partition(parts: Partition) -> Partition:
    parts = tuple(int(p) for p in parts)
    if not all(p > 0 for p in parts):
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


@cache
def enumerate_partitions(r: int) -> tuple[Partition, ...]:
    """All partitions of r in descending lexicographic order."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return ((),)

    def gen(total: int, bound: int):
        if total == 0:
            yield ()
            return
        for first in range(min(total, bound), 0, -1):
            for rest in gen(total - first, first):
                yield (first, *rest)

    return tuple(gen(r, r))


def conjugate(partition: Partition) -> Partition:
    """Transpose of the Young diagram."""
    partition = check_partition(partition)
    if not partition:
        return ()
    return tuple(sum(1 for p in partition if p > i) for i in range(partition[0]))


def d_lambda(partition: Partition) -> int:
    """Number of standard Young tableaux, by the hook-length formula."""
    partition = check_partition(partition)
    r = sum(partition)
    if r == 0:
        return 1
    conj = conjugate(partition)
    hooks = 1
    for i, row in enumerate(partition):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(r) // hooks


class HookClassification(FrozenRecord):
    """The (m,n)-hook partitions of r, split by whether the conjugate is one too."""

    def __init__(self, m: int, n: int, r: int, hooks: tuple[Partition, ...],
                 h0: tuple[Partition, ...], h1: tuple[Partition, ...]):
        # h0: conjugate also a hook; h1: conjugate falls outside
        super().__init__(m=m, n=n, r=r, hooks=hooks, h0=h0, h1=h1)


def in_hook(partition: Partition, m: int, n: int) -> bool:
    """Rows beyond the m-th must have length at most n."""
    return all(p <= n for p in partition[m:])


def hook_classify(m: int, n: int, r: int) -> HookClassification:
    if m < 0 or n < 0 or m + n < 1 or r < 1:
        raise ValueError("need m, n >= 0, m + n >= 1, r >= 1")
    hooks = tuple(p for p in enumerate_partitions(r) if in_hook(p, m, n))
    hook_set = set(hooks)
    h0 = tuple(p for p in hooks if conjugate(p) in hook_set)
    h1 = tuple(p for p in hooks if conjugate(p) not in hook_set)
    return HookClassification(m, n, r, hooks, h0, h1)


class DimensionReport(FrozenRecord):
    """Predicted dimensions of the tensor images and their graded pieces.

    Per-shape records carry (partition, d, class) with class one of
    'h0-pair', 'h0-selfconj', 'h1'.  The totals satisfy, by construction:
    dimA = dimA0 + dimA1, dimC = dimC0 + dimC1, dimA0 = 2*dimC0 and
    dimA1 = dimC1; the report constructor asserts them anyway.
    """

    def __init__(self, m: int, n: int, r: int, records: tuple[tuple[Partition, int, str], ...],
                 dimA: int, dimA0: int, dimA1: int, dimC: int, dimC0: int, dimC1: int):
        super().__init__(m=m, n=n, r=r, records=records, dimA=dimA, dimA0=dimA0, dimA1=dimA1,
                         dimC=dimC, dimC0=dimC0, dimC1=dimC1)


def predicted_dimensions(m: int, n: int, r: int) -> DimensionReport:
    """Dimension bookkeeping over the (m,n)-hook partitions of r.

    The full image dimension is the sum of d^2 over hooks.  For the even
    subalgebra's image: conjugate pairs inside the hook merge (count d^2
    once per pair), self-conjugate shapes contribute two blocks of size d/2
    (d must be even there, which is asserted), and unpaired hooks contribute
    d^2 unchanged.

    Requires r >= 2: with no generators the even subalgebra is the whole
    algebra and the halving rule does not apply.
    """
    if r < 2:
        raise ValueError("dimension bookkeeping needs r >= 2")
    cls = hook_classify(m, n, r)
    records = []
    dimA = dimA0 = dimA1 = dimC0 = dimC1 = 0
    for p in cls.hooks:
        d = d_lambda(p)
        dimA += d * d
        if p in set(cls.h1):
            records.append((p, d, "h1"))
            dimA1 += d * d
            dimC1 += d * d
        elif conjugate(p) == p:
            if d % 2:
                raise ArithmeticError(
                    f"self-conjugate shape {p} has odd tableau count {d}; "
                    "the even subalgebra could not split it in half")
            records.append((p, d, "h0-selfconj"))
            dimA0 += d * d
            dimC0 += 2 * (d // 2) ** 2
        else:
            records.append((p, d, "h0-pair"))
            dimA0 += d * d
            if p > conjugate(p):
                dimC0 += d * d
    dimC = dimC0 + dimC1
    report = DimensionReport(m, n, r, tuple(records), dimA, dimA0, dimA1, dimC, dimC0, dimC1)
    if report.dimA != report.dimA0 + report.dimA1:
        raise AssertionError("graded pieces of the full image do not add up")
    if report.dimA0 != 2 * report.dimC0 or report.dimA1 != report.dimC1:
        raise AssertionError("even-image dimension identities violated")
    return report
