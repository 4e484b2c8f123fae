"""Generic verification of Z2 crossed-system data.

A crossed system over the group Z2 = {1, -1} consists of a weak action psi
(an automorphism for each group element) and a cocycle alpha valued in the
units of the base algebra, subject to

  (cs1)  psi_s(psi_t(a)) == alpha(s,t) * psi_{st}(a) * alpha(s,t)^{-1}
  (cs2)  psi_{s1}(alpha(s2,s3)) * alpha(s1, s2*s3) == alpha(s1,s2) * alpha(s1*s2, s3)
  (cs3)  alpha(s,1) == alpha(1,s) == 1

The cocycle values must square to one (trivially on the Hecke side, sign *
identity on tensor space), so alpha(s,t) is its own inverse in (cs1).

The induced crossed-product multiplication on pairs (a, u_s) is

  (a1 u_s)(a2 u_t) = a1 * psi_s(a2) * alpha(s,t) u_{st}.

The checkers below are agnostic to the algebra: they only use ``*``, ``==``
and the supplied callables, so the same code validates the Hecke-side system
(elements of the q-alternating subalgebra) and the matrix-side system
(centralizer algebras on tensor space).

Each factor is computed once: the axioms apply psi_t once per (t, sample),
and the product law multiplies ``a2 * embed(t)`` once per t and
``a1 * embed(s)``, ``a1 * psi_s(a2)`` once per s for each sample pair.
Callers pass the action through `memoized_action`, so the suite's own checks
and both checkers share every conjugate, each computed once per distinct
argument.  The memo belongs to one suite call and dies with it.
`add_crossed_records` runs both checkers and adds their two report records,
for the Hecke side and the tensor side alike.
"""

from __future__ import annotations

from typing import Callable, Iterable

GROUP = (1, -1)


def memoized_action(conjugate: Callable) -> Callable:
    """The weak action with psi_1 the identity and psi_{-1} = ``conjugate``.

    ``conjugate`` runs once per distinct (hashable) argument value; the memo
    lives as long as the returned function.
    """
    memo: dict = {}

    def apply_fn(s, a):
        if s == 1:
            return a
        out = memo.get(a)
        if out is None:
            out = memo[a] = conjugate(a)
        return out

    return apply_fn


def check_crossed_axioms(apply_fn: Callable, alpha: Callable, one,
                         samples: Iterable) -> list[str]:
    """Return descriptions of axiom violations (empty list when all hold)."""
    bad: list[str] = []
    samples = list(samples)
    moved = {t: [apply_fn(t, a) for a in samples] for t in GROUP}
    for s in GROUP:
        for t in GROUP:
            for idx, a_t in enumerate(moved[t]):
                lhs = apply_fn(s, a_t)
                rhs = alpha(s, t) * moved[s * t][idx] * alpha(s, t)
                if not lhs == rhs:
                    bad.append(f"weak-action axiom fails at (s,t)=({s},{t}), sample {idx}")
    for s1 in GROUP:
        for s2 in GROUP:
            for s3 in GROUP:
                lhs = apply_fn(s1, alpha(s2, s3)) * alpha(s1, s2 * s3)
                rhs = alpha(s1, s2) * alpha(s1 * s2, s3)
                if not lhs == rhs:
                    bad.append(f"cocycle axiom fails at ({s1},{s2},{s3})")
    for s in GROUP:
        if not alpha(s, 1) == one or not alpha(1, s) == one:
            bad.append(f"unit normalization fails at s={s}")
    return bad


def check_crossed_embedding(apply_fn: Callable, alpha: Callable, embed: Callable,
                            pairs: Iterable) -> list[str]:
    """Check that the crossed-product law matches plain multiplication.

    ``embed(s)`` is the image of the basis unit u_s inside the target algebra;
    for each sample pair (a1, a2) and signs (s, t) the identity

        (a1 * embed(s)) * (a2 * embed(t))
            == a1 * psi_s(a2) * alpha(s,t) * embed(s*t)

    is verified with exact equality.
    """
    bad: list[str] = []
    for idx, (a1, a2) in enumerate(pairs):
        right = {t: a2 * embed(t) for t in GROUP}
        for s in GROUP:
            left, twisted = a1 * embed(s), a1 * apply_fn(s, a2)
            for t in GROUP:
                lhs = left * right[t]
                rhs = twisted * alpha(s, t) * embed(s * t)
                if not lhs == rhs:
                    bad.append(f"product law fails at (s,t)=({s},{t}), pair {idx}")
    return bad


def add_crossed_records(report, apply_fn: Callable, alpha: Callable, one, samples: list,
                        embed: Callable, pairs: list) -> None:
    """Add the ``crossed-system-axioms`` and ``crossed-product-law`` records,
    each naming up to five violations as its witness."""
    axiom_failures = check_crossed_axioms(apply_fn, alpha, one, samples)
    report.add("crossed-system-axioms", not axiom_failures,
               witness="; ".join(axiom_failures[:5]))
    law_failures = check_crossed_embedding(apply_fn, alpha, embed, pairs)
    report.add("crossed-product-law", not law_failures,
               expected=f"{len(pairs)} pairs x 4 sign patterns",
               actual="all equal" if not law_failures else f"{len(law_failures)} failures",
               witness="; ".join(law_failures[:5]))
