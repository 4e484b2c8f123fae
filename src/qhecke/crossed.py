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
"""

from __future__ import annotations

from typing import Callable, Iterable

GROUP = (1, -1)


def check_crossed_axioms(apply_fn: Callable, alpha: Callable, one,
                         samples: Iterable) -> list[str]:
    """Return descriptions of axiom violations (empty list when all hold)."""
    bad: list[str] = []
    samples = list(samples)
    for s in GROUP:
        for t in GROUP:
            for idx, a in enumerate(samples):
                lhs = apply_fn(s, apply_fn(t, a))
                rhs = alpha(s, t) * apply_fn(s * t, a) * alpha(s, t)
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
        for s in GROUP:
            for t in GROUP:
                lhs = (a1 * embed(s)) * (a2 * embed(t))
                rhs = a1 * apply_fn(s, a2) * alpha(s, t) * embed(s * t)
                if not lhs == rhs:
                    bad.append(f"product law fails at (s,t)=({s},{t}), pair {idx}")
    return bad
