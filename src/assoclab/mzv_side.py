"""Associator series whose coefficients are multiple zeta values.

The degree-r part is indexed by tuples of positive integer pairs
((p1,q1),...,(pg,qg)) with sum(p_i+q_i) = r.  Each index has the template
A^{p1} B^{q1} ... A^{pg} B^{qg} (``pq_word``), which is the zeta word of
its coefficient: the multiple zeta value of composition
(p1+1, {1}^(q1-1), ..., pg+1, {1}^(qg-1)).  That value multiplies a signed
binomial sum of words: inside the template, a block of s_i letters A is
clipped from the i-th A-run and appended at the right end, a block of t_i
letters B is clipped from the i-th B-run and prepended at the left end,
weighted by (-1)^{s_i+t_i} C(p_i,s_i) C(q_i,t_i).  The overall sign is
(-1)^{q1+...+qg}.  The sum is the deletion fold over the template with
both letters deletable, in which the binomials and signs arrive as merged
counts; one walk (``freealg.deletion_rows``) folds every template, the
words from A to B, and as their zeta words differ, no coefficient is a sum.
"""

from __future__ import annotations

from .symring import SymExpr, SymMonomial, compositions, word_composition, zeta
from .freealg import A, B, NCSeries, deletion_rows

# ((p1, q1), ..., (pg, qg)), all entries >= 1; only enumerate_pq builds one
Pairs = tuple[tuple[int, int], ...]


def enumerate_pq(r: int) -> list[Pairs]:
    """All pair compositions ((p1,q1),...,(pg,qg)) of r, grouped by g ascending.

    Within each g the interleaved tuples (p1,q1,p2,q2,...) are listed in
    descending lexicographic order; total count is sum_g C(r-1, 2g-1).
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    out: list[Pairs] = []
    for g in range(1, r // 2 + 1):
        for flat in reversed(list(compositions(r, 2 * g))):
            out.append(tuple(zip(flat[::2], flat[1::2])))
    return out


def pq_word(pairs: Pairs) -> str:
    """The template A^{p1} B^{q1} ... A^{pg} B^{qg}, the index's zeta word."""
    return "".join(A * p + B * q for p, q in pairs)


def phi_mzv(order: int) -> NCSeries:
    """Unit plus the degree 2..order contributions of the closed formula.

    Coefficients are emitted raw: both zeta[3] and zeta[2,1] occur, and no
    known relation between generators is applied here.
    """
    rows = deletion_rows(order, A + B, B, lambda x: SymMonomial(((zeta(word_composition(x)), 1),)))
    coeffs = {w: SymExpr.from_ints(1, row) for w, row in rows.items()}
    return NCSeries(order, {"": SymExpr.one(), **coeffs})
