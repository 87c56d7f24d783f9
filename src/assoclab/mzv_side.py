"""Associator series whose coefficients are multiple zeta values.

The degree-r part is indexed by tuples of positive integer pairs
((p1,q1),...,(pg,qg)) with sum(p_i+q_i) = r.  Each index contributes the
multiple zeta value of composition (p1+1, {1}^(q1-1), ..., pg+1, {1}^(qg-1))
times a signed binomial sum of words: inside the template
A^{p1} B^{q1} ... A^{pg} B^{qg}, a block of s_i letters A is clipped from the
i-th A-run and appended at the right end, a block of t_i letters B is clipped
from the i-th B-run and prepended at the left end, weighted by
(-1)^{s_i+t_i} C(p_i,s_i) C(q_i,t_i).  The overall sign is (-1)^{q1+...+qg}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .symring import SymExpr, zeta
from .freealg import NCSeries, nc_word_sums


@dataclass(frozen=True)
class PQComposition:
    """Tuple of (p_i, q_i) pairs, all entries >= 1."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("at least one pair required")
        for p, q in self.pairs:
            if p < 1 or q < 1:
                raise ValueError("pair entries must be >= 1")

    @property
    def g(self) -> int:
        return len(self.pairs)

    @property
    def degree(self) -> int:
        return sum(p + q for p, q in self.pairs)

    def interleaved(self) -> tuple[int, ...]:
        out: list[int] = []
        for p, q in self.pairs:
            out.append(p)
            out.append(q)
        return tuple(out)


def _positive_compositions(total: int, parts: int):
    # stars and bars; cut positions chosen among total-1 gaps
    for cuts in combinations(range(1, total), parts - 1):
        prev = 0
        comp = []
        for c in cuts:
            comp.append(c - prev)
            prev = c
        comp.append(total - prev)
        yield tuple(comp)


def enumerate_pq(r: int) -> list[PQComposition]:
    """All pair compositions of r, grouped by g ascending.

    Within each g the interleaved tuples (p1,q1,p2,q2,...) are listed in
    descending lexicographic order; total count is sum_g C(r-1, 2g-1).
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    out: list[PQComposition] = []
    for g in range(1, r // 2 + 1):
        block = sorted(_positive_compositions(r, 2 * g), reverse=True)
        for flat in block:
            pairs = tuple((flat[2 * i], flat[2 * i + 1]) for i in range(g))
            out.append(PQComposition(pairs))
    return out


def zeta_composition(pq: PQComposition) -> tuple[int, ...]:
    """Composition (p1+1, {1}^(q1-1), ..., pg+1, {1}^(qg-1)); always admissible."""
    parts: list[int] = []
    for p, q in pq.pairs:
        parts.append(p + 1)
        parts.extend([1] * (q - 1))
    return tuple(parts)


def dual_composition(pq: PQComposition) -> PQComposition:
    """Reverse the pair list and swap p and q within each pair."""
    return PQComposition(tuple((q, p) for p, q in reversed(pq.pairs)))


def _word_sum(pq: PQComposition) -> dict[str, int]:
    """Signed word multiset for one index, coefficients as plain integers."""
    pairs = pq.pairs
    out: dict[str, int] = {}
    s_ranges = [range(p + 1) for p, _ in pairs]
    t_ranges = [range(q + 1) for _, q in pairs]
    for svec in product(*s_ranges):
        for tvec in product(*t_ranges):
            count = 1
            for (p, q), s, t in zip(pairs, svec, tvec):
                count *= comb(p, s) * comb(q, t)
            if (sum(svec) + sum(tvec)) % 2:
                count = -count
            chunks = ["B" * sum(tvec)]
            for (p, q), s, t in zip(pairs, svec, tvec):
                chunks.append("A" * (p - s))
                chunks.append("B" * (q - t))
            chunks.append("A" * sum(svec))
            w = "".join(chunks)
            out[w] = out.get(w, 0) + count
    return {w: c for w, c in out.items() if c}


def phi_mzv(order: int) -> NCSeries:
    """Unit plus the degree 2..order contributions of the closed formula.

    Coefficients are emitted raw: both zeta[3] and zeta[2,1] occur, and no
    known relation between generators is applied here.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    terms = (
        (SymExpr.gen(zeta(zeta_composition(pq)), coeff=(-1) ** sum(q for _, q in pq.pairs)),
         _word_sum(pq))
        for r in range(2, order + 1)
        for pq in enumerate_pq(r)
    )
    return nc_word_sums(order, terms)
