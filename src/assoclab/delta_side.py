"""Associator series whose coefficients are polylogarithms at one half.

One factor is the series Xi_B = 1 + sum over index words (l1,...,lr) of
I[l1,...,lr] * ad_B^{l1}(A) ... ad_B^{lr}(A), where I[...] is an iterated
kernel integral that collapses, via nested geometric summation, to an exact
integer combination of delta values (the composition-indexed polylogarithms
at argument 1/2).  The full series is the product

    exp(c B) * Xi_B * inverse(Xi_A) * exp(-c A),

with c = log 2 and Xi_A the letter swap of Xi_B.  It is built from the one
factor psi = exp(c B) * Xi_B, whose letter swap is exp(c A) * Xi_A, as the
quotient Phi = psi / swap(psi): the series with Phi * swap(psi) = psi.  So
only Xi_B and exp(c B) are ever built.

This module owns the kernel-integral expansion (``iint_terms``) and both of
its readings: over delta generators (``iint_to_sym``) and, for the zeta
kernel of the shuffle relations, over zeta generators (``iint_to_zeta``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .symring import SymExpr, SymMonomial, LOG2, compositions, delta, zeta
from .freealg import A, B, NCSeries, ad_words, nc_div, nc_mul, nc_swap, nc_word_sums


def index_weight(ix) -> int:
    """Total degree r + l1 + ... + lr contributed by I[l1,...,lr]."""
    ix = tuple(ix)
    return len(ix) + sum(ix)


def index_words(max_weight: int) -> list[tuple[int, ...]]:
    """All nonempty index words of weight <= max_weight.

    Ordered by weight, then length, then lexicographically; 2^(d-1) words
    per weight d.
    """
    out: list[tuple[int, ...]] = []
    for d in range(1, max_weight + 1):
        for r in range(1, d + 1):
            # the weak compositions of d - r into r parts, lex ascending
            out.extend(tuple(p - 1 for p in comp) for comp in compositions(d, r))
    return out


def iint_terms(levels: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """(binomial coefficient, composition) pairs of the kernel-integral expansion.

    A left fold over the indices with state (carry, parts, coefficient): index
    j multiplies the coefficient by C(l_j + m_{j-1}, l_j), then branches on
    each carry m_j in 0..l_j + m_{j-1} (0 alone at the last index) and prepends
    the part l_j + m_{j-1} - m_j + 1.  Terms come lex in the carry vector.
    """
    levels = tuple(levels)
    states = [(0, (), 1)]
    for j, l in enumerate(levels, 1):
        states = [
            (m, (l + carry - m + 1,) + parts, coeff * comb(l + carry, l))
            for carry, parts, coeff in states
            for m in range(l + carry + 1 if j < len(levels) else 1)
        ]
    return [(coeff, parts) for _, parts, coeff in states]


def _kernel_expr(levels: tuple[int, ...], gen) -> SymExpr:
    """Sum of k * gen(parts) over the (k, parts) pairs of iint_terms(levels)."""
    # distinct carry vectors give distinct compositions, so no key repeats
    return SymExpr({SymMonomial(((gen(parts), 1),)): k for k, parts in iint_terms(levels)})


@lru_cache(maxsize=None)
def iint_to_sym(levels: tuple[int, ...]) -> SymExpr:
    """Exact value of I[levels] over the delta and log-2 generators.

    Empty word gives 1; the all-zero word of length r gives c^r/r! because
    the corresponding all-ones polylogarithm is a pure log power.  Every
    other word yields a sum of genuine delta generators: an all-ones
    composition forces every index to zero.
    """
    levels = tuple(int(l) for l in levels)
    if any(l < 0 for l in levels):
        raise ValueError("indices must be >= 0")
    r = len(levels)
    if r == 0:
        return SymExpr.one()
    if all(l == 0 for l in levels):
        return SymExpr.gen(LOG2, r, Fraction(1, factorial(r)))
    return _kernel_expr(levels, delta)


def iint_to_zeta(levels) -> SymExpr:
    """Zeta-kernel analogue of iint_to_sym; needs every index >= 1.

    Positivity of the first index makes the defining integral convergent,
    positivity of the last one makes every emitted composition admissible.
    """
    levels = tuple(int(l) for l in levels)
    if not levels or min(levels) < 1:
        raise ValueError("all indices must be >= 1, got %r" % (levels,))
    return _kernel_expr(levels, zeta)


def xi_series(order: int) -> NCSeries:
    """Xi_B: the sum of I[levels] times ad_B^l1(A) ... ad_B^lr(A).

    Index words are cut off at total degree ``order``.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return nc_word_sums(
        order,
        ((iint_to_sym(levels), ad_words(B, A, levels)) for levels in index_words(order)),
    )


def psi_series(order: int) -> NCSeries:
    """exp(cB) * Xi_B, the left half of the delta-side product."""
    # exp(cB) is the word sum 1 + sum of c^k/k! B^k
    exp_cb = nc_word_sums(
        order,
        ((SymExpr.gen(LOG2, k, Fraction(1, factorial(k))), {B * k: 1}) for k in range(1, order + 1)),
    )
    return nc_mul(exp_cb, xi_series(order))


def phi_delta(order: int) -> NCSeries:
    """exp(cB) * Xi_B * inverse(Xi_A) * exp(-cA) at the given order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    psi = psi_series(order)
    return nc_div(psi, nc_swap(psi))
