"""Associator series whose coefficients are polylogarithms at one half.

The series is exp(c B) * Xi_B * inverse(Xi_A) * exp(-c A), with c = log 2
and Xi_A the letter swap of Xi_B.  It is the quotient psi / swap(psi) of the
one factor psi = exp(c B) * Xi_B, so only Xi_B and exp(c B) are ever built.

Xi_B is the zeta side's deletion fold with only B deletable: the
regularisation of Ihara, Kaneko and Zagier on [0, 1/2], read through
``dual_word``.  Over the words x that start with A,

    Xi_B = 1 + sum of (-1)^#B(x) D(x) fold(x, B),

with D(x) = d[word_composition(dual_word(x))] and D(A^k) = c^k/k!, all
x folded in one walk (``freealg.deletion_rows``).  D is one to one, and
A^k is reached only from x = A^k, so no coefficient is a sum.  The
paper's formula, kernel integrals I[l1,...,lr] times ad_B^{l1}(A) ...
ad_B^{lr}(A), is kept as the test oracle ``xi_series_by_kernels``.

The kernel-integral expansion (``iint_terms``) is read once, over delta
generators (``iint_to_sym``, read by the shuffle rows, the acceptance gate
and ``selftest``); each zeta-kernel shuffle row is its delta row read
with z[s] for d[s], in ``relations``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .symring import SymExpr, SymMonomial, LOG2, compositions, delta, dual_word, word_composition
from .freealg import A, B, NCSeries, deletion_rows, nc_div, nc_mul, nc_swap


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


def _log_power(k: int) -> SymExpr:
    """c^k/k!, the value of the all-ones polylogarithm d[1^k]."""
    return SymExpr.gen(LOG2, k, Fraction(1, factorial(k)))


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
        return _log_power(r)
    # distinct carry vectors give distinct compositions, so no key repeats
    return SymExpr({SymMonomial(((delta(parts), 1),)): k for k, parts in iint_terms(levels)})


def xi_series(order: int) -> NCSeries:
    """Xi_B over the words x that start with A, of length r = 1..order:
    D(x) is the delta whose zeta word is dual to x, and D(A^r) = c^r/r!."""
    rows = deletion_rows(order, B, A + B, lambda x: None if B not in x else
                         SymMonomial(((delta(word_composition(dual_word(x))), 1),)))
    coeffs = {w: SymExpr.from_ints(1, row) for w, row in rows.items()}
    coeffs.update((A * r, _log_power(r)) for r in range(1, order + 1))
    return NCSeries(order, {"": SymExpr.one(), **coeffs})


def psi_series(order: int) -> NCSeries:
    """exp(cB) * Xi_B, the left half of the delta-side product, with exp(cB)
    the literal series of c^k/k! B^k."""
    exp_cb = NCSeries(order, {B * k: _log_power(k) if k else SymExpr.one() for k in range(order + 1)})
    return nc_mul(exp_cb, xi_series(order))


def phi_delta(order: int) -> NCSeries:
    """exp(cB) * Xi_B * inverse(Xi_A) * exp(-cA) at the given order."""
    psi = psi_series(order)
    return nc_div(psi, nc_swap(psi))
