"""Arbitrary-precision evaluation and certification of coefficient identities.

Delta values converge geometrically (each summand carries 2^(-n1)), so a
plain nested partial-sum recurrence with a certified cutoff reaches hundreds
of digits cheaply.  Multiple zeta values are slowly convergent as sums, so
they are evaluated instead by splitting their zeta word at the midpoint:
each suffix, and the ``dual_word`` of each prefix, is a delta value's word.
The split of the depth-one word AB is Euler's dilogarithm identity
zeta[2] = 2 d[2] + c^2; the general case is the same convolution at
arbitrary depth.

The constant c = log 2 is itself the delta value d[1] = Li_1(1/2), so it
takes the same summation as every other delta generator.

The nested sum is the one of Borwein, Bradley, Broadhurst and Lisonek
(Special values of multiple polylogarithms, Trans. AMS 353, 2001) at
argument 1/2, run in integer fixed point: every partial sum is a Python int
scaled by 2^P, every step is a floor division, and ``_delta``'s docstring
bounds what the floors lose.  mpmath is used only at the edges: each delta
value becomes an mpf once, at the working precision, and the midpoint split
is mpf arithmetic.  It is imported by the functions that evaluate, so a run
that evaluates nothing never loads it.  Results carry no error object; instead the working
precision exceeds the requested digits by a guard margin plus a term-count
allowance, and the summation cutoffs are chosen against an explicit tail
bound.

There is one value cache, ``_value``, keyed by the ``Generator`` and the
(frozen) Precision.  A composition is validated once, when its generator is
built; ``eval_delta``, ``eval_zeta``, the midpoint split and the monomial
table ``_fixed`` all read values through that cache.  Rows are evaluated in
integer fixed point: ``_fixed`` holds each monomial's value as an int scaled
by 2^B (``_scale_bits``), ``eval_symexpr`` sums a row's integer numerators
times those ints and divides by its one denominator once, and
``verify_relation`` decides pass or fail on that integer sum exactly.
Integer sums do not depend on the order of their terms, so this module does
not depend on the monomial order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .symring import (
    Generator,
    SymExpr,
    SymMonomial,
    delta,
    dual_word,
    word_composition,
    zeta,
    zeta_word,
)

if TYPE_CHECKING:
    from mpmath import mpf

@dataclass(frozen=True)
class Precision:
    digits: int = 40
    guard = 5  # extra working digits; a constant, not a field

    def __post_init__(self):
        if self.digits < 10:
            raise ValueError("digits must be >= 10")


def _working_dps(prec: Precision, terms: int) -> int:
    # allowance for rounding accumulation across ~terms additions
    return prec.digits + prec.guard + max(5, int(math.ceil(math.log10(terms + 10))))


def _delta_cutoff(depth: int, target_digits: int) -> int:
    # smallest M (up to step granularity) with 2^-M * M^depth < 10^-target
    M = max(32, int(target_digits * 3.33) + 8 * depth)
    while -M * math.log10(2.0) + depth * math.log10(M) >= -target_digits:
        M += 16
    return M


def eval_delta(comp, prec: Precision = Precision()) -> mpf:
    """Nested sum over n1 > n2 > ... > nk >= 1 of 2^(-n1) / prod ni^si.

    The first part may be 1; convergence is geometric regardless.
    """
    return _value(delta(comp), prec)


def _fixed_point_bits(comp: tuple[int, ...], dps: int) -> int:
    # P = ceil(dps*log2(10) + E) with E = k + sum s_i*log2(k+1-i): the first
    # chain n_i = k+1-i is a term of at least 2^-E, a lower bound on the
    # value, so an absolute error of 2^-P stays relative to small values
    k = len(comp)
    e = k + sum(s * math.log2(k - i) for i, s in enumerate(comp))
    return int(math.ceil(dps * math.log2(10) + e))


def _delta(comp: tuple[int, ...], prec: Precision) -> mpf:
    """Fixed-point nested sum: every value is an int scaled by 2^P.

    Rounding bound.  Each floor division loses less than one unit (2^-P).
    A level-j array entry at n sums n terms, each a level-(j-1) entry at
    m-1 < n divided by m^s >= m (carrying less than j-1 units) plus one
    floor, so it carries at most j*n units of error.  The outer term at n
    divides a level-(k-1) entry by 2^n, so the 2^-n factor damps that error:
    the outer sum loses less than M + (k-1)*sum (n-1)/2^n = M + k - 1 units.
    So the total loss is under (M + k)*2^-P, and every floor rounds down.
    The cutoff M adds the tail after M, which ``_delta_cutoff`` keeps below
    10^-(digits+guard); P is chosen so that (M + k)*2^-P is below
    2^-E*10^-(digits+guard), with 2^-E a lower bound on the value.
    """
    from mpmath import mp, mpf
    k = len(comp)
    M = _delta_cutoff(k, prec.digits + prec.guard)
    dps = _working_dps(prec, M * k)
    P = _fixed_point_bits(comp, dps)
    # prev[n] = sum over chains below n for the already-processed suffix
    prev = [1 << P] * (M + 1)
    for s in comp[:0:-1]:
        cur = [0] * (M + 1)
        run = 0
        for n in range(1, M + 1):
            run += prev[n - 1] // n**s
            cur[n] = run
        prev = cur
    total = 0
    s1 = comp[0]
    for n in range(1, M + 1):
        total += (prev[n - 1] >> n) // n**s1
    # the one rounding to mpf, at the working precision (not the ambient 53 bits)
    with mp.workdps(dps):
        return mpf((total, -P))


def eval_zeta(comp, prec: Precision = Precision()) -> mpf:
    """Midpoint-split evaluation of an admissible multiple zeta value.

    Each prefix u of the word contributes (value of dual_word(u) on the
    lower half) times (value of the remaining suffix on the lower half);
    lower-half values are generalized delta values via block decomposition.
    """
    return _value(zeta(comp), prec)


@lru_cache(maxsize=None)
def _value(g: Generator, prec: Precision) -> mpf:
    from mpmath import mp
    if g.kind == "zeta":
        word = zeta_word(g.parts)
        n = len(word)
        with mp.workdps(_working_dps(prec, n + 1)):
            total = mp.zero
            for i in range(n + 1):
                u, v = word[:i], word[i:]
                part = mp.one
                if u:
                    part *= _value(delta(word_composition(dual_word(u))), prec)
                if v:
                    part *= _value(delta(word_composition(v)), prec)
                total += part
        return total
    # c is the delta value d[1]; its generator carries no parts
    if g.kind == "log2":
        return _value(delta((1,)), prec)
    return _delta(g.parts, prec)


# guard bits of the row scale, above the requested and guard digits
GUARD_BITS = 64


def _scale_bits(prec: Precision) -> int:
    """B, the scale 2^B of the fixed-point row values."""
    return int(math.ceil((prec.digits + prec.guard) * math.log2(10))) + GUARD_BITS


@lru_cache(maxsize=None)
def _fixed(m: SymMonomial, prec: Precision) -> int:
    """Floor-rounded value of a monomial, as an int scaled by 2^B.

    Each factor enters as its cached mpf shifted to scale 2^B (``to_fixed``,
    exact up to one floor), and each product shifts right by B once, which
    floors again.  Every generator value lies in (0, 2), so after j factors
    the value is below 2^j and the error e_j, in units of 2^-B, obeys
    e_1 < 1 and e_(j+1) < 2*e_j + 2^j + 1: a monomial of degree k is off by
    less than k*2^k units, far inside the GUARD_BITS.
    """
    from mpmath.libmp import to_fixed
    B = _scale_bits(prec)
    v = 1 << B
    for g, exp in m.factors:
        x = to_fixed(_value(g, prec)._mpf_, B)
        for _ in range(exp):
            v = (v * x) >> B
    return v


def _row_total(e: SymExpr, prec: Precision) -> int:
    # sum of n * V(m) over the numerators: the row's value times den * 2^B
    return sum(n * _fixed(m, prec) for m, n in e.nums.items())


def _to_mpf(total: int, den: int, prec: Precision) -> mpf:
    from mpmath import mp, mpf
    B = _scale_bits(prec)
    with mp.workprec(B):
        return mpf((total, -B)) / den


def eval_symexpr(e: SymExpr, prec: Precision = Precision()) -> mpf:
    """Value of an expression, Σ n·V(m) / den over its integer numerators.

    Each V(m) is the fixed-point monomial value at scale 2^B, with
    B = ``_scale_bits(prec)`` (the requested plus guard digits, in bits, plus
    GUARD_BITS); the sum is an exact integer, divided by den once as an mpf
    of B bits.  Against exact arithmetic on the cached generator values, the
    sum is off by under Σ|n|·k·2^k / den units of 2^-B (``_fixed``), for
    monomials of degree at most k, before that one rounding.
    """
    return _to_mpf(_row_total(e, prec), e.den, prec)


VerifyResult = namedtuple("VerifyResult", ["residual", "ok", "threshold"])


def verify_relation(rel, prec: Precision = Precision()) -> VerifyResult:
    """Numeric certificate: residual below 10^-(digits-5) counts as Pass.

    The verdict is exact integer arithmetic on the fixed-point sum
    T = Σ n·V(m) at scale 2^B (``eval_symexpr``): pass when
    |T| * 10^(digits-5) < den * 2^B.  The mpf residual |T| / (den * 2^B) is
    only what a report prints.  Accepts anything with an ``expr``
    attribute, or a bare SymExpr.
    """
    from mpmath import mpf
    expr = getattr(rel, "expr", rel)
    total = abs(_row_total(expr, prec))
    ok = total * 10 ** (prec.digits - 5) < expr.den << _scale_bits(prec)
    threshold = mpf(10) ** (-(prec.digits - 5))
    return VerifyResult(_to_mpf(total, expr.den, prec), ok, threshold)
