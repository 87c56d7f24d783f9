"""Arbitrary-precision evaluation and certification of coefficient identities.

Delta values converge geometrically (each summand carries 2^(-n1)), so a
plain nested partial-sum recurrence with a certified cutoff reaches hundreds
of digits cheaply.  Multiple zeta values are slowly convergent as sums, so
they are evaluated instead by splitting their iterated-integral word at the
midpoint: every split half is again a delta-type value.  The split of the
depth-one word K0 K1 is Euler's dilogarithm identity zeta[2] = 2 d[2] + c^2;
the general case is the same convolution at arbitrary depth.

All evaluation goes through mpmath.  Results carry no error object; instead
the working precision exceeds the requested digits by a guard margin plus a
term-count allowance, and the summation cutoffs are chosen against an
explicit tail bound.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf

from .symring import (
    Generator,
    LOG2,
    NotAdmissibleError,
    SymExpr,
    check_composition,
    zeta,
)

K0 = "0"
K1 = "1"


@dataclass(frozen=True)
class Precision:
    digits: int = 40
    guard: int = 5

    def __post_init__(self):
        if self.digits < 10:
            raise ValueError("digits must be >= 10")
        if self.guard < 5:
            raise ValueError("guard must be >= 5")


def _working_dps(prec: Precision, terms: int) -> int:
    # allowance for rounding accumulation across ~terms additions
    return prec.digits + prec.guard + max(5, int(math.ceil(math.log10(terms + 10))))


def _delta_cutoff(depth: int, target_digits: int) -> int:
    # smallest M (up to step granularity) with 2^-M * M^depth < 10^-target
    M = max(32, int(target_digits * 3.33) + 8 * depth)
    while -M * math.log10(2.0) + depth * math.log10(M) >= -target_digits:
        M += 16
    return M


_VALUE_CACHE: dict[tuple, mpf] = {}


def eval_delta(comp, prec: Precision = Precision()) -> mpf:
    """Nested sum over n1 > n2 > ... > nk >= 1 of 2^(-n1) / prod ni^si.

    The first part may be 1; convergence is geometric regardless.
    """
    comp = check_composition(comp)
    key = ("delta", comp, prec.digits, prec.guard)
    hit = _VALUE_CACHE.get(key)
    if hit is not None:
        return hit
    depth = len(comp)
    M = _delta_cutoff(depth, prec.digits + prec.guard)
    with mp.workdps(_working_dps(prec, M * depth)):
        # prev[n] = sum over chains below n for the already-processed suffix
        prev = [mp.one] * (M + 1)
        for s in comp[:0:-1]:
            cur = [mp.zero] * (M + 1)
            run = mp.zero
            for n in range(1, M + 1):
                run += prev[n - 1] / mpf(n) ** s
                cur[n] = run
            prev = cur
        total = mp.zero
        pw = mp.one
        s1 = comp[0]
        for n in range(1, M + 1):
            pw /= 2
            total += pw * prev[n - 1] / mpf(n) ** s1
    _VALUE_CACHE[key] = total
    return total


def zeta_word(comp) -> str:
    """Kernel word K0^(s1-1) K1 ... K0^(sk-1) K1, outermost letter first."""
    comp = check_composition(comp)
    return "".join(K0 * (s - 1) + K1 for s in comp)


def word_to_composition(word: str) -> tuple[int, ...]:
    """Inverse of zeta_word; the word must end with K1."""
    if not word or word[-1] != K1:
        raise ValueError("integration word must end with K1")
    parts = []
    run = 0
    for ch in word:
        if ch == K0:
            run += 1
        elif ch == K1:
            parts.append(run + 1)
            run = 0
        else:
            raise ValueError("letters must be K0/K1")
    return tuple(parts)


def reverse_swap(word: str) -> str:
    """Reverse the word and exchange the two kernel letters."""
    return "".join(K0 if ch == K1 else K1 for ch in reversed(word))


def word_dual(comp) -> tuple[int, ...]:
    """Dual composition: reverse-swap the integration word and read it back."""
    return word_to_composition(reverse_swap(zeta_word(comp)))


def eval_zeta(comp, prec: Precision = Precision()) -> mpf:
    """Midpoint-split evaluation of an admissible multiple zeta value.

    Each prefix u of the word contributes (value of reverse_swap(u) on the
    lower half) times (value of the remaining suffix on the lower half);
    lower-half values are generalized delta values via block decomposition.
    """
    comp = check_composition(comp)
    if comp[0] < 2:
        raise NotAdmissibleError("first part must be >= 2: %r" % (comp,))
    key = ("zeta", comp, prec.digits, prec.guard)
    hit = _VALUE_CACHE.get(key)
    if hit is not None:
        return hit
    word = zeta_word(comp)
    n = len(word)
    with mp.workdps(_working_dps(prec, n + 1)):
        total = mp.zero
        for i in range(n + 1):
            u, v = word[:i], word[i:]
            part = mp.one
            if u:
                part *= eval_delta(word_to_composition(reverse_swap(u)), prec)
            if v:
                part *= eval_delta(word_to_composition(v), prec)
            total += part
    _VALUE_CACHE[key] = total
    return total


def _partitions(n: int, max_part: int | None = None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _polylog_at_sign(k: int) -> SymExpr:
    # Li_k evaluated at (-1)^k: -c for k=1, zeta_k for even k,
    # (2^(1-k)-1) zeta_k for odd k >= 3
    if k == 1:
        return SymExpr.gen(LOG2, coeff=Fraction(-1))
    if k % 2 == 0:
        return SymExpr.gen(zeta((k,)))
    return SymExpr.gen(zeta((k,)), coeff=Fraction(1 - 2 ** (k - 1), 2 ** (k - 1)))


@lru_cache(maxsize=None)
def alt_ones_symexpr(n: int) -> SymExpr:
    """Closed form of the weight-n all-ones polylogarithm at alternating signs.

    Exponential-of-power-sums expansion over partitions of n; the only
    generators that appear are c and single zetas up to weight n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = SymExpr.zero()
    for parts in _partitions(n):
        mult: dict[int, int] = {}
        for k in parts:
            mult[k] = mult.get(k, 0) + 1
        term = SymExpr.one()
        for k, j in mult.items():
            base = _polylog_at_sign(k).scale(Fraction(-1, k))
            term = term * (base**j).scale(Fraction(1, math.factorial(j)))
        total = total + term
    if n % 2:
        total = -total
    return total


def eval_alt_ones(n: int, prec: Precision = Precision()) -> tuple[SymExpr, mpf]:
    e = alt_ones_symexpr(n)
    return e, eval_symexpr(e, prec)


def _generator_value(g: Generator, prec: Precision) -> mpf:
    # eval_zeta and eval_delta cache their own values
    if g.kind == "zeta":
        return eval_zeta(g.parts, prec)
    if g.kind == "delta":
        return eval_delta(g.parts, prec)
    key = ("log2", None, prec.digits, prec.guard)
    val = _VALUE_CACHE.get(key)
    if val is None:
        with mp.workdps(_working_dps(prec, 1)):
            val = _VALUE_CACHE[key] = mp.log(2)
    return val


def eval_symexpr(e: SymExpr, prec: Precision = Precision()) -> mpf:
    terms = e.sorted_terms()
    with mp.workdps(_working_dps(prec, len(terms) + 1)):
        total = mp.zero
        for mono, q in terms:
            v = mpf(q.numerator) / q.denominator
            for g, exp in mono.factors:
                v *= _generator_value(g, prec) ** exp
            total += v
    return total


VerifyResult = namedtuple("VerifyResult", ["residual", "ok", "threshold"])


def verify_relation(rel, prec: Precision = Precision()) -> VerifyResult:
    """Numeric certificate: residual below 10^-(digits-5) counts as Pass.

    Accepts anything with an ``expr`` attribute, or a bare SymExpr.
    """
    expr = getattr(rel, "expr", rel)
    residual = abs(eval_symexpr(expr, prec))
    threshold = mpf(10) ** (-(prec.digits - 5))
    return VerifyResult(residual, bool(residual < threshold), threshold)
