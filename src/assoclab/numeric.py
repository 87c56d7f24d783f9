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
argument 1/2, run in integer fixed point over a whole set of compositions
at once: ``_sum_deltas`` walks the trie of their suffixes depth first,
builds each suffix's array of partial sums once, from its parent's, and
reads every composition's value off its own node.  Every entry is a Python
int, damped by 2^-n at index n so that the node's array sums to its value,
every step is a floor, and ``_sum_deltas``'s docstring bounds what the
floors lose.  The module works in integers from that pass to the verdict:
a value is an exact dyadic, an int n at a binary exponent e standing for
n*2^-e; a delta value keeps the exact int its node sums, at its pass's
exponent, and a zeta value is its midpoint split summed in integers
(``_value``, which bounds the split's loss in the same units).  Every value
is a lower bound of the true one.  mpmath is used only at the edges, and
imported only there: ``eval_delta`` and ``eval_zeta`` return mpfs, and a
``VerifyResult`` builds its mpf ``residual``, rounded once, on first
access.  So ``expand``, ``relations`` and ``verify`` never load it.
Results carry no error object; instead the working precision exceeds the
requested digits by a guard margin plus a term-count allowance, and the
summation cutoffs are chosen against an explicit tail bound.

There is one value cache, the dict ``_VALUES``, keyed by the ``Generator``
and the (frozen) Precision.  ``_value`` reads it, and every pass writes the
delta values it sums into it.  ``load_values`` sums every delta value that a
batch of rows reads in one pass (``verify`` hands it all its rows before it
certifies any); ``eval_delta``, ``eval_zeta`` and the midpoint split sum
the values they miss as a batch of their own, and run no pass when nothing
is missing.  A pass takes one cutoff and one bit count for its whole batch,
so a value's last bits depend on the batch that summed it, always inside
the error bound.  A composition is validated once, when its generator is
built.  Rows are evaluated in integer fixed point: ``_fixed`` holds each
monomial's value as an int scaled by 2^B (``_scale_bits``), a row's value
is the exact integer sum of its numerators times those ints over its one
denominator, and ``verify_relation`` decides pass or fail on that integer
sum exactly; ``residual_text`` prints its residual from the same integers,
rounded by ``decimal``'s correctly rounded division.  Integer sums do not
depend on the order of their terms, so neither does this module.
"""

from __future__ import annotations

import decimal
import math
from collections import namedtuple
from functools import cached_property, lru_cache
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


class Precision(namedtuple("Precision", "digits")):
    """Requested decimal digits, 40 by default and at least 10; immutable
    and hashable, as it keys the value cache."""

    __slots__ = ()
    guard = 5  # extra working digits; a constant, not a field

    def __new__(cls, digits: int = 40):
        if digits < 10:
            raise ValueError("digits must be >= 10")
        return tuple.__new__(cls, (digits,))


def _working_dps(prec: Precision, terms: int) -> int:
    # allowance for rounding accumulation across ~terms additions
    return prec.digits + prec.guard + max(5, int(math.ceil(math.log10(terms + 10))))


def _delta_cutoff(depth: int, target_digits: int) -> int:
    # smallest M (up to step granularity) with 2^-M * M^depth < 10^-target
    M = max(32, int(target_digits * 3.33) + 8 * depth)
    while -M * math.log10(2.0) + depth * math.log10(M) >= -target_digits:
        M += 16
    return M


# guard bits of the fixed-point scales, above the requested and guard digits
GUARD_BITS = 64

# an exact value n*2^-e, as the pair (n, e)
Dyadic = tuple[int, int]


def eval_delta(comp, prec: Precision = Precision()) -> mpf:
    """Nested sum over n1 > n2 > ... > nk >= 1 of 2^(-n1) / prod ni^si.

    The first part may be 1; convergence is geometric regardless.  The mpf
    is the cached integer value, exactly.
    """
    return _mpf(_value(delta(comp), prec))


def _fixed_point_bits(comp: tuple[int, ...], dps: int) -> int:
    # P = ceil(dps*log2(10) + E) with E = k + sum s_i*log2(k+1-i): the first
    # chain n_i = k+1-i is a term of at least 2^-E, a lower bound on the
    # value, so an absolute error of 2^-P stays relative to small values
    k = len(comp)
    e = k + sum(s * math.log2(k - i) for i, s in enumerate(comp))
    return int(math.ceil(dps * math.log2(10) + e))


def _sum_deltas(comps, prec: Precision) -> dict[tuple[int, ...], Dyadic]:
    """Every delta value of a (non-empty) set of compositions, in one pass
    over the trie of their suffixes, each as the exact int its node sums at
    the pass's binary exponent P + 1.

    The trie's root is the empty composition, and a child puts one more
    part in front of its parent, so the nodes on a composition's path from
    the root are its suffixes.  Node u = (s,) + u' holds one array of
    M + 1 ints, damped: a(n) = T(n)*2^(P-n), where T(n) is u's nested sum
    over the chains n >= n1 > n2 > ... >= 1.  Since
    T(n) = T(n-1) + T'(n-1)/n^s, with T' the parent's sum,

        a(n) = (a(n-1) + a'(n-1) / n^s) / 2,    a(0) = 0,

    and the root's entries are a'(n) = 2^(P-n).  Each array is built once,
    from its parent's, and every composition with that suffix reads it.  By
    Abel summation the value truncated at M is

        sum_(n<=M) 2^-n*(T(n) - T(n-1)) = 2^-(P+1)*(sum_(n=1..M) a(n) + a(M)),

    so every node is itself a value and there is no separate outer sum.
    Children are visited depth first in sorted order, and a node's array is
    dropped once its last child is built, so at most one root-to-leaf path
    of arrays, K + 1 for the batch's largest depth K, is alive at a time.

    One cutoff and one bit count serve the pass: M is ``_delta_cutoff`` at
    depth K, and P the largest ``_fixed_point_bits`` of the batch at the
    working precision of depth K.  Both are at least what a composition
    gets alone, so a value's last bits depend on the batch that summed it.
    The int is kept as it is, not shifted to any common scale, so a tiny
    value keeps the E bits that ``_fixed_point_bits`` gave it.

    Rounding bound.  Every step floors, so no entry exceeds its exact value,
    and an entry at level j (the root's level is 0) is below it by less than
    2j + 1 units.  A root entry is a floor of 2^(P-n), which loses less than
    one unit.  A level-j entry at n loses half of the loss at n - 1, half of
    the parent's loss divided by n^s >= 1, and less than one unit more from
    its two floors (the inner one halved, and the halving of an integer,
    which loses at most one half).  So e_j(n) < e_j(n-1)/2 + (2j - 1)/2 + 1,
    which keeps e_j below 2j + 1, starting from e_j(0) = 0.  A value of
    depth k adds M + 1 entries of level k, so it is low by less than
    (M + 1)*(2k + 1) units of 2^-(P+1).  The cutoff M adds the tail after M,
    which ``_delta_cutoff`` keeps below 10^-(digits+guard); P is large
    enough that (M + 1)*(2k + 1)*2^-(P+1) is below 2^-E*10^-(digits+guard),
    with 2^-E a lower bound on the value (``_fixed_point_bits``).  Both
    losses are drops, so every value is a lower bound of the true one.
    """
    comps = set(comps)
    K = max(map(len, comps))
    M = _delta_cutoff(K, prec.digits + prec.guard)
    dps = _working_dps(prec, M * K)
    P = max(_fixed_point_bits(c, dps) for c in comps)
    kids: dict[tuple[int, ...], set[int]] = {}
    for c in comps:
        for j in range(len(c)):
            kids.setdefault(c[j + 1:], set()).add(c[j])
    powers: dict[int, list[int]] = {}
    values = {}
    # (node, its parent's array); each array is built when its node is popped
    root = [(1 << P) >> n for n in range(M + 1)]
    stack = [((s,), root) for s in sorted(kids[()], reverse=True)]
    del root
    while stack:
        node, parent = stack.pop()
        s = node[0]
        if s not in powers:
            powers[s] = [n**s for n in range(1, M + 1)]
        a = [0]
        run = 0
        for x, q in zip(parent, powers[s]):
            run = (run + x // q) >> 1
            a.append(run)
        if node in comps:
            values[node] = (sum(a) + run, P + 1)
        stack.extend(((t,) + node, a) for t in sorted(kids.get(node, ()), reverse=True))
    return values


def eval_zeta(comp, prec: Precision = Precision()) -> mpf:
    """Midpoint-split evaluation of an admissible multiple zeta value.

    Each prefix u of the word contributes (value of dual_word(u) on the
    lower half) times (value of the remaining suffix on the lower half);
    lower-half values are generalized delta values via block decomposition.
    The mpf is the cached integer value, exactly (``_value``).
    """
    return _mpf(_value(zeta(comp), prec))


# the one value cache, (Generator, Precision) -> Dyadic; ``_load`` writes the
# delta values a pass sums, ``_value`` the zeta values it splits
_VALUES: dict[tuple[Generator, Precision], Dyadic] = {}


def _load(comps, prec: Precision) -> None:
    """Cache the delta values of ``comps`` that are not cached yet, summed in
    one pass; no pass runs when none is missing."""
    todo = {c for c in comps if (delta(c), prec) not in _VALUES}
    if todo:
        for c, v in _sum_deltas(todo, prec).items():
            _VALUES[delta(c), prec] = v


@lru_cache(maxsize=None)
def _split(parts: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The midpoint split of z[parts]: for each cut of its word into u v, the
    delta compositions of dual_word(u) and of v, with () for an empty side."""
    word = zeta_word(parts)
    return tuple(
        (word_composition(dual_word(word[:i])) if i else (),
         word_composition(word[i:]) if i < len(word) else ())
        for i in range(len(word) + 1)
    )


def _reads(g: Generator) -> list[tuple[int, ...]]:
    """The delta compositions whose values give g's value."""
    if g.kind == "zeta":
        return [c for pair in _split(g.parts) for c in pair if c]
    if g.kind == "log2":  # c is the delta value d[1]; its generator carries no parts
        return [(1,)]
    return [g.parts]


def load_values(rels, prec: Precision = Precision()) -> None:
    """Sum every delta value that the generators of the relations ``rels``
    read in one pass, so a run that certifies a batch of rows sums their
    delta values together and each row then reads them from the cache."""
    gens = {g for r in rels for m in r.expr.nums for g, _ in m.factors}
    _load([c for g in gens for c in _reads(g)], prec)


def _at_scale(v: Dyadic, bits: int) -> int:
    # floor(n * 2^(bits - e)): a right shift floors, a left shift is exact
    n, e = v
    return n >> (e - bits) if e >= bits else n << (bits - e)


def _value(g: Generator, prec: Precision) -> Dyadic:
    """g's value as an exact dyadic (n, e), read from the cache or computed
    into it.

    A delta value is the int its pass summed (``_sum_deltas``).  A zeta
    value of weight L is its midpoint split: the sum, over the L + 1 cuts
    u v of its word, of the product of the delta values of dual_word(u) and
    of v (1 for an empty side).  The sum runs in integers at one scale
    2^-Z, where Z is the largest exponent of the split's delta values plus
    GUARD_BITS: each product n_u*n_v is exact at exponent e_u + e_v, and is
    floored to scale 2^-Z.

    Error bound, in units of 2^-Z.  Each floor loses less than one unit, so
    the split is below the exact sum of its products by less than L + 1
    units.  Every delta value is a lower bound of its true value, low by
    some eps, and below 1 (at most d[1^k] = (log 2)^k/k!), so each product
    is low by at most eps_u + eps_v.  In all the split is low, never high,
    by less than

        L + 1 + 2^Z * sum over the cuts of (eps_u + eps_v)

    units.  A delta value of depth k, summed with cutoff M at exponent
    P + 1, has 2^Z*eps below (M + 1)*(2k + 1)*2^(Z-P-1) units plus 2^Z
    times the tail after M (``_sum_deltas``); each of the two is below
    10^-(digits+guard) in value, so the split is low by less than
    (L + 1)*(1 + 2^Z * 4*10^-(digits+guard)) units.
    """
    v = _VALUES.get((g, prec))
    if v is not None:
        return v
    reads = _reads(g)
    _load(reads, prec)
    if g.kind != "zeta":  # a delta value, or c = d[1]: the one value it reads
        return _VALUES[delta(reads[0]), prec]
    halves = [[_VALUES[delta(c), prec] if c else (1, 0) for c in pair] for pair in _split(g.parts)]
    Z = max(e for pair in halves for _, e in pair) + GUARD_BITS
    total = sum(_at_scale((nu * nv, eu + ev), Z) for (nu, eu), (nv, ev) in halves)
    _VALUES[g, prec] = v = (total, Z)
    return v


def _mpf(v: Dyadic) -> mpf:
    # the value n*2^-e as an mpf, with no rounding
    from mpmath import mp
    from mpmath.libmp import from_man_exp
    n, e = v
    return mp.make_mpf(from_man_exp(n, -e))


def _scale_bits(prec: Precision) -> int:
    """B, the scale 2^B of the fixed-point row values."""
    return int(math.ceil((prec.digits + prec.guard) * math.log2(10))) + GUARD_BITS


@lru_cache(maxsize=None)
def _fixed(m: SymMonomial, prec: Precision) -> int:
    """Floor-rounded value of a monomial, as an int scaled by 2^B.

    Each factor enters as its cached integer value shifted to scale 2^B
    (``_at_scale``: exact up to one floor), and each product shifts right by
    B once, which floors again.  Every generator value lies in (0, 2), so
    after j factors the value is below 2^j and the error e_j, in units of
    2^-B, obeys e_1 < 1 and e_(j+1) < 2*e_j + 2^j + 1: a monomial of degree k
    is off by less than k*2^k units, far inside the GUARD_BITS.
    """
    B = _scale_bits(prec)
    v = 1 << B
    for g, exp in m.factors:
        x = _at_scale(_value(g, prec), B)
        for _ in range(exp):
            v = (v * x) >> B
    return v


def _row_total(e: SymExpr, prec: Precision) -> int:
    # sum of n * V(m) over the numerators: the row's value times den * 2^B,
    # off by under sum |n|*k*2^k units for monomials of degree at most k
    return sum(n * _fixed(m, prec) for m, n in e.nums.items())


def _to_mpf(total: int, den: int, prec: Precision) -> mpf:
    from mpmath import mp
    B = _scale_bits(prec)
    with mp.workprec(B):
        return _mpf((total, B)) / den


class VerifyResult:
    """A row's certificate: the exact integer sum ``total`` = Σ n·V(m), which
    is the row's value times ``scale`` = den·2^B, and the verdict ``ok`` on
    it, |total| / scale < 10^-(digits-5).  The mpf ``residual`` =
    |total| / scale, built on first access, is that exact rational rounded
    once to B bits."""

    def __init__(self, total: int, den: int, prec: Precision):
        self.total, self.den, self.prec = total, den, prec
        self.scale = den << _scale_bits(prec)
        self.ok = abs(total) * 10 ** (prec.digits - 5) < self.scale

    @cached_property
    def residual(self) -> mpf:
        return _to_mpf(abs(self.total), self.den, self.prec)


def verify_relation(rel, prec: Precision = Precision()) -> VerifyResult:
    """Numeric certificate: residual below 10^-(digits-5) counts as Pass.

    The verdict is exact integer arithmetic on the fixed-point sum
    T = Σ n·V(m) at scale 2^B (``_row_total``): pass when
    |T| * 10^(digits-5) < den * 2^B.  The result carries T and that scale,
    so a report prints the residual from them (``residual_text``) and no
    mpf is built unless one is asked for.  Accepts anything with an
    ``expr`` attribute, or a bare SymExpr.
    """
    expr = getattr(rel, "expr", rel)
    return VerifyResult(_row_total(expr, prec), expr.den, prec)


_EIGHT_DIGITS = decimal.Context(prec=8, rounding=decimal.ROUND_HALF_UP)


def residual_text(num: int, den: int) -> str:
    """num / den (num >= 0, den > 0) to 8 significant digits, as mpmath's
    ``nstr(x, 8)`` prints it: "0.0", "0.25", "4.8099229e-314".

    ``decimal`` rounds the exact quotient half up; the text is fixed-point
    when the leading digit sits at 10^-4 to 10^7, scientific otherwise,
    with trailing zeros stripped down to one after the point.  (nstr
    truncates its argument to 46 bits before it rounds, so a quotient
    within 2^-45 of itself above a tie prints one unit lower there.)
    """
    if not num:
        return "0.0"
    q = _EIGHT_DIGITS.divide(num, den)
    e = q.adjusted()  # the place of the leading digit: 10^e <= q < 10^(e+1)
    digits, split, exponent = "".join(map(str, q.as_tuple().digits)), 1, ""
    if -5 < e < 0:
        digits = "0" * -e + digits
    elif 0 <= e < 8:
        split = e + 1
    else:
        exponent = "e%d" % e if e < 0 else "e+%d" % e
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    return (text + "0" if text.endswith(".") else text) + exponent
