"""Independent oracles used by the test suite.

Everything here is deliberately written against different algorithms (and in a
different code shape) than the package: top-down memoized recursion instead of
the rolling-array dynamic programme, a polynomial-times-exponential closed-form
integrator instead of any series conversion, and mpmath's own zeta for the
depth-one comparisons.  Agreement between these and the package is evidence;
shared code would be none.  The exceptions are the package's former
production paths kept here as references (the mpf delta kernel, the mpf
midpoint split, the rational elimination, the per-step normalised integer
sweep, the Fraction product and sum loops, the word-sum and shuffle-row
loops, the pair-index duality rows, the all-pairs product and geometric
inverse, the closed-form template word sum, the per-word deletion fold
and the two series built from it by word sums, the carry-vector kernel
expansion, its zeta-kernel reading, the paper's kernel formula for Xi_B
with its ad-word counts, and the per-expression printer that sorted by
``sort_key``): each checks the rewrite that replaced it.
The all-pairs product and the geometric inverse also rebuild the delta
side as the product psi * inverse(swap psi) (``check_product_form``),
with no quotient solver, and ``check_omega2`` checks the degree-2
antisymmetrisation psi - swap(psi) against its printed closed form.
The midpoint rows (the Hoelder convolution) read no series at all, nor
does ``holder_zeta``, the same convolution at 1/3: plain nested sums at
1/3 and 2/3 that share no value with the package's midpoint split, nor
``linearise``, which maps an expression to word coordinates (the
shuffle algebra of words that end in B), nor ``nf``, the normal form
modulo shuffle in Lyndon generators, nor ``rank``, an exact rank over Q.
The series helpers at the end (sums, scalings, graded parts, the grading
check, ad-powers) are not oracles: the pipeline never runs them, so they
live with the tests that use them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, log

from mpmath import mp

from assoclab.relations import Span


def close_enough(a, b, digits: int) -> bool:
    """|a - b| < 10^-digits, evaluated inside a wide working context.

    Comparing outside a context silently rounds the difference to the ambient
    precision (mpmath default is 15 digits), which is exactly the mistake this
    helper exists to prevent.
    """
    with mp.workdps(digits + 15):
        return bool(abs(mp.mpf(a) - mp.mpf(b)) < mp.mpf(10) ** (-digits))


def _cutoff(depth: int, digits: int) -> int:
    n = 10
    with mp.workdps(30):
        bound = mp.mpf(10) ** (-(digits + 8))
        while mp.mpf(2) ** (-n) * mp.mpf(n) ** depth >= bound:
            n += 1
    return n


def brute_delta(comp, digits: int = 30):
    """Direct nested summation of sum_{n1>...>nd>=1} 2^-n1 / prod ni^si.

    Memoized top-down recursion over (position, upper bound); the package
    evaluator rolls a bottom-up array from the innermost index instead.
    """
    comp = tuple(comp)
    if not comp or any(s < 1 for s in comp):
        raise ValueError("composition parts must be positive: %r" % (comp,))
    cut = _cutoff(len(comp), digits)
    with mp.workdps(digits + 12):
        memo: dict[tuple[int, int], mp.mpf] = {}

        def tail(i: int, upper: int):
            # sum over n_i > n_{i+1} > ... with n_i <= upper
            if i == len(comp):
                return mp.mpf(1)
            key = (i, upper)
            got = memo.get(key)
            if got is not None:
                return got
            total = mp.mpf(0)
            for n in range(1, upper + 1):
                total += tail(i + 1, n - 1) / mp.mpf(n) ** comp[i]
            memo[key] = total
            return total

        half = mp.mpf(1) / 2
        out = mp.mpf(0)
        for n1 in range(1, cut + 1):
            out += half ** n1 * tail(1, n1 - 1) / mp.mpf(n1) ** comp[0]
        return +out


def _mpf_budget(depth: int, prec):
    from assoclab.numeric import _delta_cutoff, _working_dps

    M = _delta_cutoff(depth, prec.digits + prec.guard)
    return M, _working_dps(prec, M * depth)


def _mpf_powers(s: int, M: int):
    # pw[n - 1] = n^s at the working precision
    return [mp.mpf(n) ** s for n in range(1, M + 1)]


def _mpf_level(prev, pw, M: int):
    # the next suffix's array: cur[n] = sum over m <= n of prev[m-1] / m^s
    cur = [mp.zero] * (M + 1)
    run = mp.zero
    for n in range(1, M + 1):
        run += prev[n - 1] / pw[n - 1]
        cur[n] = run
    return cur


def _mpf_outer(prev, pw, M: int):
    # scaling by 2^-n is exact, so ldexp rounds nothing
    total = mp.zero
    for n in range(1, M + 1):
        total += mp.ldexp(prev[n - 1], -n) / pw[n - 1]
    return total


def delta_mpf(comp, prec):
    """The nested delta sum in mpf arithmetic, at the package's cutoff and
    working precision for ``prec`` (a ``numeric.Precision``).

    This is the mpf loop the package ran before its fixed-point integer
    kernel (ldexp in place of a running 2^-n, exact either way, so the
    values are bit for bit the old ones).  It is the same recurrence with
    every step rounded by mpmath, so it checks the integer kernel's
    rounding, not its cutoff.
    """
    comp = tuple(comp)
    M, dps = _mpf_budget(len(comp), prec)
    with mp.workdps(dps):
        # prev[n] = sum over chains below n for the already-processed suffix
        prev = [mp.one] * (M + 1)
        for s in comp[:0:-1]:
            prev = _mpf_level(prev, _mpf_powers(s, M), M)
        return _mpf_outer(prev, _mpf_powers(comp[0], M), M)


def delta_mpf_table(max_weight: int, prec) -> dict:
    """``{comp: delta_mpf(comp, prec)}`` for every composition of weight at
    most ``max_weight``.

    Compositions of one depth share cutoff and precision, so a depth-first
    walk over suffixes builds each suffix array once and reuses it for every
    longer composition ending in it.  The values are those of ``delta_mpf``
    step for step, in about half the array passes through weight 8, and each
    power n^s is formed once per depth.
    """
    table = {}

    def walk(suffix, prev, depth, M, powers):
        room = max_weight - sum(suffix)
        if len(suffix) == depth - 1:
            for s1 in range(1, room + 1):
                table[(s1,) + suffix] = _mpf_outer(prev, powers[s1], M)
            return
        # every part still to place, the outer one included, needs at least 1
        for s in range(1, room - (depth - 1 - len(suffix)) + 1):
            walk((s,) + suffix, _mpf_level(prev, powers[s], M), depth, M, powers)

    for depth in range(1, max_weight + 1):
        M, dps = _mpf_budget(depth, prec)
        with mp.workdps(dps):
            powers = {s: _mpf_powers(s, M) for s in range(1, max_weight - depth + 2)}
            walk((), [mp.one] * (M + 1), depth, M, powers)
    return table


def closed_zeta_table(digits: int = 50):
    """Closed forms for every admissible composition of weight <= 5.

    Classical evaluations (Euler, duality, stuffle) expressed through mpmath's
    zeta; independent of the package's split-at-one-half algorithm.
    """
    with mp.workdps(digits + 10):
        z2, z3, z4, z5 = (mp.zeta(k) for k in (2, 3, 4, 5))
        z41 = 2 * z5 - z2 * z3
        z32 = 3 * z2 * z3 - mp.mpf(11) / 2 * z5
        z23 = z2 * z3 - z32 - z5
        table = {
            (2,): z2,
            (3,): z3,
            (2, 1): z3,
            (4,): z4,
            (3, 1): z4 / 4,
            (2, 2): (z2 * z2 - z4) / 2,
            (2, 1, 1): z4,
            (5,): z5,
            (4, 1): z41,
            (3, 2): z32,
            (2, 3): z23,
            (3, 1, 1): z41,
            (2, 2, 1): z32,
            (2, 1, 2): z23,
            (2, 1, 1, 1): z5,
        }
        return {k: +v for k, v in table.items()}


def holder_zeta(comp, digits: int, x: Fraction):
    """z[comp] by the Hoelder convolution at 0 < x < 1 (Borwein, Bradley,
    Broadhurst and Lisonek, Trans. AMS 353, 2001), to ``digits`` digits.

    The zeta word w (outermost letter first, A = dt/t, B = dt/(1-t)) is an
    iterated integral over 1 > t1 > ... > tn > 0.  Cut the simplex at x:
    the letters in (x, 1) are a prefix u, read from 0 to 1 - x by t -> 1 - t
    as the reversed, swapped word dual(u), and the rest are the suffix v on
    (0, x), so z[w] = sum over w = u v of Li_dual(u)(1 - x) * Li_v(x).  Each
    Li_s(y) = sum over n1 > ... > nk >= 1 of y^n1 / (n1^s1 ... nk^sk) is a
    plain nested sum at y = x or 1 - x, its n1 cut at the first M where
    max(x, 1 - x)^M * M^L (L the weight) is below 10^-(digits + 10).  At
    x = 1/3 no factor is a value at one half, so nothing here is shared
    with the package's midpoint split.
    """
    word = "".join("A" * (s - 1) + "B" for s in comp)
    dual = lambda u: u[::-1].translate(str.maketrans("AB", "BA"))
    parts = lambda u: tuple(len(run) + 1 for run in u[:-1].split("B")) if u else ()
    L = len(word)
    M, log_top = 2, log(max(x, 1 - x))
    while M * log_top + L * log(M) >= -(digits + 10) * log(10):
        M += 1
    dps = digits + 15
    with mp.workdps(dps):
        return sum(_holder_li(parts(dual(word[:i])), 1 - x, M, dps)
                   * _holder_li(parts(word[i:]), x, M, dps) for i in range(L + 1))


@lru_cache(maxsize=None)
def _holder_reciprocals(s: int, M: int, dps: int) -> list:
    """[0, 1/1^s, ..., 1/M^s] at dps digits."""
    with mp.workdps(dps):
        return [mp.zero] + [mp.one / mp.mpf(n) ** s for n in range(1, M + 1)]


@lru_cache(maxsize=None)
def _holder_inner(comp: tuple, M: int, dps: int) -> list:
    """[S(0), ..., S(M)], S(n) the sum over n > n1 > ... > nk >= 1 of
    1/(n1^s1 ... nk^sk); S = 1 for the empty composition."""
    if not comp:
        return [mp.one] * (M + 1)
    tail = _holder_inner(comp[1:], M, dps)
    weights = _holder_reciprocals(comp[0], M, dps)
    out, acc = [mp.zero], mp.zero
    with mp.workdps(dps):
        for n in range(1, M + 1):
            out.append(acc)  # n1 < n, strictly
            acc += tail[n] * weights[n]
    return out


@lru_cache(maxsize=None)
def _holder_outer(s: int, y: Fraction, M: int, dps: int) -> list:
    """[0, y/1^s, y^2/2^s, ..., y^M/M^s] at dps digits."""
    with mp.workdps(dps):
        step, power, out = mp.mpf(y.numerator) / y.denominator, mp.one, [mp.zero]
        for w in _holder_reciprocals(s, M, dps)[1:]:
            power *= step
            out.append(power * w)
    return out


@lru_cache(maxsize=None)
def _holder_li(comp: tuple, y: Fraction, M: int, dps: int):
    """Li_comp(y), its outermost index cut at M: the sum over n <= M of
    y^n / n^s1 * S(n), S the inner sum of the rest of comp; 1 for ()."""
    if not comp:
        return mp.one
    with mp.workdps(dps):
        return mp.fdot(_holder_outer(comp[0], y, M, dps), _holder_inner(comp[1:], M, dps))


# -- mpf row evaluation --------------------------------------------------------
#
# ``eval_symexpr`` is not an oracle: it is the package's integer row sum,
# numerators times fixed-point monomial values at scale 2^B, as one mpf.
# ``eval_symexpr_mpf`` is the package's former row evaluation: each term's
# monomial rebuilt from the generator values with mpf ** and *, times its
# Fraction coefficient, summed in mpf.


def eval_symexpr(e, prec):
    """An expression's value as ``verify_relation`` sums it, rounded once to
    B bits (``numeric._to_mpf``)."""
    from assoclab import numeric

    return numeric._to_mpf(numeric._row_total(e, prec), e.den, prec)


def generator_mpf(g, prec):
    """A generator's value through the package's mpf edge: ``eval_zeta``,
    or ``eval_delta`` (of (1,) for c = d[1])."""
    from assoclab.numeric import eval_delta, eval_zeta

    if g.kind == "zeta":
        return eval_zeta(g.parts, prec)
    return eval_delta(g.parts if g.kind == "delta" else (1,), prec)


def eval_symexpr_mpf(e, prec):
    """An expression's value in mpf arithmetic, at the working precision of
    the package for ``prec`` and ``len(e) + 1`` terms, from the package's
    generator values."""
    from assoclab.numeric import _working_dps

    with mp.workdps(_working_dps(prec, len(e) + 1)):
        total = mp.zero
        for mono, q in fraction_terms(e):
            v = mp.mpf(q.numerator) / q.denominator
            for g, exp in mono.factors:
                v *= generator_mpf(g, prec) ** exp
            total += v
    return total


def zeta_split_mpf(comp, prec, delta_value):
    """z[comp] by the package's former mpf midpoint split: the sum over the
    cuts w = uv of its word of delta_value(dual_word(u)) * delta_value(v),
    each read through ``word_composition`` (1 for an empty side), in mpf
    arithmetic at the working precision for one term per cut."""
    from assoclab.numeric import _working_dps
    from assoclab.symring import dual_word, word_composition, zeta_word

    w = zeta_word(comp)
    with mp.workdps(_working_dps(prec, len(w) + 1)):
        total = mp.zero
        for i in range(len(w) + 1):
            part = mp.one
            for side in (dual_word(w[:i]), w[i:]):
                if side:
                    part *= delta_value(word_composition(side))
            total += part
    return total


# -- kernel-integral oracle --------------------------------------------------
#
# The iterated integral with kernel 1/(2 e^t - 1) over t1 > t2 > ... > tr > 0,
# level j carrying t^l_j / l_j!.  Expanding the kernel as sum_m 2^-m e^-mt and
# cutting at m <= M keeps every partial integral in the space spanned by
# t^k e^-nt, which integrates in closed form; no quadrature, no series
# conversion, no package code.


def _integrate_to(poly_exp):
    # antiderivative from 0 to t of sum c * s^k e^-ns; requires n >= 1
    out: dict[tuple[int, int], mp.mpf] = {}

    def add(k, n, v):
        key = (k, n)
        cur = out.get(key)
        out[key] = v if cur is None else cur + v

    for (k, n), c in poly_exp.items():
        if n < 1:
            raise ValueError("non-decaying term cannot be integrated")
        fk = mp.mpf(factorial(k))
        add(0, 0, c * fk / mp.mpf(n) ** (k + 1))
        for j in range(k + 1):
            add(j, n, -c * fk / mp.mpf(factorial(j)) / mp.mpf(n) ** (k + 1 - j))
    return {kn: v for kn, v in out.items() if v}


def iint_numeric(levels, digits: int = 30):
    levels = tuple(levels)
    if any(l < 0 for l in levels):
        raise ValueError("levels must be >= 0")
    cut = _cutoff(len(levels) + sum(levels) + 2, digits)
    with mp.workdps(digits + 15):
        kernel = [(m, mp.mpf(2) ** (-m)) for m in range(1, cut + 1)]
        g = {(0, 0): mp.mpf(1)}
        for j in range(len(levels) - 1, -1, -1):
            lj = levels[j]
            inv = mp.mpf(1) / factorial(lj)
            nxt: dict[tuple[int, int], mp.mpf] = {}
            for (k, n), c in g.items():
                for m, w in kernel:
                    key = (k + lj, n + m)
                    v = c * w * inv
                    cur = nxt.get(key)
                    nxt[key] = v if cur is None else cur + v
            if j > 0:
                g = _integrate_to(nxt)
            else:
                total = mp.mpf(0)
                for (k, n), c in nxt.items():
                    total += c * factorial(k) / mp.mpf(n) ** (k + 1)
                return +total
        return mp.mpf(1)  # empty word: the unit


def shuffle_brute(u, v) -> Counter:
    """All interleavings by choosing the positions of u among len(u)+len(v)."""
    u, v = tuple(u), tuple(v)
    n = len(u) + len(v)
    out: Counter = Counter()
    for spots in itertools.combinations(range(n), len(u)):
        word = [None] * n
        it_u = iter(u)
        it_v = iter(v)
        chosen = set(spots)
        for i in range(n):
            word[i] = next(it_u) if i in chosen else next(it_v)
        out[tuple(word)] += 1
    return out


def binomial_ad(actor: str, argument: str, m: int) -> dict[str, Fraction]:
    """ad_actor^m(argument) via the binomial expansion, as a word dict."""
    from math import comb

    out: dict[str, Fraction] = {}
    for j in range(m + 1):
        w = actor * (m - j) + argument + actor * j
        coeff = Fraction((-1) ** j * comb(m, j))
        out[w] = out.get(w, Fraction(0)) + coeff
    return {w: c for w, c in out.items() if c}


def naive_zeta(comp, limit: int = 100_000):
    """Plain truncated nested summation of an admissible MZV, in float64.

    Layer-by-layer prefix sums: inner[n] accumulates the sum over
    n_k < ... < n_2 < n of the inner parts, then the outer index is summed
    to `limit` directly.  Returns (value, bound): truncation tail (last
    outer term times 2*limit/(s1 - 1), generous for s1 >= 2 since the inner
    factor grows slower than any power) plus a float64 accumulation budget,
    which dominates for steep depth-one sums where the tail is ~1e-16.
    """
    comp = tuple(comp)
    if not comp or comp[0] < 2 or any(s < 1 for s in comp):
        raise ValueError("need an admissible composition: %r" % (comp,))
    inner = [1.0] * (limit + 1)  # inner[n]: sum over indices < n
    for s in comp[:0:-1]:
        acc = 0.0
        nxt = [0.0] * (limit + 1)
        for n in range(1, limit + 1):
            nxt[n] = acc
            acc += inner[n] / n ** s
        inner = nxt
    total = 0.0
    last = 0.0
    s1 = comp[0]
    for n in range(1, limit + 1):
        last = inner[n] / n ** s1
        total += last
    tail_bound = last * 2 * limit / (s1 - 1)
    rounding = 1e-12 * len(comp) * (1.0 + total)
    return total, tail_bound + rounding


# -- rational elimination oracle ---------------------------------------------
#
# The span elimination written over the rationals: rows are {SymMonomial:
# Fraction} dicts, kept monic, and the leading monomial is found through
# SymMonomial.sort_key.  The package eliminates fraction free on integer rows
# keyed by monomial rank; both must give the same pivots, rows and
# certificates.


class _FractionPivot:
    __slots__ = ("vec", "cert", "origin")

    def __init__(self, vec, cert, origin):
        self.vec = vec
        self.cert = cert
        self.origin = origin


class FractionSpan:
    """Weight-sliced, fully reduced echelon form over Q of a relation list,
    with the same ideal slices and the same insertion order as the package's
    ``Span``."""

    def __init__(self, base):
        from assoclab.symring import Generator

        self.base = list(base)
        gens = {g for r in self.base for m in r.expr.monomials() for g, _ in m.factors}
        self._gens = sorted(gens, key=Generator.sort_key)
        self._mono_cache: dict = {}
        self._slices: dict = {}

    def _monomials(self, w: int) -> list:
        from assoclab.symring import SymMonomial

        if w in self._mono_cache:
            return self._mono_cache[w]
        found = []

        def rec(i: int, rem: int, picked):
            if rem == 0:
                found.append(SymMonomial(tuple(Counter(picked).items())))
                return
            for j in range(i, len(self._gens)):
                g = self._gens[j]
                if g.weight <= rem:
                    rec(j, rem - g.weight, picked + [g])

        rec(0, w, [])
        found.sort(key=lambda m: m.sort_key())
        self._mono_cache[w] = found
        return found

    def _slice(self, w: int) -> dict:
        from assoclab.symring import monomial_product

        st = self._slices.get(w)
        if st is not None:
            return st
        st = {}
        self._slices[w] = st
        for r in self.base:
            if r.weight < w:
                for m in self._monomials(w - r.weight):
                    vec = {monomial_product(mono, m): q for mono, q in fraction_terms(r.expr)}
                    self._insert(st, vec, r.provenance, None)
        for i, r in enumerate(self.base):
            if r.weight == w:
                self._insert(st, dict(fraction_terms(r.expr)), r.provenance, i)
        return st

    @staticmethod
    def _subtract(dst, q, src):
        for mono, val in src.items():
            nv = dst.get(mono, Fraction(0)) - q * val
            if nv:
                dst[mono] = nv
            else:
                dst.pop(mono, None)

    @staticmethod
    def _eliminate(st, vec, cert):
        for m in [m for m in vec if m in st]:
            q = vec[m]
            piv = st[m]
            cert |= piv.cert
            FractionSpan._subtract(vec, q, piv.vec)
        return vec

    def _insert(self, st, vec, tag, origin):
        cert = {tag}
        vec = self._eliminate(st, vec, cert)
        if not vec:
            return
        lead = max(vec, key=lambda m: m.sort_key())
        lc = vec[lead]
        if lc != 1:
            vec = {m: q / lc for m, q in vec.items()}
        newpiv = _FractionPivot(vec, set(cert), origin)
        for piv in st.values():
            q = piv.vec.get(lead)
            if q:
                piv.cert |= newpiv.cert
                self._subtract(piv.vec, q, vec)
        st[lead] = newpiv

    def reduce_expr(self, e):
        from assoclab.symring import SymExpr, sym_weight

        if not e:
            return e, frozenset()
        st = self._slice(sym_weight(e))
        used: set = set()
        vec = self._eliminate(st, dict(fraction_terms(e)), used)
        return SymExpr(vec), frozenset(used)


def fraction_reduce(rels, aux=()) -> list:
    """``relations.reduce`` computed on a FractionSpan."""
    from assoclab.relations import Relation
    from assoclab.symring import SymExpr

    rels, aux = list(rels), list(aux)
    span = FractionSpan(aux + rels)
    out = []
    for w in sorted({r.weight for r in rels}):
        # a pivot is reported when it was inserted from a rels row, by its
        # position in the base, also when that row equals an aux row
        rows = [
            (lead, piv)
            for lead, piv in span._slice(w).items()
            if piv.origin is not None and piv.origin >= len(aux)
        ]
        rows.sort(key=lambda t: t[0].sort_key(), reverse=True)
        for lead, piv in rows:
            prov = span.base[piv.origin].provenance
            out.append(Relation(SymExpr(piv.vec), prov, frozenset(piv.cert - {prov})))
    return out


# -- per-step normalised sweep -------------------------------------------------
#
# The package's former integer elimination: the swept row is divided by its
# content after every pivot subtraction.  The package divides once, when the
# sweep ends; both must store the same pivots, certificates and origins, and
# give the same remainders.


def combine_normalised(vec, piv, lead, scale: int) -> int:
    """vec <- ((L/g)·vec - (a/g)·piv) / content in place, where
    a = vec[lead], L = piv[lead] > 0 and g = gcd(a, L), and return
    scale·(L/g) / content: the content is taken over vec and that scale."""
    a, L = vec[lead], piv[lead]
    g = gcd(a, L)
    f, q = L // g, a // g
    if f != 1:
        scale *= f
        for k in vec:
            vec[k] *= f
    for k, v in piv.items():
        nv = vec.get(k, 0) - q * v
        if nv:
            vec[k] = nv
        else:
            del vec[k]
    content = gcd(scale, *vec.values())
    if content > 1:
        scale //= content
        for k in vec:
            vec[k] //= content
    return scale


def eliminate_normalised(st, vec, cert: int) -> tuple[int, int]:
    scale = 1
    for m in [m for m in vec if m in st]:
        piv = st[m]
        cert |= piv.cert
        scale = combine_normalised(vec, piv.vec, m, scale)
    return cert, scale


class StepNormalisedSpan(Span):
    """``Span`` with the former sweep; back-substitution is ``Span``'s own,
    which already normalises after its one-pivot sweep."""

    _eliminate = staticmethod(eliminate_normalised)


# -- all-pairs series product and geometric-series inverse ---------------------
#
# The package groups the right factor's words by degree, sums every pair that
# meets at an output word in one accumulator, memoises monomial products and
# solves the inverse degree by degree.  These oracles visit every (u, v) pair,
# multiply coefficients term by term through the monomial constructor, and
# invert by summing the powers of 1 - s.


def sum_of_products_fraction(pairs):
    """The package's former product loop: sum of a * b over (a, b) pairs in
    one Fraction accumulator, terms in first-seen order."""
    from assoclab.symring import SymExpr, monomial_product

    out: dict = {}
    for a, b in pairs:
        for m1, q1 in fraction_terms(a):
            for m2, q2 in fraction_terms(b):
                m = monomial_product(m1, m2)
                p = q1 * q2
                s = out.get(m)
                out[m] = p if s is None else s + p
    return SymExpr(out)


def expr_mul(a, b):
    """a * b, one term pair at a time, without the package's product loop."""
    from assoclab.symring import SymExpr, SymMonomial

    out: dict = {}
    for m1, q1 in fraction_terms(a):
        for m2, q2 in fraction_terms(b):
            m = SymMonomial(m1.factors + m2.factors)
            out[m] = out.get(m, Fraction(0)) + q1 * q2
    return SymExpr(out)


def nc_mul_all_pairs(a, b):
    """Concatenation product visiting every word pair, skipping long ones."""
    from assoclab.freealg import NCSeries

    assert a.order == b.order
    out: dict = {}
    for u, cu in a.coeffs.items():
        for v, cv in b.coeffs.items():
            if len(u) + len(v) > a.order:
                continue
            prod = expr_mul(cu, cv)
            prev = out.get(u + v)
            out[u + v] = prod if prev is None else prev + prod
    return NCSeries(a.order, out)


def nc_inverse_geometric(s):
    """1 + t + t^2 + ... with t = 1 - s, summed until the powers vanish."""
    from assoclab.freealg import nc_unit

    t = nc_sub(nc_unit(s.order), s)
    acc = power = nc_unit(s.order)
    for _ in range(s.order):
        power = nc_mul_all_pairs(power, t)
        if not power.coeffs:
            break
        acc = nc_add(acc, power)
    return acc


def check_product_form(order: int) -> bool:
    """psi * inverse(swap psi) from the all-pairs product and the geometric
    inverse equals the package's quotient psi / swap(psi), which the
    package solves degree by degree (``nc_div``)."""
    from assoclab.delta_side import phi_delta, psi_series
    from assoclab.freealg import nc_swap

    psi = psi_series(order)
    return nc_mul_all_pairs(psi, nc_inverse_geometric(nc_swap(psi))) == phi_delta(order)


def check_omega2(order: int) -> bool:
    """psi_2 - swap(psi)_2 is the printed (c^2 + 2 I[1]) X, with X = BA - AB."""
    from assoclab.delta_side import iint_to_sym, psi_series
    from assoclab.freealg import nc_coeff, nc_swap
    from assoclab.symring import LOG2, SymExpr

    psi = psi_series(order)
    swapped = nc_swap(psi)
    coeff = SymExpr.gen(LOG2, 2) + iint_to_sym((1,)).scale(Fraction(2))
    want = {"BA": coeff, "AB": -coeff, "AA": SymExpr.zero(), "BB": SymExpr.zero()}
    # below order 2 both sides truncate to nothing
    return order < 2 or all(
        nc_coeff(psi, w) - nc_coeff(swapped, w) == e for w, e in want.items()
    )


# -- Fraction sums --------------------------------------------------------------
#
# The package sums every expression in symring.sum_of_products, over integer
# numerators.  These are its former sum paths: a copied Fraction dict per
# addition, word sums and shuffle rows built one addition at a time.


def expr_add_fraction(a, b):
    """The package's former SymExpr.__add__: a copy of a's Fraction dict with
    b's terms added, zero sums dropped."""
    from assoclab.symring import SymExpr

    out = dict(fraction_terms(a))
    for m, q in fraction_terms(b):
        s = out.get(m, Fraction(0)) + q
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return SymExpr(out)


def expr_sub_fraction(a, b):
    """The package's former SymExpr.__sub__: a + (-b)."""
    return expr_add_fraction(a, -b)


def sum_of_terms_fraction(pairs):
    """Sum of a * b over pairs (a, b), b a SymExpr or a rational scalar, one
    Fraction addition per pair."""
    from assoclab.symring import SymExpr

    acc = SymExpr.zero()
    for a, b in pairs:
        acc = expr_add_fraction(acc, expr_mul(a, b) if isinstance(b, SymExpr) else a.scale(b))
    return acc


def nc_word_sums_fraction(order: int, terms):
    """The package's former word-sum loop: coeff * k added to each word's
    running sum one pair at a time."""
    from assoclab.freealg import NCSeries
    from assoclab.symring import SymExpr

    acc = {"": SymExpr.one()}
    for coeff, words in terms:
        for w, k in words.items():
            term = coeff.scale(k)
            prev = acc.get(w)
            acc[w] = term if prev is None else expr_add_fraction(prev, term)
    return NCSeries(order, acc)


def iint_to_zeta(levels):
    """The package's former zeta-kernel reading of I[levels]: the sum of
    k * z[parts] over iint_terms(levels); needs every index >= 1.

    Positivity of the first index makes the defining integral convergent,
    positivity of the last one makes every emitted composition admissible.
    """
    from assoclab.delta_side import iint_terms
    from assoclab.symring import SymExpr, zeta

    levels = tuple(int(l) for l in levels)
    if not levels or min(levels) < 1:
        raise ValueError("all indices must be >= 1, got %r" % (levels,))
    return sum_of_terms_fraction([(SymExpr.gen(zeta(parts)), k) for k, parts in iint_terms(levels)])


def shuffle_rows_fraction(max_weight: int):
    """The package's former shuffle-row loop, as (monic expression, label,
    provenance JSON) per row, with the label and JSON written out by hand.

    Each row is f(u)·f(v) minus f(w)·k for every shuffle w of multiplicity
    k, subtracted one at a time."""
    from assoclab.delta_side import iint_to_sym, index_weight, index_words
    from assoclab.relations import shuffle

    fmt = lambda w: ",".join(map(str, w))
    words = index_words(max_weight - 1)
    rows = []
    for i, u in enumerate(words):
        for v in words[i:]:
            if index_weight(u) + index_weight(v) > max_weight:
                continue
            kernels = [("delta", iint_to_sym)]
            if min(u) >= 1 and min(v) >= 1:
                kernels.append(("zeta", iint_to_zeta))
            for kernel, f in kernels:
                lhs = expr_mul(f(u), f(v))
                for w, k in sorted(shuffle(u, v).items()):
                    lhs = expr_sub_fraction(lhs, f(w).scale(Fraction(k)))
                if not lhs:
                    continue
                lead = max(lhs.monomials(), key=lambda m: m.sort_key())
                rows.append((
                    lhs.scale(1 / dict(fraction_terms(lhs))[lead]),
                    "shuffle[%s:%s|%s]" % (kernel, fmt(u), fmt(v)),
                    {"kind": "shuffle", "kernel": kernel, "u": list(u), "v": list(v)},
                ))
    return rows


def zeta_composition(pairs) -> tuple[int, ...]:
    """The package's former pair reading of an index's composition:
    (p1+1, {1}^(q1-1), ..., pg+1, {1}^(qg-1))."""
    parts: list[int] = []
    for p, q in pairs:
        parts.append(p + 1)
        parts.extend([1] * (q - 1))
    return tuple(parts)


def dual_composition(pairs):
    """The package's former pair duality: reverse the pair list and swap p
    and q within each pair."""
    return tuple((q, p) for p, q in reversed(pairs))


def duality_rows_pairs(max_weight: int) -> list:
    """The package's former duality rows, built from the pair functions
    above, as (composition, monic expression) in enumeration order."""
    from assoclab.mzv_side import enumerate_pq
    from assoclab.symring import SymExpr, zeta

    rows = []
    for r in range(2, max_weight + 1):
        for pairs in enumerate_pq(r):
            comp = zeta_composition(pairs)
            dcomp = zeta_composition(dual_composition(pairs))
            if comp < dcomp:
                expr = SymExpr.gen(zeta(comp)) - SymExpr.gen(zeta(dcomp))
                rows.append((comp, expr.monic()))
    return rows


def word_sum_closed_form(pairs) -> dict[str, int]:
    """The package's former template word sum, Le and Murakami's closed
    formula: sum over s_i <= p_i, t_i <= q_i of
    (-1)^{sum s + sum t} prod C(p_i,s_i) C(q_i,t_i) times the word
    B^{sum t} A^{p1-s1} B^{q1-t1} ... A^{pg-sg} B^{qg-tg} A^{sum s}."""
    out: dict[str, int] = {}
    for svec in itertools.product(*(range(p + 1) for p, _ in pairs)):
        for tvec in itertools.product(*(range(q + 1) for _, q in pairs)):
            count = (-1) ** (sum(svec) + sum(tvec))
            for (p, q), s, t in zip(pairs, svec, tvec):
                count *= comb(p, s) * comb(q, t)
            middle = "".join("A" * (p - s) + "B" * (q - t) for (p, q), s, t in zip(pairs, svec, tvec))
            w = "B" * sum(tvec) + middle + "A" * sum(svec)
            out[w] = out.get(w, 0) + count
    return {w: c for w, c in out.items() if c}


def deletion_fold(word: str, deletable: str) -> dict[str, int]:
    """The package's former per-word fold: the signed word counts of a left
    fold over the runs of equal letters of word, each letter kept or, if in
    ``deletable``, deleted with a sign flip, B to the left end and A to the
    right, every word folded from its first letter.  The state is
    (head, #A deleted); a deletable run of p copies branches into s = 0..p
    deletions with weight (-1)^s C(p, s)."""
    states = {("", 0): 1}
    for letter, run in itertools.groupby(word):
        p = len(list(run))
        nxt: dict = {}
        for (head, a), c in states.items():
            for s in range(p + 1 if letter in deletable else 1):
                kept = letter * (p - s)
                key = (letter * s + head + kept, a) if letter == "B" else (head + kept, a + s)
                nxt[key] = nxt.get(key, 0) + (-1) ** s * comb(p, s) * c
        states = nxt
    out: dict[str, int] = {}
    for (head, a), c in states.items():
        out[head + "A" * a] = out.get(head + "A" * a, 0) + c
    return {w: c for w, c in out.items() if c}


def nc_word_sums(order: int, terms):
    """The package's former word sums: 1 + sum of coeff * k * w over
    (SymExpr coeff, {word w: int k}) pairs, each word's pairs summed at
    once in ``sum_of_products``."""
    from assoclab.freealg import NCSeries
    from assoclab.symring import SymExpr, sum_of_products

    pairs: dict = {"": [(SymExpr.one(), 1)]}
    for coeff, words in terms:
        for w, k in words.items():
            pairs.setdefault(w, []).append((coeff, k))
    return NCSeries(order, {w: sum_of_products(p) for w, p in pairs.items()})


def phi_mzv_by_word_sums(order: int):
    """The package's former Phi_mzv: each template A^p1 B^q1 ... folded on
    its own, times (-1)^#B z[its composition], and the word sums taken."""
    from assoclab.mzv_side import enumerate_pq, pq_word
    from assoclab.symring import SymExpr, word_composition, zeta

    return nc_word_sums(order, (
        (SymExpr.gen(zeta(word_composition(word)), coeff=(-1) ** word.count("B")),
         deletion_fold(word, "AB"))
        for r in range(2, order + 1)
        for word in map(pq_word, enumerate_pq(r))
    ))


def xi_series_by_word_sums(order: int):
    """The package's former Xi_B: x = dual_word(zeta_word(s)) for each
    composition s of r = 1..order folded on its own with only B deletable,
    times (-1)^(r - len(s)) d[s], or c^r/r! when x = A^r, and the word sums
    taken."""
    from assoclab.symring import LOG2, SymExpr, compositions, delta, dual_word, zeta_word

    return nc_word_sums(order, (
        (SymExpr.gen(LOG2, r, Fraction(1, factorial(r))) if k == r
         else SymExpr.gen(delta(s), coeff=(-1) ** (r - k)),
         deletion_fold(dual_word(zeta_word(s)), "B"))
        for r in range(1, order + 1)
        for k in range(1, r + 1)
        for s in compositions(r, k)
    ))


def iint_terms_by_carry_vectors(levels) -> list:
    """The package's former kernel expansion: one (coefficient, composition)
    term per carry vector (m0=0, m1, ..., m_{r-1}, m_r=0) with
    0 <= m_j <= l_j + m_{j-1}, enumerated lex by recursion, with coefficient
    prod_{j>=2} C(l_j + m_{j-1}, l_j) and part r+1-j equal to
    l_j + m_{j-1} - m_j + 1."""
    levels = tuple(levels)
    r = len(levels)

    def carry_vectors(j: int, prefix: tuple):
        if j == r:
            yield prefix + (0,)
            return
        for m in range(levels[j - 1] + prefix[j - 1] + 1):
            yield from carry_vectors(j + 1, prefix + (m,))

    out = []
    for m in carry_vectors(1, (0,)):
        coeff = 1
        for j in range(2, r + 1):
            coeff *= comb(levels[j - 1] + m[j - 1], levels[j - 1])
        parts = tuple(levels[j - 1] + m[j - 1] - m[j] + 1 for j in range(r, 0, -1))
        out.append((coeff, parts))
    return out


def _half_value(word: str):
    """D(word), the [0, 1/2] value of an A/B word: 1 for the empty word,
    c^k/k! for B^k, and d[word_composition(word)] otherwise."""
    from assoclab.symring import LOG2, SymExpr, delta, word_composition

    if not word:
        return SymExpr.one()
    if "A" not in word:
        return SymExpr.gen(LOG2, len(word), Fraction(1, factorial(len(word))))
    return SymExpr.gen(delta(word_composition(word)))


def midpoint_rows(max_weight: int) -> list:
    """The Hoelder convolution at p = 2 as relations, one per admissible
    composition s of weight 2..max_weight: with w = zeta_word(s), the row
    z[s] - sum over w = uv of D(dual_word(u)) D(v).

    Splitting the path [0, 1] at 1/2 gives this identity; it reads no
    series, no quotient and no fold, only the word functions of symring."""
    from assoclab.relations import KnownValue, Relation
    from assoclab.symring import SymExpr, dual_word, zeta, zeta_word

    rows = []
    for weight in range(2, max_weight + 1):
        for s in compositions_of_weight(weight):
            if s[0] < 2:
                continue
            w = zeta_word(s)
            halves = [(_half_value(dual_word(w[:i])), _half_value(w[i:])) for i in range(len(w) + 1)]
            expr = SymExpr.gen(zeta(s)) - sum_of_terms_fraction(halves)
            rows.append(Relation(expr, KnownValue("midpoint:" + ",".join(map(str, s)))))
    return rows


@lru_cache(maxsize=None)
def _word_shuffle(u: str, v: str) -> dict[str, int]:
    """u shuffled with v, read through the package's ``shuffle``."""
    from assoclab.relations import shuffle

    return {"".join(w): k for w, k in shuffle(u, v).items()}


def shuffle_sum(x: dict, y: dict) -> Counter:
    out: Counter = Counter()
    for u, a in x.items():
        for v, b in y.items():
            for w, k in _word_shuffle(u, v).items():
                out[w] += a * b * k
    return out


@lru_cache(maxsize=None)
def _linearise_generator(g) -> dict[str, int]:
    """L(c) = B, L(d[s]) = zeta_word(s), and L(z[s]) the midpoint split:
    the sum of dual_word(u) shuffled with v over the cuts uv of zeta_word(s)."""
    from assoclab.symring import dual_word, zeta_word

    if g.kind == "log2":
        return {"B": 1}
    word = zeta_word(g.parts)
    if g.kind == "delta":
        return {word: 1}
    out: Counter = Counter()
    for i in range(len(word) + 1):
        out.update(_word_shuffle(dual_word(word[:i]), word[i:]))
    return dict(out)


@lru_cache(maxsize=None)
def _linearise_monomial(m) -> dict[str, int]:
    image = {"": 1}
    for g, e in m.factors:
        for _ in range(e):
            image = shuffle_sum(image, _linearise_generator(g))
    return dict(image)


def linearise(expr) -> dict[str, Fraction]:
    """L(expr) in word coordinates: the algebra map that sends c, d[s] and
    z[s] as ``_linearise_generator`` does and a product to the shuffle
    product of its factors' images.  Zero coefficients are dropped, so a
    relation in the kernel of L maps to {}."""
    total: Counter = Counter()
    for m, n in expr.nums.items():
        for w, k in _linearise_monomial(m).items():
            total[w] += n * k
    return {w: Fraction(k, expr.den) for w, k in total.items() if k}


def remainder(pivots: dict, vec: dict) -> dict:
    """vec reduced by an ``echelon``'s pivots: fraction-free, on an integer
    multiple of vec, lead by lead from its largest coordinate.  {} when vec
    lies in their span."""
    den = lcm(*(Fraction(v).denominator for v in vec.values()))
    vec = {k: int(v * den) for k, v in vec.items() if v}
    while vec:
        lead = max(vec)
        piv = pivots.get(lead)
        if piv is None:
            break
        g = gcd(vec[lead], piv[lead])
        f, q = piv[lead] // g, vec[lead] // g
        vec = {k: f * v for k, v in vec.items()}
        for k, v in piv.items():
            vec[k] = vec.get(k, 0) - q * v
        vec = {k: v for k, v in vec.items() if v}
        content = gcd(*vec.values())
        vec = {k: v // content for k, v in vec.items()}
    return vec


def echelon(vectors) -> dict:
    """A row echelon over Q of vectors given as {coordinate: rational}
    dicts, with mutually comparable coordinates: each integer pivot keyed by
    its largest coordinate."""
    pivots: dict = {}
    for vec in vectors:
        vec = remainder(pivots, vec)
        if vec:
            pivots[max(vec)] = vec
    return pivots


def rank(vectors) -> int:
    """The rank over Q of vectors given as {coordinate: rational} dicts."""
    return len(echelon(vectors))


# -- the normal form modulo shuffle: by Radford's theorem the shuffle algebra
# is the polynomial algebra on the Lyndon words (A < B), so modulo the word
# shuffles each d[s] is one polynomial in c and the d[l], and each z[s] one
# in the z[l], with l Lyndon


def lyndon_factors(word: str) -> list[str]:
    """Duval's factorisation word = l1 l2 ... lk into Lyndon words, with
    l1 >= l2 >= ... >= lk under A < B."""
    out, i, n = [], 0, len(word)
    while i < n:
        j, k = i + 1, i
        while j < n and word[k] <= word[j]:
            k = i if word[k] < word[j] else k + 1
            j += 1
        while i <= k:
            out.append(word[i:i + j - k])
            i += j - k
    return out


def _lyndon_generator(kind: str, word: str):
    from assoclab.symring import LOG2, Generator, word_composition

    return LOG2 if word == "B" else Generator(kind, word_composition(word))


@lru_cache(maxsize=None)
def nf_word(kind: str, word: str):
    """The normal form of the delta or zeta value of ``word``: for Lyndon
    factors l1 ... ln of word, with i1!...ik! the factorials of their
    multiplicities, l1 ⧢ ... ⧢ ln is i1!...ik! word plus words below word
    in lex order, each rewritten the same way (Reutenauer, Free Lie
    Algebras, Thm 6.1).  Every word met ends in B, and for z starts with A."""
    from assoclab.symring import SymExpr, SymMonomial, sum_of_products

    factors = lyndon_factors(word)
    lead = SymExpr.from_ints(1, {SymMonomial(tuple((_lyndon_generator(kind, l), 1) for l in factors)): 1})
    if len(factors) == 1:
        return lead
    shuffled = {"": 1}
    for l in factors:
        shuffled = shuffle_sum(shuffled, {l: 1})
    multiplicity = shuffled.pop(word)
    form = sum_of_products([(lead, 1)] + [(nf_word(kind, u), -k) for u, k in shuffled.items()])
    return form.scale(Fraction(1, multiplicity))


@lru_cache(maxsize=None)
def _nf_monomial(m):
    from assoclab.symring import SymExpr, sum_of_products, zeta_word

    image = SymExpr.one()
    for g, e in m.factors:
        form = SymExpr.gen(g) if g.kind == "log2" else nf_word(g.kind, zeta_word(g.parts))
        for _ in range(e):
            image = sum_of_products([(image, form)])
    return image


def nf(expr):
    """NF(expr), the algebra map that sends each generator to its normal
    form, through one ``sum_of_products`` over the memoised monomial images."""
    from assoclab.symring import sum_of_products

    image = sum_of_products([(_nf_monomial(m), n) for m, n in expr.nums.items()])
    return image.scale(Fraction(1, expr.den))


def ad_words(actor: str, argument: str, levels) -> dict[str, int]:
    """Integer word counts of ad_actor^l1(argument) ... ad_actor^lr(argument).

    Each factor is sum_i (-1)^i C(l, i) actor^(l-i) argument actor^i; words
    that coincide are added and zero counts dropped, so ad_X^m(X) = 0, m >= 1.
    """
    out = {"": 1}
    for l in levels:
        nxt: dict[str, int] = {}
        for i in range(l + 1):
            piece = actor * (l - i) + argument + actor * i
            for w, c in out.items():
                nxt[w + piece] = nxt.get(w + piece, 0) + (-1) ** i * comb(l, i) * c
        out = {w: c for w, c in nxt.items() if c}
    return out


def xi_series_by_kernels(order: int):
    """The package's former Xi_B, the paper's kernel formula: 1 plus the sum
    over index words of I[levels] times ad_B^l1(A) ... ad_B^lr(A), index
    words cut off at total degree ``order``."""
    from assoclab.delta_side import iint_to_sym, index_words

    return nc_word_sums(
        order,
        ((iint_to_sym(levels), ad_words("B", "A", levels)) for levels in index_words(order)),
    )


def render_by_sort_key(e) -> tuple[str, str]:
    """The package's former printer of one expression: its terms sorted by
    descending ``sort_key``, then each printed as text and as LaTeX."""
    terms = sorted(e.nums.items(), key=lambda mn: mn[0].sort_key(), reverse=True)
    out = []
    for coeff, times, latex in (("%d/%d", "*", False), (r"\tfrac{%d}{%d}", " ", True)):
        parts = []
        for i, (m, n) in enumerate(terms):
            negative = n < 0
            g = gcd(n, e.den)
            n, d = abs(n) // g, e.den // g
            number = str(n) if d == 1 else coeff % (n, d)
            name = m.latex() if latex else m.render()
            if not m.factors:
                body = number
            elif n == 1 and d == 1:
                body = name
            else:
                body = number + times + name
            if i == 0:
                parts.append("-" + body if negative else body)
            else:
                parts.append(("- " if negative else "+ ") + body)
        out.append(" ".join(parts) or "0")
    return out[0], out[1]


# -- test-only helpers -------------------------------------------------------
#
# No pipeline path runs these; the tests build expected values with them.


def fraction_terms(e) -> list:
    """A SymExpr's terms as (monomial, Fraction) pairs, in stored order."""
    return [(m, Fraction(n, e.den)) for m, n in e.nums.items()]


def compositions_of_weight(w: int):
    """All compositions of w, first part unrestricted."""
    for k in range(1, w + 1):
        for cuts in itertools.combinations(range(1, w), k - 1):
            bounds = (0,) + cuts + (w,)
            yield tuple(bounds[i + 1] - bounds[i] for i in range(k))


def nc_add(a, b):
    from assoclab.freealg import NCSeries, OrderMismatchError

    if a.order != b.order:
        raise OrderMismatchError("orders %d != %d" % (a.order, b.order))
    out = dict(a.coeffs)
    for w, e in b.coeffs.items():
        s = out.get(w)
        out[w] = e if s is None else s + e
    return NCSeries(a.order, out)


def nc_sub(a, b):
    from assoclab.freealg import nc_neg

    return nc_add(a, nc_neg(b))


def nc_scale(a, e):
    from assoclab.freealg import NCSeries

    return NCSeries(a.order, {w: e * c for w, c in a.coeffs.items()})


def nc_graded_part(s, degree: int):
    from assoclab.freealg import NCSeries

    return NCSeries(s.order, {w: e for w, e in s.coeffs.items() if len(w) == degree})


def check_grading(s) -> None:
    """Assert the weight grading: coefficient of a degree-r word has weight r.

    Raises NotHomogeneousError or ValueError when violated.
    """
    from assoclab.symring import sym_weight

    for w, e in s.coeffs.items():
        wt = sym_weight(e)
        if wt != len(w):
            raise ValueError(
                "word %r has degree %d but coefficient weight %d" % (w, len(w), wt)
            )


def monomial(*factors):
    from assoclab.symring import SymMonomial

    return SymMonomial(tuple(factors))


_KIND_RANK = {"zeta": 0, "log2": 1, "delta": 2}


def monomial_views(factors) -> tuple:
    """(sort_key, render, latex) of the product of (Generator, exponent)
    factors, recomputed from each generator's kind and parts alone.

    The monomial caches these on first use; this recomputes them, with the
    order written out from the module docstring of ``symring``."""
    power = Counter()
    for g, e in factors:
        power[g.kind, g.parts] += e

    def key(kind_parts):
        kind, parts = kind_parts
        return (sum(parts) if parts else 1, _KIND_RANK[kind], len(parts or ()), parts or ())

    order = sorted(power, key=key)
    weight = sum(key(kp)[0] * power[kp] for kp in order)
    descending = tuple(key(kp) for kp in reversed(order) for _ in range(power[kp]))
    text, tex = [], []
    for kind, parts in order:
        e, joined = power[kind, parts], ",".join(map(str, parts or ()))
        name = "c" if kind == "log2" else "%s[%s]" % (kind[0], joined)
        text.append(name if e == 1 else "%s^%d" % (name, e))
        if kind == "log2":
            tex.append(r"\ln 2" if e == 1 else r"(\ln 2)^{%d}" % e)
        else:
            sym = r"\%s_{%s}" % (kind, joined)
            tex.append(sym if e == 1 else "%s^{%d}" % (sym, e))
    return (weight, descending), "*".join(text) or "1", " ".join(tex) or "1"


def _partitions(w: int, largest: int):
    """Partitions of w into parts <= largest, as non-increasing lists."""
    if w == 0:
        yield []
    for p in range(min(w, largest), 0, -1):
        for rest in _partitions(w - p, p):
            yield [p] + rest


def monomial_tuples_brute(weights, w: int) -> list:
    """Every descending index tuple whose indices' weights sum to w, sorted.

    Each partition of w fixes how many factors of each weight there are;
    every choice of that many indices of each weight, with repetition,
    gives one tuple.  ``relations.Span._monomials`` recurses on the weight
    instead."""
    by_weight: dict[int, list[int]] = {}
    for i, wt in enumerate(weights):
        by_weight.setdefault(wt, []).append(i)
    out = []
    for partition in _partitions(w, w):
        counts = Counter(partition)
        choices = [itertools.combinations_with_replacement(by_weight.get(wt, []), k)
                   for wt, k in counts.items()]
        for pick in itertools.product(*choices):
            out.append(tuple(sorted(itertools.chain(*pick), reverse=True)))
    return sorted(out)


def ad_series(actor: str, argument: str, m: int):
    """ad_actor^m(argument) from the word counts of ``ad_words``, at order m + 1."""
    from assoclab.freealg import NCSeries
    from assoclab.symring import SymExpr

    words = ad_words(actor, argument, (m,))
    return NCSeries(m + 1, {w: SymExpr.rational(k) for w, k in words.items()})
