"""Relation extraction and exact reduction.

Sources of relations:
  * comparison: equate coefficients of the two associator expansions word
    by word; every nonzero difference is an identity between zeta values,
    delta values and powers of c,
  * shuffle: products of the kernel integrals I[u]·I[v] expand over the
    shuffles of u and v; pushed through the one kernel expansion,
    ``delta_side.iint_to_sym``, this yields quadratic delta identities.
    When every index is positive, each row read with z[s] for d[s] is the
    same identity over [0, 1], a quadratic zeta identity,
  * duality: reverse-and-swap symmetry of the zeta integration words,
  * known values: a fixed table of classical closed forms, each written out
    as a literal over the generators.

Reduction works per weight class.  Monomials in the generators are the
coordinates; the span of a relation set is taken in the ideal sense: a
relation of weight w' may be multiplied by any generator monomial of weight
w - w' before elimination at weight w.  Multiplier generators are drawn from
the generators that occur in the input rows, which keeps slices finite and
is sound because membership is only ever asserted, never refuted, by a
larger multiplier set.

Elimination is fraction free in Bareiss's sense: every row stays an
integer vector, keyed by the interned monomials as the numerators of a
``SymExpr`` are, so a monic relation is its own row, and ordered by
``SymMonomial.sort_key``.  Each row is swept by one operation that scales
it once, up front, and returns that scale, and a new pivot is
back-substituted only into the pivots whose leads sort above its own.
``Span`` gives the details; provenances appear only at the boundary.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .symring import (
    LOG2,
    UNIT_MONOMIAL,
    Generator,
    SymExpr,
    SymMonomial,
    delta,
    dual_word,
    monomial_product,
    primitive,
    render_each,
    sum_of_products,
    sym_weight,
    word_composition,
    zeta,
)
from .freealg import NCSeries, OrderMismatchError, nc_coeff
from .mzv_side import enumerate_pq, phi_mzv, pq_word
from .delta_side import iint_to_sym, index_weight, index_words, phi_delta


class _Provenance:
    """Where a relation comes from: an immutable named tuple of its fields,
    equal only to a provenance of its own kind.

    The label is KIND[LABEL % fields] and the JSON is ``kind`` and then the
    fields, both in declaration order; a tuple field prints comma separated
    in the label and as a list in JSON.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def _values(self) -> list:
        return [(name, list(v) if type(v) is tuple else v) for name, v in zip(self._fields, self)]

    @lru_cache(maxsize=None)  # provenances are immutable, and one labels many rows
    def label(self) -> str:
        text = tuple(",".join(map(str, v)) if type(v) is list else v for _, v in self._values())
        return "%s[%s]" % (self.KIND, self.LABEL % text)

    def to_json(self) -> dict:
        return dict([("kind", self.KIND)] + self._values())


class Comparison(_Provenance, namedtuple("Comparison", "order word")):
    __slots__ = ()
    KIND, LABEL = "comparison", "%s:%s"


class Shuffle(_Provenance, namedtuple("Shuffle", "kernel u v")):
    __slots__ = ()
    KIND, LABEL = "shuffle", "%s:%s|%s"


class Duality(_Provenance, namedtuple("Duality", "composition")):
    __slots__ = ()
    KIND, LABEL = "duality", "%s"


class KnownValue(_Provenance, namedtuple("KnownValue", "name")):
    __slots__ = ()
    KIND, LABEL = "known", "%s"


class Relation:
    """A weight-homogeneous expression asserted to vanish.

    Stored monic: the leading monomial under the fixed order has
    coefficient 1, so the expression is the primitive integer row with a
    positive lead over den = that lead.  ``certificate``, when present,
    lists the provenances of the rows consumed while reducing this relation.
    """

    __slots__ = ("expr", "weight", "provenance", "certificate")

    def __init__(self, expr: SymExpr, provenance, certificate=None):
        if not expr:
            raise ValueError("relation must be nonzero")
        self.weight = sym_weight(expr)
        self.expr = expr.monic()
        self.provenance = provenance
        self.certificate = certificate

    def __repr__(self):
        return "Relation(w=%d, %s, %s = 0)" % (
            self.weight,
            self.provenance.label(),
            self.expr.render(),
        )

    def to_json(self) -> dict:
        """The JSON row of this relation alone: ``relations_json`` of one."""
        return next(relations_json((self,)))


def relations_json(rels):
    """The JSON row of each relation, yielded one at a time; every lhs is
    rendered, in text and LaTeX, in one batch (``render_each``).  ``rels``
    is read once, so it may be any iterable."""
    rels = list(rels)
    for r, (lhs, latex) in zip(rels, render_each([r.expr for r in rels], ("text", "latex"))):
        out = {
            "weight": r.weight,
            "provenance": r.provenance.to_json(),
            "lhs": lhs,
            "latex": latex + " = 0",
        }
        if r.certificate is not None:
            out["certificate"] = sorted(p.label() for p in r.certificate)
        yield out


@lru_cache(maxsize=None)
def _shuffle(u: tuple, v: tuple) -> Counter:
    """``shuffle`` on tuples, memoised: the recursion meets each pair of
    suffixes many times.  The cached Counters are shared; do not mutate."""
    if not u:
        return Counter({v: 1})
    if not v:
        return Counter({u: 1})
    out: Counter = Counter()
    for w, k in _shuffle(u[1:], v).items():
        out[(u[0],) + w] += k
    for w, k in _shuffle(u, v[1:]).items():
        out[(v[0],) + w] += k
    return out


def shuffle(u, v) -> Counter:
    """Multiset of all order-preserving interleavings of u and v, as a
    fresh Counter the caller may change."""
    return Counter(_shuffle(tuple(u), tuple(v)))


def shuffle_relations(max_weight: int) -> list[Relation]:
    """Quadratic relations from I[u]·I[v] = sum of I over shuffles.

    A delta-kernel row for every unordered pair of nonempty index words
    with combined weight <= max_weight (identically-zero ones dropped),
    followed, when every index is positive, by its zeta-kernel twin: the
    same numerators over the same denominator, each d[s] read as z[s].
    The shuffle product holds on any path, and I[l] on [0, 1] expands as
    on [0, 1/2] with z in place of d; positive indices leave no c term and
    only admissible compositions (first part >= 2).
    """
    words, f = index_words(max_weight - 1), iint_to_sym
    out: list[Relation] = []
    for i, u in enumerate(words):
        wu = index_weight(u)
        for v in words[i:]:
            if wu + index_weight(v) > max_weight:
                break  # index_words ascends in weight
            sh = sorted(shuffle(u, v).items())
            lhs = sum_of_products([(f(u), f(v))] + [(f(w), -k) for w, k in sh])
            if not lhs:
                continue
            out.append(Relation(lhs, Shuffle("delta", u, v)))
            if min(u) >= 1 and min(v) >= 1:
                twin = {SymMonomial(tuple((zeta(g.parts), e) for g, e in m.factors)): n
                        for m, n in lhs.nums.items()}
                out.append(Relation(SymExpr.from_ints(lhs.den, twin), Shuffle("zeta", u, v)))
    return out


def duality_relations(max_weight: int) -> list[Relation]:
    """Duality z[w] = z[dual_word(w)] between admissible zeta values.

    Self-dual compositions are omitted; each dual pair appears once, keyed
    by its lexicographically smaller composition.
    """
    out: list[Relation] = []
    for r in range(2, max_weight + 1):
        for pairs in enumerate_pq(r):
            word = pq_word(pairs)
            comp, dcomp = word_composition(word), word_composition(dual_word(word))
            if comp >= dcomp:
                continue
            expr = SymExpr.gen(zeta(comp)) - SymExpr.gen(zeta(dcomp))
            out.append(Relation(expr, Duality(comp)))
    return out


def known_values() -> list[Relation]:
    """Fixed table of classical closed forms, lowest weight first."""
    c = lambda k, q=1: SymExpr.gen(LOG2, k, q)
    z = lambda *p: SymExpr.gen(zeta(p))
    d = lambda *p: SymExpr.gen(delta(p))
    half = Fraction(1, 2)
    table = [
        ("euler_dilog", d(2) - z(2).scale(half) + c(2, half)),
        ("landen_trilog", d(3) - z(3).scale(Fraction(7, 8)) + (c(1) * z(2)).scale(half) - c(3, Fraction(1, 6))),
        ("delta_2_1", d(2, 1) - z(3).scale(Fraction(1, 8)) + c(3, Fraction(1, 6))),
        ("delta_1_2", d(1, 2) - (c(1) * z(2)).scale(half) + c(3, Fraction(1, 6)) + z(3).scale(Fraction(1, 4))),
        ("delta_3_1", d(3, 1) - z(4).scale(Fraction(1, 8)) + (c(1) * z(3)).scale(Fraction(1, 8)) - c(4, Fraction(1, 24))),
        ("delta_2_2_alt_ones", d(2, 2) + z(4).scale(Fraction(1, 4)) - (c(1) * z(3)).scale(Fraction(1, 4))
         - (z(2) * z(2)).scale(Fraction(1, 8)) + (c(2) * z(2)).scale(Fraction(1, 4)) - c(4, Fraction(1, 24))),
        ("delta_1_2_2_alt_ones", d(1, 2, 2) - z(5).scale(Fraction(3, 16)) + (c(1) * z(4)).scale(Fraction(1, 4))
         + (z(2) * z(3)).scale(Fraction(1, 8)) - (c(2) * z(3)).scale(Fraction(1, 8))
         - (c(1) * z(2) * z(2)).scale(Fraction(1, 8)) + (c(3) * z(2)).scale(Fraction(1, 12))
         - c(5, Fraction(1, 120))),
        ("zeta_3_1_self_dual", z(3, 1) - z(4).scale(Fraction(1, 4))),
        ("zeta_4_1", z(4, 1) - z(5).scale(Fraction(2)) + z(2) * z(3)),
        ("zeta_3_2", z(3, 2) - (z(3) * z(2)).scale(Fraction(3)) + z(5).scale(Fraction(11, 2))),
        ("stuffle_2_3", z(2) * z(3) - z(2, 3) - z(3, 2) - z(5)),
    ]
    return [Relation(expr, KnownValue(name)) for name, expr in table]


AUX_NAMES = ("shuffle", "duality", "known")


def aux_relations(names, order: int) -> list[Relation]:
    """The named aux sets (a subset of AUX_NAMES) up to weight ``order``."""
    out: list[Relation] = []
    if "shuffle" in names:
        out.extend(shuffle_relations(order))
    if "duality" in names:
        out.extend(duality_relations(order))
    if "known" in names:
        out.extend(r for r in known_values() if r.weight <= order)
    return out


def extract_relations(s1: NCSeries, s2: NCSeries) -> list[Relation]:
    """Word-by-word coefficient differences of two series, normalized.

    Words run over degrees 2..order sorted by (degree, lex); relations that
    normalize to the same expression are reported once, keeping the first
    witnessing word.
    """
    if s1.order != s2.order:
        raise OrderMismatchError("orders %d != %d" % (s1.order, s2.order))
    first: dict[SymExpr, Relation] = {}
    words = sorted(set(s1.coeffs) | set(s2.coeffs), key=lambda w: (len(w), w))
    for w in words:
        if len(w) < 2:
            continue
        diff = nc_coeff(s1, w) - nc_coeff(s2, w)
        if diff:
            rel = Relation(diff, Comparison(len(w), w))
            first.setdefault(rel.expr, rel)
    return list(first.values())


def comparison_relations(order: int) -> list[Relation]:
    return extract_relations(phi_mzv(order), phi_delta(order))


class _Pivot:
    __slots__ = ("vec", "cert", "origin")

    def __init__(self, vec, cert, origin):
        self.vec = vec
        self.cert = cert
        self.origin = origin


class _Slice(dict):
    """One weight's pivots by lead, and the same pivots in ascending lead
    order: ``pivots[i]`` leads at the monomial of sort key ``sort_keys[i]``."""

    __slots__ = ("sort_keys", "pivots")

    def __init__(self):
        self.sort_keys, self.pivots = [], []


class Span:
    """Weight-sliced echelon form of the ideal span of a relation list.

    Rows of each weight-w slice are the base relations of weight w plus
    every lower-weight base relation that did not reduce to zero in its own
    slice, multiplied by the monomials of the complementary weight in the
    base generators.  A row is ``{SymMonomial: int}``, keyed as
    ``SymExpr.nums`` is: a base row is a copy of a relation's numerators,
    and a product row maps each term t to ``monomial_product(t, m)``.
    Pivot rows are primitive integer vectors: the gcd of the entries is 1
    and the lead (highest under ``SymMonomial.sort_key``) entry is
    positive.  Slices are built lazily and kept fully reduced: no pivot
    holds another's lead.  So a row meets exactly the pivots whose leads it
    holds on entry, and their entries in it stay put until their own turn.
    The one row operation, ``_sweep``, reads them all first, scales the row
    once by the least D > 0 that keeps each multiple integral, subtracts
    the multiples and drops zeros at the end, dividing nothing, and returns
    D for ``reduce_expr``.  ``symring.primitive`` divides a swept row by its
    content, with the sign that makes its lead positive, and each stored
    pivot after the sweep that back-substitutes a new pivot into it.
    Certificates do not depend on D or on where a division falls: both
    scale a row by a positive rational and keep the leads it holds.  A lead
    is its row's largest monomial, so only the stored pivots whose leads
    sort above the new lead can hold it; ``_Slice`` keeps the leads in
    order and ``bisect`` finds the first such pivot.  The new pivot's
    monomials all sort at or below its lead, so each stored lead stays
    largest.  A pivot's certificate is a bitmask over base-row indices, and
    its origin is the index of its base row (-1 for a product row).
    Provenances appear only in ``reduce_expr`` and ``reduce``.
    """

    def __init__(self, base):
        self.base = list(base)
        gens = {g for r in self.base for m in r.expr.monomials() for g, _ in m.factors}
        self._gens = sorted(gens, key=Generator.sort_key)
        self._mono_cache: dict[int, list[SymMonomial]] = {0: [UNIT_MONOMIAL]}
        self._slices: dict[int, _Slice] = {}

    def _provenances(self, cert: int) -> frozenset:
        """The provenances of the base rows whose bits are set in cert."""
        base, out = self.base, []
        while cert:
            low = cert & -cert
            out.append(base[low.bit_length() - 1].provenance)
            cert ^= low
        return frozenset(out)

    def _monomials(self, w: int) -> list[SymMonomial]:
        """The monomials of weight w in the base generators, ascending in
        the monomial order: each g in ``_gens`` times each monomial of the
        remaining weight with no factor above g, so each is built once."""
        found = self._mono_cache.get(w)
        if found is None:
            found = self._mono_cache[w] = sorted(
                (monomial_product(SymMonomial(((g, 1),)), t)
                 for g in self._gens if g.weight <= w
                 for t in self._monomials(w - g.weight)
                 if not t.factors or t.factors[-1][0].sort_key() <= g.sort_key()),
                key=SymMonomial.sort_key)
        return found

    def _slice(self, w: int) -> _Slice:
        st = self._slices.get(w)
        if st is not None:
            return st
        # a base row that reduced to zero in its own slice lies in the span
        # of that slice, so its products add nothing: multiply live rows only
        live = {p.origin for v in range(1, w) for p in self._slice(v).values()}
        st = self._slices[w] = _Slice()
        for i, r in enumerate(self.base):
            if r.weight < w and i in live:
                nums = r.expr.nums
                for m in self._monomials(w - r.weight):
                    self._insert(st, {monomial_product(t, m): n for t, n in nums.items()}, 1 << i, -1)
        for i, r in enumerate(self.base):
            if r.weight == w:
                self._insert(st, dict(r.expr.nums), 1 << i, i)
        return st

    @staticmethod
    def _sweep(vec, met, cert: int) -> tuple[int, int]:
        """Clear vec's entry at the lead of each (lead, pivot) in met, in
        place, and return cert with those pivots' bits, and D: vec <- D·vec
        - Σ (D·a/L)·piv, where a = vec[lead], L = piv[lead] > 0 and D > 0
        is the lcm of the L/gcd(a, L).  No pivot in met may hold another
        one's lead, so each a is still D·a when its pivot's turn comes."""
        D = 1
        for m, p in met:
            L = p.vec[m]
            D = lcm(D, L // gcd(vec[m], L))
        if D != 1:
            for k in vec:
                vec[k] *= D
        get = vec.get
        for m, p in met:
            cert |= p.cert
            piv = p.vec
            q = vec[m] // piv[m]
            for k, v in piv.items():
                vec[k] = get(k, 0) - q * v
        for k in [k for k, v in vec.items() if not v]:
            del vec[k]
        return cert, D

    @staticmethod
    def _eliminate(st, vec, cert: int) -> tuple[int, int]:
        """Sweep every pivot lead that vec holds out of vec in place, with
        no division (the caller normalises), and return cert with the bits
        of the pivots used, and the factor D > 0 that scaled vec."""
        return Span._sweep(vec, [(m, st[m]) for m in vec if m in st], cert)

    def _insert(self, st, vec, cert, origin):
        """Sweep vec, make it primitive with a positive lead and store it as
        a pivot, back-substituted into the stored ones whose leads sort
        above its own: no other stored pivot can hold its lead."""
        cert, _ = self._eliminate(st, vec, cert)
        if not vec:
            return
        lead = max(vec, key=SymMonomial.sort_key)
        new = _Pivot(primitive(vec, -1 if vec[lead] < 0 else 1), cert, origin)
        key = lead.sort_key()
        at = bisect(st.sort_keys, key)
        for piv in st.pivots[at:]:
            if lead in piv.vec:
                piv.cert, _ = self._sweep(piv.vec, ((lead, new),), piv.cert)
                piv.vec = primitive(piv.vec)
        st[lead] = new
        st.sort_keys.insert(at, key)
        st.pivots.insert(at, new)

    def reduce_expr(self, e: SymExpr):
        """Remainder of e modulo the span slice of its weight, plus the
        provenances of every row that took part in the elimination.

        The remainder is e minus a rational combination of pivot rows, at
        the scale of e: the swept numerators over den·D.  Monomials in
        generators the span does not know pass through unchanged."""
        if not e:
            return e, frozenset()
        vec = dict(e.nums)
        cert, D = self._eliminate(self._slice(sym_weight(e)), vec, 0)
        return SymExpr.from_ints(e.den * D, vec), self._provenances(cert)

    def contains(self, e: SymExpr) -> bool:
        rem, _ = self.reduce_expr(e)
        return not rem


def reduce(rels, aux=()) -> list[Relation]:
    """Echelon generating set of the ideal span of rels modulo aux.

    Aux rows are inserted first at every weight, so the reported reduced
    form of each rels row is its remainder modulo aux and the earlier rows.
    Rows that reduce to zero (consequences) are omitted.  The aux rows
    eliminate but are not reported, also where rels repeats one of them.
    """
    rels, aux = list(rels), list(aux)
    span = Span(aux + rels)
    out: list[Relation] = []
    for w in sorted({r.weight for r in rels}):
        for piv in reversed(span._slice(w).pivots):
            if piv.origin < len(aux):
                continue
            prov = span.base[piv.origin].provenance
            cert = span._provenances(piv.cert) - {prov}
            out.append(Relation(SymExpr.from_ints(1, dict(piv.vec)), prov, cert))
    return out
