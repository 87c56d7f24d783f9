"""Relation extraction and exact reduction.

Sources of relations:
  * comparison: equate coefficients of the two associator expansions word
    by word; every nonzero difference is an identity between zeta values,
    delta values and powers of c,
  * shuffle: products of the kernel integrals I[u]·I[v] expand over the
    shuffles of u and v; pushed through the integral-to-delta conversion
    this yields quadratic delta identities.  For index words with all
    indices positive the same combinatorics applies verbatim to the
    zeta-kernel integrals, giving quadratic zeta identities,
  * duality: reverse-and-swap symmetry of the zeta integration words,
  * known values: a fixed table of classical closed forms.

Reduction works per weight class.  Monomials in the generators are the
coordinates; the span of a relation set is taken in the ideal sense: a
relation of weight w' may be multiplied by any generator monomial of weight
w - w' before elimination at weight w.  Multiplier generators are drawn from
the generators that occur in the input rows, which keeps slices finite and
is sound because membership is only ever asserted, never refuted, by a
larger multiplier set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .symring import (
    LOG2,
    SymExpr,
    SymMonomial,
    delta,
    sym_weight,
    zeta,
)
from .freealg import NCSeries, OrderMismatchError, nc_coeff
from .mzv_side import (
    PQComposition,
    dual_composition,
    enumerate_pq,
    phi_mzv,
    zeta_composition,
)
from .delta_side import iint_terms, iint_to_sym, index_weight, index_words, phi_delta
from .numeric import alt_ones_symexpr


@dataclass(frozen=True)
class Comparison:
    order: int
    word: str

    def label(self) -> str:
        return "comparison[%d:%s]" % (self.order, self.word or "1")

    def to_json(self) -> dict:
        return {"kind": "comparison", "order": self.order, "word": self.word or "1"}


@dataclass(frozen=True)
class Shuffle:
    u: tuple[int, ...]
    v: tuple[int, ...]
    kernel: str = "delta"

    def label(self) -> str:
        fmt = lambda w: ",".join(map(str, w))
        return "shuffle[%s:%s|%s]" % (self.kernel, fmt(self.u), fmt(self.v))

    def to_json(self) -> dict:
        return {
            "kind": "shuffle",
            "kernel": self.kernel,
            "u": list(self.u),
            "v": list(self.v),
        }


@dataclass(frozen=True)
class Duality:
    composition: tuple[int, ...]

    def label(self) -> str:
        return "duality[%s]" % ",".join(map(str, self.composition))

    def to_json(self) -> dict:
        return {"kind": "duality", "composition": list(self.composition)}


@dataclass(frozen=True)
class KnownValue:
    name: str

    def label(self) -> str:
        return "known[%s]" % self.name

    def to_json(self) -> dict:
        return {"kind": "known", "name": self.name}


class Relation:
    """A weight-homogeneous expression asserted to vanish.

    Stored monic: the leading monomial under the fixed order has
    coefficient 1.  ``certificate``, when present, lists the provenances
    of the rows consumed while reducing this relation.
    """

    __slots__ = ("expr", "weight", "provenance", "certificate")

    def __init__(self, expr: SymExpr, provenance, certificate=None):
        if not expr:
            raise ValueError("relation must be nonzero")
        self.weight = sym_weight(expr)
        lead = expr.leading_monomial()
        lc = expr.coeff(lead)
        if lc != 1:
            expr = expr.scale(Fraction(1) / lc)
        self.expr = expr
        self.provenance = provenance
        self.certificate = certificate

    def __repr__(self):
        return "Relation(w=%d, %s, %s = 0)" % (
            self.weight,
            self.provenance.label(),
            self.expr.render(),
        )

    def to_json(self) -> dict:
        out = {
            "weight": self.weight,
            "provenance": self.provenance.to_json(),
            "lhs": self.expr.render(),
            "latex": self.expr.latex() + " = 0",
        }
        if self.certificate is not None:
            out["certificate"] = sorted(p.label() for p in self.certificate)
        return out


def shuffle(u, v) -> Counter:
    """Multiset of all order-preserving interleavings of u and v."""
    u, v = tuple(u), tuple(v)
    if not u:
        return Counter({v: 1})
    if not v:
        return Counter({u: 1})
    out: Counter = Counter()
    for w, k in shuffle(u[1:], v).items():
        out[(u[0],) + w] += k
    for w, k in shuffle(u, v[1:]).items():
        out[(v[0],) + w] += k
    return out


def iint_to_zeta(levels) -> SymExpr:
    """Zeta-kernel analogue of iint_to_sym; needs every index >= 1.

    Positivity of the first index makes the defining integral convergent,
    positivity of the last one makes every emitted composition admissible.
    """
    levels = tuple(int(l) for l in levels)
    if not levels or min(levels) < 1:
        raise ValueError("all indices must be >= 1, got %r" % (levels,))
    acc = SymExpr.zero()
    for coeff, parts in iint_terms(levels):
        acc = acc + SymExpr.gen(zeta(parts), coeff=Fraction(coeff))
    return acc


def shuffle_relations(max_weight: int) -> list[Relation]:
    """Quadratic relations from I[u]·I[v] = sum of I over shuffles.

    Delta-kernel relations for every unordered pair of nonempty index words
    with combined weight <= max_weight (identically-zero ones dropped);
    zeta-kernel twins additionally for pairs with all indices positive.
    """
    if max_weight < 2:
        raise ValueError("max_weight must be >= 2")
    words = index_words(max_weight - 1)
    out: list[Relation] = []
    for i, u in enumerate(words):
        wu = index_weight(u)
        for v in words[i:]:
            if wu + index_weight(v) > max_weight:
                continue
            sh = shuffle(u, v)
            lhs = iint_to_sym(u) * iint_to_sym(v)
            for w, k in sorted(sh.items()):
                lhs = lhs - iint_to_sym(w).scale(Fraction(k))
            if lhs:
                out.append(Relation(lhs, Shuffle(u, v, "delta")))
            if min(u) >= 1 and min(v) >= 1:
                zlhs = iint_to_zeta(u) * iint_to_zeta(v)
                for w, k in sorted(sh.items()):
                    zlhs = zlhs - iint_to_zeta(w).scale(Fraction(k))
                if zlhs:
                    out.append(Relation(zlhs, Shuffle(u, v, "zeta")))
    return out


def duality_relations(max_weight: int) -> list[Relation]:
    """Reverse-and-swap equalities between admissible zeta values.

    Self-dual compositions are omitted; each dual pair appears once, keyed
    by its lexicographically smaller composition.
    """
    if max_weight < 3:
        raise ValueError("max_weight must be >= 3")
    out: list[Relation] = []
    for r in range(2, max_weight + 1):
        for pq in enumerate_pq(r):
            comp = zeta_composition(pq)
            dcomp = zeta_composition(dual_composition(pq))
            if comp >= dcomp:
                continue
            expr = SymExpr.gen(zeta(comp)) - SymExpr.gen(zeta(dcomp))
            out.append(Relation(expr, Duality(comp)))
    return out


def _c_power(k: int, q=1) -> SymExpr:
    return SymExpr({SymMonomial(((LOG2, k),)): Fraction(q)})


def known_values() -> list[Relation]:
    """Fixed table of classical closed forms, lowest weight first."""
    c = _c_power
    z = lambda *p: SymExpr.gen(zeta(p))
    d = lambda *p: SymExpr.gen(delta(p))
    half = Fraction(1, 2)
    table = [
        ("euler_dilog", d(2) - z(2).scale(half) + c(2, half)),
        ("landen_trilog", d(3) - z(3).scale(Fraction(7, 8)) + (c(1) * z(2)).scale(half) - c(3, Fraction(1, 6))),
        ("delta_2_1", d(2, 1) - z(3).scale(Fraction(1, 8)) + c(3, Fraction(1, 6))),
        ("delta_1_2", d(1, 2) - (c(1) * z(2)).scale(half) + c(3, Fraction(1, 6)) + z(3).scale(Fraction(1, 4))),
        ("delta_3_1", d(3, 1) - z(4).scale(Fraction(1, 8)) + (c(1) * z(3)).scale(Fraction(1, 8)) - c(4, Fraction(1, 24))),
        ("delta_2_2_alt_ones", d(2, 2) - alt_ones_symexpr(4)),
        ("delta_1_2_2_alt_ones", d(1, 2, 2) + alt_ones_symexpr(5)),
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
    if "shuffle" in names and order >= 2:
        out.extend(shuffle_relations(order))
    if "duality" in names and order >= 3:
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
    seen: set[SymExpr] = set()
    out: list[Relation] = []
    words = sorted(set(s1.coeffs) | set(s2.coeffs), key=lambda w: (len(w), w))
    for w in words:
        if len(w) < 2:
            continue
        diff = nc_coeff(s1, w) - nc_coeff(s2, w)
        if not diff:
            continue
        rel = Relation(diff, Comparison(len(w), w))
        if rel.expr in seen:
            continue
        seen.add(rel.expr)
        out.append(rel)
    return out


def comparison_relations(order: int) -> list[Relation]:
    return extract_relations(phi_mzv(order), phi_delta(order))


class _Pivot:
    __slots__ = ("vec", "cert", "origin")

    def __init__(self, vec, cert, origin):
        self.vec = vec
        self.cert = cert
        self.origin = origin


class Span:
    """Weight-sliced echelon form of the ideal span of a relation list.

    Rows of each weight-w slice are the base relations of weight w plus
    every lower-weight base relation multiplied by the monomials of the
    complementary weight.  Slices are built lazily and kept fully reduced
    (echelon with back-substitution), so reducing an expression is a single
    elimination pass.
    """

    def __init__(self, base):
        self.base = list(base)
        gens = set()
        for r in self.base:
            for m in r.expr.monomials():
                for g, _ in m.factors:
                    gens.add(g)
        self._gens = sorted(gens)
        self._mono_cache: dict[int, list[SymMonomial]] = {}
        self._slices: dict[int, dict[SymMonomial, _Pivot]] = {}

    def _monomials(self, w: int) -> list[SymMonomial]:
        if w in self._mono_cache:
            return self._mono_cache[w]
        found: list[SymMonomial] = []

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

    def _slice(self, w: int) -> dict[SymMonomial, _Pivot]:
        st = self._slices.get(w)
        if st is not None:
            return st
        st = {}
        self._slices[w] = st
        for r in self.base:
            if r.weight < w:
                for m in self._monomials(w - r.weight):
                    vec = {mono.mul(m): q for mono, q in r.expr.items()}
                    self._insert(st, vec, r.provenance, None)
        for r in self.base:
            if r.weight == w:
                self._insert(st, dict(r.expr.items()), r.provenance, r)
        return st

    @staticmethod
    def _subtract(dst, q, src):
        """dst -= q*src in place, dropping entries that cancel."""
        for mono, val in src.items():
            nv = dst.get(mono, Fraction(0)) - q * val
            if nv:
                dst[mono] = nv
            else:
                dst.pop(mono, None)

    @staticmethod
    def _eliminate(st, vec, cert):
        # pivot rows hold no foreign pivot monomials, so one sweep suffices
        for m in sorted((m for m in vec if m in st), reverse=True):
            q = vec.get(m)
            if not q:
                continue
            piv = st[m]
            cert |= piv.cert
            Span._subtract(vec, q, piv.vec)
        return vec

    def _insert(self, st, vec, tag, origin):
        cert = {tag}
        vec = self._eliminate(st, vec, cert)
        if not vec:
            return
        lead = max(vec, key=lambda m: m.sort_key())
        lc = vec[lead]
        if lc != 1:
            inv = Fraction(1) / lc
            vec = {m: q * inv for m, q in vec.items()}
        newpiv = _Pivot(vec, set(cert), origin)
        for piv in st.values():
            q = piv.vec.get(lead)
            if q:
                piv.cert |= newpiv.cert
                self._subtract(piv.vec, q, vec)
        st[lead] = newpiv

    def reduce_expr(self, e: SymExpr):
        """Remainder of e modulo the span slice of its weight, plus the
        provenances of every row that took part in the elimination."""
        if not e:
            return e, frozenset()
        st = self._slice(sym_weight(e))
        used: set = set()
        vec = self._eliminate(st, dict(e.items()), used)
        return SymExpr(vec), frozenset(used)

    def contains(self, e: SymExpr) -> bool:
        rem, _ = self.reduce_expr(e)
        return not rem


def reduce(rels, aux=(), only_rels: bool = False) -> list[Relation]:
    """Echelon generating set of the ideal span of rels and aux.

    Aux rows are inserted first at every weight, so the reported reduced
    form of each rels row is its remainder modulo aux and the earlier rows.
    Rows that reduce to zero (consequences) are omitted.  With only_rels
    the aux rows still eliminate but are not reported.
    """
    rels, aux = list(rels), list(aux)
    span = Span(aux + rels)
    if only_rels:
        keep = {id(r) for r in rels}
        weights = sorted({r.weight for r in rels})
    else:
        keep = {id(r) for r in aux} | {id(r) for r in rels}
        weights = sorted({r.weight for r in span.base})
    out: list[Relation] = []
    for w in weights:
        st = span._slice(w)
        rows = [
            (lead, piv)
            for lead, piv in st.items()
            if piv.origin is not None and id(piv.origin) in keep
        ]
        rows.sort(key=lambda t: t[0].sort_key(), reverse=True)
        for lead, piv in rows:
            cert = frozenset(piv.cert - {piv.origin.provenance})
            out.append(Relation(SymExpr(piv.vec), piv.origin.provenance, cert))
    return out
