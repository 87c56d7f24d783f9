"""Exact coefficient ring for associator expansions.

Polynomials over Q in three families of formally independent generators:

* ``c`` for ln 2,
* ``z[s1,...,sk]`` for the multiple zeta value with exponent string
  (s1,...,sk), admissible only (s1 >= 2),
* ``d[s1,...,sk]`` for the multiple polylogarithm at one half with the same
  exponent string (first entry 1 is allowed; the series converges
  geometrically there).

Every generator carries a weight (1 for ``c``, sum of the exponent string
otherwise) and expressions built by the expansion pipeline are weight
homogeneous.  All arithmetic is exact (fractions.Fraction); nothing in this
module touches floating point.

The fixed total order on generators drives canonical forms and, later, the
elimination order during relation reduction: generators compare by
(weight, kind, depth, parts) with kind ranked zeta < log2 < delta, so at equal
weight delta generators (and among them the deeper ones) are the largest and
get eliminated first.  Monomials compare by weight and then lexicographically
on their descending factor list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional


class NotHomogeneousError(ValueError):
    """Raised when a weight is requested for a mixed-weight expression."""


class WeightMismatchError(ValueError):
    """Raised when a substitution would break weight homogeneity."""


class NotAdmissibleError(ValueError):
    """Raised for a zeta generator whose first exponent is below 2."""


def check_composition(parts: Iterable[int]) -> tuple[int, ...]:
    t = tuple(int(p) for p in parts)
    if not t:
        raise ValueError("composition must be nonempty")
    if any(p < 1 for p in t):
        raise ValueError("composition parts must be >= 1: %r" % (t,))
    return t


_KIND_RANK = {"zeta": 0, "log2": 1, "delta": 2}


@dataclass(frozen=True)
class Generator:
    """A single ring generator: kind in {'zeta', 'log2', 'delta'}.

    ``parts`` is the exponent string for zeta/delta and ``None`` for log2.
    """

    kind: str
    parts: Optional[tuple[int, ...]]

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError("unknown generator kind %r" % (self.kind,))
        if self.kind == "log2":
            if self.parts is not None:
                raise ValueError("log2 carries no composition")
        else:
            object.__setattr__(self, "parts", check_composition(self.parts))
            if self.kind == "zeta" and self.parts[0] < 2:
                raise NotAdmissibleError(
                    "zeta generator needs first exponent >= 2, got %r" % (self.parts,)
                )

    @property
    def weight(self) -> int:
        return 1 if self.kind == "log2" else sum(self.parts)

    @property
    def depth(self) -> int:
        return 0 if self.kind == "log2" else len(self.parts)

    def sort_key(self) -> tuple:
        # larger key = eliminated earlier; see module docstring
        return (self.weight, _KIND_RANK[self.kind], self.depth, self.parts or ())

    def __lt__(self, other: "Generator") -> bool:
        return self.sort_key() < other.sort_key()

    def render(self) -> str:
        if self.kind == "log2":
            return "c"
        head = "z" if self.kind == "zeta" else "d"
        return "%s[%s]" % (head, ",".join(str(p) for p in self.parts))

    def latex(self) -> str:
        if self.kind == "log2":
            return r"\ln 2"
        head = r"\zeta" if self.kind == "zeta" else r"\delta"
        return "%s_{%s}" % (head, ",".join(str(p) for p in self.parts))

    def __repr__(self):
        return "Generator(%s)" % self.render()


LOG2 = Generator("log2", None)


def zeta(parts: Iterable[int]) -> Generator:
    return Generator("zeta", tuple(parts))


def delta(parts: Iterable[int]) -> Generator:
    return Generator("delta", tuple(parts))


@dataclass(frozen=True)
class SymMonomial:
    """Product of generator powers, factors sorted by the generator order."""

    factors: tuple[tuple[Generator, int], ...]

    def __post_init__(self):
        merged: dict[Generator, int] = {}
        for g, e in self.factors:
            if not isinstance(g, Generator):
                raise TypeError("monomial factor must be a Generator")
            e = int(e)
            if e < 1:
                raise ValueError("exponents must be >= 1")
            merged[g] = merged.get(g, 0) + e
        canon = tuple(sorted(merged.items(), key=lambda fe: fe[0].sort_key()))
        object.__setattr__(self, "factors", canon)

    @property
    def weight(self) -> int:
        return sum(g.weight * e for g, e in self.factors)

    def sort_key(self) -> tuple:
        # graded, then lex on the descending expansion of the factor list;
        # at equal weight no expansion is a proper prefix of another
        expanded = []
        for g, e in reversed(self.factors):
            expanded.extend([g.sort_key()] * e)
        return (self.weight, tuple(expanded))

    def __lt__(self, other: "SymMonomial") -> bool:
        return self.sort_key() < other.sort_key()

    def mul(self, other: "SymMonomial") -> "SymMonomial":
        return SymMonomial(self.factors + other.factors)

    def is_unit(self) -> bool:
        return not self.factors

    def generators(self) -> list[Generator]:
        return [g for g, _ in self.factors]

    def render(self) -> str:
        if not self.factors:
            return "1"
        bits = []
        for g, e in self.factors:
            bits.append(g.render() if e == 1 else "%s^%d" % (g.render(), e))
        return "*".join(bits)

    def latex(self) -> str:
        if not self.factors:
            return "1"
        bits = []
        for g, e in self.factors:
            base = g.latex()
            if g.kind == "log2" and e > 1:
                bits.append(r"(\ln 2)^{%d}" % e)
            elif e == 1:
                bits.append(base)
            else:
                bits.append("%s^{%d}" % (base, e))
        return " ".join(bits)

    def __repr__(self):
        return "SymMonomial(%s)" % self.render()


UNIT_MONOMIAL = SymMonomial(())


def monomial(*factors: tuple[Generator, int]) -> SymMonomial:
    return SymMonomial(tuple(factors))


def _latex_coeff(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return r"\tfrac{%d}{%d}" % (q.numerator, q.denominator)


class SymExpr:
    """Finite Q-linear combination of monomials, kept in canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict] = None):
        canon: dict[SymMonomial, Fraction] = {}
        if terms:
            for m, q in terms.items():
                q = Fraction(q)
                if q:
                    canon[m] = canon.get(m, Fraction(0)) + q
                    if not canon[m]:
                        del canon[m]
        self._terms = canon

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SymExpr":
        return SymExpr()

    @staticmethod
    def rational(q) -> "SymExpr":
        return SymExpr({UNIT_MONOMIAL: Fraction(q)})

    @staticmethod
    def one() -> "SymExpr":
        return SymExpr.rational(1)

    @staticmethod
    def gen(g: Generator, exp: int = 1, coeff=1) -> "SymExpr":
        return SymExpr({SymMonomial(((g, exp),)): Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    def items(self):
        return self._terms.items()

    def coeff(self, m: SymMonomial) -> Fraction:
        return self._terms.get(m, Fraction(0))

    def monomials(self) -> list[SymMonomial]:
        return list(self._terms)

    def leading_monomial(self) -> SymMonomial:
        if not self._terms:
            raise ValueError("zero expression has no leading monomial")
        return max(self._terms, key=lambda m: m.sort_key())

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, SymExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "SymExpr") -> "SymExpr":
        out = dict(self._terms)
        for m, q in other._terms.items():
            s = out.get(m, Fraction(0)) + q
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        e = SymExpr.__new__(SymExpr)
        e._terms = out
        return e

    def __neg__(self) -> "SymExpr":
        e = SymExpr.__new__(SymExpr)
        e._terms = {m: -q for m, q in self._terms.items()}
        return e

    def __sub__(self, other: "SymExpr") -> "SymExpr":
        return self + (-other)

    def __mul__(self, other: "SymExpr") -> "SymExpr":
        out: dict[SymMonomial, Fraction] = {}
        for m1, q1 in self._terms.items():
            for m2, q2 in other._terms.items():
                m = m1.mul(m2)
                s = out.get(m, Fraction(0)) + q1 * q2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        e = SymExpr.__new__(SymExpr)
        e._terms = out
        return e

    def scale(self, q) -> "SymExpr":
        q = Fraction(q)
        e = SymExpr.__new__(SymExpr)
        e._terms = {} if not q else {m: c * q for m, c in self._terms.items()}
        return e

    def __pow__(self, n: int) -> "SymExpr":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = SymExpr.one()
        for _ in range(n):
            out = out * self
        return out

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda mq: mq[0].sort_key(), reverse=True)

    def _format(self, coeff, mono, times: str) -> str:
        # shared by render and latex: they differ only in how a coefficient
        # and a monomial print and in the product separator
        if not self._terms:
            return "0"
        parts = []
        for i, (m, q) in enumerate(self.sorted_terms()):
            sign = "-" if q < 0 else "+"
            aq = abs(q)
            if m.is_unit():
                body = coeff(aq)
            elif aq == 1:
                body = mono(m)
            else:
                body = coeff(aq) + times + mono(m)
            if i == 0:
                parts.append(body if q > 0 else "-" + body)
            else:
                parts.append("%s %s" % (sign, body))
        return " ".join(parts)

    def render(self) -> str:
        return self._format(str, SymMonomial.render, "*")

    def latex(self) -> str:
        return self._format(_latex_coeff, SymMonomial.latex, " ")

    def __repr__(self):
        return "SymExpr(%s)" % self.render()


# -- module-level operations ------------------------------------------------


def sym_weight(e: SymExpr) -> int:
    """Weight of a homogeneous expression; the unit (and zero) has weight 0.

    Raises NotHomogeneousError when monomials of different weights coexist.
    """
    weights = {m.weight for m in e._terms}
    if not weights:
        return 0
    if len(weights) > 1:
        raise NotHomogeneousError("mixed weights %s" % sorted(weights))
    return weights.pop()


def sym_substitute(e: SymExpr, g: Generator, replacement: SymExpr) -> SymExpr:
    """Replace every power of ``g`` by the same power of ``replacement``.

    The replacement must be homogeneous of the generator's weight, so the
    substitution preserves weight homogeneity.
    """
    if sym_weight(replacement) != g.weight:
        raise WeightMismatchError(
            "replacement weight %s != generator weight %s"
            % (sym_weight(replacement), g.weight)
        )
    out = SymExpr.zero()
    for m, q in e.items():
        rest = []
        exp = 0
        for gen, k in m.factors:
            if gen == g:
                exp = k
            else:
                rest.append((gen, k))
        term = SymExpr({SymMonomial(tuple(rest)): q})
        if exp:
            term = term * replacement**exp
        out = out + term
    return out
