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
homogeneous.  All arithmetic is exact, with no floating point.

This module owns compositions: their checks (``check_composition``) and
their one enumerator (``compositions``), which both series sides read.  A
composition is also a zeta word, its iterated-integral word over the
series letters A = dt/t and B = dt/(1-t), outermost letter first
(``zeta_word``): the associator's coefficient at a word is the zeta value
of that word.  This module alone converts between the two, and
``dual_word`` is the duality z[w] = z[dual_word(w)].

The fixed total order on generators drives canonical forms and, later, the
elimination order during relation reduction: generators compare by
(weight, kind, depth, parts) with kind ranked zeta < log2 < delta, so at equal
weight delta generators (and among them the deeper ones) are the largest and
get eliminated first.  Monomials compare by weight and then lexicographically
on their descending factor list.

A ``SymExpr`` is integer numerators over one positive denominator, in
lowest terms, so equal expressions have equal fields.  A monic one is the
``primitive`` row with a positive lead, the row ``relations.Span`` stores,
over that lead.  Generators and monomials are hash-consed: the constructor
looks its arguments up in a module table and validates, canonicalises and
stores only an unseen value, so equal values are one immutable object and
equality and hashing are ``object``'s identity versions.  A generator
stores its weight and sort key when built; a monomial its weight, and its
sort key on first use.
Each monomial holds its own products, ``m1.products`` = {m2: m1 * m2},
which ``monomial_product`` and the product loop share; a missing entry is
built through ``SymMonomial`` and stored.  Every sum of expressions, of
products or of integer multiples, runs through the one loop
``sum_of_products``, which adds integer numerators over a common
denominator and keeps no term order; a rational multiple is ``scale``.
Printing is one path too, ``render_each``: a batch of expressions sorts its
distinct monomials once by ``sort_key`` and each expression's terms by their
index in that list, then yields one expression's texts at a time, naming
each distinct monomial and formatting each (numerator, denominator) once
per style; ``SymExpr.render`` and ``latex`` are its batch of one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add
from typing import Iterable, Optional


class NotHomogeneousError(ValueError):
    """Raised when a weight is requested for a mixed-weight expression."""


class NotAdmissibleError(ValueError):
    """Raised for a zeta generator whose first exponent is below 2."""


def check_composition(parts: Iterable[int]) -> tuple[int, ...]:
    t = tuple(int(p) for p in parts)
    if not t:
        raise ValueError("composition must be nonempty")
    if any(p < 1 for p in t):
        raise ValueError("composition parts must be >= 1: %r" % (t,))
    return t


def compositions(total: int, parts: int):
    """The compositions of total into ``parts`` >= 1 positive parts, in
    ascending lex order: stars and bars, cuts chosen among the total - 1 gaps."""
    for cuts in combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))


# -- zeta words ---------------------------------------------------------------

LETTER_SWAP = str.maketrans("AB", "BA")


def zeta_word(comp) -> str:
    """A^(s1-1) B ... A^(sk-1) B for the composition (s1, ..., sk)."""
    return "".join("A" * (s - 1) + "B" for s in check_composition(comp))


def word_composition(word: str) -> tuple[int, ...]:
    """Inverse of zeta_word: a nonempty word over A/B that ends in B."""
    if not word.endswith("B") or not set(word) <= {"A", "B"}:
        raise ValueError("zeta word must be over A/B and end in B: %r" % (word,))
    return tuple(len(run) + 1 for run in word[:-1].split("B"))


def dual_word(word: str) -> str:
    """Reverse the word and swap A and B (duality of zeta words)."""
    return word[::-1].translate(LETTER_SWAP)


_KIND_RANK = {"zeta": 0, "log2": 1, "delta": 2}
# intern tables: canonical constructor arguments to the one object of their value
_GENERATORS: dict[tuple, "Generator"] = {}
_MONOMIALS: dict[tuple, "SymMonomial"] = {}


def _immutable(self, *args):
    raise AttributeError("%s is immutable" % type(self).__name__)


class Generator:
    """A single ring generator: kind in {'zeta', 'log2', 'delta'}.

    ``parts`` is the exponent string for zeta/delta and ``None`` for log2.
    Interned, one object per value; ``weight`` (1 for log2, the sum of the
    parts otherwise) and the sort key are stored when it is built.
    """

    __slots__ = ("kind", "parts", "weight", "_key")

    def __new__(cls, kind: str, parts: Optional[Iterable[int]]):
        try:
            return _GENERATORS[kind, parts]
        except (KeyError, TypeError):  # unseen, or unhashable parts
            pass
        if kind not in _KIND_RANK:
            raise ValueError("unknown generator kind %r" % (kind,))
        if kind == "log2":
            if parts is not None:
                raise ValueError("log2 carries no composition")
        else:
            parts = check_composition(parts)
            if kind == "zeta" and parts[0] < 2:
                raise NotAdmissibleError(
                    "zeta generator needs first exponent >= 2, got %r" % (parts,)
                )
        g = object.__new__(cls)
        weight = 1 if kind == "log2" else sum(parts)
        # larger key = eliminated earlier; see module docstring
        key = (weight, _KIND_RANK[kind], len(parts or ()), parts or ())
        for name, value in zip(cls.__slots__, (kind, parts, weight, key)):
            object.__setattr__(g, name, value)
        return _GENERATORS.setdefault((kind, parts), g)

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):  # copies and pickles are this object
        return Generator, (self.kind, self.parts)

    def sort_key(self) -> tuple:
        return self._key

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


class SymMonomial:
    """Product of generator powers, factors sorted by the generator order.

    Interned under its canonical factors: an argument that is not that key
    is canonicalised by ``__post_init__`` on every call, and equal products
    of any factor list are one object.  ``weight`` and an empty
    ``products`` row, {m2: self * m2}, are stored when built, ``sort_key``
    on first use.
    """

    __slots__ = ("factors", "weight", "products", "_key")

    def __new__(cls, factors):
        try:
            return _MONOMIALS[factors]
        except (KeyError, TypeError):  # not a canonical key, or unhashable
            pass
        m = object.__new__(cls)
        object.__setattr__(m, "factors", factors)
        m.__post_init__()
        return _MONOMIALS.setdefault(m.factors, m)

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
        object.__setattr__(self, "weight", sum(g.weight * e for g, e in canon))
        object.__setattr__(self, "products", {})

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return SymMonomial, (self.factors,)

    def sort_key(self) -> tuple:
        try:
            return self._key
        except AttributeError:
            pass
        # graded, then lex on the descending expansion of the factor list;
        # at equal weight no expansion is a proper prefix of another
        expanded = []
        for g, e in reversed(self.factors):
            expanded.extend([g.sort_key()] * e)
        key = (self.weight, tuple(expanded))
        object.__setattr__(self, "_key", key)
        return key

    def render(self) -> str:
        bits = []
        for g, e in self.factors:
            bits.append(g.render() if e == 1 else "%s^%d" % (g.render(), e))
        return "*".join(bits) or "1"

    def latex(self) -> str:
        bits = []
        for g, e in self.factors:
            base = g.latex()
            if g.kind == "log2" and e > 1:
                bits.append(r"(\ln 2)^{%d}" % e)
            elif e == 1:
                bits.append(base)
            else:
                bits.append("%s^{%d}" % (base, e))
        return " ".join(bits) or "1"

    def __repr__(self):
        return "SymMonomial(%s)" % self.render()


UNIT_MONOMIAL = SymMonomial(())


def _product_miss(m1: SymMonomial, m2: SymMonomial) -> SymMonomial:
    """Build m1 * m2, the one way a product is built, and store it in m1's
    ``products`` row."""
    m = m1.products[m2] = SymMonomial(m1.factors + m2.factors)
    return m


def monomial_product(m1: SymMonomial, m2: SymMonomial) -> SymMonomial:
    """m1 * m2, read from m1's ``products`` row."""
    return m1.products.get(m2) or _product_miss(m1, m2)


class SymExpr:
    """Finite Q-linear combination of monomials in canonical form: ``nums``
    (monomial to nonzero int) over ``den`` > 0, with gcd(den, *nums) = 1."""

    __slots__ = ("den", "nums")

    def __init__(self, terms: Optional[dict] = None):
        qs = [(m, q) for m, c in (terms or {}).items() if (q := Fraction(c))]
        # the lcm of reduced denominators leaves no common factor
        self.den = den = lcm(*(q.denominator for _, q in qs))
        self.nums = {m: q.numerator * (den // q.denominator) for m, q in qs}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_ints(den: int, nums: dict) -> "SymExpr":
        """nums / den in lowest terms, for den > 0 and nonzero numerators."""
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {m: n // g for m, n in nums.items()}
        e = SymExpr.__new__(SymExpr)
        e.den, e.nums = den, nums
        return e

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

    def monomials(self) -> list[SymMonomial]:
        return list(self.nums)

    def leading_monomial(self) -> SymMonomial:
        if not self.nums:
            raise ValueError("zero expression has no leading monomial")
        return max(self.nums, key=SymMonomial.sort_key)

    def __bool__(self):
        return bool(self.nums)

    def __len__(self):
        return len(self.nums)

    def __eq__(self, other):
        if not isinstance(other, SymExpr):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "SymExpr") -> "SymExpr":
        return sum_of_products(((self, 1), (other, 1)))

    def __neg__(self) -> "SymExpr":
        return SymExpr.from_ints(self.den, {m: -n for m, n in self.nums.items()})

    def __sub__(self, other: "SymExpr") -> "SymExpr":
        return sum_of_products(((self, 1), (other, -1)))

    def __mul__(self, other: "SymExpr") -> "SymExpr":
        return sum_of_products(((self, other),))

    def scale(self, q) -> "SymExpr":
        q = Fraction(q)
        nums = {m: n * q.numerator for m, n in self.nums.items()} if q else {}
        return SymExpr.from_ints(self.den * q.denominator, nums)

    def monic(self) -> "SymExpr":
        """self over its leading coefficient: the ``primitive`` numerators
        with a positive lead, over den = that lead."""
        m = self.leading_monomial()
        nums = primitive(self.nums, -1 if self.nums[m] < 0 else 1)
        return SymExpr.from_ints(nums[m], nums)

    def __pow__(self, n: int) -> "SymExpr":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = SymExpr.one()
        for _ in range(n):
            out = out * self
        return out

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        return next(render_each((self,)))[0]

    def latex(self) -> str:
        return next(render_each((self,), ("latex",)))[0]

    def __repr__(self):
        return "SymExpr(%s)" % self.render()


# -- module-level operations ------------------------------------------------

# how a fraction n/d with d > 1 and a monomial print, and the separator
# between a coefficient and its monomial
_STYLES = {
    "text": ("%d/%d", SymMonomial.render, "*"),
    "latex": (r"\tfrac{%d}{%d}", SymMonomial.latex, " "),
}


class _Heads(dict):
    """One style's heads over one denominator: numerator -> the text a term
    puts before its monomial's name ("+ ", "- 3/8*"), built on first use."""

    def __init__(self, den: int, frac: str, times: str):
        self.den, self.frac, self.times = den, frac, times

    def number(self, n: int) -> str:
        """n/den in lowest terms after its sign: "+ 3", "- 3/8"."""
        g = gcd(n, self.den)
        a, d = abs(n) // g, self.den // g
        return ("- " if n < 0 else "+ ") + (str(a) if d == 1 else self.frac % (a, d))

    def __missing__(self, n: int) -> str:
        number = self.number(n)
        # a coefficient of 1 prints the bare name
        head = self[n] = number[:2] if number[2:] == "1" else number + self.times
        return head


def render_each(exprs, styles=("text",)):
    """Each expression printed in each style, terms by descending monomial,
    yielded one expression's tuple of texts at a time.

    The batch's distinct monomials are sorted once, before the first yield,
    each expression's terms by their index in that list, so an expression
    prints the same alone as in any batch; each monomial's text is read
    once per style.  A term is its head (``_Heads``) then its monomial's
    name, joined by ``map`` with no Python statement per term; the unit
    monomial, the least and so the last term, then becomes its bare
    number.  ``exprs`` is read twice, so it must be a collection.
    """
    ranked = sorted(set().union(*(e.nums for e in exprs)), key=SymMonomial.sort_key, reverse=True)
    rank = {m: i for i, m in enumerate(ranked)}.__getitem__
    # per style: its fraction format, separator, monomial names and den -> _Heads
    tables = [(frac, times, {m: mono(m) for m in ranked}.__getitem__, {})
              for frac, mono, times in map(_STYLES.__getitem__, styles)]
    for e in exprs:
        den, nums = e.den, e.nums
        order = sorted(nums, key=rank)
        unit = nums.get(UNIT_MONOMIAL)
        texts = []
        for frac, times, names, by_den in tables:
            heads = by_den.get(den)
            if heads is None:
                heads = by_den[den] = _Heads(den, frac, times)
            parts = list(map(add, map(heads.__getitem__, map(nums.__getitem__, order)),
                             map(names, order)))
            if unit:
                parts[-1] = heads.number(unit)
            # the first term's sign is bare: "-x" or "x", not "- x" or "+ x"
            text = " ".join(parts) or "+ 0"
            texts.append(text[2:] if text[0] == "+" else "-" + text[2:])
        yield tuple(texts)


def primitive(nums: dict, sign: int = 1) -> dict:
    """An integer row divided by sign × its content, as a new dict, or nums
    itself when that factor is 1."""
    factor = sign * gcd(*nums.values())
    return nums if factor == 1 else {m: n // factor for m, n in nums.items()}


def sum_of_products(pairs) -> SymExpr:
    """Sum of a * b over pairs (SymExpr a, SymExpr or int b).

    The one summation loop of the package: a sum is pairs (e, 1), an
    integer combination pairs (e, k), and a series product collects every
    pair that meets at a word, with no intermediate expression per pair.
    Each pair's integer products are scaled to den, the lcm of the pair
    denominators, and summed as ints (an int scales numerators, with no
    monomial product); the result is reduced to lowest terms once.  A
    rational multiple is ``SymExpr.scale``; any other b raises TypeError.
    """
    conv = []
    for a, b in pairs:
        if isinstance(b, SymExpr):
            conv.append((a.den * b.den, a.nums, b.nums))
        elif type(b) is int:  # word counts and shuffle multiplicities
            conv.append((a.den, a.nums, b))
        else:
            raise TypeError("a scalar must be an int, got %r" % (b,))
    den = lcm(*(d for d, _, _ in conv))
    out: dict[SymMonomial, int] = {}
    get = out.get
    for d, left, right in conv:
        scale = den // d
        if type(right) is int:
            right *= scale
            for m, n in left.items():
                out[m] = get(m, 0) + n * right
            continue
        if len(left) > len(right):  # the longer operand in the inner loop
            left, right = right, left
        for m1, n1 in left.items():
            n1 *= scale
            product = m1.products.get
            for m2, n2 in right.items():
                m = product(m2) or _product_miss(m1, m2)  # a monomial is truthy
                out[m] = get(m, 0) + n1 * n2
    return SymExpr.from_ints(den, {m: n for m, n in out.items() if n})


def sym_weight(e: SymExpr) -> int:
    """Weight of a homogeneous expression; the unit (and zero) has weight 0.

    Raises NotHomogeneousError when monomials of different weights coexist.
    """
    weights = {m.weight for m in e.nums}
    if not weights:
        return 0
    if len(weights) > 1:
        raise NotHomogeneousError("mixed weights %s" % sorted(weights))
    return weights.pop()

