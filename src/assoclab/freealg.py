"""Truncated noncommutative power series in two letters A and B.

Words are plain strings over the alphabet {"A", "B"}; the empty string is the
algebra unit.  A series is a finite map word -> SymExpr together with a
truncation order N: words longer than N are dropped by every operation, and
binary operations insist that both operands share the same order so that a
product of mixed truncations can never silently lose terms.

The series built by the expansion modules satisfy a weight grading: the
coefficient of every degree-r word is weight homogeneous of weight r.  That is
a checkable invariant (``check_grading``), not an enforced constructor
constraint, because intermediate test expressions are free to violate it.
"""

from __future__ import annotations

from math import factorial
from fractions import Fraction

from .symring import SymExpr, SymMonomial, LOG2, sym_weight

A = "A"
B = "B"
LETTERS = (A, B)

_SWAP = str.maketrans("AB", "BA")


class OrderMismatchError(ValueError):
    """Binary operation on series with different truncation orders."""


class NotUnitalError(ValueError):
    """Inverse requested for a series whose constant term is not 1."""


class DegreeTooLargeError(ValueError):
    """Coefficient requested for a word beyond the truncation order."""


def _check_word(w: str) -> str:
    if any(ch not in "AB" for ch in w):
        raise ValueError("word must use letters A and B only: %r" % (w,))
    return w


def other_letter(letter: str) -> str:
    if letter == A:
        return B
    if letter == B:
        return A
    raise ValueError("letter must be A or B")


class NCSeries:
    """Degree-truncated series with SymExpr coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[str, SymExpr] | None = None):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = int(order)
        clean: dict[str, SymExpr] = {}
        if coeffs:
            for w, e in coeffs.items():
                _check_word(w)
                if len(w) > order:
                    continue
                if e:
                    clean[w] = e
        self.coeffs = clean

    def __eq__(self, other):
        if not isinstance(other, NCSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        n = len(self.coeffs)
        return "NCSeries(order=%d, %d term%s)" % (self.order, n, "" if n == 1 else "s")


def nc_unit(order: int) -> NCSeries:
    return NCSeries(order, {"": SymExpr.one()})


def nc_add(a: NCSeries, b: NCSeries) -> NCSeries:
    if a.order != b.order:
        raise OrderMismatchError("orders %d != %d" % (a.order, b.order))
    out = dict(a.coeffs)
    for w, e in b.coeffs.items():
        s = out.get(w)
        out[w] = e if s is None else s + e
    return NCSeries(a.order, out)


def nc_neg(a: NCSeries) -> NCSeries:
    return NCSeries(a.order, {w: -e for w, e in a.coeffs.items()})


def nc_sub(a: NCSeries, b: NCSeries) -> NCSeries:
    return nc_add(a, nc_neg(b))


def nc_scale(a: NCSeries, e: SymExpr) -> NCSeries:
    return NCSeries(a.order, {w: e * c for w, c in a.coeffs.items()})


def nc_mul(a: NCSeries, b: NCSeries) -> NCSeries:
    """Concatenation product truncated at the common order."""
    if a.order != b.order:
        raise OrderMismatchError("orders %d != %d" % (a.order, b.order))
    order = a.order
    out: dict[str, SymExpr] = {}
    for u, cu in a.coeffs.items():
        room = order - len(u)
        for v, cv in b.coeffs.items():
            if len(v) > room:
                continue
            w = u + v
            prod = cu * cv
            s = out.get(w)
            out[w] = prod if s is None else s + prod
    return NCSeries(order, out)


def nc_inverse(s: NCSeries) -> NCSeries:
    """Multiplicative inverse via the geometric series.

    Requires constant term exactly 1; then 1 - s has no constant term and the
    sum of its powers terminates at the truncation order.
    """
    if s.coeffs.get("") != SymExpr.one():
        raise NotUnitalError("constant term must be 1")
    u = nc_sub(nc_unit(s.order), s)
    acc = nc_unit(s.order)
    power = nc_unit(s.order)
    for _ in range(s.order):
        power = nc_mul(power, u)
        if not power.coeffs:
            break
        acc = nc_add(acc, power)
    return acc


def nc_exp_letter(letter: str, sign: int, order: int) -> NCSeries:
    """exp(sign * c * letter) truncated at ``order``; sign is +1 or -1."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if letter not in LETTERS:
        raise ValueError("letter must be A or B")
    coeffs = {"": SymExpr.one()}
    for k in range(1, order + 1):
        q = Fraction(sign**k, factorial(k))
        coeffs[letter * k] = SymExpr({SymMonomial(((LOG2, k),)): q})
    return NCSeries(order, coeffs)


def ad_power(actor: str, argument: str, m: int) -> NCSeries:
    """The iterated commutator ad_actor^m(argument) expanded into words.

    Returned at truncation order m + 1 (its homogeneous degree); use
    ``nc_resize`` to embed it into a larger computation.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if actor not in LETTERS or argument not in LETTERS:
        raise ValueError("letters must be A or B")
    coeffs: dict[str, SymExpr] = {argument: SymExpr.one()}
    for _ in range(m):
        nxt: dict[str, SymExpr] = {}
        for w, e in coeffs.items():
            for word, val in ((actor + w, e), (w + actor, -e)):
                s = nxt.get(word)
                nxt[word] = val if s is None else s + val
        coeffs = {w: e for w, e in nxt.items() if e}
    return NCSeries(m + 1, coeffs)


def nc_resize(s: NCSeries, order: int) -> NCSeries:
    """Same series at a different truncation order (growing or shrinking)."""
    return NCSeries(order, dict(s.coeffs))


def nc_swap(s: NCSeries) -> NCSeries:
    """Exchange the letters A and B in every word; coefficients unchanged."""
    return NCSeries(s.order, {w.translate(_SWAP): e for w, e in s.coeffs.items()})


def nc_coeff(s: NCSeries, w: str) -> SymExpr:
    _check_word(w)
    if len(w) > s.order:
        raise DegreeTooLargeError("word degree %d > order %d" % (len(w), s.order))
    return s.coeffs.get(w, SymExpr.zero())


def nc_graded_part(s: NCSeries, degree: int) -> NCSeries:
    return NCSeries(s.order, {w: e for w, e in s.coeffs.items() if len(w) == degree})


def check_grading(s: NCSeries) -> None:
    """Assert the weight grading: coefficient of a degree-r word has weight r.

    Raises NotHomogeneousError or ValueError when violated.
    """
    for w, e in s.coeffs.items():
        wt = sym_weight(e)
        if wt != len(w):
            raise ValueError(
                "word %r has degree %d but coefficient weight %d" % (w, len(w), wt)
            )


def series_to_json(s: NCSeries) -> dict:
    terms = []
    for w in sorted(s.coeffs, key=lambda w: (len(w), w)):
        terms.append({"word": w if w else "1", "coeff": s.coeffs[w].render()})
    return {"order": s.order, "terms": terms}
