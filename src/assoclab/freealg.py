"""Truncated noncommutative power series in two letters A and B.

Words are plain strings over the alphabet {"A", "B"}; the empty string is the
algebra unit.  A series is a finite map word -> SymExpr together with a
truncation order N: words longer than N are dropped by every operation, and
binary operations insist that both operands share the same order so that a
product of mixed truncations can never silently lose terms.

The series built by the expansion modules satisfy a weight grading: the
coefficient of every degree-r word is weight homogeneous of weight r.  That is
an invariant the tests check, not an enforced constructor constraint, because
intermediate test expressions are free to violate it.

Products are graded: the right factor's words are grouped by degree, so only
pairs with |u| + |v| <= N are visited, and the pairs that meet at one output
word are listed under it in a ``defaultdict(list)`` and summed in one
accumulator (``symring.sum_of_products``).  Quotients a * inverse(s) are
solved degree by degree from the same pair lists (``nc_div``), and the
inverse is the quotient of the unit.

Both sides' coefficient rows come from one walk (``deletion_rows``) over the
words that start with A, each folded once from its parent's fold states.
The fold keeps each letter or, if deletable, deletes it with a sign flip,
B to the left end, A to the right, so the state is (head, #A deleted) with
head = B^#B deleted + kept letters.  It steps over runs of equal letters:
a deletable run of p copies branches once into s = 0..p deletions, with
weight (-1)^s C(p, s), as the C(p, s) choices of s copies reach one state.
A series prints as one batch (``render_each``), one term at a time
(``series_terms``); ``series_to_json`` wraps that stream with the order.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from math import comb

from .symring import LETTER_SWAP, SymExpr, render_each, sum_of_products

A = "A"
B = "B"


class OrderMismatchError(ValueError):
    """Binary operation on series with different truncation orders."""


class NotUnitalError(ValueError):
    """Inverse requested for a series whose constant term is not 1."""


class DegreeTooLargeError(ValueError):
    """Coefficient requested for a word beyond the truncation order."""


def _check_word(w: str) -> str:
    if w.strip("AB"):  # one C-level pass: a foreign letter stops the strip
        raise ValueError("word must use letters A and B only: %r" % (w,))
    return w


class NCSeries:
    """Degree-truncated series with SymExpr coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[str, SymExpr] | None = None):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = int(order)
        # every word is checked, also one that the truncation drops
        self.coeffs = {w: e for w, e in (coeffs or {}).items() if len(_check_word(w)) <= order and e}

    def __eq__(self, other):
        if not isinstance(other, NCSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        n = len(self.coeffs)
        return "NCSeries(order=%d, %d term%s)" % (self.order, n, "" if n == 1 else "s")


def nc_unit(order: int) -> NCSeries:
    return NCSeries(order, {"": SymExpr.one()})


def nc_neg(a: NCSeries) -> NCSeries:
    return NCSeries(a.order, {w: -e for w, e in a.coeffs.items()})


def _by_degree(s: NCSeries) -> list[list[tuple[str, SymExpr]]]:
    out: list[list[tuple[str, SymExpr]]] = [[] for _ in range(s.order + 1)]
    for w, e in s.coeffs.items():
        out[len(w)].append((w, e))
    return out


def _meet(pairs: defaultdict, left, right) -> None:
    """Append (cu, cv) to pairs[u + v] for every u in left, v in right."""
    for u, cu in left:
        for v, cv in right:
            pairs[u + v].append((cu, cv))


def nc_mul(a: NCSeries, b: NCSeries) -> NCSeries:
    """Concatenation product truncated at the common order."""
    if a.order != b.order:
        raise OrderMismatchError("orders %d != %d" % (a.order, b.order))
    order = a.order
    left, right = _by_degree(a), _by_degree(b)
    pairs = defaultdict(list)
    for i in range(order + 1):
        for j in range(order - i + 1):
            _meet(pairs, left[i], right[j])
    return NCSeries(order, {w: sum_of_products(p) for w, p in pairs.items()})


def nc_div(a: NCSeries, s: NCSeries) -> NCSeries:
    """Right quotient a * inverse(s), solved degree by degree.

    Requires constant term exactly 1 in s.  With t = 1 - s, the quotient
    solves x = a + x * t, and as t has no constant term, x[w] only reads
    quotient coefficients of lower degree.
    """
    if a.order != s.order:
        raise OrderMismatchError("orders %d != %d" % (a.order, s.order))
    one = SymExpr.one()
    if s.coeffs.get("") != one:
        raise NotUnitalError("constant term must be 1")
    head, t = _by_degree(a), _by_degree(nc_neg(s))
    x: list[list[tuple[str, SymExpr]]] = []
    for n in range(s.order + 1):
        pairs = defaultdict(list, {w: [(e, one)] for w, e in head[n]})
        for k in range(1, n + 1):
            _meet(pairs, x[n - k], t[k])
        x.append([(w, e) for w, p in pairs.items() if (e := sum_of_products(p))])
    return NCSeries(s.order, {w: e for level in x for w, e in level})


def nc_inverse(s: NCSeries) -> NCSeries:
    """Multiplicative inverse: the quotient of the unit by s."""
    return nc_div(nc_unit(s.order), s)


@lru_cache(maxsize=None)
def _run_branches(run: str) -> tuple:
    """(prefix, kept copies, #A deleted, weight) for s = 0..p deletions
    from a deletable run of p equal letters: B goes to the prefix."""
    p = len(run)
    if run[0] == A:
        return tuple(("", run[s:], s, (-1) ** s * comb(p, s)) for s in range(p + 1))
    return tuple((run[:s], run[s:], 0, (-1) ** s * comb(p, s)) for s in range(p + 1))


def _fold_run(states: dict, run: str, deletable: str) -> dict:
    """The fold states, (head, #A deleted) -> count, after one more run of
    equal letters, in a new dict: a run that cannot be deleted extends every
    head, a deletable one branches by ``_run_branches``."""
    if run[0] not in deletable:
        return {(head + run, a): c for (head, a), c in states.items()}
    nxt = defaultdict(int)
    branches = _run_branches(run)
    for (head, a), c in states.items():
        for pre, kept, da, k in branches:
            nxt[pre + head + kept, a + da] += k * c
    return nxt


def deletion_rows(order: int, deletable: str, ends: str, monomial) -> dict:
    """{word: {monomial(x): (-1)^#B(x) count}} over the templates x: the
    words of length <= order that start with A, end in a letter of ``ends``
    and have a ``monomial(x)`` other than None, with x's nonzero fold counts
    (each template owns its monomial, so no entry is a sum).  Depth first on
    an explicit stack: a word's fold states are its parent's (the word less
    its last run) extended by that run, so each run-prefix is folded once,
    and a word ending in a letter not in ``ends`` only if a run can follow."""
    rows, stack, word, states, letter = defaultdict(dict), [], "", {("", 0): 1}, A
    while True:
        room = order - len(word) - (letter not in ends)
        stack += [(word, states, letter * k) for k in range(room, 0, -1)]
        if not stack:
            return rows
        parent, states, run = stack.pop()
        word, states = parent + run, _fold_run(states, run, deletable)
        letter = B if run[0] == A else A
        if run[0] in ends and (m := monomial(word)) is not None:
            counts, sign = defaultdict(int), (-1) ** word.count(B)
            for (head, a), c in states.items():
                counts[head + A * a] += c
            for w, c in counts.items():
                if c:
                    rows[w][m] = sign * c


def nc_swap(s: NCSeries) -> NCSeries:
    """Exchange the letters A and B in every word; coefficients unchanged."""
    return NCSeries(s.order, {w.translate(LETTER_SWAP): e for w, e in s.coeffs.items()})


def nc_coeff(s: NCSeries, w: str) -> SymExpr:
    _check_word(w)
    if len(w) > s.order:
        raise DegreeTooLargeError("word degree %d > order %d" % (len(w), s.order))
    found = s.coeffs.get(w)
    return SymExpr.zero() if found is None else found


def series_terms(s: NCSeries):
    """The JSON terms of a series, words by (degree, lex), one at a time:
    each coefficient is rendered only when its term is reached."""
    words = sorted(s.coeffs, key=lambda w: (len(w), w))
    texts = render_each([s.coeffs[w] for w in words])
    for w, (t,) in zip(words, texts):
        yield {"word": w if w else "1", "coeff": t}


def series_to_json(s: NCSeries) -> dict:
    """A series' JSON object; its terms stream from ``series_terms``."""
    return {"order": s.order, "terms": series_terms(s)}
