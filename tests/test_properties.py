"""Property tests: the coefficient ring and the series algebra (hypothesis)."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from assoclab.freealg import NCSeries, nc_inverse, nc_mul, nc_unit
from assoclab.symring import LOG2, SymExpr, SymMonomial, delta, zeta

generators = st.one_of(
    st.just(LOG2),
    st.builds(
        lambda head, tail: zeta((head,) + tuple(tail)),
        st.integers(2, 3),
        st.lists(st.integers(1, 2), max_size=1),
    ),
    st.builds(delta, st.lists(st.integers(1, 3), min_size=1, max_size=2)),
)
factor_lists = st.lists(st.tuples(generators, st.integers(1, 2)), max_size=3)
monomials = factor_lists.map(lambda fs: SymMonomial(tuple(fs)))
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
exprs = st.dictionaries(monomials, rationals, max_size=3).map(SymExpr)


@given(factor_lists, st.randoms(use_true_random=False))
def test_permuted_factor_lists_give_one_monomial(factors, rng):
    shuffled = list(factors)
    rng.shuffle(shuffled)
    m1, m2 = SymMonomial(tuple(factors)), SymMonomial(tuple(shuffled))
    assert m1 == m2
    assert hash(m1) == hash(m2)
    assert len({m1: 1, m2: 2}) == 1


@given(monomials, monomials)
def test_monomial_product_commutes_and_adds_weights(m1, m2):
    assert m1.mul(m2) == m2.mul(m1)
    assert hash(m1.mul(m2)) == hash(m2.mul(m1))
    assert m1.mul(m2).weight == m1.weight + m2.weight


@given(exprs, exprs, exprs)
def test_expr_ring_axioms(a, b, c):
    zero, one = SymExpr.zero(), SymExpr.one()
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a * zero == zero
    assert a - a == zero
    assert hash(a * b) == hash(b * a)


def _series(order: int, unit: bool = False):
    words = st.lists(st.sampled_from("AB"), max_size=order).map("".join)
    coeffs = st.dictionaries(words, exprs, max_size=5)
    if unit:
        coeffs = coeffs.map(lambda d: {**d, "": SymExpr.one()})
    return coeffs.map(lambda d: NCSeries(order, d))


@settings(max_examples=60)
@given(_series(3), _series(3), _series(3))
def test_nc_mul_is_associative(s, t, u):
    assert nc_mul(nc_mul(s, t), u) == nc_mul(s, nc_mul(t, u))


@settings(max_examples=60)
@given(_series(4, unit=True))
def test_nc_inverse_is_two_sided(s):
    inv = nc_inverse(s)
    assert nc_mul(s, inv) == nc_unit(4)
    assert nc_mul(inv, s) == nc_unit(4)
    assert nc_inverse(inv) == s
