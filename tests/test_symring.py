"""Exact coefficient ring: generators, monomials, expressions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from assoclab.symring import (
    LOG2,
    Generator,
    NotAdmissibleError,
    NotHomogeneousError,
    SymExpr,
    SymMonomial,
    check_composition,
    delta,
    monomial,
    sym_substitute,
    sym_weight,
    zeta,
)


def _random_generator(rng: random.Random) -> Generator:
    roll = rng.random()
    if roll < 0.25:
        return LOG2
    depth = rng.randint(1, 3)
    parts = [rng.randint(1, 3) for _ in range(depth)]
    if roll < 0.6:
        parts[0] = rng.randint(2, 4)
        return zeta(parts)
    return delta(parts)


def _random_expr(rng: random.Random, size: int = 4) -> SymExpr:
    out = SymExpr.zero()
    for _ in range(rng.randint(0, size)):
        factors = [(_random_generator(rng), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        m = monomial(*factors)
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        out = out + SymExpr({m: q})
    return out


def test_check_composition_rejects_bad_parts():
    assert check_composition([2, 1]) == (2, 1)
    with pytest.raises(ValueError):
        check_composition([])
    with pytest.raises(ValueError):
        check_composition([2, 0])
    with pytest.raises(ValueError):
        check_composition([2, -1])


def test_zeta_requires_admissible_first_part():
    assert zeta([2, 1, 1]).parts == (2, 1, 1)
    with pytest.raises(NotAdmissibleError):
        zeta([1, 2])


def test_delta_allows_leading_one():
    g = delta([1, 2])
    assert g.parts == (1, 2)
    assert g.weight == 3
    assert g.depth == 2


def test_generator_render_and_latex():
    assert LOG2.render() == "c"
    assert zeta([2, 1]).render() == "z[2,1]"
    assert delta([3, 1, 1]).render() == "d[3,1,1]"
    assert zeta([2]).latex() == r"\zeta_{2}"
    assert delta([2, 1]).latex() == r"\delta_{2,1}"
    assert LOG2.latex() == r"\ln 2"


def test_generator_order_zeta_before_log2_before_delta():
    # equal weight 2: zeta_2 < c^2 has no meaning at generator level,
    # but zeta_2 < delta_2 and log2 sits between the kinds
    assert zeta([2]) < delta([2])
    assert zeta([2]).sort_key() < delta([2]).sort_key()
    key_z, key_c, key_d = zeta([2]).sort_key(), LOG2.sort_key(), delta([2]).sort_key()
    assert key_z[1] < key_c[1] < key_d[1]


def test_generator_order_depth_then_parts():
    assert zeta([4]) < zeta([3, 1])
    assert zeta([2, 2]) < zeta([3, 1])
    assert delta([1, 3]) < delta([3, 1])
    assert delta([2, 1, 1]).sort_key() > delta([3, 1]).sort_key()


def test_monomial_canonical_merge():
    g = zeta([2])
    m1 = monomial((g, 1), (g, 1), (LOG2, 2))
    m2 = monomial((LOG2, 2), (g, 2))
    assert m1 == m2
    assert m1.weight == 6
    assert monomial().is_unit()


def test_monomial_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        monomial((LOG2, 0))


def test_monomial_ordering_is_graded():
    rng = random.Random(20240817)
    for _ in range(200):
        a = monomial(*[(_random_generator(rng), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))])
        b = monomial(*[(_random_generator(rng), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))])
        if a.weight != b.weight:
            assert (a.sort_key() < b.sort_key()) == (a.weight < b.weight)
        ka, kb = a.sort_key(), b.sort_key()
        assert (ka < kb) + (kb < ka) + (ka == kb) == 1  # trichotomy


def test_monomial_order_is_multiplicative_total_order():
    # a < b implies a*m < b*m; required for the elimination to be stable
    rng = random.Random(991)
    for _ in range(300):
        a = monomial(*[(_random_generator(rng), 1) for _ in range(rng.randint(0, 2))])
        b = monomial(*[(_random_generator(rng), 1) for _ in range(rng.randint(0, 2))])
        m = monomial(*[(_random_generator(rng), 1) for _ in range(rng.randint(0, 2))])
        if a.sort_key() < b.sort_key():
            assert a.mul(m).sort_key() < b.mul(m).sort_key()


def test_expr_constructor_drops_zero_terms():
    m = monomial((LOG2, 1))
    e = SymExpr({m: Fraction(0)})
    assert not e
    assert len(SymExpr({m: Fraction(2)})) == 1


def test_expr_gen_and_rational_shortcuts():
    e = SymExpr.gen(zeta([2]), exp=2, coeff=Fraction(1, 2))
    assert e.coeff(monomial((zeta([2]), 2))) == Fraction(1, 2)
    assert SymExpr.rational(0) == SymExpr.zero()
    assert SymExpr.rational(Fraction(3, 4)).coeff(monomial()) == Fraction(3, 4)
    assert SymExpr.one() == SymExpr.rational(1)


def test_expr_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(120):
        a, b, c = (_random_expr(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + SymExpr.zero() == a
        assert a * SymExpr.one() == a
        assert a - a == SymExpr.zero()
        assert a.scale(Fraction(3, 2)).scale(Fraction(2, 3)) == a


def test_expr_pow_matches_repeated_mul():
    rng = random.Random(13)
    for _ in range(40):
        a = _random_expr(rng, size=3)
        assert a ** 3 == a * a * a
        assert a ** 0 == SymExpr.one()
    with pytest.raises(ValueError):
        _random_expr(rng) ** -1


def test_weight_additivity_random():
    rng = random.Random(41)
    for _ in range(150):
        g1, g2 = _random_generator(rng), _random_generator(rng)
        m = monomial((g1, 1)).mul(monomial((g2, 1)))
        assert m.weight == g1.weight + g2.weight


def test_sym_weight_homogeneous_and_mixed():
    e = SymExpr.gen(zeta([2])) + SymExpr.gen(delta([2])).scale(-2)
    assert sym_weight(e) == 2
    assert sym_weight(SymExpr.zero()) == 0
    mixed = SymExpr.gen(zeta([2])) + SymExpr.gen(zeta([3]))
    with pytest.raises(NotHomogeneousError):
        sym_weight(mixed)


def test_sym_mul_weight_adds():
    a = SymExpr.gen(zeta([2]))
    b = SymExpr.gen(delta([2, 1])) + SymExpr.gen(LOG2, exp=3)
    assert sym_weight(a * b) == 5
    assert a + a == a.scale(2)


def test_leading_monomial_prefers_deltas():
    e = (SymExpr.gen(zeta([2])) + SymExpr.gen(delta([2]))
         + SymExpr.gen(LOG2, exp=2))
    assert e.leading_monomial() == monomial((delta([2]), 1))
    with pytest.raises(ValueError):
        SymExpr.zero().leading_monomial()


def test_render_examples():
    e = SymExpr.gen(delta([2])) - SymExpr.gen(zeta([2])).scale(Fraction(1, 2)) \
        + SymExpr.gen(LOG2, exp=2).scale(Fraction(1, 2))
    assert e.render() == "d[2] - 1/2*z[2] + 1/2*c^2"
    assert SymExpr.zero().render() == "0"
    assert SymExpr.rational(Fraction(-1, 3)).render() == "-1/3"


def test_latex_fractions():
    e = SymExpr.gen(zeta([2])).scale(Fraction(1, 2))
    assert r"\tfrac{1}{2}" in e.latex()
    assert r"\zeta_{2}" in e.latex()


def test_hash_consistency():
    rng = random.Random(97)
    for _ in range(60):
        a = _random_expr(rng)
        b = SymExpr(dict(a.items()))
        assert a == b and hash(a) == hash(b)


def test_substitute_replaces_generator():
    # delta_2 -> (zeta_2 - c^2)/2 inside a product
    target = delta([2])
    repl = (SymExpr.gen(zeta([2])) - SymExpr.gen(LOG2, exp=2)).scale(Fraction(1, 2))
    e = SymExpr.gen(target, exp=2)
    out = sym_substitute(e, target, repl)
    assert out == repl * repl
    untouched = SymExpr.gen(zeta([3]))
    assert sym_substitute(untouched, target, repl) == untouched


def test_substitute_rejects_weight_mismatch():
    from assoclab.symring import WeightMismatchError

    with pytest.raises(WeightMismatchError):
        sym_substitute(SymExpr.gen(delta([2])), delta([2]), SymExpr.gen(zeta([3])))
