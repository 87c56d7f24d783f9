"""Truncated noncommutative series over the two-letter alphabet."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from assoclab.freealg import (
    A,
    B,
    DegreeTooLargeError,
    NCSeries,
    NotUnitalError,
    OrderMismatchError,
    ad_power,
    check_grading,
    nc_add,
    nc_coeff,
    nc_exp_letter,
    nc_graded_part,
    nc_inverse,
    nc_mul,
    nc_neg,
    nc_resize,
    nc_scale,
    nc_sub,
    nc_swap,
    nc_unit,
    other_letter,
    series_to_json,
)
from assoclab.symring import LOG2, SymExpr, delta, zeta

from oracle_utils import binomial_ad


def _rand_series(rng: random.Random, order: int) -> NCSeries:
    coeffs = {}
    for _ in range(rng.randint(0, 6)):
        w = "".join(rng.choice("AB") for _ in range(rng.randint(0, order)))
        coeffs[w] = SymExpr.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return NCSeries(order, coeffs)


def test_constructor_truncates_and_drops_zeros():
    s = NCSeries(2, {"ABA": SymExpr.one(), "AB": SymExpr.zero(), "B": SymExpr.one()})
    assert "ABA" not in s.coeffs
    assert "AB" not in s.coeffs
    assert s.coeffs["B"] == SymExpr.one()


def test_word_validation():
    with pytest.raises(ValueError):
        NCSeries(3, {"AXB": SymExpr.one()})
    assert other_letter(A) == B and other_letter(B) == A
    with pytest.raises(ValueError):
        other_letter("C")


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatchError):
        nc_add(nc_unit(2), nc_unit(3))
    with pytest.raises(OrderMismatchError):
        nc_mul(nc_unit(2), NCSeries(3))


def test_add_sub_scale_axioms_random():
    rng = random.Random(2027)
    for _ in range(80):
        s, t = _rand_series(rng, 3), _rand_series(rng, 3)
        assert nc_add(s, t) == nc_add(t, s)
        assert nc_sub(nc_add(s, t), t) == s
        assert nc_add(s, nc_neg(s)) == NCSeries(3)
        two = SymExpr.rational(2)
        assert nc_scale(s, two) == nc_add(s, s)


def test_mul_is_associative_and_truncates():
    rng = random.Random(515)
    for _ in range(40):
        s, t, u = (_rand_series(rng, 4) for _ in range(3))
        assert nc_mul(nc_mul(s, t), u) == nc_mul(s, nc_mul(t, u))
    a = NCSeries(2, {"AB": SymExpr.one()})
    assert nc_mul(a, a) == NCSeries(2)  # degree 4 word vanishes at order 2


def test_mul_unit_and_distributivity():
    rng = random.Random(99)
    for _ in range(60):
        s, t, u = (_rand_series(rng, 3) for _ in range(3))
        assert nc_mul(nc_unit(3), s) == s
        assert nc_mul(s, nc_unit(3)) == s
        assert nc_mul(s, nc_add(t, u)) == nc_add(nc_mul(s, t), nc_mul(s, u))


def test_mul_concatenation_on_words():
    s = NCSeries(5, {"AB": SymExpr.one()})
    t = NCSeries(5, {"BA": SymExpr.gen(zeta([2]))})
    assert nc_mul(s, t).coeffs == {"ABBA": SymExpr.gen(zeta([2]))}


def test_inverse_requires_unit_constant_term():
    with pytest.raises(NotUnitalError):
        nc_inverse(NCSeries(3))
    with pytest.raises(NotUnitalError):
        nc_inverse(NCSeries(3, {"": SymExpr.rational(2)}))


def test_inverse_property_random():
    rng = random.Random(31415)
    for _ in range(30):
        s = nc_add(nc_unit(4), _rand_series_nonconst(rng, 4))
        inv = nc_inverse(s)
        assert nc_mul(s, inv) == nc_unit(4)
        assert nc_mul(inv, s) == nc_unit(4)


def _rand_series_nonconst(rng: random.Random, order: int) -> NCSeries:
    s = _rand_series(rng, order)
    coeffs = dict(s.coeffs)
    coeffs.pop("", None)
    return NCSeries(order, coeffs)


def test_exp_letter_coefficients():
    e = nc_exp_letter(B, +1, 4)
    for k in range(5):
        want = SymExpr.gen(LOG2, exp=k, coeff=Fraction(1, factorial(k))) if k else SymExpr.one()
        assert e.coeffs.get("B" * k, SymExpr.zero()) == want
    m = nc_exp_letter(A, -1, 3)
    assert m.coeffs["AA"] == SymExpr.gen(LOG2, exp=2, coeff=Fraction(1, 2))
    assert m.coeffs["A"] == SymExpr.gen(LOG2, coeff=-1)


def test_exp_letter_inverse_is_opposite_sign():
    e = nc_exp_letter(A, +1, 5)
    m = nc_exp_letter(A, -1, 5)
    assert nc_mul(e, m) == nc_unit(5)


def test_ad_power_matches_binomial_expansion():
    rng = random.Random(777)
    for _ in range(40):
        actor = rng.choice("AB")
        arg = rng.choice("AB")
        m = rng.randint(0, 5)
        got = ad_power(actor, arg, m)
        want = binomial_ad(actor, arg, m)
        assert got.order == m + 1
        assert {w: e for w, e in got.coeffs.items()} == {
            w: SymExpr.rational(q) for w, q in want.items()
        }


def test_ad_power_small_cases():
    x = ad_power(B, A, 1)  # BA - AB
    assert x.coeffs == {"BA": SymExpr.one(), "AB": SymExpr.rational(-1)}
    assert ad_power(A, B, 0).coeffs == {"B": SymExpr.one()}


def test_swap_is_an_involutive_algebra_map():
    rng = random.Random(4242)
    for _ in range(50):
        s, t = _rand_series(rng, 3), _rand_series(rng, 3)
        assert nc_swap(nc_swap(s)) == s
        assert nc_swap(nc_mul(s, t)) == nc_mul(nc_swap(s), nc_swap(t))
    assert nc_swap(NCSeries(2, {"AB": SymExpr.one()})).coeffs == {"BA": SymExpr.one()}


def test_resize_down_truncates_up_keeps():
    s = NCSeries(3, {"ABA": SymExpr.one(), "B": SymExpr.one()})
    down = nc_resize(s, 1)
    assert down.order == 1 and down.coeffs == {"B": SymExpr.one()}
    up = nc_resize(s, 5)
    assert up.order == 5 and up.coeffs == s.coeffs


def test_coeff_and_graded_part():
    s = NCSeries(3, {"AB": SymExpr.gen(zeta([2])), "A": SymExpr.one()})
    assert nc_coeff(s, "AB") == SymExpr.gen(zeta([2]))
    assert nc_coeff(s, "BB") == SymExpr.zero()
    with pytest.raises(DegreeTooLargeError):
        nc_coeff(s, "ABAB")
    part = nc_graded_part(s, 2)
    assert part.coeffs == {"AB": SymExpr.gen(zeta([2]))}


def test_check_grading_accepts_and_rejects():
    good = NCSeries(2, {"AB": SymExpr.gen(delta([2])), "": SymExpr.one()})
    check_grading(good)
    bad = NCSeries(2, {"AB": SymExpr.gen(zeta([3]))})
    with pytest.raises(ValueError):
        check_grading(bad)


def test_series_to_json_sorted_and_renders_unit_word():
    s = NCSeries(2, {"": SymExpr.one(), "BA": SymExpr.gen(delta([2]), coeff=2), "A": SymExpr.zero()})
    payload = series_to_json(s)
    assert payload["order"] == 2
    words = [t["word"] for t in payload["terms"]]
    assert words == ["1", "BA"]
    assert payload["terms"][1]["coeff"] == "2*d[2]"
