"""Truncated noncommutative series over the two-letter alphabet."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from assoclab.freealg import (
    A,
    B,
    DegreeTooLargeError,
    NCSeries,
    NotUnitalError,
    OrderMismatchError,
    nc_coeff,
    nc_div,
    nc_inverse,
    nc_mul,
    nc_neg,
    nc_swap,
    nc_unit,
    series_to_json,
)
from assoclab.symring import LOG2, SymExpr, delta, zeta

from oracle_utils import (
    ad_series,
    binomial_ad,
    check_grading,
    expr_mul,
    nc_add,
    nc_graded_part,
    nc_inverse_geometric,
    nc_mul_all_pairs,
    nc_scale,
    nc_sub,
)


def _rand_series(rng: random.Random, order: int) -> NCSeries:
    coeffs = {}
    for _ in range(rng.randint(0, 6)):
        w = "".join(rng.choice("AB") for _ in range(rng.randint(0, order)))
        coeffs[w] = SymExpr.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return NCSeries(order, coeffs)


_GENERATORS = (LOG2, zeta([2]), zeta([3]), zeta([2, 1]), delta([1]), delta([2]), delta([1, 2]))


def _rand_expr(rng: random.Random) -> SymExpr:
    """A few monomials in zeta, delta and c, with small rational coefficients."""
    out = SymExpr.zero()
    for _ in range(rng.randint(1, 3)):
        e = SymExpr.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2)):
            e = e * SymExpr.gen(rng.choice(_GENERATORS), rng.randint(1, 2))
        out = out + e
    return out


def _rand_sym_series(rng: random.Random, order: int, unit: bool = False) -> NCSeries:
    coeffs = {}
    for _ in range(rng.randint(0, 8)):
        w = "".join(rng.choice("AB") for _ in range(rng.randint(0, order)))
        coeffs[w] = _rand_expr(rng)
    if unit:
        coeffs[""] = SymExpr.one()
    return NCSeries(order, coeffs)


def test_constructor_truncates_and_drops_zeros():
    s = NCSeries(2, {"ABA": SymExpr.one(), "AB": SymExpr.zero(), "B": SymExpr.one()})
    assert "ABA" not in s.coeffs
    assert "AB" not in s.coeffs
    assert s.coeffs["B"] == SymExpr.one()


def test_word_validation():
    # a foreign letter at the start, in the middle or at the end, a lowercase
    # letter and non-ASCII look-alikes (e acute, Greek capital alpha)
    for word in ("XAB", "AXB", "ABX", "AaB", "A\u00e9B", "\u0391B"):
        with pytest.raises(ValueError):
            NCSeries(3, {word: SymExpr.one()})
        with pytest.raises(ValueError):
            nc_coeff(nc_unit(3), word)


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


def test_div_requires_unit_divisor_and_equal_orders():
    with pytest.raises(NotUnitalError):
        nc_div(nc_unit(3), NCSeries(3))
    with pytest.raises(NotUnitalError):
        nc_div(nc_unit(3), NCSeries(3, {"": SymExpr.rational(2)}))
    with pytest.raises(OrderMismatchError):
        nc_div(nc_unit(2), nc_unit(3))


def test_inverse_property_random():
    rng = random.Random(31415)
    for _ in range(30):
        s = nc_add(nc_unit(4), _rand_series_nonconst(rng, 4))
        inv = nc_inverse(s)
        assert nc_mul(s, inv) == nc_unit(4)
        assert nc_mul(inv, s) == nc_unit(4)


@pytest.mark.parametrize("order", [0, 1, 4])
def test_mul_matches_all_pairs_oracle(order):
    rng = random.Random(6100 + order)
    for _ in range(40):
        s, t = _rand_sym_series(rng, order), _rand_sym_series(rng, order)
        assert nc_mul(s, t) == nc_mul_all_pairs(s, t)


@pytest.mark.parametrize("order", [0, 1, 4])
def test_inverse_matches_geometric_oracle(order):
    rng = random.Random(6200 + order)
    for _ in range(20):
        s = _rand_sym_series(rng, order, unit=True)
        assert nc_inverse(s) == nc_inverse_geometric(s)


def test_inverse_of_swapped_xi_matches_geometric_oracle():
    from assoclab.delta_side import xi_series

    xi_a = nc_swap(xi_series(6))
    assert nc_inverse(xi_a) == nc_inverse_geometric(xi_a)


def test_expr_mul_matches_term_by_term_oracle():
    rng = random.Random(6300)
    for _ in range(200):
        a, b = _rand_expr(rng), _rand_expr(rng)
        assert a * b == expr_mul(a, b)


def test_mul_drops_words_whose_contributions_cancel():
    x = SymExpr.gen(zeta([2])) + SymExpr.gen(LOG2, 2, Fraction(1, 2))
    y = SymExpr.gen(delta([1, 2])) - SymExpr.gen(zeta([3]))
    # AB = A.B + 1.AB cancels; AAB = A.AB survives; A and B come from one side
    s = NCSeries(4, {"": y, "A": x})
    t = NCSeries(4, {"B": y, "AB": -x})
    got = nc_mul(s, t)
    assert "AB" not in got.coeffs
    assert got == nc_mul_all_pairs(s, t)
    assert set(got.coeffs) == {"B", "AAB"}
    assert got.coeffs["AAB"] == -(x * x)


def test_inverse_drops_cancelled_words():
    # s = 1 + A + B + AB: inv[AB] = -inv[B] - 1 = 0, so AB is absent
    one = SymExpr.one()
    s = NCSeries(3, {"": one, "A": one, "B": one, "AB": one})
    inv = nc_inverse(s)
    assert inv == nc_inverse_geometric(s)
    assert all(inv.coeffs.values())
    assert "AB" not in inv.coeffs


def _rand_series_nonconst(rng: random.Random, order: int) -> NCSeries:
    s = _rand_series(rng, order)
    coeffs = dict(s.coeffs)
    coeffs.pop("", None)
    return NCSeries(order, coeffs)


def test_ad_power_matches_binomial_expansion():
    rng = random.Random(777)
    for _ in range(40):
        actor = rng.choice("AB")
        arg = rng.choice("AB")
        m = rng.randint(0, 5)
        got = ad_series(actor, arg, m)
        want = binomial_ad(actor, arg, m)
        assert got.order == m + 1
        assert {w: e for w, e in got.coeffs.items()} == {
            w: SymExpr.rational(q) for w, q in want.items()
        }


def test_ad_power_small_cases():
    x = ad_series(B, A, 1)  # BA - AB
    assert x.coeffs == {"BA": SymExpr.one(), "AB": SymExpr.rational(-1)}
    assert ad_series(A, B, 0).coeffs == {"B": SymExpr.one()}
    # equal actor and argument: every word of the expansion cancels
    assert ad_series(A, A, 2) == NCSeries(3)
    assert ad_series(B, B, 1) == NCSeries(2)


def test_swap_is_an_involutive_algebra_map():
    rng = random.Random(4242)
    for _ in range(50):
        s, t = _rand_series(rng, 3), _rand_series(rng, 3)
        assert nc_swap(nc_swap(s)) == s
        assert nc_swap(nc_mul(s, t)) == nc_mul(nc_swap(s), nc_swap(t))
    assert nc_swap(NCSeries(2, {"AB": SymExpr.one()})).coeffs == {"BA": SymExpr.one()}


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
    terms = list(payload["terms"])
    assert [t["word"] for t in terms] == ["1", "BA"]
    assert terms[1]["coeff"] == "2*d[2]"
