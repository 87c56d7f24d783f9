"""Transport-factor expansion with polylog-at-one-half coefficients."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from assoclab.delta_side import (
    index_weight,
    index_words,
    iint_terms,
    iint_to_sym,
    phi_delta,
    psi_series,
    xi_series,
)
from assoclab.freealg import NCSeries, nc_mul, nc_swap, nc_unit
from assoclab.symring import LOG2, SymExpr, delta

from oracle_utils import (
    check_grading,
    close_enough,
    eval_symexpr,
    iint_numeric,
    iint_terms_by_carry_vectors,
    nc_add,
    nc_graded_part,
    nc_scale,
    nc_sub,
    xi_series_by_kernels,
)


def test_index_weight():
    assert index_weight(()) == 0
    assert index_weight((0,)) == 1
    assert index_weight((1, 0, 2)) == 6  # r=3 plus levels 3


def test_index_words_count_doubles_per_degree():
    words = index_words(6)
    by_weight: dict[int, int] = {}
    for w in words:
        by_weight[index_weight(w)] = by_weight.get(index_weight(w), 0) + 1
    assert by_weight == {d: 2 ** (d - 1) for d in range(1, 7)}
    assert len(words) == 63


def test_index_words_sorted_weight_length_lex():
    words = index_words(5)
    keys = [(index_weight(w), len(w), w) for w in words]
    assert keys == sorted(keys)
    assert words[0] == (0,)
    assert (1,) in words and (0, 0) in words


def test_index_words_equal_a_brute_force_list():
    # every word of length r has entries <= 10 - r; sort by (weight, length, lex)
    brute = [w for r in range(1, 11) for w in product(range(11 - r), repeat=r)
             if index_weight(w) <= 10]
    assert index_words(10) == sorted(brute, key=lambda w: (index_weight(w), len(w), w))


def test_iint_terms_composition_weights():
    rng = random.Random(314)
    for _ in range(80):
        r = rng.randint(1, 4)
        levels = tuple(rng.randint(0, 3) for _ in range(r))
        total = index_weight(levels)
        for coeff, comp in iint_terms(levels):
            assert coeff > 0
            assert sum(comp) == total
            assert len(comp) == r


def test_iint_terms_fold_matches_the_carry_vector_expansion():
    words = index_words(10)
    assert len(words) == 2 ** 10 - 1
    for levels in words:
        # as lists: the order, lex in the carry vector, is part of the contract
        assert iint_terms(levels) == iint_terms_by_carry_vectors(levels), levels


def test_iint_special_cases_exact():
    c = SymExpr.gen(LOG2)
    # empty word is the unit coefficient
    assert iint_to_sym(()) == SymExpr.one()
    # all-zero word of length r collapses to c^r / r!
    for r in range(1, 9):
        want = SymExpr.gen(LOG2, exp=r, coeff=Fraction(1, factorial(r)))
        assert iint_to_sym((0,) * r) == want
    # single level: one delta
    for l in range(0, 4):
        if l == 0:
            continue
        assert iint_to_sym((l,)) == SymExpr.gen(delta((l + 1,)))


def test_iint_two_level_binomial_formula():
    # r=2 closed form: sum_m binom(l2+m, l2) delta_{l2+m+1, l1-m+1}
    rng = random.Random(2718)
    for _ in range(40):
        l1, l2 = rng.randint(0, 3), rng.randint(0, 3)
        if l1 == l2 == 0:
            continue
        want = SymExpr.zero()
        for m in range(l1 + 1):
            want = want + SymExpr.gen(
                delta((l2 + m + 1, l1 - m + 1)), coeff=comb(l2 + m, l2)
            )
        assert iint_to_sym((l1, l2)) == want


def test_iint_hand_values():
    d = lambda *p: SymExpr.gen(delta(p))
    assert iint_to_sym((0, 1)) == d(2, 1)
    assert iint_to_sym((1, 0)) == d(1, 2) + d(2, 1)
    assert iint_to_sym((1, 1)) == d(2, 2) + d(3, 1).scale(2)
    assert iint_to_sym((0, 2)) == d(3, 1)
    assert iint_to_sym((0, 0, 1)) == d(2, 1, 1)
    assert iint_to_sym((0, 0, 2)) == d(3, 1, 1)


def test_iint_only_all_zero_words_reach_all_ones_deltas():
    # depth-r all-ones delta appears only from the all-zero index word
    for w in index_words(5):
        e = iint_to_sym(w)
        for m in e.monomials():
            for g, _ in m.factors:
                if g.kind == "delta" and set(g.parts) == {1}:
                    assert set(w) == {0}


def test_iint_matches_kernel_integral_numerically():
    # spot check the conversion against the independent integrator
    from assoclab.numeric import Precision

    prec = Precision(digits=35)
    rng = random.Random(11)
    words = [w for w in index_words(5)]
    rng.shuffle(words)
    for w in words[:10]:
        a = iint_numeric(w, 30)
        b = eval_symexpr(iint_to_sym(w), prec)
        assert close_enough(a, b, 24), w


def test_xi_series_order_one():
    xi = xi_series(1)
    assert xi.coeffs == {"": SymExpr.one(), "A": SymExpr.gen(LOG2)}


@pytest.mark.parametrize("order", [4, 6])
def test_xi_series_actor_grading_and_argument_letter(order):
    xi = xi_series(order)
    check_grading(xi)
    # every non-unit word contains at least one A: the argument letter
    for w in xi.coeffs:
        if w:
            assert "A" in w


@pytest.mark.parametrize("actor", ["A", "B"])
def test_xi_series_matches_its_definition(actor):
    # 1 + sum of I[levels] F_l1 ... F_lr with F_l = ad_actor^l(argument),
    # each F_l built by iterating x -> actor x - x actor; Xi_A is the letter
    # swap of Xi_B
    argument = "B" if actor == "A" else "A"
    for order in range(1, 7):
        act = NCSeries(order, {actor: SymExpr.one()})
        f = [NCSeries(order, {argument: SymExpr.one()})]
        while len(f) < order:
            f.append(nc_sub(nc_mul(act, f[-1]), nc_mul(f[-1], act)))
        want = nc_unit(order)
        for levels in index_words(order):
            word = nc_unit(order)
            for l in levels:
                word = nc_mul(word, f[l])
            want = nc_add(want, nc_scale(word, iint_to_sym(levels)))
        xi = xi_series(order)
        assert (xi if actor == "B" else nc_swap(xi)) == want, order


def test_xi_series_fold_equals_the_kernel_formula():
    # the B-deletable fold over the words that start with A, against the
    # paper's sum of kernel integrals times ad_B powers of A
    for order in range(11):
        assert xi_series(order) == xi_series_by_kernels(order), order


def test_psi_pure_b_coefficients_are_exp_cb():
    # psi = exp(cB) * Xi_B, and Xi_B has no pure-B word but the unit
    order = 6
    psi = psi_series(order)
    for k in range(order + 1):
        want = SymExpr.gen(LOG2, exp=k, coeff=Fraction(1, factorial(k))) if k else SymExpr.one()
        assert psi.coeffs["B" * k] == want


def test_phi_delta_degree_two_closed_form():
    phi = phi_delta(2)
    coeff = SymExpr.gen(LOG2, exp=2) + SymExpr.gen(delta((2,)), coeff=2)
    assert phi.coeffs[""] == SymExpr.one()
    assert not nc_graded_part(phi, 1).coeffs
    assert phi.coeffs["BA"] == coeff
    assert phi.coeffs["AB"] == -coeff
    assert set(phi.coeffs) == {"", "BA", "AB"}


def test_phi_delta_grading():
    check_grading(phi_delta(4))


def test_phi_delta_swap_inverse_raw():
    for order in (3, 5):
        phi = phi_delta(order)
        assert nc_mul(phi, nc_swap(phi)) == nc_unit(order)


def test_phi_delta_truncations_agree():
    phi5 = phi_delta(5)
    for order in (2, 3, 4):
        smaller = phi_delta(order)
        for w, e in smaller.coeffs.items():
            assert phi5.coeffs.get(w, SymExpr.zero()) == e
