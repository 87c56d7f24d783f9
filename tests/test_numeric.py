"""Arbitrary-precision evaluation of the constants and relation residuals."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from mpmath import mp

from assoclab.numeric import (
    Precision,
    VerifyResult,
    _delta_cutoff,
    _working_dps,
    eval_delta,
    eval_symexpr,
    eval_zeta,
    reverse_swap,
    verify_relation,
    word_dual,
    word_to_composition,
    zeta_word,
)
from assoclab.relations import comparison_relations
from assoclab.symring import LOG2, NotAdmissibleError, SymExpr, delta, zeta

from oracle_utils import brute_delta, close_enough, closed_zeta_table, naive_zeta


def compositions_of_weight(w: int):
    """All compositions of w, first part unrestricted."""
    for k in range(1, w + 1):
        for cuts in itertools.combinations(range(1, w), k - 1):
            bounds = (0,) + cuts + (w,)
            yield tuple(bounds[i + 1] - bounds[i] for i in range(k))


def test_precision_validation():
    assert Precision().digits == 40
    with pytest.raises(ValueError):
        Precision(digits=5)


def test_working_dps_and_cutoff_monotone():
    p = Precision(digits=30)
    assert _working_dps(p, 100) >= 35
    assert _delta_cutoff(1, 40) < _delta_cutoff(1, 80)
    assert _delta_cutoff(4, 40) >= _delta_cutoff(1, 40)


def _chain_tail(depth: int, M: int):
    """Sum over n > M of 2^-n * H_(n-1)^(depth-1) / (depth-1)!.

    A depth-k delta value's summand at outer index n is at most 2^-n times
    the sum over n > n2 > ... > nk >= 1 of 1/(n2...nk), which is at most
    H_(n-1)^(k-1)/(k-1)!; so this bounds what a cutoff at M drops.  Terms
    fall by about half each step beyond n = 32, so the sum stops once a term
    is below 10^-25 of the running total.
    """
    with mp.workdps(30):
        h = mp.fsum(mp.one / j for j in range(1, M + 1))  # H_(n-1) at n = M + 1
        pw = mp.mpf(2) ** -(M + 1)
        scale = mp.one / math.factorial(depth - 1)
        total, n = mp.zero, M + 1
        while True:
            term = pw * h ** (depth - 1) * scale
            total += term
            if term < total * mp.mpf(10) ** -25:
                return total
            h += mp.one / n
            pw /= 2
            n += 1


@pytest.mark.parametrize("digits", [10, 40, 100, 300, 1000, 2000])
def test_delta_cutoff_drops_less_than_the_target(digits):
    target = digits + Precision.guard
    for depth in range(1, 13):
        M = _delta_cutoff(depth, target)
        tail = _chain_tail(depth, M)
        assert tail < mp.mpf(10) ** -target, (depth, M, mp.nstr(tail, 5))


def test_eval_delta_spot_value():
    v = eval_delta((2,), Precision(digits=30))
    assert close_enough(v, mp.mpf("0.5822405264650125"), 15)


def test_eval_delta_rejects_bad_compositions():
    with pytest.raises(ValueError):
        eval_delta(())
    with pytest.raises(ValueError):
        eval_delta((2, 0))


def test_eval_delta_matches_brute_force_up_to_weight_five():
    prec = Precision(digits=40)
    for w in range(1, 6):
        for comp in compositions_of_weight(w):
            got = eval_delta(comp, prec)
            want = brute_delta(comp, 30)
            assert close_enough(got, want, 22), comp


def test_eval_delta_precision_scaling():
    lo = eval_delta((2, 1), Precision(digits=20))
    hi = eval_delta((2, 1), Precision(digits=60))
    assert close_enough(lo, hi, 19)


def test_eval_zeta_basel_to_forty_digits():
    v = eval_zeta((2,), Precision(digits=40))
    with mp.workdps(60):
        assert abs(v - mp.pi ** 2 / 6) < mp.mpf(10) ** (-40)


def test_eval_zeta_depth_one_against_library_zeta():
    prec = Precision(digits=40)
    for s in (2, 3, 4, 5, 6, 7):
        with mp.workdps(60):
            want = mp.zeta(s)
        assert close_enough(eval_zeta((s,), prec), want, 39)


def test_eval_zeta_closed_forms_weight_five():
    prec = Precision(digits=45)
    for comp, want in closed_zeta_table(50).items():
        assert close_enough(eval_zeta(comp, prec), want, 40), comp


def test_eval_zeta_within_certified_bound_of_naive_summation():
    prec = Precision(digits=30)
    for w in range(2, 6):
        for comp in compositions_of_weight(w):
            if comp[0] < 2:
                continue
            want, bound = naive_zeta(comp, 100_000)
            got = eval_zeta(comp, prec)
            with mp.workdps(40):
                assert abs(got - mp.mpf(want)) < bound, comp


def test_eval_delta_single_one_is_log_two():
    v = eval_delta((1,), Precision(digits=40))
    with mp.workdps(60):
        assert abs(v - mp.log(2)) < mp.mpf(10) ** (-39)


@pytest.mark.parametrize("digits", [40, 300])
def test_log_two_generator_is_delta_one(digits):
    v = eval_symexpr(SymExpr.gen(LOG2), Precision(digits))
    with mp.workdps(digits + 20):
        assert abs(v - mp.log(2)) < mp.mpf(10) ** (-digits)


def test_eval_delta_accepts_a_list_behind_the_cache():
    p = Precision(digits=30)
    assert eval_delta([2, 1], p) == eval_delta((2, 1), p)


def test_eval_zeta_precision_scaling():
    lo = eval_zeta((3, 2), Precision(digits=20))
    hi = eval_zeta((3, 2), Precision(digits=60))
    assert close_enough(lo, hi, 19)


def test_eval_zeta_rejects_inadmissible():
    with pytest.raises(NotAdmissibleError):
        eval_zeta((1, 2))


def test_eval_zeta_duality_weight_six():
    prec = Precision(digits=45)
    for w in range(2, 7):
        for comp in compositions_of_weight(w):
            if comp[0] < 2:
                continue
            a = eval_zeta(comp, prec)
            b = eval_zeta(word_dual(comp), prec)
            assert close_enough(a, b, 40), comp


def test_word_helpers_roundtrip():
    assert zeta_word((2, 1)) == "011"
    assert word_to_composition("011") == (2, 1)
    rng = random.Random(17)
    for _ in range(100):
        comp = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        w = zeta_word(comp)
        assert word_to_composition(w) == comp
        assert reverse_swap(reverse_swap(w)) == w
        if comp[0] >= 2:
            assert word_dual(word_dual(comp)) == comp
    with pytest.raises(ValueError):
        word_to_composition("010")
    with pytest.raises(ValueError):
        word_to_composition("")


def test_word_dual_examples():
    assert word_dual((3,)) == (2, 1)
    assert word_dual((4,)) == (2, 1, 1)
    assert word_dual((5,)) == (2, 1, 1, 1)
    assert word_dual((2, 2)) == (2, 2)
    assert word_dual((3, 1)) == (3, 1)
    assert word_dual((4, 1)) == (3, 1, 1)


def test_eval_symexpr_zero_and_composite():
    prec = Precision(digits=40)
    assert eval_symexpr(SymExpr.zero(), prec) == 0
    euler = (SymExpr.gen(zeta((2,))) - SymExpr.gen(delta((2,)), coeff=2)
             - SymExpr.gen(LOG2, exp=2))
    assert close_enough(eval_symexpr(euler, prec), 0, 38)


def test_verify_relation_thresholds():
    prec = Precision(digits=40)
    rel = comparison_relations(2)[0]
    res = verify_relation(rel, prec)
    assert isinstance(res, VerifyResult)
    assert res.ok and abs(res.residual) < res.threshold

    non = SymExpr.gen(zeta((2,))) - SymExpr.gen(delta((2,)))
    bad = verify_relation(non, prec)
    assert not bad.ok
    assert bad.residual > 0.5


def test_verify_relation_accepts_bare_expr_or_relation():
    prec = Precision(digits=30)
    rel = comparison_relations(2)[0]
    a = verify_relation(rel, prec)
    b = verify_relation(rel.expr, prec)
    with mp.workdps(40):
        assert abs(a.residual - b.residual) == 0


def test_value_cache_stability():
    prec = Precision(digits=30)
    a = eval_delta((3, 1), prec)
    b = eval_delta((3, 1), prec)
    assert a is b  # cached mpf object comes back
