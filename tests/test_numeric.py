"""Arbitrary-precision evaluation of the constants and relation residuals."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from assoclab import numeric
from assoclab.numeric import (
    GUARD_BITS,
    Precision,
    VerifyResult,
    _delta_cutoff,
    _fixed_point_bits,
    _scale_bits,
    _working_dps,
    eval_delta,
    eval_zeta,
    residual_text,
    verify_relation,
)
from assoclab.relations import AUX_NAMES, aux_relations, comparison_relations
from assoclab.symring import (
    LOG2,
    UNIT_MONOMIAL,
    NotAdmissibleError,
    SymExpr,
    SymMonomial,
    delta,
    dual_word,
    word_composition,
    zeta,
    zeta_word,
)

from oracle_utils import (
    brute_delta,
    close_enough,
    closed_zeta_table,
    compositions_of_weight,
    delta_mpf,
    delta_mpf_table,
    eval_symexpr,
    eval_symexpr_mpf,
    holder_zeta,
    naive_zeta,
    zeta_split_mpf,
)


def test_precision_validation():
    assert Precision().digits == 40
    with pytest.raises(ValueError):
        Precision(digits=5)
    assert Precision(digits=40) == Precision() and hash(Precision(40)) == hash(Precision())
    assert Precision(30).guard == Precision.guard == 5
    with pytest.raises(AttributeError):
        Precision().digits = 50


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
    # an in-bound eval --zeta 24 splits into d[1^23], so every depth to 24
    target = digits + Precision.guard
    for depth in range(1, 25):
        M = _delta_cutoff(depth, target)
        tail = _chain_tail(depth, M)
        assert tail < mp.mpf(10) ** -target, (depth, M, mp.nstr(tail, 5))


def _bound_compositions(depth: int):
    """Compositions of one depth inside the eval bounds (weight <= 24): all
    ones, the whole spare weight on the first part (the largest 2^E) or on
    the last part, and a spread."""
    spare = 24 - depth
    out = {(1,) * depth, (1 + spare,) + (1,) * (depth - 1), (1,) * (depth - 1) + (1 + spare,)}
    out.add(tuple(1 + spare // depth + (i < spare % depth) for i in range(depth)))
    return sorted(out)


@pytest.mark.parametrize("digits", [10, 11, 40, 100, 299, 300, 1000, 1999, 2000])
def test_fixed_point_bits_cover_the_rounding_loss(digits):
    # (M + 1)(2k + 1) * 2^-(P+1) < 2^-E * 10^-(digits+guard) in integers, with
    # 2^-E = 2^-k / prod (k+1-i)^s_i the first chain's term.  A batch sums
    # every value at the cutoff and working precision of its largest depth
    # K, so each depth k is checked under every K from k to 24; the batch's
    # P is at least the composition's own, which is what is checked here
    prec = Precision(digits)
    for big in range(1, 25):
        M = _delta_cutoff(big, digits + prec.guard)
        dps = _working_dps(prec, M * big)
        for depth in range(1, big + 1):
            for comp in _bound_compositions(depth):
                first_chain = 2 ** depth * math.prod((depth - i) ** s for i, s in enumerate(comp))
                P = _fixed_point_bits(comp, dps)
                loss = (M + 1) * (2 * depth + 1)
                assert loss * first_chain * 10 ** (digits + prec.guard) < 2 ** (P + 1), (comp, big, P)


@pytest.mark.parametrize("digits,max_weight", [(50, 8), (300, 8), (2000, 6)])
def test_delta_matches_mpf_oracle_at_every_composition(digits, max_weight):
    # the whole table as one batch, which shares every suffix, and each
    # composition alone
    prec = Precision(digits)
    oracle = delta_mpf_table(max_weight, prec)
    assert len(oracle) == 2 ** max_weight - 1
    batch = numeric._sum_deltas(oracle, prec)
    assert batch.keys() == oracle.keys()
    for comp, want in oracle.items():
        for value in (batch[comp], numeric._sum_deltas([comp], prec)[comp]):
            got = numeric._mpf(value)
            assert mp.nstr(got, digits) == mp.nstr(want, digits), comp
            with mp.workdps(digits + 40):
                assert abs(got - want) < mp.mpf(10) ** -(digits + prec.guard), comp


def _in_bound_sample(rng, count: int, admissible: bool):
    """Random compositions with at most 12 parts and weight at most 24."""
    out = []
    while len(out) < count:
        depth = rng.randint(1, 12)
        weight = rng.randint(depth + admissible, 24)
        cuts = sorted(rng.sample(range(1, weight), depth - 1))
        comp = tuple(b - a for a, b in zip([0] + cuts, cuts + [weight]))
        if not admissible or comp[0] >= 2:
            out.append(comp)
    return out


@pytest.mark.parametrize("digits,count", [(10, 12), (40, 8), (300, 2)])
def test_eval_delta_and_zeta_match_mpf_oracle_on_a_seeded_sample(digits, count):
    prec = Precision(digits)
    rng = random.Random(1200 + digits)
    for comp in _in_bound_sample(rng, count, admissible=False):
        got, want = eval_delta(comp, prec), delta_mpf(comp, prec)
        assert mp.nstr(got, digits) == mp.nstr(want, digits), comp
    # the integer split against the former mpf split over mpf-kernel values
    for comp in _in_bound_sample(rng, count, admissible=True):
        want = zeta_split_mpf(comp, prec, lambda c: delta_mpf(c, prec))
        assert mp.nstr(eval_zeta(comp, prec), digits) == mp.nstr(want, digits), comp


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


def test_eval_zeta_matches_the_hoelder_convolution_at_a_third():
    # the convolution at x = 1/3 (and 2/3) reads no value at one half, so
    # unlike every other multiple zeta check past weight 5 it owes nothing
    # to the midpoint split
    prec = Precision(digits=60)
    comps = [c for w in range(2, 8) for c in compositions_of_weight(w) if c[0] >= 2]
    assert len(comps) == 63
    for comp in comps:
        got = eval_zeta(comp, prec)
        for x in (Fraction(1, 3), Fraction(2, 3)):
            assert close_enough(got, holder_zeta(comp, 60, x), 60), (comp, x)


def test_comparison_rows_vanish_with_z_from_the_hoelder_convolution():
    # z by the convolution at 1/3, d by the mpf nested sum and c = ln 2: no
    # value here comes from the midpoint split, so a row that vanishes shows
    # the paper's relation itself, not only the shuffle rows behind the split
    rows = comparison_relations(7)
    gens = {g for r in rows for m in r.expr.nums for g, _ in m.factors}
    assert (len(rows), len(gens)) == (237, 184)
    prec = Precision(digits=40)
    with mp.workdps(60):
        values = {g: holder_zeta(g.parts, 40, Fraction(1, 3)) if g.kind == "zeta"
                  else delta_mpf(g.parts, prec) if g.kind == "delta" else mp.log(2)
                  for g in gens}
        for r in rows:
            total = mp.fsum(n * mp.fprod(values[g] ** e for g, e in m.factors)
                            for m, n in r.expr.nums.items())
            assert abs(total / r.expr.den) < mp.mpf(10) ** -35, r.provenance


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


def test_one_value_cache_keyed_by_generator():
    # a precision no other test uses, so every entry below is new here
    prec = Precision(digits=37)
    entries = lambda: {key for key in numeric._VALUES if key[1] == prec}
    eval_symexpr(SymExpr.gen(LOG2), prec)
    before = entries()
    eval_delta([1], prec)
    assert entries() == before == {(delta((1,)), prec)}  # c is d[1]: one entry serves both
    eval_delta([3, 1], prec)
    eval_delta((3, 1), prec)
    assert entries() == before | {(delta((3, 1)), prec)}
    with pytest.raises(NotAdmissibleError):
        eval_zeta((1, 2), prec)
    with pytest.raises(ValueError):
        eval_delta((2, 0), prec)
    assert entries() == before | {(delta((3, 1)), prec)}


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
            b = eval_zeta(word_composition(dual_word(zeta_word(comp))), prec)
            assert close_enough(a, b, 40), comp


def test_eval_symexpr_zero_and_composite():
    prec = Precision(digits=40)
    assert eval_symexpr(SymExpr.zero(), prec) == 0
    euler = (SymExpr.gen(zeta((2,))) - SymExpr.gen(delta((2,)), coeff=2)
             - SymExpr.gen(LOG2, exp=2))
    assert close_enough(eval_symexpr(euler, prec), 0, 38)


def exact(x) -> Fraction:
    """The exact value of a nonnegative mpf."""
    man, exp = x.man_exp
    return man * Fraction(2) ** exp


def test_verify_relation_thresholds():
    prec = Precision(digits=40)
    rel = comparison_relations(2)[0]
    res = verify_relation(rel, prec)
    assert isinstance(res, VerifyResult)
    assert res.ok and exact(abs(res.residual)) < Fraction(1, 10**35)

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


def test_value_cache_stability(monkeypatch):
    prec = Precision(digits=30)
    a = eval_delta((3, 1), prec)

    def no_pass(comps, p):
        raise AssertionError("a cached value ran a pass")

    monkeypatch.setattr(numeric, "_sum_deltas", no_pass)
    assert eval_delta((3, 1), prec) == a  # read from the cache


# -- fixed-point rows against the mpf oracle ------------------------------------


def _abs_row(e: SymExpr) -> SymExpr:
    return SymExpr.from_ints(e.den, {m: abs(n) for m, n in e.nums.items()})


@pytest.mark.parametrize(
    "order,digits",
    [(5, 40), (6, 40), (7, 40), (8, 40), (5, 300), (6, 300), (7, 300), (8, 300), (5, 2000)],
)
def test_fixed_point_rows_match_the_mpf_oracle(order, digits):
    # every row verify certifies: the same verdict as the former mpf path,
    # the same verdict from its own mpf residual, and a value within
    # 10^-(digits+guard) * (1 + sum |n| / den) of its sum
    prec = Precision(digits)
    threshold = Fraction(1, 10 ** (digits - 5))
    rows = comparison_relations(order) + aux_relations(AUX_NAMES, order)
    for r in rows:
        e = r.expr
        res = verify_relation(r, prec)
        want = eval_symexpr_mpf(e, prec)
        got = eval_symexpr(e, prec)
        assert res.ok == (exact(abs(want)) < threshold), r.provenance.label()
        assert res.ok == (exact(res.residual) < threshold), r.provenance.label()
        with mp.workdps(digits + 40):
            assert res.residual == abs(got)
            weight = 1 + mp.mpf(sum(abs(n) for n in e.nums.values())) / e.den
            bound = mp.mpf(10) ** -(digits + prec.guard) * weight
            assert abs(got - want) <= bound, r.provenance.label()


# generator values between 0.09 and 1.7, so a monomial of two factors with
# exponents up to 7 stays above 10^-15; fixed point is absolute, and that
# floor keeps its error relative to each term's size
ROW_GENERATORS = [LOG2, delta((2,)), delta((1, 1)), delta((2, 1)), delta((1, 2)),
                  zeta((2,)), zeta((3,)), zeta((2, 1)), zeta((3, 1))]
row_monomials = st.lists(
    st.tuples(st.sampled_from(ROW_GENERATORS), st.integers(1, 7)), max_size=2
).map(lambda fs: SymMonomial(tuple(fs)))
random_rows = st.builds(
    SymExpr.from_ints,
    st.integers(1, 2**100),
    st.dictionaries(row_monomials, st.integers(-(2**200), 2**200).filter(bool), max_size=6),
)


@given(random_rows, st.sampled_from([10, 40, 300]))
def test_random_row_matches_the_mpf_oracle(e, digits):
    prec = Precision(digits)
    got = eval_symexpr(e, prec)
    want = eval_symexpr_mpf(e, prec)
    with mp.workdps(digits + 80):
        size = eval_symexpr_mpf(_abs_row(e), prec)  # sum of |n| V(m) / den
        assert abs(got - want) <= mp.mpf(10) ** -digits * size
        # the integer sum negates exactly
        assert eval_symexpr(-e, prec) == -got


def test_unit_monomial_is_the_exact_scale():
    prec = Precision(40)
    assert numeric._fixed(UNIT_MONOMIAL, prec) == 1 << _scale_bits(prec)
    with mp.workprec(_scale_bits(prec)):
        assert eval_symexpr(SymExpr.rational(Fraction(-3, 7)), prec) == mp.mpf(-3) / 7
    # the floors of B bits stay below the requested and guard digits
    assert 2 ** (_scale_bits(prec) - GUARD_BITS) >= 10 ** (prec.digits + prec.guard)


@pytest.mark.parametrize("digits", [10, 20, 40, 300, 2000])
def test_verdict_threshold_is_exact(digits):
    # |residual| < 10^-(digits-5) passes: the threshold itself fails, one
    # part in 10^(digits-5) below it passes, for either sign; the integer
    # sum is the row's exact value, and the mpf residual that value rounded
    # once to B bits
    prec = Precision(digits)
    at = 10 ** (digits - 5)
    threshold = Fraction(1, at)
    for sign in (1, -1):
        for den, ok in ((at, False), (at + 1, True)):
            res = verify_relation(SymExpr.rational(Fraction(sign, den)), prec)
            value = Fraction(abs(res.total), res.scale)
            assert value == Fraction(1, den) and res.ok == ok == (value < threshold)
            with mp.workprec(_scale_bits(prec)):
                assert res.residual == mp.mpf(1) / den


# -- integer values: relative precision and the midpoint split's bound --------


@pytest.mark.parametrize("digits", [40, 300])
@pytest.mark.parametrize("comp", [(13,) + (1,) * 11, (11,) + (1,) * 9], ids=["13-1x11", "11-1x9"])
def test_tiny_delta_values_keep_their_relative_precision(digits, comp):
    # d[13,1^11] ~ 2.2e-25 is the smallest in-bound delta value; a cache at
    # the row scale 2^B would hold it to about 10^-(digits+guard-20) only
    prec = Precision(digits)
    got, want = eval_delta(comp, prec), delta_mpf(comp, prec)
    with mp.workdps(digits + 60):
        assert want < mp.mpf(10) ** -19
        assert abs(got - want) < want * mp.mpf(10) ** -(digits + prec.guard)


def _dyadic_fraction(v) -> Fraction:
    n, e = v
    return Fraction(n, 1 << e)


@pytest.mark.parametrize("digits", [40, 300])
def test_integer_split_is_low_by_less_than_its_bound(digits):
    # the bound of numeric._value: the split's floors lose less than L + 1
    # units of 2^-Z against its products of cached values, and the split is
    # low, never high, by less than (L + 1)(2^-Z + 4*10^-(digits+guard))
    prec = Precision(digits)
    table = delta_mpf_table(8, prec)
    closed = closed_zeta_table(digits)
    for weight in range(2, 9):
        for comp in compositions_of_weight(weight):
            if comp[0] < 2:
                continue
            n, Z = numeric._value(zeta(comp), prec)
            halves = [[numeric._value(delta(c), prec) if c else (1, 0) for c in pair]
                      for pair in numeric._split(comp)]
            exact = sum(_dyadic_fraction(u) * _dyadic_fraction(v) for u, v in halves)
            assert 0 <= exact * 2**Z - n < weight + 1, comp
            got = numeric._mpf((n, Z))
            with mp.workdps(digits + 40):
                # the scale keeps GUARD_BITS below the requested and guard digits
                unit = mp.mpf(2) ** -Z
                assert unit < mp.mpf(10) ** -(digits + prec.guard) * mp.mpf(2) ** -GUARD_BITS
                bound = (weight + 1) * (unit + 4 * mp.mpf(10) ** -(digits + prec.guard))
                # the former mpf split, over mpf-kernel values, sits within
                # the same bound of the true value
                want = zeta_split_mpf(comp, prec, table.__getitem__)
                assert abs(got - want) < 2 * bound, comp
                if comp in closed:  # exact to 10^-(digits+10), up to rounding
                    low = closed[comp] - got
                    assert -mp.mpf(10) ** -(digits + 8) < low < bound, comp


def test_integer_split_of_zeta_two_at_2000_digits():
    prec = Precision(2000)
    n, Z = numeric._value(zeta((2,)), prec)
    with mp.workdps(2060):
        low = mp.pi ** 2 / 6 - numeric._mpf((n, Z))
        bound = 3 * (mp.mpf(2) ** -Z + 4 * mp.mpf(10) ** -(2000 + prec.guard))
        assert -mp.mpf(10) ** -2050 < low < bound


# -- residual text from the integer sum ---------------------------------------


def _nstr_of_quotient(num: int, scale: int) -> str:
    # mp.nstr(x, 8) of the exact quotient, built with 64 bits to spare
    with mp.workprec(max(num.bit_length(), scale.bit_length()) + 64):
        return mp.nstr(mp.mpf(num) / scale, 8)


@st.composite
def residual_quotients(draw):
    """A row sum and its scale den*2^B, at one of the CLI's precisions, for
    quotients from below 2^-B up to about 10^9."""
    digits = draw(st.sampled_from([10, 40, 300, 2000]))
    scale = draw(st.integers(1, 2**100)) << _scale_bits(Precision(digits))
    bits = draw(st.integers(0, scale.bit_length() + 30))
    return draw(st.integers(0, 2**bits)), scale


@given(residual_quotients())
def test_residual_text_is_nstr_of_the_quotient(quotient):
    num, scale = quotient
    assert residual_text(num, scale) == _nstr_of_quotient(num, scale)


@pytest.mark.parametrize("digits", [10, 40, 300, 2000])
@pytest.mark.parametrize("value", [
    "0", "0.25", "1", "2.5", "12345678.4", "99999999.49", "99999999.51", "123456789", "1e9",
    # the edges of fixed notation at 10^-5 and 10^8
    "0.000099999999", "0.0000999999996", "0.0000099999999951", "0.0000099999999949", "0.00001",
    # rounding carries into a new leading digit; each value sits at least
    # 10^-12 of itself from a tie, outside the 46 bits nstr truncates to
    "0.999999995001", "9.999999951e-20", "9.999999949e-20", "9.999999951e-300",
    "4.80992285e-314", "1.000000049e-1000", "9.99999995001e-1500",
])
def test_residual_text_at_the_edges(digits, value):
    scale = 3 << _scale_bits(Precision(digits))
    num = math.floor(Fraction(value) * scale)
    assert residual_text(num, scale) == _nstr_of_quotient(num, scale)
    if digits == 40 and value in ("0", "0.25"):
        assert residual_text(num, scale) == {"0": "0.0", "0.25": "0.25"}[value]


@pytest.mark.parametrize("num, den, text", [
    # exact ties round up, also where half-even would keep the even digit 8;
    # nstr cannot judge these, as it truncates to 46 bits before it rounds
    (123456785, 10**9, "0.12345679"),
    (123456785, 10**20, "1.2345679e-12"),
    (246913570, 20, "12345679.0"),
    # an exact tie that carries into a new leading digit
    (999999995, 10**9, "1.0"),
])
def test_residual_text_rounds_exact_ties_up(num, den, text):
    assert residual_text(num, den) == text
