"""Property tests: the coefficient ring, the series algebra, shuffles and
span membership (hypothesis)."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from assoclab.freealg import NCSeries, nc_div, nc_inverse, nc_mul, nc_unit
from assoclab.relations import (
    AUX_NAMES,
    KnownValue,
    Relation,
    Span,
    aux_relations,
    comparison_relations,
    shuffle,
)
from assoclab.symring import (
    LOG2,
    UNIT_MONOMIAL,
    SymExpr,
    SymMonomial,
    delta,
    monomial_product,
    primitive,
    render_each,
    sum_of_products,
    zeta,
)

from oracle_utils import (
    FractionSpan,
    StepNormalisedSpan,
    expr_add_fraction,
    expr_sub_fraction,
    fraction_terms,
    nc_inverse_geometric,
    nc_mul_all_pairs,
    nc_word_sums,
    nc_word_sums_fraction,
    render_by_sort_key,
    sum_of_products_fraction,
    sum_of_terms_fraction,
)

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


# the denominators the series meet: 1/k! from exponentials, 2^a·3^b from
# the inverse and the ad-words, and small mixed ones
mixed_rationals = st.one_of(
    rationals,
    st.builds(lambda n, k: Fraction(n, factorial(k)), st.integers(-9, 9), st.integers(0, 8)),
    st.builds(
        lambda n, a, b: Fraction(n, 2**a * 3**b),
        st.integers(-9, 9), st.integers(0, 6), st.integers(0, 4),
    ),
)
mixed_exprs = st.dictionaries(monomials, mixed_rationals, max_size=4).map(SymExpr)


def assert_canonical(e: SymExpr):
    # lowest terms over a positive den: == and hash read the fields, and
    # nc_div's unit check and extract_relations' dedupe rely on them
    assert type(e.den) is int and e.den >= 1
    assert gcd(e.den, *e.nums.values()) == 1
    assert all(type(n) is int and n for n in e.nums.values())
    assert e or (e.den, e.nums) == (1, {})


@given(st.lists(st.tuples(mixed_exprs, mixed_exprs), max_size=4), mixed_rationals.filter(bool))
def test_integer_product_loop_matches_the_fraction_loop(pairs, q):
    first = pairs[:1]
    cases = [
        pairs,
        [],
        pairs + [(SymExpr.zero(), b) for _, b in first],
        pairs + [(-a, b) for a, b in first],  # the first pair cancels out
        pairs + [(a, -b) for a, b in pairs],  # everything cancels out
    ]
    for case in cases:
        got, want = sum_of_products(case), sum_of_products_fraction(case)
        # the Fraction loop's terms; the kernel's term order is not kept, as
        # rendering sorts and integer sums ignore it
        assert dict(fraction_terms(got)) == dict(fraction_terms(want))
        assert all(type(c) is Fraction for _, c in fraction_terms(got))
        assert_canonical(got)
    assert not sum_of_products(cases[-1])
    for a, b in first:
        tripled = SymExpr.from_ints(3 * b.den, {m: 3 * n for m, n in b.nums.items()})
        results = [a, b, tripled, a + b, a - b, a * b, -a, a - a,
                   a.scale(0), a.scale(-3), a.scale(q), a.scale(q).scale(1 / q)]
        if a:
            lead = a.leading_monomial()
            results.append(a.monic())
            assert a.monic() == a.scale(1 / dict(fraction_terms(a))[lead])
            assert dict(fraction_terms(a.monic()))[lead] == 1
        for e in results:
            assert_canonical(e)
        # one value reached by different routes is one canonical form
        for x, y in (((a + b) - b, a), (a.scale(q).scale(1 / q), a), (tripled, b)):
            assert x == y and hash(x) == hash(y)


@given(st.dictionaries(monomials, st.integers(-(2**40), 2**40).filter(bool), min_size=1, max_size=5),
       st.integers(1, 2**20), st.sampled_from((1, -1)), st.integers(1, 2**40))
def test_one_primitive_row_for_monic_expressions_and_span_pivots(row, k, sign, den):
    nums = {m: k * n for m, n in row.items()}  # a content of k or more
    content = gcd(*nums.values())
    got = primitive(nums, sign)
    assert gcd(*got.values()) == 1
    assert all(sign * content * got[m] == n for m, n in nums.items()) and got.keys() == nums.keys()
    assert primitive(got) is got
    e = SymExpr.from_ints(den, nums)
    lead = e.nums[e.leading_monomial()]
    # the former monic: negate the whole expression for a negative lead
    assert e.monic() == SymExpr.from_ints(abs(lead), (e if lead > 0 else -e).nums)
    assert e.monic().monic() == e.monic()


scalars = st.integers(-4, 4)


@given(mixed_exprs, mixed_exprs)
def test_binary_sums_match_the_fraction_dict(a, b):
    # a binary sum keeps a's terms, then b's new ones: the Fraction dict's order
    for got, want in ((a + b, expr_add_fraction(a, b)), (a - b, expr_sub_fraction(a, b))):
        assert fraction_terms(got) == fraction_terms(want)
    assert not a - a and not a + (-a)


@given(st.lists(st.tuples(mixed_exprs, scalars), max_size=5), mixed_exprs, mixed_exprs)
def test_scalar_pairs_match_the_fraction_sums(pairs, a, b):
    first = pairs[:1]
    cases = [
        pairs,
        pairs + [(e, 0) for e, _ in pairs],  # zero scalars add nothing
        pairs + [(e, -q) for e, q in pairs],  # everything cancels out
        # the first pair cancels out, then comes back
        pairs + [(e, -q) for e, q in first] + first,
        pairs + [(a, b), (a, -6)],  # products and scalars mixed
    ]
    for case in cases:
        got = sum_of_products(case)
        # equal as expressions: term order is not compared
        assert got == sum_of_terms_fraction(case)
        assert all(type(q) is Fraction for _, q in fraction_terms(got))
    assert not sum_of_products(cases[2])
    # a rational multiple is a.scale(q); the loop takes int scalars only
    with pytest.raises(TypeError):
        sum_of_products(pairs + [(a, Fraction(-1, 6))])


word_counts = st.dictionaries(
    st.lists(st.sampled_from("AB"), max_size=3).map("".join), st.integers(-3, 3), max_size=4
)


@given(st.lists(st.tuples(mixed_exprs, word_counts), max_size=5))
def test_word_sums_match_the_fraction_loop(terms):
    negated = [(c, {w: -k for w, k in words.items()}) for c, words in terms]
    cases = [
        terms,
        terms + negated,  # every word but the unit cancels out
        terms + negated[:1] + terms[:1],  # the first term cancels, then comes back
    ]
    for case in cases:
        assert nc_word_sums(3, case) == nc_word_sums_fraction(3, case)
    assert nc_word_sums(3, cases[1]) == nc_unit(3)


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
    assert monomial_product(m1, m2) == monomial_product(m2, m1)
    assert hash(monomial_product(m1, m2)) == hash(monomial_product(m2, m1))
    assert monomial_product(m1, m2).weight == m1.weight + m2.weight


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


@st.composite
def printed_exprs(draw):
    """An expression over one denominator in 1..720: numerators that are
    multiples of it (coefficients +-1 and integers) and any others, the
    unit monomial alone or beside named ones, and zero."""
    den = draw(st.integers(1, 720))
    numerators = st.one_of(
        st.integers(-3 * den, 3 * den),
        st.builds(lambda k: k * den, st.sampled_from((-2, -1, 1, 2))),
    )
    terms = draw(st.dictionaries(st.just(UNIT_MONOMIAL) | monomials, numerators, max_size=5))
    return SymExpr({m: Fraction(n, den) for m, n in terms.items()})


@given(st.lists(printed_exprs(), max_size=6),
       st.sampled_from([("text",), ("latex",), ("text", "latex"), ("latex", "text")]))
def test_printer_matches_the_sort_key_printer(batch, styles):
    # a batch mixes denominators, so one head table may serve only one
    printed = [dict(zip(("text", "latex"), render_by_sort_key(e))) for e in batch]
    want = [tuple(p[style] for style in styles) for p in printed]
    assert list(render_each(batch, styles)) == want
    assert [next(render_each((e,), styles)) for e in batch] == want


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


@settings(max_examples=60)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(_series(n), _series(n, unit=True))))
def test_nc_div_is_the_right_quotient(pair):
    a, s = pair
    x = nc_div(a, s)
    assert nc_mul(x, s) == a
    assert x == nc_mul_all_pairs(a, nc_inverse_geometric(s))


# -- shuffles and span membership --------------------------------------------

letters = st.lists(st.integers(0, 3), max_size=5).map(tuple)


def _is_subsequence(a, w) -> bool:
    rest = iter(w)
    return all(x in rest for x in a)


@given(letters, letters)
def test_shuffle_count_is_binomial_and_keeps_both_words(u, v):
    sh = shuffle(u, v)
    assert sum(sh.values()) == comb(len(u) + len(v), len(u))
    for w in sh:
        assert len(w) == len(u) + len(v)
        assert _is_subsequence(u, w) and _is_subsequence(v, w)


BASE = aux_relations(AUX_NAMES, 4) + comparison_relations(4)


def _samples():
    c, z2, z4 = (SymExpr.gen(g) for g in (LOG2, zeta((2,)), zeta((4,))))
    low = [r.expr for r in BASE if r.weight == 2][:2]
    members = [r.expr for r in BASE[::3]]
    members += [a * b for a in low for b in low] + [a * c * c for a in low]
    members += [(r.expr * c).scale(Fraction(-3, 2)) for r in BASE if r.weight == 3][:3]
    # z2^2 and z4 are free at weight 4: the span misses 2z2^2 = 5z4
    outside = [z2 * z2, z4, c * c * z2, members[-1] + z4.scale(Fraction(1, 3))]
    return members + outside


SAMPLES = _samples()
IN_ORDER = Span(BASE)
MEMBERS = [IN_ORDER.contains(e) for e in SAMPLES]
NORMAL_FORMS = [IN_ORDER.reduce_expr(e)[0] for e in SAMPLES]


def test_span_samples_hold_members_and_non_members():
    assert any(MEMBERS) and not all(MEMBERS)


@given(st.permutations(BASE))
def test_span_membership_does_not_depend_on_row_order(base):
    span = Span(base)
    assert [span.contains(e) for e in SAMPLES] == MEMBERS
    # the slices are fully reduced, so the normal form is unique too
    assert [span.reduce_expr(e)[0] for e in SAMPLES] == NORMAL_FORMS


# -- one normalisation per swept row -------------------------------------------

def _weight_four_monomials():
    c, z2, d2 = LOG2, zeta((2,)), delta((2,))
    return [SymMonomial(f) for f in (
        ((c, 4),), ((c, 2), (z2, 1)), ((c, 2), (d2, 1)), ((z2, 2),), ((z2, 1), (d2, 1)),
        ((d2, 2),), ((c, 1), (zeta((3,)), 1)), ((c, 1), (delta((3,)), 1)),
        ((c, 1), (delta((2, 1)), 1)), ((zeta((4,)), 1),), ((delta((4,)), 1),),
        ((zeta((3, 1)), 1),), ((delta((1, 1, 2)), 1),),
    )]


# the coordinates of one slice; a drawn base often leaves some generators
# out, and a query's terms in them pass through reduce_expr unchanged
SLICE_MONOMIALS = _weight_four_monomials()
big = st.integers(-(2**40), 2**40).filter(bool)
sparse_rows = st.dictionaries(st.integers(0, len(SLICE_MONOMIALS) - 1), big, min_size=1, max_size=6)


@st.composite
def integer_slices(draw):
    """Sparse integer rows with shared content factors, scaled duplicates
    and combinations of earlier rows, in a drawn order."""
    factor = st.integers(-(2**20), 2**20).filter(bool)
    drawn = draw(st.lists(st.tuples(sparse_rows, factor), min_size=1, max_size=8))
    rows = [{k: v * f for k, v in r.items()} for r, f in drawn]
    picks = st.lists(st.tuples(st.sampled_from(rows), st.sampled_from(rows), factor, factor), max_size=4)
    for r1, r2, f1, f2 in draw(picks):
        rows.append({k: f1 * v for k, v in r1.items()})  # a duplicate up to scale
        combo = {k: f1 * r1.get(k, 0) - f2 * r2.get(k, 0) for k in r1.keys() | r2.keys()}
        rows.append({k: v for k, v in combo.items() if v})  # lies in the span of earlier rows
    return draw(st.permutations([r for r in rows if r]))


def _pivots(st_):
    return {lead: (p.vec, p.cert, p.origin) for lead, p in st_.items()}


@settings(max_examples=60)
@given(integer_slices(), st.lists(st.tuples(sparse_rows, st.integers(1, 2**70)), max_size=4))
def test_one_normalisation_per_row_matches_the_per_step_sweep(rows, queries):
    got, want = Span([])._slice(4), StepNormalisedSpan([])._slice(4)
    for i, r in enumerate(rows):
        row = {SLICE_MONOMIALS[k]: v for k, v in r.items()}
        Span([])._insert(got, dict(row), 1 << i, i)
        StepNormalisedSpan([])._insert(want, row, 1 << i, i)
    assert _pivots(got) == _pivots(want)
    base = [Relation(SymExpr.from_ints(1, {SLICE_MONOMIALS[k]: v for k, v in r.items()}),
                     KnownValue("r%d" % i)) for i, r in enumerate(rows)]
    span, oracle = Span(base), StepNormalisedSpan(base)
    assert _pivots(span._slice(4)) == _pivots(oracle._slice(4))
    for r, den in queries + [(r, 3) for r in rows[:2]]:
        e = SymExpr.from_ints(den, {SLICE_MONOMIALS[k]: v for k, v in r.items()})
        assert span.reduce_expr(e) == oracle.reduce_expr(e)


@settings(max_examples=60)
@given(integer_slices())
def test_back_substitution_matches_the_rational_span(rows):
    # a new pivot is back-substituted only into the stored pivots whose
    # leads sort above its own; the rational oracle scans every pivot
    base = [Relation(SymExpr.from_ints(1, {SLICE_MONOMIALS[k]: v for k, v in r.items()}),
                     KnownValue("r%d" % i)) for i, r in enumerate(rows)]
    span, oracle = Span(base), FractionSpan(base)
    got, want = span._slice(4), oracle._slice(4)
    assert got.keys() == want.keys()
    for lead, piv in got.items():
        assert {m: Fraction(v, piv.vec[lead]) for m, v in piv.vec.items()} == want[lead].vec
        assert piv.origin == want[lead].origin
        assert span._provenances(piv.cert) == frozenset(want[lead].cert)
    leads = sorted(got, key=SymMonomial.sort_key)
    assert got.sort_keys == [m.sort_key() for m in leads]
    assert got.pivots == [got[m] for m in leads]
