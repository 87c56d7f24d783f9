"""Relation extraction, generated relation families, and exact reduction."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import comb, gcd

import pytest

from assoclab.freealg import OrderMismatchError
from assoclab.delta_side import phi_delta
from assoclab.mzv_side import phi_mzv
from assoclab.numeric import Precision, verify_relation
from assoclab.relations import (
    AUX_NAMES,
    Comparison,
    Duality,
    KnownValue,
    Relation,
    Shuffle,
    Span,
    aux_relations,
    comparison_relations,
    duality_relations,
    extract_relations,
    known_values,
    reduce,
    relations_json,
    shuffle,
    shuffle_relations,
)
from assoclab.symring import (
    LOG2,
    NotHomogeneousError,
    SymExpr,
    SymMonomial,
    delta,
    sum_of_products,
    zeta,
)

from oracle_utils import (
    FractionSpan,
    duality_rows_pairs,
    fraction_reduce,
    iint_to_zeta,
    monomial_tuples_brute,
    shuffle_brute,
    shuffle_rows_fraction,
)

C = SymExpr.gen(LOG2)


def z(*parts):
    return SymExpr.gen(zeta(parts))


def d(*parts):
    return SymExpr.gen(delta(parts))


def normal(e: SymExpr) -> SymExpr:
    return Relation(e, None).expr


def exprs(rels):
    return {r.expr for r in rels}


def is_monic(e: SymExpr) -> bool:
    return e.nums[e.leading_monomial()] == e.den


# -- shuffle product ---------------------------------------------------------


def test_shuffle_counter_matches_brute_force():
    rng = random.Random(8)
    for _ in range(60):
        u = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 4)))
        got = shuffle(u, v)
        assert got == shuffle_brute(u, v)
        assert sum(got.values()) == comb(len(u) + len(v), len(u))


def test_shuffle_base_cases():
    assert shuffle((), (1, 2)) == Counter({(1, 2): 1})
    assert shuffle((1,), (1,)) == Counter({(1, 1): 2})


def test_changing_a_shuffle_result_leaves_the_next_call_intact():
    # the recursion is memoised; each call hands out a fresh Counter
    first = shuffle((1, 2), (0,))
    want = Counter(first)
    first[(1, 2, 0)] += 5
    first[(7,)] = 1
    del first[(0, 1, 2)]
    assert shuffle((1, 2), (0,)) == want == shuffle_brute((1, 2), (0,))
    assert shuffle([1, 2], [0]) is not shuffle((1, 2), (0,))


# -- kernel lifts ------------------------------------------------------------


def test_iint_to_zeta_values():
    assert iint_to_zeta((1,)) == z(2)
    assert iint_to_zeta((2,)) == z(3)
    assert iint_to_zeta((1, 1)) == z(2, 2) + z(3, 1).scale(2)
    assert iint_to_zeta((1, 2)) == z(3, 2) + z(4, 1).scale(3)
    assert iint_to_zeta((2, 1)) == z(2, 3) + z(3, 2).scale(2) + z(4, 1).scale(3)


def test_iint_to_zeta_rejects_zero_levels():
    with pytest.raises(ValueError):
        iint_to_zeta((0, 1))


# -- generated families ------------------------------------------------------


def test_shuffle_relations_contains_textbook_rows():
    rels4 = exprs(shuffle_relations(4))
    assert normal(C * d(2) - d(2, 1).scale(2) - d(1, 2)) in rels4
    assert normal(d(2) * d(2) - d(3, 1).scale(4) - d(2, 2).scale(2)) in rels4
    assert normal(z(2) * z(2) - z(3, 1).scale(4) - z(2, 2).scale(2)) in rels4

    rels5 = exprs(shuffle_relations(5))
    assert normal(d(2) * d(3) - d(4, 1).scale(6) - d(3, 2).scale(3) - d(2, 3)) in rels5
    assert normal(z(2) * z(3) - z(4, 1).scale(6) - z(3, 2).scale(3) - z(2, 3)) in rels5
    assert normal(C * d(3, 1) - d(3, 1, 1).scale(3) - d(2, 2, 1) - d(1, 3, 1)) in rels5
    assert normal(
        d(2) * d(2, 1) - d(3, 1, 1).scale(6) - d(2, 2, 1).scale(3) - d(2, 1, 2)
    ) in rels5
    assert normal(C * d(4) - d(1, 4) - d(2, 3) - d(3, 2) - d(4, 1).scale(2)) in rels5


def test_shuffle_span_contains_combined_depth_three_rows():
    # these mix two kernel pairs, so they live in the span rather than the
    # generated list; the factor 2 on d[2,1,2] in the first is essential
    span = Span(shuffle_relations(5))
    assert span.contains(
        C * d(2, 2) - d(1, 2, 2) - d(2, 2, 1).scale(2) - d(2, 1, 2).scale(2)
    )
    assert span.contains(
        d(2) * d(1, 2) - d(1, 2, 2).scale(2) - d(2, 2, 1).scale(2)
        - d(1, 3, 1).scale(4) - d(2, 1, 2).scale(2)
    )
    # the halved variant printed alongside them is not a relation at all
    assert not span.contains(
        C * d(2, 2) - d(1, 2, 2) - d(2, 2, 1).scale(2) - d(2, 1, 2)
    )


def test_shuffle_relations_homogeneous_and_capped():
    for r in shuffle_relations(5):
        assert r.weight <= 5
        assert isinstance(r.provenance, Shuffle)
        assert r.provenance.kernel in ("delta", "zeta")
        assert is_monic(r.expr)


def test_shuffle_relations_zeta_twin_only_for_positive_words():
    for r in shuffle_relations(5):
        if r.provenance.kernel == "zeta":
            assert min(r.provenance.u) >= 1
            assert min(r.provenance.v) >= 1


@pytest.mark.parametrize("order", [7, 9])
def test_shuffle_rows_match_the_subtraction_loop(order):
    rows = shuffle_relations(order)
    want = shuffle_rows_fraction(order)
    assert len(rows) == len(want)
    for r, (expr, label, payload) in zip(rows, want):
        assert r.expr == expr
        assert r.provenance.label() == label
        # same keys in the same order
        assert list(r.provenance.to_json().items()) == list(payload.items())


def test_provenance_labels_and_json():
    cases = [
        (Comparison(3, "ABA"), "comparison[3:ABA]",
         {"kind": "comparison", "order": 3, "word": "ABA"}),
        (Shuffle("delta", (0, 1), (2,)), "shuffle[delta:0,1|2]",
         {"kind": "shuffle", "kernel": "delta", "u": [0, 1], "v": [2]}),
        (Duality((3, 1, 1)), "duality[3,1,1]", {"kind": "duality", "composition": [3, 1, 1]}),
        (KnownValue("zeta_4_1"), "known[zeta_4_1]", {"kind": "known", "name": "zeta_4_1"}),
    ]
    for prov, label, payload in cases:
        assert prov.label() == label
        assert list(prov.to_json().items()) == list(payload.items())


def test_relations_json_reads_a_generator_once():
    want = list(relations_json(known_values()))
    assert len(want) == 11
    assert list(relations_json(r for r in known_values())) == want
    assert want == [r.to_json() for r in known_values()]


def test_provenances_are_immutable_and_equal_within_a_kind():
    a = Comparison(3, "ABA")
    assert a == Comparison(3, "ABA") and hash(a) == hash(Comparison(3, "ABA"))
    assert a != Comparison(3, "ABB") and not a != Comparison(3, "ABA")
    assert a != (3, "ABA") and KnownValue("x") != Duality("x")
    assert len({a, Comparison(3, "ABA"), KnownValue("x"), Duality("x")}) == 3
    with pytest.raises(AttributeError):
        a.word = "B"
    with pytest.raises(AttributeError):
        a.extra = 1


def test_shuffle_relations_deterministic():
    a = [r.to_json() for r in shuffle_relations(5)]
    b = [r.to_json() for r in shuffle_relations(5)]
    assert a == b


def test_duality_relations_examples():
    rels = exprs(duality_relations(4))
    assert normal(z(3) - z(2, 1)) in rels
    assert normal(z(4) - z(2, 1, 1)) in rels
    # self-dual compositions produce no row
    for r in duality_relations(5):
        assert r.expr  # nonzero by construction
        assert isinstance(r.provenance, Duality)
    leads = {r.expr.leading_monomial().render() for r in duality_relations(5)}
    assert "z[3,1]" not in leads and "z[2,2]" not in leads


@pytest.mark.parametrize("max_weight", range(3, 11))
def test_duality_relations_match_the_pair_oracle(max_weight):
    # the word reading (pq_word, dual_word) gives the former pair reading's
    # rows, in the same order
    got = [(r.provenance.composition, r.expr) for r in duality_relations(max_weight)]
    assert got == duality_rows_pairs(max_weight)


def test_duality_relations_all_true_numerically():
    prec = Precision(digits=40)
    for r in duality_relations(6):
        assert verify_relation(r, prec).ok, r.expr.render()


def test_aux_families_are_empty_below_their_first_weight():
    # no index word below weight 1, and the only weight-2 zeta word is self-dual
    for w in range(2):
        assert shuffle_relations(w) == []
    for w in range(3):
        assert duality_relations(w) == []


def test_known_values_table():
    rels = known_values()
    assert len(rels) == 11
    names = [r.provenance.name for r in rels]
    assert names == sorted(names) or len(set(names)) == 11  # unique labels
    prec = Precision(digits=50)
    for r in rels:
        assert isinstance(r.provenance, KnownValue)
        assert verify_relation(r, prec).ok, r.provenance.name
    leads = {r.expr.leading_monomial().render() for r in rels}
    assert "d[2]" in leads and "d[2,1]" in leads and "d[3,1]" in leads


def test_known_values_no_depth_one_delta_beyond_three():
    # the weight 4 and 5 single deltas have no closed form in this corpus
    for r in known_values():
        for m in r.expr.monomials():
            for g, _ in m.factors:
                if g.kind == "delta" and len(g.parts) == 1:
                    assert g.weight <= 3


# -- extraction --------------------------------------------------------------


def test_extract_requires_matching_orders():
    with pytest.raises(OrderMismatchError):
        extract_relations(phi_mzv(2), phi_delta(3))


def test_extract_identical_series_gives_nothing():
    phi = phi_delta(3)
    assert extract_relations(phi, phi) == []


def test_order_two_comparison_is_the_dilogarithm_relation():
    rels = comparison_relations(2)
    assert len(rels) == 1
    want = normal(z(2) - d(2).scale(2) - SymExpr.gen(LOG2, exp=2))
    assert rels[0].expr == want
    assert isinstance(rels[0].provenance, Comparison)
    assert rels[0].provenance.order == 2
    assert rels[0].weight == 2


def test_comparison_relations_homogeneous_weight_is_word_length():
    for r in comparison_relations(4):
        assert r.weight == len(r.provenance.word)
        assert is_monic(r.expr)


def test_comparison_relations_word_witness_order():
    words = [r.provenance.word for r in comparison_relations(3)]
    keys = [(len(w), w) for w in words]
    assert keys == sorted(keys)
    assert len(set(words)) == len(words)


def test_comparison_relations_all_true_numerically():
    prec = Precision(digits=40)
    for r in comparison_relations(4):
        assert verify_relation(r, prec).ok, r.provenance.label()


# -- Relation invariants -----------------------------------------------------


def test_relation_normalizes_to_monic():
    r = Relation(z(2).scale(Fraction(-3, 7)) + d(2).scale(Fraction(6, 7)), None)
    assert is_monic(r.expr)


def test_relation_rows_are_primitive_integer_rows():
    # a monic relation is stored as the row Span eliminates: primitive
    # numerators over den = the positive lead
    comp, aux = comparison_relations(6), aux_relations(AUX_NAMES, 6)
    for r in comp + aux + reduce(comp, aux):
        e = r.expr
        assert e.den > 0 and is_monic(e) and gcd(*e.nums.values()) == 1


def test_relation_rejects_zero_and_mixed_weight():
    with pytest.raises(ValueError):
        Relation(SymExpr.zero(), None)
    with pytest.raises(NotHomogeneousError):
        Relation(z(2) + z(3), None)


def test_relation_to_json_shape():
    r = comparison_relations(2)[0]
    payload = r.to_json()
    assert payload["provenance"]["kind"] == "comparison"
    assert payload["lhs"] == r.expr.render()
    assert "latex" in payload


# -- span and reduction ------------------------------------------------------


def test_span_reduce_expr_remainder_is_normal_form():
    span = Span(comparison_relations(3))
    rem, _ = span.reduce_expr(z(3) + d(2) * C)
    rem2, _ = span.reduce_expr(rem)
    assert rem2 == rem


def test_span_reduce_expr_boundary_cases():
    span = Span(comparison_relations(3))
    e = z(3) + d(2) * C
    rem, cert = span.reduce_expr(e)
    assert rem and cert
    assert span.contains(e - rem)
    # the remainder keeps the scale of the input, also a non-integer one
    for q in (Fraction(3, 7), Fraction(-5, 2), Fraction(1, 6)):
        assert span.reduce_expr(e.scale(q)) == (rem.scale(q), cert)
    # monomials in generators outside the base pass through unchanged
    euler_span = Span(comparison_relations(2))
    assert euler_span.reduce_expr(z(3)) == (z(3), frozenset())
    euler_times_c = (z(2) - d(2).scale(2) - SymExpr.gen(LOG2, exp=2)) * C
    rem, cert = euler_span.reduce_expr(z(3).scale(Fraction(2, 3)) + euler_times_c)
    assert rem == z(3).scale(Fraction(2, 3)) and cert
    # zero and weight-0 input
    assert span.reduce_expr(SymExpr.zero()) == (SymExpr.zero(), frozenset())
    third = SymExpr.rational(Fraction(1, 3))
    assert span.reduce_expr(third) == (third, frozenset())


@pytest.fixture(scope="module", params=[5, 6, 7])
def order_rows(request):
    order = request.param
    return comparison_relations(order), aux_relations(AUX_NAMES, order)


def test_reduce_matches_fraction_oracle(order_rows):
    comp, aux = order_rows
    got, want = reduce(comp, aux), fraction_reduce(comp, aux)
    assert [r.expr for r in got] == [r.expr for r in want]
    assert [r.provenance for r in got] == [r.provenance for r in want]
    assert [r.certificate for r in got] == [r.certificate for r in want]


def test_reduce_expr_matches_fraction_oracle(order_rows):
    comp, aux = order_rows
    for base in (aux, aux + comp):
        span, oracle = Span(base), FractionSpan(base)
        for r in comp:
            e = r.expr.scale(Fraction(-2, 3))
            assert span.reduce_expr(e) == oracle.reduce_expr(e), r.provenance.label()


def test_reduce_expr_keeps_a_huge_scale_positive():
    # the sweep scales the numerators by a positive D, which it returns and
    # never divides, and the remainder is read over den·D, so an input over
    # a den far beyond a machine word still comes back as the exact rational
    # remainder
    comp, aux = comparison_relations(5), aux_relations(AUX_NAMES, 5)
    rows = [r.expr.scale(k) for k, r in enumerate(comp, 1) if r.weight == 5]
    e = sum_of_products((row, 1) for row in rows).scale(Fraction(-7, 3**40))
    assert e.den > 2**60 and not is_monic(e)
    rem, cert = Span(aux).reduce_expr(e)
    assert rem and rem.den > 2**60
    assert (rem, cert) == FractionSpan(aux).reduce_expr(e)


def test_reduce_reports_no_aux_row_also_when_rels_repeat_it():
    rels = comparison_relations(4)
    assert reduce(rels, aux=rels) == []
    got = reduce(rels, aux=rels[:3])
    assert got
    assert not {r.provenance for r in got} & {r.provenance for r in rels[:3]}


@pytest.mark.parametrize("n_aux", [3, None], ids=["aux-prefix", "aux-all"])
def test_reduce_with_overlapping_aux_matches_fraction_oracle(n_aux):
    rels = comparison_relations(4)
    aux = rels[:n_aux]
    got, want = reduce(rels, aux), fraction_reduce(rels, aux)
    assert [(r.expr, r.provenance, r.certificate) for r in got] == [
        (r.expr, r.provenance, r.certificate) for r in want
    ]


def test_span_contains_euler_relation():
    span = Span(comparison_relations(2))
    assert span.contains(z(2) - d(2).scale(2) - SymExpr.gen(LOG2, exp=2))
    assert not span.contains(z(2) - d(2))


def test_span_monomials_match_brute_force_enumeration():
    span = Span(aux_relations(AUX_NAMES, 8) + comparison_relations(8))
    weights = [g.weight for g in span._gens]
    index = {g: i for i, g in enumerate(span._gens)}
    assert len(weights) > 300
    for w in range(1, 9):
        monomials = span._monomials(w)
        keys = [m.sort_key() for m in monomials]
        assert keys == sorted(set(keys))  # strictly ascending in the monomial order
        # each monomial as the descending tuple of its generators' indices
        tuples = [tuple(index[g] for g, e in reversed(m.factors) for _ in range(e)) for m in monomials]
        assert tuples == monomial_tuples_brute(weights, w)


def test_span_pivots_are_primitive_with_positive_lead():
    base = aux_relations(AUX_NAMES, 5) + comparison_relations(5)
    span = Span(base)
    for w in range(1, 6):
        for lead, piv in span._slice(w).items():
            assert lead == max(piv.vec, key=SymMonomial.sort_key) and piv.vec[lead] > 0
            assert gcd(*piv.vec.values()) == 1
            # a pivot inserted from a base row carries that row's bit
            assert piv.origin == -1 or piv.cert >> piv.origin & 1
    low, high = SymMonomial(((zeta((3,)), 1),)), SymMonomial(((delta((3,)), 1),))
    assert low.sort_key() < high.sort_key()
    st = Span([])._slice(3)
    span._insert(st, {low: 4, high: -6}, 1, 0)
    assert st[high].vec == {low: -2, high: 3}


def test_provenances_read_the_set_bits_of_a_certificate():
    base = aux_relations(AUX_NAMES, 5) + comparison_relations(5)
    span = Span(base)
    certs = [p.cert for w in range(1, 6) for p in span._slice(w).values()]
    for cert in certs + [0, 1, 1 << (len(base) - 1), (1 << len(base)) - 1]:
        want = frozenset(r.provenance for i, r in enumerate(base) if cert >> i & 1)
        assert span._provenances(cert) == want


@pytest.mark.parametrize("order", [5, 6, 7, 8])
def test_free_monomials_are_the_monomials_in_free_generators(order):
    # the span behaves as a polynomial algebra on its free generators: at
    # every weight, the monomials that lead no pivot are as many as the
    # monomials in the generators that lead no pivot of their own weight
    span = Span(aux_relations(AUX_NAMES, order) + comparison_relations(order))
    free_gens = [g for g in span._gens if SymMonomial(((g, 1),)) not in span._slice(g.weight)]
    # in_free[w]: the number of weight-w monomials in the free generators
    in_free = [1] + [0] * order
    for g in free_gens:
        for w in range(g.weight, order + 1):
            in_free[w] += in_free[w - g.weight]
    weights = range(1, order + 1)
    free = [sum(m not in span._slice(w) for m in span._monomials(w)) for w in weights]
    assert free == in_free[1:]
    if order == 8:
        assert free == [1, 2, 3, 6, 10, 23, 47, 96]
        assert [sum(g.weight == w for g in free_gens) for w in weights] == [1, 1, 1, 2, 3, 9, 18, 30]


def test_span_certificates_point_at_base_rows():
    base = comparison_relations(3)
    span = Span(base)
    provs = {r.provenance for r in base}
    _, used = span.reduce_expr(z(3) - z(2, 1))
    assert used
    assert used <= provs


def test_span_membership_needs_products_of_relations():
    # zeta_2 * euler is in the weight-4 slice even though no base row
    # has weight 4: the span is an ideal slice, not a plain linear span
    base = comparison_relations(2)
    span = Span(base)
    euler = z(2) - d(2).scale(2) - SymExpr.gen(LOG2, exp=2)
    assert span.contains(euler * z(2))
    assert span.contains(euler * euler)
    assert not span.contains(z(2) * z(2))


def test_reduce_idempotent_on_exprs():
    rels = comparison_relations(3)
    aux = shuffle_relations(3) + duality_relations(3)
    once = reduce(rels, aux=aux)
    twice = reduce(once, aux=aux)
    assert exprs(once) == exprs(twice)


def test_reduce_rows_sorted_and_monic():
    rows = reduce(comparison_relations(4))
    weights = [r.weight for r in rows]
    assert weights == sorted(weights)
    for r in rows:
        assert is_monic(r.expr)


def test_reduce_certificates_exclude_own_provenance():
    rows = reduce(comparison_relations(4),
                  aux=shuffle_relations(4) + duality_relations(4))
    for r in rows:
        if r.certificate is not None:
            # the certificate holds provenances; to_json renders their labels
            assert r.provenance not in r.certificate
            assert r.provenance.label() not in r.to_json()["certificate"]


def test_reduce_deterministic():
    def snapshot():
        rows = reduce(comparison_relations(4),
                      aux=shuffle_relations(4) + known_values())
        return [r.to_json() for r in rows]

    assert snapshot() == snapshot()


def test_reduced_rows_all_true_numerically():
    rows = reduce(comparison_relations(4),
                  aux=shuffle_relations(4) + duality_relations(4) + known_values())
    prec = Precision(digits=40)
    for r in rows:
        assert verify_relation(r, prec).ok, r.expr.render()


@pytest.mark.parametrize("order", [5, 6, 7])
def test_reduce_certificates_suffice(order):
    # each kept relation is derivable from the rows its certificate names
    # plus its own row, without the rest of the base
    rels = comparison_relations(order)
    aux = aux_relations(AUX_NAMES, order)
    kept = reduce(rels, aux)
    assert kept
    for r in kept:
        named = r.certificate | {r.provenance}
        assert Span([b for b in aux + rels if b.provenance in named]).contains(r.expr), r
