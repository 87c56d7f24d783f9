"""Exact coefficient ring: generators, monomials, expressions."""

from __future__ import annotations

import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

from assoclab import symring
from assoclab.delta_side import phi_delta
from assoclab.freealg import series_to_json
from assoclab.mzv_side import phi_mzv
from assoclab.relations import (
    AUX_NAMES,
    aux_relations,
    comparison_relations,
    reduce,
    relations_json,
)
from assoclab.symring import (
    LOG2,
    UNIT_MONOMIAL,
    Generator,
    NotAdmissibleError,
    NotHomogeneousError,
    SymExpr,
    SymMonomial,
    check_composition,
    compositions,
    delta,
    dual_word,
    monomial_product,
    render_each,
    sym_weight,
    word_composition,
    zeta,
    zeta_word,
)

from oracle_utils import (
    compositions_of_weight,
    fraction_terms,
    monomial,
    monomial_views,
    render_by_sort_key,
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


def test_compositions_equal_a_brute_force_list():
    # each of p positive parts summing to t is at most t - p + 1
    for t in range(1, 13):
        for p in range(1, t + 1):
            brute = [c for c in product(range(1, t - p + 2), repeat=p) if sum(c) == t]
            assert list(compositions(t, p)) == sorted(brute), (t, p)


def test_word_helpers_roundtrip():
    assert zeta_word((2, 1)) == "ABB"
    assert word_composition("ABB") == (2, 1)
    rng = random.Random(17)
    for _ in range(100):
        comp = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        w = zeta_word(comp)
        assert word_composition(w) == comp
        assert dual_word(dual_word(w)) == w
    # the former K0/K1 form, empty, no final B, a foreign letter
    for bad in ("011", "", "A", "BA", "ABA", "AxB"):
        with pytest.raises(ValueError):
            word_composition(bad)


def test_word_dual_examples():
    dual = lambda comp: word_composition(dual_word(zeta_word(comp)))
    assert dual((3,)) == (2, 1)
    assert dual((4,)) == (2, 1, 1)
    assert dual((5,)) == (2, 1, 1, 1)
    assert dual((2, 2)) == (2, 2)
    assert dual((3, 1)) == (3, 1)
    assert dual((4, 1)) == (3, 1, 1)
    assert dual_word("AABAB") == "ABABB"


def test_zeta_words_of_every_admissible_composition_through_weight_12():
    count = 0
    for weight in range(2, 13):
        for comp in compositions_of_weight(weight):
            if comp[0] < 2:
                continue
            count += 1
            word = zeta_word(comp)
            assert word_composition(word) == comp
            assert dual_word(dual_word(word)) == word
            dcomp = word_composition(dual_word(word))
            assert sum(dcomp) == len(word) == weight and dcomp[0] >= 2
    assert count == 2 ** 11 - 1


def test_zeta_requires_admissible_first_part():
    assert zeta([2, 1, 1]).parts == (2, 1, 1)
    with pytest.raises(NotAdmissibleError):
        zeta([1, 2])


def test_delta_allows_leading_one():
    g = delta([1, 2])
    assert g.parts == (1, 2)
    assert g.weight == 3


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
    assert zeta([2]).sort_key() < delta([2]).sort_key()
    key_z, key_c, key_d = zeta([2]).sort_key(), LOG2.sort_key(), delta([2]).sort_key()
    assert key_z[1] < key_c[1] < key_d[1]


def test_generator_order_depth_then_parts():
    assert zeta([4]).sort_key() < zeta([3, 1]).sort_key()
    assert zeta([2, 2]).sort_key() < zeta([3, 1]).sort_key()
    assert delta([1, 3]).sort_key() < delta([3, 1]).sort_key()
    assert delta([2, 1, 1]).sort_key() > delta([3, 1]).sort_key()


def test_monomial_canonical_merge():
    g = zeta([2])
    m1 = monomial((g, 1), (g, 1), (LOG2, 2))
    m2 = monomial((LOG2, 2), (g, 2))
    assert m1 == m2
    assert m1.weight == 6
    assert monomial().factors == ()


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
            assert monomial_product(a, m).sort_key() < monomial_product(b, m).sort_key()


def test_equal_products_from_different_pairs_are_one_object():
    a, b, c = monomial((zeta([2]), 1)), monomial((LOG2, 2)), monomial((delta([3, 1]), 1))
    ab_c = monomial_product(monomial_product(a, b), c)
    a_bc = monomial_product(a, monomial_product(b, c))
    ac_b = monomial_product(monomial_product(a, c), b)
    assert ab_c is a_bc is ac_b
    assert monomial_product(a, b) is monomial_product(b, a)
    assert monomial_product(monomial_product(a, a), b) is monomial_product(monomial((zeta([2]), 2)), b)


def test_products_are_built_one_way_and_read_from_one_table():
    rng = random.Random(5150)
    for _ in range(100):
        m1 = monomial(*[(_random_generator(rng), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))])
        m2 = monomial(*[(_random_generator(rng), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))])
        assert monomial_product(m1, m2) is SymMonomial(m1.factors + m2.factors)
        assert monomial_product(UNIT_MONOMIAL, m1) is m1 is monomial_product(m1, UNIT_MONOMIAL)
    assert not hasattr(monomial_product, "cache_info")  # no second cache
    phi_delta(6)
    reduce(comparison_relations(6), aux_relations(AUX_NAMES, 6))
    # every product the series and the reduction met sits in both factors'
    # rows, as monomials commute
    rows = [m1 for m1 in symring._MONOMIALS.values() if m1.products]
    assert len(rows) > 100
    for m1 in rows:
        for m2, m in m1.products.items():
            assert m is SymMonomial(m1.factors + m2.factors) is m2.products[m1]


def test_a_product_is_built_once_for_both_orders():
    # counted in a fresh interpreter, as monomials are interned for the whole
    # process: the order-9 series build 2,934 monomials (3,787 when only the
    # left factor's row kept a product) for 1,972 distinct new ones
    script = ("from assoclab import symring\n"
              "from assoclab.delta_side import phi_delta\n"
              "from assoclab.mzv_side import phi_mzv\n"
              "built, init = [], symring.SymMonomial.__post_init__\n"
              "symring.SymMonomial.__post_init__ = lambda m: built.append(1) or init(m)\n"
              "before = len(symring._MONOMIALS)\n"
              "phi_mzv(9), phi_delta(9)\n"
              "print(len(built), len(symring._MONOMIALS) - before)\n")
    src = os.path.dirname(os.path.dirname(symring.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600, check=True)
    assert proc.stdout.split() == ["2934", "1972"]


def test_equal_values_are_one_object():
    g = zeta([2])
    assert delta([2, 1]) is Generator("delta", (2, 1)) is Generator("delta", [2, 1])
    assert LOG2 is Generator("log2", None)
    m = monomial((g, 1), (LOG2, 2))
    assert monomial((LOG2, 2), (g, 1)) is m  # factor order
    assert monomial((LOG2, 1), (g, 1), (LOG2, 1)) is m  # repeated factors merged
    assert SymMonomial([(LOG2, 2), (g, 1)]) is m  # a list of factors
    assert SymMonomial(([LOG2, 2], [g, 1])) is m  # a tuple of unhashable pairs
    a, b = monomial((g, 1)), monomial((LOG2, 2))
    assert monomial_product(a, b) is monomial_product(b, a) is m
    assert m != monomial((g, 1), (LOG2, 1))


def test_cached_key_and_text_match_the_oracle():
    rng = random.Random(4242)
    for _ in range(150):
        fs1 = [(_random_generator(rng), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        fs2 = [(_random_generator(rng), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        m = monomial_product(monomial(*fs1), monomial(*fs2))
        cached = (m.sort_key(), m.render(), m.latex())
        assert m.sort_key() is cached[0]
        assert SymMonomial(tuple(fs2 + fs1)) is m
        assert cached == monomial_views(fs1 + fs2)
    g = delta([2, 1])
    assert g.sort_key() is g.sort_key() == (3, 2, 2, (2, 1))


def test_invalid_input_raises_on_every_call_and_is_not_stored():
    bad = [
        (lambda: delta((2, 0)), ValueError),
        (lambda: zeta((1, 2)), NotAdmissibleError),
        (lambda: monomial((LOG2, 0)), ValueError),
    ]
    for _ in range(2):  # before and after the valid delta((2,))
        sizes = len(symring._GENERATORS), len(symring._MONOMIALS)
        for build, error in bad:
            with pytest.raises(error):
                build()
        assert (len(symring._GENERATORS), len(symring._MONOMIALS)) == sizes
        delta((2,))
    assert ("delta", (2, 0)) not in symring._GENERATORS
    assert ("zeta", (1, 2)) not in symring._GENERATORS
    assert ((LOG2, 0),) not in symring._MONOMIALS


def test_monomials_are_interned_under_their_canonical_factors_only():
    g = zeta([2])
    m = SymMonomial(((LOG2, 1), (g, 1), (LOG2, 1)))
    assert m.factors == ((LOG2, 2), (g, 1))
    assert ((LOG2, 1), (g, 1), (LOG2, 1)) not in symring._MONOMIALS
    reduce(comparison_relations(6), aux_relations(AUX_NAMES, 6))
    assert all(key == m.factors for key, m in symring._MONOMIALS.items())


def test_assigning_an_attribute_raises():
    g, m = zeta([3]), monomial((zeta([3]), 1), (LOG2, 2))
    m.sort_key(), m.render()
    for obj, name in ((g, "parts"), (g, "weight"), (g, "extra"), (m, "factors"), (m, "weight"), (m, "_key")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert g.parts == (3,) and m.factors == ((LOG2, 2), (zeta([3]), 1))
    assert m.sort_key() == monomial_views(m.factors)[0] and m.render() == "c^2*z[3]"


def _pickle_round_trips(x, lowest=0):
    return [pickle.loads(pickle.dumps(x, p)) for p in range(lowest, pickle.HIGHEST_PROTOCOL + 1)]


def test_copies_and_pickles_are_the_same_object():
    m = monomial((zeta([3]), 1), (delta([1, 2]), 2), (LOG2, 1))
    for obj in (LOG2, delta([1, 2]), m, UNIT_MONOMIAL):
        assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj
        assert all(y is obj for y in _pickle_round_trips(obj))
    # identity equality: a second object would be unequal as a dict key
    e = SymExpr({m: Fraction(1, 3), UNIT_MONOMIAL: 2})
    # (SymExpr has __slots__ and no __getstate__, so it needs protocol 2)
    assert copy.deepcopy(e) == e and all(y == e for y in _pickle_round_trips(e, 2))


def test_expr_constructor_drops_zero_terms():
    m = monomial((LOG2, 1))
    e = SymExpr({m: Fraction(0)})
    assert not e
    assert len(SymExpr({m: Fraction(2)})) == 1


def test_expr_gen_and_rational_shortcuts():
    e = SymExpr.gen(zeta([2]), exp=2, coeff=Fraction(1, 2))
    assert dict(fraction_terms(e))[monomial((zeta([2]), 2))] == Fraction(1, 2)
    assert SymExpr.rational(0) == SymExpr.zero()
    assert dict(fraction_terms(SymExpr.rational(Fraction(3, 4))))[monomial()] == Fraction(3, 4)
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
        m = monomial_product(monomial((g1, 1)), monomial((g2, 1)))
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
    rng = random.Random(31)
    for x in [e, SymExpr.zero()] + [_random_expr(rng) for _ in range(40)]:
        assert list(render_each((x,), ("text", "latex"))) == [(x.render(), x.latex())]


def test_every_printed_expression_matches_the_sort_key_printer():
    # one expression alone, a whole series in one batch, and relation rows
    # all print as the former per-expression sort by sort_key did
    for series in (phi_mzv(7), phi_delta(7)):
        words = sorted(series.coeffs, key=lambda w: (len(w), w))
        batch = [t["coeff"] for t in series_to_json(series)["terms"]]
        assert batch == [render_by_sort_key(series.coeffs[w])[0] for w in words]
        for e in series.coeffs.values():
            assert (e.render(), e.latex()) == render_by_sort_key(e)
    rels = comparison_relations(7) + aux_relations(AUX_NAMES, 7)
    for r, row in zip(rels, relations_json(rels)):
        text, latex = render_by_sort_key(r.expr)
        assert (r.expr.render(), r.expr.latex()) == (text, latex)
        assert (row["lhs"], row["latex"]) == (text, latex + " = 0")


def test_a_batch_prints_each_expression_as_it_prints_alone():
    # the batch's monomial order must not leak into any one expression
    rng = random.Random(47)
    pool = (list(phi_delta(5).coeffs.values()) + [r.expr for r in comparison_relations(5)]
            + [SymExpr.zero(), SymExpr.rational(Fraction(-3, 4))]
            + [_random_expr(rng) for _ in range(20)])
    for _ in range(30):
        batch = rng.sample(pool, rng.randint(0, 12))
        for styles in (("text",), ("latex",), ("text", "latex")):
            assert list(render_each(batch, styles)) == [next(render_each((e,), styles)) for e in batch]
        assert list(render_each(batch, ("latex", "text"))) == [(e.latex(), e.render()) for e in batch]


def test_latex_fractions():
    e = SymExpr.gen(zeta([2])).scale(Fraction(1, 2))
    assert r"\tfrac{1}{2}" in e.latex()
    assert r"\zeta_{2}" in e.latex()


def test_hash_consistency():
    rng = random.Random(97)
    for _ in range(60):
        a = _random_expr(rng)
        b = SymExpr(dict(fraction_terms(a)))
        assert a == b and hash(a) == hash(b)

