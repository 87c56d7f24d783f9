"""Cross module checks: spans, normal forms, and end-to-end identities.

Everything asserted here was certified numerically before being frozen;
identities that fail certification are asserted to stay OUT of the spans.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F

import pytest
from mpmath import mp

from assoclab.delta_side import iint_to_sym, phi_delta, psi_series, xi_series
from assoclab.freealg import nc_coeff
from assoclab.mzv_side import phi_mzv
from assoclab.numeric import Precision
from assoclab.relations import (
    AUX_NAMES,
    Span,
    aux_relations,
    comparison_relations,
    duality_relations,
    known_values,
    reduce,
    shuffle_relations,
)
from assoclab.symring import LOG2, SymExpr, delta, word_composition, zeta

from oracle_utils import (
    check_omega2,
    check_product_form,
    close_enough,
    echelon,
    eval_symexpr,
    iint_numeric,
    linearise,
    lyndon_factors,
    midpoint_rows,
    nf,
    rank,
    remainder,
    shuffle_sum,
)


def z(*parts):
    return SymExpr.gen(zeta(tuple(parts)))


def d(*parts):
    return SymExpr.gen(delta(tuple(parts)))


c = SymExpr.gen(LOG2)
P50 = Precision(50)


def I(*levels):
    return iint_to_sym(tuple(levels))


def assert_zero(expr, digits=45):
    assert close_enough(eval_symexpr(expr, P50), 0, digits), expr.render()


def assert_nonzero(expr, floor="1e-3"):
    v = eval_symexpr(expr, Precision(30))
    with mp.workdps(45):
        assert abs(v) > mp.mpf(floor), expr.render()


@pytest.fixture(scope="module")
def comp5():
    return comparison_relations(5)


@pytest.fixture(scope="module")
def aux5():
    return (
        shuffle_relations(5)
        + duality_relations(5)
        + [r for r in known_values() if r.weight <= 5]
    )


@pytest.fixture(scope="module")
def span5(comp5, aux5):
    return Span(aux5 + comp5)


@pytest.fixture(scope="module")
def span5_known_only(comp5):
    return Span(known_values() + comp5)


# weight-5 depth-2/3 combinations rebuilt from the kernel integrals;
# lhs - rhs convention throughout
def fifth_order_targets():
    upd1 = (
        z(5).scale(2) - z(2) * z(3) - d(4, 1) - (c * z(4)).scale(F(1, 8))
        + (c * c * z(3)).scale(F(1, 16)) - (c ** 5).scale(F(1, 24))
        - d(3, 1, 1) - c * d(2, 1, 1)
    )
    upd2 = (
        z(5).scale(F(1, 2)) - d(3, 2) - d(4, 1).scale(3)
        - (c * z(2) * z(2)).scale(F(1, 8)) - (c * z(4)).scale(F(1, 8))
        - (c ** 5).scale(F(1, 12)) + (c * c * z(3)).scale(F(1, 16))
        - (z(2) * z(3)).scale(F(1, 8)) + (c ** 3 * z(2)).scale(F(1, 6))
        + d(3, 1, 1).scale(3) + d(2, 2, 1).scale(2) + d(2, 1, 2)
    )
    combo = (
        d(3, 1, 1).scale(3) + d(2, 2, 1).scale(2) + d(2, 1, 2)
        - (d(2) * (d(2, 1).scale(4) + c * d(2))).scale(F(1, 8))
        + d(1, 2, 2).scale(F(1, 4)) + (c * d(3, 1)).scale(F(1, 2))
    )
    combo_closed = (
        d(3, 1, 1).scale(3) + d(2, 2, 1).scale(2) + d(2, 1, 2)
        - (z(2) * z(3)).scale(F(1, 16)) + (c ** 3 * z(2)).scale(F(1, 12))
        + z(5).scale(F(3, 64)) - (c ** 5).scale(F(1, 20))
    )
    pinned_pair = (
        d(3, 2) + d(4, 1).scale(3) - z(5).scale(F(29, 64))
        + (c * z(2) * z(2)).scale(F(1, 8)) + (c * z(4)).scale(F(1, 8))
        + (c ** 5).scale(F(1, 30)) - (c * c * z(3)).scale(F(1, 16))
        + (z(2) * z(3)).scale(F(1, 16)) - (c ** 3 * z(2)).scale(F(1, 12))
    )
    depth_two_sum = (
        c * d(4) - d(1, 4) - d(2, 3) - d(3, 2) - d(4, 1).scale(2)
    )
    return {
        "upd1": upd1,
        "upd2": upd2,
        "combo": combo,
        "combo_closed": combo_closed,
        "pinned_pair": pinned_pair,
        "depth_two_sum": depth_two_sum,
    }


# candidate closed forms that fail numeric certification: the engine must
# keep them out of every span of true relations
def false_targets():
    d41_bad = d(4, 1) - (
        c * d(4) + z(5).scale(F(125, 64)) + (c * c * z(3)).scale(F(47, 48))
        - (z(2) * z(3)).scale(F(47, 48)) - (c * z(4)).scale(F(9, 8))
        - (c ** 3 * z(2)).scale(F(5, 18)) + (c ** 5).scale(F(13, 360))
    )
    d311_bad = d(3, 1, 1) - (
        z(5).scale(F(3, 64)) - (z(2) * z(3)).scale(F(1, 48))
        - (c * c * z(3)).scale(F(1, 24)) + (c ** 5).scale(F(1, 180))
        + (c ** 3 * z(2)).scale(F(1, 36))
    )
    shuffle_bad = c * d(2, 2) - d(1, 2, 2) - d(2, 2, 1).scale(2) - d(2, 1, 2)
    return {"d41": d41_bad, "d311": d311_bad, "shuffle": shuffle_bad}


def ladder_relations():
    e2 = z(2) - d(2).scale(2) - c * c
    e3 = z(3) - d(2, 1) - (c ** 3).scale(F(1, 2)) - c * d(2) - d(3)
    e4 = (
        z(4) - d(2, 1, 1) - (c ** 4).scale(F(1, 6))
        - (c * c * d(2)).scale(F(1, 2)) - c * d(3) - d(4)
    )
    e5 = (
        z(5) - d(2, 1, 1, 1) - (c ** 5).scale(F(1, 24))
        - (c ** 3 * d(2)).scale(F(1, 6)) - (c * c * d(3)).scale(F(1, 2))
        - c * d(4) - d(5)
    )
    e41 = (
        z(4, 1) - d(4, 1) - c * d(3, 1) - (c * c * d(2, 1)).scale(F(1, 2))
        - d(3, 1, 1) - c * d(2, 1, 1) - (c ** 5).scale(F(1, 12))
    )
    e32 = (
        z(4, 1).scale(3) + z(3, 2) - d(3, 2) - d(4, 1).scale(3)
        - (c * d(2) * d(2)).scale(F(1, 2)) - c * d(3, 1)
        - ((c * c).scale(F(1, 2)) + z(2)) * d(2, 1)
        + d(3, 1, 1).scale(3) + d(2, 2, 1).scale(2) + d(2, 1, 2)
        - (z(2) * c ** 3).scale(F(1, 4))
    )
    return {"w2": e2, "w3": e3, "w4": e4, "w5": e5, "w5_41": e41, "w5_32": e32}


def test_kernel_output_relations_true_and_in_span(span5, span5_known_only):
    half = F(1, 2)
    r1 = (
        I(0, 3) + c * I(0, 2) + (c * c * I(0, 1)).scale(half)
        + I(0, 0, 2) + c * I(0, 0, 1) + (c ** 5).scale(F(1, 12))
        - z(5).scale(2) + z(3) * z(2)
    )
    r2 = (
        I(4) + c * I(3) + (c * c * I(2)).scale(half)
        + (c ** 3 * I(1)).scale(F(1, 6)) + I(0, 0, 0, 1)
        + (c ** 5).scale(F(1, 24)) - z(5)
    )
    r3 = (
        I(1, 2) + (c * I(1) * I(1)).scale(half) + c * I(0, 2)
        + ((c * c).scale(half) + z(2)) * I(0, 1) + I(0, 0, 2)
        - I(1, 0, 1) - I(0, 1, 1) + (c ** 3 * z(2)).scale(F(1, 4))
        - z(5).scale(half)
    )
    for r in (r1, r2, r3):
        assert_zero(r)
        rem, used = span5.reduce_expr(r)
        assert rem == SymExpr.zero()
        assert used  # certificate names the rows that were needed
        assert span5_known_only.contains(r)


def test_fifth_order_targets_true_and_in_span(span5):
    for name, expr in fifth_order_targets().items():
        assert_zero(expr)
        assert span5.contains(expr), name


def test_false_closed_forms_fail_and_stay_outside_span(span5):
    for name, expr in false_targets().items():
        assert_nonzero(expr)
        assert not span5.contains(expr), name


def test_false_shuffle_fixed_by_doubling_last_term(span5):
    fixed = false_targets()["shuffle"] - d(2, 1, 2)
    assert_zero(fixed)
    assert span5.contains(fixed)


def test_ladder_relations_reduce_to_zero_with_certificates(span5, aux5, comp5):
    base_provs = {r.provenance for r in aux5 + comp5}
    for name, expr in ladder_relations().items():
        assert_zero(expr)
        rem, used = span5.reduce_expr(expr)
        assert rem == SymExpr.zero(), name
        assert used and used <= base_provs


def test_quarter_zeta4_variants():
    literal = (
        z(4).scale(F(1, 4)) - d(3, 1).scale(2) - c * d(2, 1)
        - (c ** 4).scale(F(1, 4))
    )
    corrected = literal - c * d(2, 1)  # doubles the mixed term

    # the literal form misses by exactly one copy of c*d[2,1]
    assert_nonzero(literal, "0.06")
    assert_zero(literal - c * d(2, 1))
    assert_zero(corrected)

    comp4 = comparison_relations(4)
    sh4 = shuffle_relations(4)
    du4 = duality_relations(4)
    low_known = [r for r in known_values() if r.weight <= 3]
    all_known4 = [r for r in known_values() if r.weight <= 4]

    capped = Span(comp4 + sh4 + du4 + low_known)
    full4 = Span(comp4 + sh4 + du4 + all_known4)

    # a false identity is in neither span
    assert not capped.contains(literal)
    assert not full4.contains(literal)

    # the true form needs a weight-4 closed value the capped span lacks
    assert not capped.contains(corrected)
    assert full4.contains(corrected)
    rem, _ = capped.reduce_expr(corrected)
    assert rem != SymExpr.zero()
    assert_zero(rem)  # the remainder is still a true identity

    by_name = {r.provenance.name: r for r in known_values()}
    two_rows = Span([by_name["delta_2_1"], by_name["delta_3_1"]])
    assert two_rows.contains(corrected)


def test_normal_forms_weight_five_depth_two(span5):
    canon = {
        (4, 1): (
            d(1, 4).scale(F(-1, 2)) + z(5).scale(F(29, 64))
            + (c * d(4)).scale(F(1, 2)) - (c * z(4)).scale(F(1, 8))
            - (z(2) * z(3)).scale(F(9, 32)) + (c * c * z(3)).scale(F(9, 32))
            - (c ** 3 * z(2)).scale(F(1, 12)) + (c ** 5).scale(F(1, 120))
        ),
        (3, 2): (
            d(1, 4).scale(F(3, 2)) - z(5).scale(F(29, 32))
            - (c * d(4)).scale(F(3, 2)) + (c * z(4)).scale(F(1, 4))
            + (z(2) * z(3)).scale(F(25, 32)) - (c * c * z(3)).scale(F(25, 32))
            - (c * z(2) * z(2)).scale(F(1, 8)) + (c ** 3 * z(2)).scale(F(1, 3))
            - (c ** 5).scale(F(7, 120))
        ),
        (2, 3): (
            d(1, 4).scale(F(-3, 2)) + (c * d(4)).scale(F(3, 2))
            - (z(2) * z(3)).scale(F(7, 32)) + (c * c * z(3)).scale(F(7, 32))
            + (c * z(2) * z(2)).scale(F(1, 8)) - (c ** 3 * z(2)).scale(F(1, 6))
            + (c ** 5).scale(F(1, 24))
        ),
        (3, 1, 1): (
            d(1, 4).scale(F(1, 2)) + z(5).scale(F(99, 64))
            + (c * d(4)).scale(F(1, 2)) - c * z(4)
            - (z(2) * z(3)).scale(F(23, 32)) + (c * c * z(3)).scale(F(21, 32))
            - (c ** 3 * z(2)).scale(F(1, 6)) + (c ** 5).scale(F(1, 30))
        ),
        (2, 1, 1): (
            d(4).scale(F(-1)) + z(4) - (c * z(3)).scale(F(7, 8))
            + (c * c * z(2)).scale(F(1, 4)) - (c ** 4).scale(F(1, 12))
        ),
    }
    for comp, want in canon.items():
        got, _ = span5.reduce_expr(d(*comp))
        assert got == want, comp
        assert_zero(d(*comp) - want)

    # one free parameter remains among the depth >= 2 weight-5 deltas
    for free in (d(1, 4), d(5), d(4)):
        got, _ = span5.reduce_expr(free)
        assert got == free

    # but these combinations are pinned: no d[1,4] survives
    for expr in (d(4, 1).scale(2) + d(1, 4), d(3, 2) + d(4, 1).scale(3)):
        got, _ = span5.reduce_expr(expr)
        assert "d[1,4]" not in got.render()


@pytest.mark.parametrize("order", range(8))
def test_series_consistency_oracles(order):
    assert check_product_form(order)
    assert check_omega2(order)


def all_level_words(max_weight):
    # weight of a level word is sum(level + 1)
    def gen(budget):
        if budget == 0:
            yield ()
        for first in range(budget):
            for rest in gen(budget - first - 1):
                yield (first,) + rest

    out = []
    for w in range(1, max_weight + 1):
        out.extend(gen(w))
    return out


def test_kernel_integrals_match_quadrature():
    words = all_level_words(4) + [(4,), (1, 2), (0, 3), (1, 0, 1), (0, 0, 2)]
    prec = Precision(40)
    for levels in words:
        want = iint_numeric(levels, 30)
        got = eval_symexpr(iint_to_sym(levels), prec)
        assert close_enough(got, want, 25), levels


def test_series_builders_reject_a_negative_order():
    for build in (phi_mzv, xi_series, psi_series, phi_delta):
        with pytest.raises(ValueError, match="order must be >= 0"):
            build(-1)


@pytest.mark.parametrize("order", [5, 6, 7, 8])
def test_comparison_rows_are_the_midpoint_rows_modulo_shuffle(order):
    # modulo the shuffle rows, comparing the two series says exactly the
    # Hoelder convolution at p = 2; the midpoint rows read neither series
    shuffles = shuffle_relations(order)
    comparisons, midpoints = comparison_relations(order), midpoint_rows(order)
    span = Span(shuffles + comparisons)
    assert [r for r in midpoints if not span.contains(r.expr)] == []
    span = Span(shuffles + midpoints)
    assert [r for r in comparisons if not span.contains(r.expr)] == []


# -- word coordinates: L maps c to B, d[s] to zeta_word(s), z[s] to its midpoint
# split and a product to the shuffle product, onto the shuffle algebra of the
# words that end in B (the d-words)


@pytest.mark.parametrize("order", [5, 6, 7, 8])
def test_rows_vanish_in_word_coordinates(order):
    # the comparison, shuffle and duality rows all lie in the kernel of L;
    # of the known rows, only Euler's dilogarithm identity does
    rows = comparison_relations(order) + shuffle_relations(order) + duality_relations(order)
    assert [r.provenance.label() for r in rows if linearise(r.expr)] == []
    known = [r for r in known_values() if r.weight <= order]
    assert [r.provenance.label() for r in known if not linearise(r.expr)] == ["known[euler_dilog]"]


@pytest.mark.parametrize("order", [6, 7, 8])
def test_shuffle_and_midpoint_rows_leave_the_d_words_free(order):
    # L is onto the shuffle algebra, whose weight-w part has one basis word
    # per d-word, 2^(w-1) of them (Radford), and the shuffle and midpoint
    # rows span its kernel: so many monomials stay free at every weight
    span = Span(shuffle_relations(order) + midpoint_rows(order))
    free = [len(span._monomials(w)) - len(span._slice(w)) for w in range(1, order + 1)]
    assert free == [2 ** (w - 1) for w in range(1, order + 1)]


def d_words(n: int) -> list[str]:
    """The words of length n that end in B; the empty word at n = 0."""
    return [""] if n == 0 else ["".join(p) + "B" for p in itertools.product("AB", repeat=n - 1)]


def test_word_coordinate_ledger_is_the_free_count_of_the_span():
    # the shuffle, duality and comparison rows lie in the kernel of L, which
    # the shuffle and midpoint rows span, so the ideal of --aux all plus the
    # comparison rows is ker L plus the ideal of the known rows: at weight w,
    # 2^(w-1) less the rank of {L(k) shuffled with x}, over the known rows k
    # and the d-words x of weight w - wt(k), monomials stay free
    known = [(r.weight, linearise(r.expr)) for r in known_values()]
    span = Span(aux_relations(AUX_NAMES, 9) + comparison_relations(9))
    ledger, free = [], []
    for w in range(1, 10):
        rows = [shuffle_sum(image, {x: 1}) for wk, image in known if wk <= w for x in d_words(w - wk)]
        ledger.append(2 ** (w - 1) - rank(rows))
        st = span._slice(w)
        free.append(len([m for m in span._monomials(w) if m not in st]))
    assert ledger == free == [1, 2, 3, 6, 10, 23, 47, 96, 192]


def test_word_coordinate_ledger_at_weight_ten():
    # the ledger alone, in word coordinates with no Span: the free count at
    # w = 10 without building the order-10 span
    known = [(r.weight, linearise(r.expr)) for r in known_values()]
    rows = [shuffle_sum(image, {x: 1}) for wk, image in known for x in d_words(10 - wk)]
    assert len(rows) == 480 and 2 ** 9 - rank(rows) == 384


@pytest.mark.parametrize("order", [5, 6, 7, 8])
def test_kept_relations_are_proved_in_word_coordinates(order):
    # ker L holds the shuffle, duality and comparison rows, so a relation r
    # holds when L(r) lies in the ideal of the known rows' images: at weight
    # w, the span of {L(k) shuffled with x} over the known rows k and the
    # d-words x of weight w - wt(k).  Neither Span nor mpmath takes part.
    known = [(r.weight, linearise(r.expr)) for r in known_values()]
    kept = reduce(comparison_relations(order), aux_relations(AUX_NAMES, order))
    unproved, images = [], []
    for w in sorted({r.weight for r in kept}):
        ideal = echelon(shuffle_sum(image, {x: 1}) for wk, image in known if wk <= w for x in d_words(w - wk))
        for r in kept:
            if r.weight == w:
                images.append(linearise(r.expr))
                if remainder(ideal, images[-1]):
                    unproved.append(r.provenance.label())
    assert unproved == []
    if order == 8:
        assert (len(images), sum(not image for image in images)) == (51, 4)


# -- the normal form modulo shuffle (oracle_utils.nf): every generator
# rewritten as a polynomial in the Lyndon generators


def test_shuffle_rows_have_normal_form_zero():
    rows = shuffle_relations(9)
    assert [sum(r.weight <= n for r in rows) for n in range(6, 10)] == [64, 162, 397, 924]
    assert [r.provenance.label() for r in rows if nf(r.expr)] == []


def test_lyndon_comparisons_are_multiples_of_the_midpoint_rows():
    # modulo shuffle both series are characters (Ree), and the path 0 -> 1
    # is 0 -> 1/2 -> 1 (Chen): at a Lyndon word l the comparison says what
    # the Hoelder convolution at 1/2 says for word_composition(l)
    mzv, dlt = phi_mzv(9), phi_delta(9)
    midpoints = {r.provenance.name: r.expr for r in midpoint_rows(9)}
    words = ("".join(w) for n in range(2, 10) for w in itertools.product("AB", repeat=n))
    lyndon = [w for w in words if lyndon_factors(w) == [w]]
    assert len(lyndon) == 125
    off = []
    for l in lyndon:
        row = nf(nc_coeff(mzv, l) - nc_coeff(dlt, l))
        mid = nf(midpoints["midpoint:" + ",".join(map(str, word_composition(l)))])
        if not (row and mid and row.monic() == mid.monic()):
            off.append(l)
    assert off == []
