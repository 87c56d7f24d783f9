"""Closed-formula expansion with multiple zeta coefficients."""

from __future__ import annotations

import random
from itertools import groupby, product
from math import comb

import pytest

from assoclab import delta_side, freealg, mzv_side
from assoclab.delta_side import xi_series
from assoclab.freealg import A, B, NCSeries, deletion_rows, nc_mul, nc_unit
from assoclab.mzv_side import enumerate_pq, phi_mzv, pq_word
from assoclab.symring import SymExpr, compositions, dual_word, word_composition, zeta, zeta_word

from oracle_utils import (
    ad_series,
    check_grading,
    deletion_fold,
    dual_composition,
    nc_add,
    nc_graded_part,
    nc_scale,
    nc_sub,
    phi_mzv_by_word_sums,
    word_sum_closed_form,
    xi_series_by_word_sums,
    zeta_composition,
)


def test_enumerate_pq_requires_degree_two():
    with pytest.raises(ValueError):
        enumerate_pq(1)


def test_enumerate_pq_counts():
    # degree r splits into g blocks of positive pairs: sum_g C(r-1, 2g-1)
    for r in range(2, 9):
        got = enumerate_pq(r)
        want = sum(comb(r - 1, 2 * g - 1) for g in range(1, r // 2 + 1))
        assert len(got) == want == 2 ** (r - 2)
        assert all(sum(p + q for p, q in pairs) == r for pairs in got)
        assert len(set(got)) == len(got)


def test_enumerate_pq_order_g_ascending_then_lex_descending():
    assert enumerate_pq(3) == [((2, 1),), ((1, 2),)]
    assert enumerate_pq(4) == [((3, 1),), ((2, 2),), ((1, 3),), ((1, 1), (1, 1))]
    r5 = [tuple(x for pair in pairs for x in pair) for pairs in enumerate_pq(5)]
    assert r5[:4] == [(4, 1), (3, 2), (2, 3), (1, 4)]
    gs = [len(pairs) for pairs in enumerate_pq(6)]
    assert gs == sorted(gs)


def test_enumerate_pq_equals_a_brute_force_list():
    for r in range(2, 11):
        brute = []
        for g in range(1, r // 2 + 1):
            # 2g positive parts summing to r, each at most r - 2g + 1
            flats = [f for f in product(range(1, r - 2 * g + 2), repeat=2 * g) if sum(f) == r]
            brute += [tuple(zip(f[::2], f[1::2])) for f in sorted(flats, reverse=True)]
        assert enumerate_pq(r) == brute, r


def test_zeta_composition_examples():
    # the template is the zeta word; the pair oracle reads the same composition
    examples = [
        (((2, 1),), "AAB", (3,)),
        (((1, 2),), "ABB", (2, 1)),
        (((1, 3),), "ABBB", (2, 1, 1)),
        (((1, 1), (1, 1)), "ABAB", (2, 2)),
        (((2, 1), (1, 1)), "AABAB", (3, 2)),
        (((1, 1), (2, 1)), "ABAAB", (2, 3)),
    ]
    for pairs, word, comp in examples:
        assert pq_word(pairs) == word
        assert word_composition(word) == zeta_composition(pairs) == comp


def test_zeta_composition_weight_is_degree():
    rng = random.Random(60)
    for _ in range(100):
        g = rng.randint(1, 3)
        pairs = tuple((rng.randint(1, 3), rng.randint(1, 3)) for _ in range(g))
        comp = word_composition(pq_word(pairs))
        assert comp == zeta_composition(pairs)
        assert sum(comp) == sum(p + q for p, q in pairs) == len(pq_word(pairs))
        assert comp[0] >= 2


def test_dual_composition_is_reverse_swap():
    assert dual_composition(((2, 1), (1, 3))) == ((3, 1), (1, 2))
    rng = random.Random(61)
    for _ in range(100):
        pairs = tuple((rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
        assert dual_composition(dual_composition(pairs)) == pairs
        # the pair duality is dual_word on the template
        assert pq_word(dual_composition(pairs)) == dual_word(pq_word(pairs))


def _walk_counts(order: int, deletable: str, ends: str) -> dict[str, dict[str, int]]:
    # each template's fold counts, read back from rows keyed by the template
    counts: dict[str, dict[str, int]] = {}
    for w, row in deletion_rows(order, deletable, ends, lambda x: x).items():
        for x, n in row.items():
            counts.setdefault(x, {})[w] = n * (-1) ** x.count(B)
    return counts


def test_word_sum_fold_matches_the_closed_formula():
    templates = [pairs for r in range(2, 11) for pairs in enumerate_pq(r)]
    assert len(templates) == 511
    walked = _walk_counts(10, A + B, B)
    assert set(walked) == {pq_word(pairs) for pairs in templates}
    for pairs in templates:
        assert walked[pq_word(pairs)] == word_sum_closed_form(pairs), pairs


def _deleted_letter_sets(word: str, deletable: str) -> dict[str, int]:
    # each set of deleted positions, deletable letters only, contributes
    # (-1)^#deleted times the word B^(#B deleted) + kept letters + A^(#A deleted)
    want: dict[str, int] = {}
    for mask in product((False, True), repeat=len(word)):
        gone = [x for x, d in zip(word, mask) if d]
        if not set(gone) <= set(deletable):
            continue
        kept = "".join(x for x, d in zip(word, mask) if not d)
        w = B * gone.count(B) + kept + A * gone.count(A)
        want[w] = want.get(w, 0) + (-1) ** len(gone)
    return {w: c for w, c in want.items() if c}


def _random_run_word(rng: random.Random) -> str:
    """A word over {A, B} of length at most 10, in runs of up to 6 letters."""
    word, letter, size = "", rng.choice("AB"), rng.randint(0, 10)
    while len(word) < size:
        word += letter * min(rng.randint(1, 6), size - len(word))
        letter = B if letter == A else A
    return word


def test_word_sum_is_the_sum_over_deleted_letter_sets():
    # the walk, at every word that starts with A, up to length 8
    words = {A + "".join(rest) for n in range(8) for rest in product(A + B, repeat=n)}
    for deletable in (A + B, A, B, ""):
        walked = _walk_counts(8, deletable, A + B)
        assert set(walked) <= words
        for word in words:  # a trailing deletable A cancels its whole fold
            assert walked.get(word, {}) == _deleted_letter_sets(word, deletable), (word, deletable)
    # the former per-word fold, which the series oracles read
    cases = [(pq_word(pairs), deletable)
             for deletable in ("AB", "A", "B")
             for r in range(2, 9)
             for pairs in enumerate_pq(r)]
    # the delta side's words, with only B deletable
    cases += [(dual_word(zeta_word(s)), "B")
              for r in range(1, 9) for k in range(1, r + 1) for s in compositions(r, k)]
    rng = random.Random(1033)
    words = [_random_run_word(rng) for _ in range(60)]
    assert any(A * 6 in w for w in words) and any(B * 6 in w for w in words)
    cases += [(word, deletable) for word in words for deletable in ("", "A", "B", "AB")]
    for word, deletable in cases:
        assert deletion_fold(word, deletable) == _deleted_letter_sets(word, deletable), (word, deletable)


@pytest.mark.parametrize("order", range(10))
def test_series_match_the_per_word_fold_and_word_sums(order):
    assert phi_mzv(order) == phi_mzv_by_word_sums(order)
    assert xi_series(order) == xi_series_by_word_sums(order)


def test_each_template_owns_its_monomial(monkeypatch):
    # the rows are written, not summed: no two templates share a monomial
    seen: dict[str, list] = {}

    def recording(order, deletable, ends, monomial):
        def record(x):
            m = monomial(x)
            if m is not None:
                seen.setdefault(deletable, []).append(m)
            return m
        return deletion_rows(order, deletable, ends, record)

    monkeypatch.setattr(mzv_side, "deletion_rows", recording)
    monkeypatch.setattr(delta_side, "deletion_rows", recording)
    phi_mzv(10), xi_series(10)
    # Phi_mzv: the 511 words A...B; Xi_B: the 1023 words A... less A^1..A^10
    assert len(seen["AB"]) == len(set(seen["AB"])) == 511
    assert len(seen["B"]) == len(set(seen["B"])) == 1013


def test_the_walk_folds_each_run_prefix_once(monkeypatch):
    steps = []
    fold_run = freealg._fold_run
    monkeypatch.setattr(freealg, "_fold_run", lambda states, run, d: steps.append(run) or fold_run(states, run, d))
    phi_mzv(9)
    templates = [pq_word(pairs) for r in range(2, 10) for pairs in enumerate_pq(r)]
    runs = [["".join(g) for _, g in groupby(w)] for w in templates]
    prefixes = {"".join(r[:i]) for r in runs for i in range(1, len(r) + 1)}
    assert len(steps) == len(prefixes) == 383
    steps.clear()
    xi_series(9)
    assert len(steps) == 2 ** 9 - 1  # every word that starts with A


def test_phi_degree_two_is_zeta2_bracket():
    phi = phi_mzv(2)
    z2 = SymExpr.gen(zeta([2]))
    assert phi.coeffs[""] == SymExpr.one()
    assert phi.coeffs["BA"] == z2
    assert phi.coeffs["AB"] == -z2
    assert set(phi.coeffs) == {"", "BA", "AB"}


def test_phi_degree_three_brackets():
    part = nc_graded_part(phi_mzv(3), 3)
    want = nc_add(
        nc_scale(nc_resize_to(ad_series("A", "B", 2), 3), -SymExpr.gen(zeta([3]))),
        nc_scale(nc_resize_to(ad_series("B", "A", 2), 3), SymExpr.gen(zeta([2, 1]))),
    )
    assert part == want


def nc_resize_to(s, order):
    return NCSeries(order, s.coeffs)


def test_phi_has_no_degree_one_term():
    for order in (2, 3, 4):
        assert not nc_graded_part(phi_mzv(order), 1).coeffs


def test_phi_grading_invariant():
    check_grading(phi_mzv(4))


def test_phi_truncations_agree():
    phi5 = phi_mzv(5)
    for order in (2, 3, 4):
        smaller = phi_mzv(order)
        for w, e in smaller.coeffs.items():
            assert phi5.coeffs.get(w, SymExpr.zero()) == e


def _raw_fifth_order_listing() -> NCSeries:
    # the order-5 expansion written out bracket by bracket
    N = 5
    one = SymExpr.one()

    def let(ch):
        return NCSeries(N, {ch: one})

    def comm(u, v):
        return nc_sub(nc_mul(u, v), nc_mul(v, u))

    def adp(actor, arg, m):
        out = arg
        for _ in range(m):
            out = comm(let(actor), out)
        return out

    def zz(*parts):
        return SymExpr.gen(zeta(parts))

    two = SymExpr.rational(2)
    As, Bs = let("A"), let("B")
    A2, B2 = nc_mul(As, As), nc_mul(Bs, Bs)
    terms = [
        (zz(2), adp("B", As, 1)),
        (-zz(3), adp("A", Bs, 2)),
        (zz(2, 1), adp("B", As, 2)),
        (-zz(4), adp("A", Bs, 3)),
        (zz(3, 1), nc_sub(adp("B", A2, 2), nc_scale(nc_mul(adp("B", As, 2), As), two))),
        (zz(2, 1, 1), adp("B", As, 3)),
        (-zz(2, 2), nc_mul(adp("B", As, 1), adp("A", Bs, 1))),
        (-zz(5), adp("A", Bs, 4)),
        (zz(4, 1), nc_sub(adp("A", B2, 3), nc_scale(nc_mul(Bs, adp("A", Bs, 3)), two))),
        (zz(3, 1, 1), nc_sub(adp("B", A2, 3), nc_scale(nc_mul(adp("B", As, 3), As), two))),
        (zz(2, 1, 1, 1), adp("B", As, 4)),
        (-zz(3, 2), nc_sub(nc_mul(adp("B", A2, 1), adp("A", Bs, 1)),
                           nc_scale(nc_mul(nc_mul(adp("B", As, 1), adp("A", Bs, 1)), As), two))),
        (-zz(2, 1, 2), nc_mul(adp("B", As, 2), adp("A", Bs, 1))),
        (-zz(2, 3), nc_mul(adp("B", As, 1), adp("A", Bs, 2))),
        (zz(2, 2, 1), nc_sub(nc_mul(adp("B", As, 1), adp("A", B2, 1)),
                             nc_scale(nc_mul(Bs, nc_mul(adp("B", As, 1), adp("A", Bs, 1))), two))),
    ]
    out = nc_unit(N)
    for coeff, series in terms:
        out = nc_add(out, nc_scale(series, coeff))
    return out


def test_phi_order_five_matches_raw_listing():
    assert phi_mzv(5) == _raw_fifth_order_listing()
