"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Criterion 3 is expected to fail: its target identity was supplied with a
coefficient error (one term is off by a factor of 2) and is kept verbatim,
so the reduction correctly refuses to send it to zero.  See README.
"""

from __future__ import annotations

import time
from fractions import Fraction as F

import pytest
from mpmath import mp

from assoclab.cli import main as cli_main
from assoclab.delta_side import iint_to_sym, phi_delta
from assoclab.freealg import nc_mul, nc_swap, nc_unit
from assoclab.mzv_side import phi_mzv
from assoclab.numeric import Precision, eval_delta, eval_zeta, verify_relation
from assoclab.relations import (
    Comparison,
    Span,
    comparison_relations,
    duality_relations,
    extract_relations,
    known_values,
    shuffle_relations,
)
from assoclab.symring import LOG2, SymExpr, delta, dual_word, word_composition, zeta, zeta_word

from oracle_utils import brute_delta, close_enough, compositions_of_weight


def z(*parts):
    return SymExpr.gen(zeta(tuple(parts)))


def d(*parts):
    return SymExpr.gen(delta(tuple(parts)))


c = SymExpr.gen(LOG2)


@pytest.fixture
def report(capsys):
    # bypass capture so the gate always shows one line per criterion
    def _report(num, ok, elapsed, text):
        line = "ACCEPTANCE %02d %s (%6.2fs): %s" % (
            num, "PASS" if ok else "FAIL", elapsed, text
        )
        with capsys.disabled():
            print(line, flush=True)
        return line

    return _report


def order5_span():
    comp = comparison_relations(5)
    aux = shuffle_relations(5) + duality_relations(5) + list(known_values())
    return Span(aux + comp), comp, aux


def test_criterion_01_order_two_exact(report):
    t0 = time.perf_counter()
    rels = extract_relations(phi_mzv(2), phi_delta(2))
    target = z(2) - d(2).scale(2) - c * c
    ok = len(rels) == 1 and rels[0].expr.scale(F(-2)) == target
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    line = report(1, ok, elapsed, "order-2 extraction is exactly the dilogarithm relation")
    assert ok, line


def test_criterion_02_holder_family_with_certificates(report):
    t0 = time.perf_counter()
    span, comp, aux = order5_span()
    ladder = {
        "w3": z(3) - d(2, 1) - (c ** 3).scale(F(1, 2)) - c * d(2) - d(3),
        "w4": z(4) - d(2, 1, 1) - (c ** 4).scale(F(1, 6))
        - (c * c * d(2)).scale(F(1, 2)) - c * d(3) - d(4),
        "w5": z(5) - d(2, 1, 1, 1) - (c ** 5).scale(F(1, 24))
        - (c ** 3 * d(2)).scale(F(1, 6)) - (c * c * d(3)).scale(F(1, 2))
        - c * d(4) - d(5),
    }
    ok = True
    for expr in ladder.values():
        rem, used = span.reduce_expr(expr)
        aux_used = [p for p in used if not isinstance(p, Comparison)]
        ok = ok and rem == SymExpr.zero() and bool(aux_used)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    line = report(2, ok, elapsed,
                  "weight 3-5 ladder identities reduce to zero, certificates cite aux rows")
    assert ok, line


def test_criterion_03_quarter_weight_four_target(report):
    t0 = time.perf_counter()
    target = (
        z(4).scale(F(1, 4)) - d(3, 1).scale(2) - c * d(2, 1)
        - (c ** 4).scale(F(1, 4))
    )
    span = Span(
        comparison_relations(4) + duality_relations(4) + shuffle_relations(4)
        + [r for r in known_values() if r.weight <= 3]
    )
    ok = span.contains(target)
    elapsed = time.perf_counter() - t0
    line = report(3, ok, elapsed,
                  "supplied quarter-weight-4 target reduces to zero (kept verbatim)")
    assert ok, line


def test_criterion_04_fifth_order_discoveries(report):
    t0 = time.perf_counter()
    span, _, _ = order5_span()
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
    ok = span.contains(e41) and span.contains(e32)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    line = report(4, ok, elapsed, "both fifth-order discovery relations reduce to zero")
    assert ok, line


def test_criterion_05_kernel_output_relations(report):
    t0 = time.perf_counter()
    span, _, _ = order5_span()

    def I(*levels):
        return iint_to_sym(tuple(levels))

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
    ok = all(span.contains(r) for r in (r1, r2, r3))
    elapsed = time.perf_counter() - t0
    line = report(5, ok, elapsed,
                  "three kernel-integral output relations hold in the extracted span")
    assert ok, line


def test_criterion_06_inverse_property(report):
    t0 = time.perf_counter()
    pd = phi_delta(5)
    ok = nc_mul(pd, nc_swap(pd)) == nc_unit(5)

    pm = phi_mzv(5)
    prod = nc_mul(pm, nc_swap(pm))
    aux_span = Span(
        shuffle_relations(5) + duality_relations(5) + list(known_values())
    )
    for word, coeff in prod.coeffs.items():
        if word == "":
            ok = ok and coeff == SymExpr.one()
        else:
            ok = ok and aux_span.contains(coeff)
    elapsed = time.perf_counter() - t0
    line = report(6, ok, elapsed,
                  "series times swapped series is the unit (raw / modulo aux)")
    assert ok, line


def test_criterion_07_numeric_certification(report):
    t0 = time.perf_counter()
    span_rows = comparison_relations(5)
    aux = shuffle_relations(5) + duality_relations(5) + list(known_values())
    rows = span_rows + aux
    prec = Precision(40)
    with mp.workdps(60):
        bound = mp.mpf(10) ** (-35)
    ok = {r.weight for r in span_rows} == {2, 3, 4, 5}
    worst = 0
    for r in rows:
        res = verify_relation(r, prec)
        ok = ok and res.ok and res.residual < bound
        worst = max(worst, res.residual)

    non_relation = z(2) - d(2)
    res = verify_relation(non_relation, prec)
    ok = ok and (not res.ok) and res.residual > 0.5

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    line = report(7, ok, elapsed,
                  "%d relations certify at 40 digits (worst %s); planted non-relation fails"
                  % (len(rows), mp.nstr(worst, 3)))
    assert ok, line


def test_criterion_08_evaluator_cross_oracles(report):
    t0 = time.perf_counter()
    prec = Precision(40)
    ok = True
    for w in range(1, 6):
        for comp in compositions_of_weight(w):
            ok = ok and close_enough(eval_delta(comp, prec), brute_delta(comp, 30), 20)

    with mp.workdps(60):
        ok = ok and abs(eval_zeta((2,), prec) - mp.pi ** 2 / 6) < mp.mpf(10) ** (-40)

    p45 = Precision(45)
    for w in range(2, 7):
        for comp in compositions_of_weight(w):
            if comp[0] < 2:
                continue
            ok = ok and close_enough(
                eval_zeta(comp, p45), eval_zeta(word_composition(dual_word(zeta_word(comp))), p45), 40
            )
    elapsed = time.perf_counter() - t0
    line = report(8, ok, elapsed,
                  "delta evaluator matches brute force; zeta matches pi^2/6 and duality")
    assert ok, line


def test_criterion_09_order_six_discovery_mode(report):
    t0 = time.perf_counter()
    rels = extract_relations(phi_mzv(6), phi_delta(6))
    prec = Precision(30)
    with mp.workdps(50):
        bound = mp.mpf(10) ** (-25)
    ok = len(rels) > 0
    for r in rels:
        res = verify_relation(r, prec)
        ok = ok and res.ok and res.residual < bound
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    line = report(9, ok, elapsed,
                  "order-6 run extracts %d relations, all certify to 25+ digits" % len(rels))
    assert ok, line


def test_criterion_10_determinism(tmp_path, report):
    t0 = time.perf_counter()
    configs = [
        ["relations", "--order", "2"],
        ["relations", "--order", "4", "--aux", "all", "--reduce"],
        ["relations", "--order", "5", "--aux", "all", "--reduce"],
        ["expand", "--order", "5"],
    ]
    ok = True
    for i, argv in enumerate(configs):
        a = tmp_path / ("run_a_%d.json" % i)
        b = tmp_path / ("run_b_%d.json" % i)
        ok = ok and cli_main(argv + ["--output", str(a)]) == 0
        ok = ok and cli_main(argv + ["--output", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - t0
    line = report(10, ok, elapsed, "repeated pipeline runs emit byte-identical JSON")
    assert ok, line
