"""Command line front end.

Subcommands:
  expand     build one or both series expansions and print them
  relations  extract coefficient relations, optionally reduce modulo aux sets
  verify     numerically certify relations at a given precision
  eval       evaluate a single zeta or delta value
  selftest   run the built-in consistency checks

Exit codes: 0 success, 1 verification/selftest failure, 2 usage error
(including an --output or --report path that cannot be written).
Primary outputs are deterministic: the same configuration yields byte
identical JSON across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from mpmath import mp

from . import _oracles
from .symring import NotAdmissibleError, check_composition
from .freealg import nc_mul, nc_swap, nc_unit, series_to_json
from .mzv_side import phi_mzv
from .delta_side import iint_to_sym, phi_delta
from .relations import (
    AUX_NAMES,
    Relation,
    Span,
    aux_relations,
    comparison_relations,
    known_values,
    reduce as reduce_relations,
)
from .numeric import Precision, eval_delta, eval_zeta, verify_relation

DEFAULT_ORDER = 5
DEFAULT_DIGITS = 40


class UsageError(Exception):
    pass


def _max_order() -> int:
    raw = os.environ.get("ASSOCLAB_MAX_ORDER", "6")
    try:
        return int(raw)
    except ValueError:
        raise UsageError("ASSOCLAB_MAX_ORDER must be an integer, got %r" % raw)


def _check_order(n: int) -> int:
    cap = _max_order()
    if n < 0 or n > cap:
        raise UsageError("order must lie in 0..%d (ASSOCLAB_MAX_ORDER), got %d" % (cap, n))
    return n


def _precision(digits: int) -> Precision:
    try:
        return Precision(digits)
    except ValueError as exc:
        raise UsageError(str(exc))


def _emit(text: str, path: str | None) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc.strerror or exc))


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"


def _cmd_expand(args: argparse.Namespace) -> int:
    order = _check_order(args.order)
    builders = {"mzv": phi_mzv, "delta": phi_delta}
    payload = {"command": "expand", "side": args.side, "order": order}
    if args.side == "both":
        payload["mzv"] = series_to_json(phi_mzv(order))
        payload["delta"] = series_to_json(phi_delta(order))
    else:
        payload["series"] = series_to_json(builders[args.side](order))
    if args.format == "json":
        _emit(_json_text(payload), args.output)
    else:
        lines = []
        keys = ("mzv", "delta") if args.side == "both" else ("series",)
        for key in keys:
            lines.append("# %s order %d" % (key, order))
            for term in payload[key]["terms"]:
                lines.append("%s: %s" % (term["word"], term["coeff"]))
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_relations(args: argparse.Namespace) -> int:
    aux_names = _parse_aux(args.aux)
    order = _check_order(args.order)
    rels = comparison_relations(order)
    if args.reduce:
        rels = reduce_relations(rels, aux_relations(aux_names, order), only_rels=True)
    if args.format == "json":
        payload = {
            "command": "relations",
            "order": order,
            "aux": sorted(aux_names),
            "reduced": args.reduce,
            "count": len(rels),
            "relations": [r.to_json() for r in rels],
        }
        _emit(_json_text(payload), args.output)
    elif args.format == "latex":
        lines = [r"\begin{alignat*}{1}"]
        for r in rels:
            lines.append(r.expr.latex() + " &= 0 \\\\")
        lines.append(r"\end{alignat*}")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        lines = [
            "w=%d %s: %s = 0" % (r.weight, r.provenance.label(), r.expr.render())
            for r in rels
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    order = _check_order(args.order)
    prec = _precision(args.digits)
    rels = comparison_relations(order) + aux_relations(AUX_NAMES, order)
    rows = []
    failed = []
    for r in rels:
        res = verify_relation(r, prec)
        row = r.to_json()
        del row["weight"]
        row["residual"] = mp.nstr(res.residual, 8)
        row["verdict"] = "pass" if res.ok else "fail"
        rows.append(row)
        if not res.ok:
            failed.append("fail %s residual=%s\n" % (r.provenance.label(), row["residual"]))
    payload = {
        "command": "verify",
        "order": order,
        "digits": args.digits,
        "count": len(rows),
        "failures": len(failed),
        "relations": rows,
    }
    if args.report:
        _emit(_json_text(payload), args.report)
    sys.stdout.write(
        "verified %d relations at %d digits: %s\n"
        % (len(rows), args.digits, "%d FAILED" % len(failed) if failed else "all pass")
    )
    sys.stdout.write("".join(failed))
    return 1 if failed else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    kind = "zeta" if args.zeta is not None else "delta"
    composition = _parse_composition(getattr(args, kind))
    prec = _precision(args.digits)
    try:
        comp = check_composition(composition)
        value = (eval_zeta if kind == "zeta" else eval_delta)(comp, prec)
    except (NotAdmissibleError, ValueError) as exc:
        raise UsageError(str(exc))
    text = mp.nstr(value, args.digits)
    if args.format == "json":
        payload = {
            "command": "eval",
            "kind": kind,
            "composition": list(comp),
            "digits": args.digits,
            "value": text,
        }
        _emit(_json_text(payload), args.output)
    else:
        _emit(text + "\n", args.output)
    return 0


def _selftest_checks():
    from .symring import SymExpr, SymMonomial, LOG2, delta, zeta
    from fractions import Fraction

    euler = SymExpr.gen(zeta((2,))) - SymExpr.gen(delta((2,)), coeff=2) - SymExpr(
        {SymMonomial(((LOG2, 2),)): Fraction(1)}
    )

    def order2_comparison():
        rels = comparison_relations(2)
        return len(rels) == 1 and rels[0].expr == Relation(euler, None).expr

    def iint_special_cases():
        c3 = SymExpr({SymMonomial(((LOG2, 3),)): Fraction(1, 6)})
        ok = iint_to_sym((0, 0, 0)) == c3
        ok = ok and iint_to_sym((2,)) == SymExpr.gen(delta((3,)))
        want = SymExpr.gen(delta((2, 2))) + SymExpr.gen(delta((3, 1)), coeff=2)
        return ok and iint_to_sym((1, 1)) == want

    def delta_inverse_raw():
        phi = phi_delta(4)
        return nc_mul(phi, nc_swap(phi)) == nc_unit(4)

    def mzv_inverse_reduced():
        phi = phi_mzv(4)
        prod = nc_mul(phi, nc_swap(phi))
        span = Span(aux_relations(AUX_NAMES, 4))
        for w, e in prod.coeffs.items():
            if w == "":
                if e != SymExpr.one():
                    return False
            elif not span.contains(e):
                return False
        return True

    def numeric_known_values():
        prec = Precision(30)
        return all(verify_relation(r, prec).ok for r in known_values())

    def numeric_duality():
        prec = Precision(30)
        a = eval_zeta((3, 1), prec)
        b = eval_zeta((4,), prec)
        # compare inside a wide context: ambient dps would round b/4
        with mp.workdps(prec.digits + 10):
            return bool(abs(a - b / 4) < mp.mpf(10) ** (-25))

    return [
        ("order-2 comparison yields the dilogarithm relation", order2_comparison),
        ("kernel integral special cases", iint_special_cases),
        ("delta side times its swap is the unit series", delta_inverse_raw),
        ("mzv side inverse holds modulo aux relations", mzv_inverse_reduced),
        ("psi recursion rebuilds the delta side", lambda: _oracles.check_psi_recursion(5)),
        ("degree-2 antisymmetrisation closed form", lambda: _oracles.check_omega2(4)),
        ("known closed forms verify at 30 digits", numeric_known_values),
        ("self-dual evaluation verifies numerically", numeric_duality),
    ]


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok = check()
        except Exception as exc:  # a crashed check is a failed check
            ok = False
            sys.stdout.write("error in %s: %s\n" % (name, exc))
        sys.stdout.write("%s - %s\n" % ("ok" if ok else "FAIL", name))
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="assoclab",
        description="Two expansions of the same associator series, their "
        "coefficient relations, and numeric certification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("expand", help="build series expansions")
    ex.add_argument("--side", choices=("mzv", "delta", "both"), default="both")
    ex.add_argument("--order", type=int, default=DEFAULT_ORDER)
    ex.add_argument("--format", choices=("json", "text"), default="json")
    ex.add_argument("--output")
    ex.set_defaults(handler=_cmd_expand)

    rl = sub.add_parser("relations", help="extract and reduce relations")
    rl.add_argument("--order", type=int, default=DEFAULT_ORDER)
    rl.add_argument(
        "--aux",
        default="none",
        help="comma separated subset of {shuffle,duality,known}, or none/all",
    )
    rl.add_argument("--reduce", action="store_true")
    rl.add_argument("--format", choices=("json", "latex", "text"), default="json")
    rl.add_argument("--output")
    rl.set_defaults(handler=_cmd_relations)

    vf = sub.add_parser("verify", help="numeric certification")
    vf.add_argument("--order", type=int, default=DEFAULT_ORDER)
    vf.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    vf.add_argument("--report")
    vf.set_defaults(handler=_cmd_verify)

    ev = sub.add_parser("eval", help="evaluate one zeta or delta value")
    group = ev.add_mutually_exclusive_group(required=True)
    group.add_argument("--zeta")
    group.add_argument("--delta")
    ev.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    ev.add_argument("--format", choices=("json", "text"), default="json")
    ev.add_argument("--output")
    ev.set_defaults(handler=_cmd_eval)

    st = sub.add_parser("selftest", help="run built-in consistency checks")
    st.set_defaults(handler=_cmd_selftest)
    return p


def _parse_aux(raw: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in raw.split(",") if s.strip())
    if names == ("none",) or not names:
        return ()
    if names == ("all",):
        return AUX_NAMES
    bad = [n for n in names if n not in AUX_NAMES]
    if bad:
        raise UsageError("unknown aux set(s): %s" % ", ".join(bad))
    return tuple(dict.fromkeys(names))


def _parse_composition(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in raw.split(","))
    except ValueError:
        raise UsageError("composition must be comma separated integers, got %r" % raw)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
