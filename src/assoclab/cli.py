"""Command line front end.

Subcommands:
  expand     build one or both series expansions and print them
  relations  extract coefficient relations, optionally reduce modulo aux sets
  verify     numerically certify relations at a given precision
  eval       evaluate a single zeta or delta value
  selftest   run the built-in consistency checks

Exit codes: 0 success, 1 verification/selftest failure, 2 usage error
(including an --output or --report path that cannot be written, "" among
them, which is checked before any work), and 1, with nothing on stderr, when the reader of
stdout leaves before the output ends.  A run that does not finish,
interrupted or failed, removes each of those files that it created and
leaves one that was there whole (``_emit``).
Input bounds, checked before any evaluation (exit 2 past them): --digits
lies in 10..2000, and an eval --zeta/--delta composition has at most 12
parts and weight at most 24.  Every integer from outside (the flags,
ASSOCLAB_MAX_ORDER, composition parts) is read by ``_natural``, in ASCII digits.
Primary outputs are deterministic: the same configuration yields byte
identical JSON across runs.  One writer (``_emit``) streams every output
in writes of at least 64 KiB: JSON byte for byte as ``json.dumps(payload,
indent=2, ensure_ascii=True)`` plus a newline, text line by line, so no
command holds its whole output as one string.  What a command prints is
computed before its first byte is written, so a failed build prints
nothing; only the rendering runs as the text is written.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain, repeat
from json import dumps
from json.encoder import encode_basestring_ascii

from .symring import LOG2, NotAdmissibleError, SymExpr, delta, render_each, zeta
from .freealg import nc_coeff, nc_inverse, nc_mul, nc_swap, nc_unit, series_to_json
from .mzv_side import phi_mzv
from .delta_side import iint_to_sym, phi_delta, psi_series
from .relations import (
    AUX_NAMES,
    Span,
    aux_relations,
    comparison_relations,
    known_values,
    reduce as reduce_relations,
    relations_json,
)
from .numeric import (
    Precision,
    eval_delta,
    eval_zeta,
    load_values,
    residual_text,
    verify_relation,
)

DEFAULT_ORDER = "5"
DEFAULT_DIGITS = "40"
MAX_DIGITS = 2000
MAX_EVAL_DEPTH = 12
MAX_EVAL_WEIGHT = 24
BLOCK = 1 << 16  # characters per write at least, but the last


class UsageError(Exception):
    pass


def _natural(raw: str, error: str) -> int:
    """int(raw) for ASCII digits with blanks around them, else UsageError(error
    % raw): int() alone also reads "1_0", "+3", "-1" and "\u0663"."""
    text = raw.strip()
    if not (text.isascii() and text.isdigit()):
        raise UsageError(error % (raw,))
    return int(text)


def _check_order(raw: str) -> int:
    n = _natural(raw, "order must be a count in ASCII digits, got %r")
    cap = _natural(os.environ.get("ASSOCLAB_MAX_ORDER", "6"),
                   "ASSOCLAB_MAX_ORDER must be a count in ASCII digits, got %r")
    if n > cap:
        raise UsageError("order must lie in 0..%d (ASSOCLAB_MAX_ORDER), got %d" % (cap, n))
    return n


def _precision(raw: str) -> Precision:
    digits = _natural(raw, "digits must be a count in ASCII digits, got %r")
    if digits > MAX_DIGITS:
        raise UsageError("digits must be <= %d, got %d" % (MAX_DIGITS, digits))
    try:
        return Precision(digits)
    except ValueError as exc:
        raise UsageError(str(exc))


def _emit(chunks, path: str | None = None, mode: str = "w") -> None:
    """Write the pieces of text in ``chunks`` to path, or to stdout.  An
    existing regular file, not a link, is written as ``<path>.<pid>.part``
    with its mode bits, which goes on any failure and after the last piece
    moves onto path, so a run that stops midway leaves the file whole;
    links, devices and FIFOs are written in place.  Pieces are joined into
    writes of ``BLOCK`` characters or more, as stdout may have no buffer."""
    regular = path is not None and mode == "w" and os.path.isfile(path) and not os.path.islink(path)
    part = "%s.%d.part" % (path, os.getpid()) if regular else None
    try:
        with nullcontext(sys.stdout) if path is None else open(part or path, mode, encoding="utf-8") as out:
            if part:
                os.chmod(part, os.stat(path).st_mode & 0o7777)
            block, size = [], 0
            for chunk in chunks:
                block.append(chunk)
                size += len(chunk)
                if size >= BLOCK:
                    out.write("".join(block))
                    block, size = [], 0
            out.write("".join(block))
        if part:
            os.replace(part, path)
    except OSError as exc:
        if path is None:
            raise
        raise UsageError("cannot write %s: %s" % (path, exc.strerror or exc))
    finally:
        if part and os.path.lexists(part):  # the run stopped before the move
            os.remove(part)


def _json_chunks(value, pad: str = "\n"):
    """The text of ``json.dumps(value, indent=2, ensure_ascii=True)`` in
    pieces, where ``pad`` is the newline and indent of the enclosing level.
    Dict keys are strings; a list, a tuple or any other iterable prints as
    a list, read once, item by item as the text reaches it.  A string item
    goes out in one piece with the separator and key before it."""
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif value is None or isinstance(value, (int, float)):
        yield dumps(value)
    else:
        inner = pad + "  "
        if isinstance(value, dict):
            sep, close, items = "{", "}", value.values()
            heads = (inner + encode_basestring_ascii(key) + ": " for key in value)
        else:
            sep, close, items, heads = "[", "]", value, repeat(inner)
        for head, item in zip(heads, items):
            head, sep = sep + head, ","
            if isinstance(item, str):
                yield head + encode_basestring_ascii(item)
            else:
                yield head
                yield from _json_chunks(item, inner)
        yield sep + close if sep != "," else pad + close


def _emit_json(payload, path: str | None) -> None:
    _emit(chain(_json_chunks(payload), ("\n",)), path)


def _lines(lines):
    """``"\\n".join(lines) + "\\n"``, a line at a time."""
    sep = ""
    for line in lines:
        yield sep + line
        sep = "\n"
    yield "\n"


def _cmd_expand(args: argparse.Namespace) -> int:
    order = _check_order(args.order)
    builders = {"mzv": phi_mzv, "delta": phi_delta}
    if args.side == "both":
        built = {side: build(order) for side, build in builders.items()}
    else:
        built = {"series": builders[args.side](order)}
    # every series is built; each coefficient is rendered as it is written
    series = {key: series_to_json(s) for key, s in built.items()}
    if args.format == "json":
        payload = {"command": "expand", "side": args.side, "order": order}
        _emit_json({**payload, **series}, args.output)
    else:
        _emit(_lines(_series_lines(series)), args.output)
    return 0


def _series_lines(series):
    """The text lines of each named series: a header, then its terms."""
    for key, s in series.items():
        yield "# %s order %d" % (key, s["order"])
        for term in s["terms"]:
            yield "%s: %s" % (term["word"], term["coeff"])


def _cmd_relations(args: argparse.Namespace) -> int:
    aux_names = _parse_aux(args.aux)
    order = _check_order(args.order)
    rels = comparison_relations(order)
    if args.reduce:
        rels = reduce_relations(rels, aux_relations(aux_names, order))
    if args.format == "json":
        payload = {
            "command": "relations",
            "order": order,
            "aux": sorted(aux_names),
            "reduced": args.reduce,
            "count": len(rels),
            "relations": relations_json(rels),
        }
        _emit_json(payload, args.output)
        return 0
    texts = render_each([r.expr for r in rels], (args.format,))  # format names the style
    if args.format == "latex":
        lines = chain([r"\begin{alignat*}{1}"], (t + " &= 0 \\\\" for t, in texts),
                      [r"\end{alignat*}"])
    else:
        lines = ("w=%d %s: %s = 0" % (r.weight, r.provenance.label(), t)
                 for r, (t,) in zip(rels, texts))
    _emit(_lines(lines), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    order = _check_order(args.order)
    prec = _precision(args.digits)
    rels = comparison_relations(order) + aux_relations(AUX_NAMES, order)
    load_values(rels, prec)  # every delta value the rows read, in one pass
    results = [verify_relation(r, prec) for r in rels]
    residuals = [residual_text(abs(res.total), res.scale) for res in results]
    failed = ["fail %s residual=%s\n" % (r.provenance.label(), residual)
              for r, res, residual in zip(rels, results, residuals) if not res.ok]
    if args.report is not None:  # only a report renders the rows
        rows = list(relations_json(rels))
        for row, res, residual in zip(rows, results, residuals):
            del row["weight"]
            row["residual"] = residual
            row["verdict"] = "pass" if res.ok else "fail"
        payload = {
            "command": "verify",
            "order": order,
            "digits": prec.digits,
            "count": len(rows),
            "failures": len(failed),
            "relations": rows,
        }
        _emit_json(payload, args.report)
    summary = "verified %d relations at %d digits: %s\n" % (
        len(rels), prec.digits, "%d FAILED" % len(failed) if failed else "all pass")
    _emit(chain([summary], failed))
    return 1 if failed else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from mpmath import mp

    kind = "zeta" if args.zeta is not None else "delta"
    composition = _parse_composition(getattr(args, kind))
    prec = _precision(args.digits)
    try:
        value = (eval_zeta if kind == "zeta" else eval_delta)(composition, prec)
    except (NotAdmissibleError, ValueError) as exc:
        raise UsageError(str(exc))
    text = mp.nstr(value, prec.digits)
    if args.format == "json":
        payload = {
            "command": "eval",
            "kind": kind,
            "composition": list(composition),
            "digits": prec.digits,
            "value": text,
        }
        _emit_json(payload, args.output)
    else:
        _emit(_lines([text]), args.output)
    return 0


def _selftest_checks():
    from mpmath import mp

    euler = SymExpr.gen(zeta((2,))) - SymExpr.gen(delta((2,)), coeff=2) - SymExpr.gen(LOG2, 2)

    def order2_comparison():
        rels = comparison_relations(2)
        return len(rels) == 1 and rels[0].expr == euler.monic()

    def iint_special_cases():
        c3 = SymExpr.gen(LOG2, 3, Fraction(1, 6))
        ok = iint_to_sym((0, 0, 0)) == c3
        ok = ok and iint_to_sym((2,)) == SymExpr.gen(delta((3,)))
        want = SymExpr.gen(delta((2, 2))) + SymExpr.gen(delta((3, 1)), coeff=2)
        return ok and iint_to_sym((1, 1)) == want

    def delta_inverse_raw():
        phi = phi_delta(4)
        return nc_mul(phi, nc_swap(phi)) == nc_unit(4)

    def product_form():
        # psi * inverse(swap psi), against the quotient the CLI prints
        psi = psi_series(5)
        return nc_mul(psi, nc_inverse(nc_swap(psi))) == phi_delta(5)

    def omega2():
        # psi - swap(psi) in degree 2 is (c^2 + 2 I[1]) (BA - AB)
        psi = psi_series(4)
        swapped = nc_swap(psi)
        coeff = SymExpr.gen(LOG2, 2) + iint_to_sym((1,)).scale(Fraction(2))
        want = {"BA": coeff, "AB": -coeff, "AA": SymExpr.zero(), "BB": SymExpr.zero()}
        return all(nc_coeff(psi, w) - nc_coeff(swapped, w) == e for w, e in want.items())

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
        rels = known_values()
        load_values(rels, prec)
        return all(verify_relation(r, prec).ok for r in rels)

    def numeric_duality():
        row = SymExpr.gen(zeta((3, 1))) - SymExpr.gen(zeta((4,)), coeff=Fraction(1, 4))
        return bool(verify_relation(row, Precision(30)).residual < mp.mpf(10) ** (-25))

    return [
        ("order-2 comparison yields the dilogarithm relation", order2_comparison),
        ("kernel integral special cases", iint_special_cases),
        ("delta side times its swap is the unit series", delta_inverse_raw),
        ("mzv side inverse holds modulo aux relations", mzv_inverse_reduced),
        ("product form rebuilds the delta side", product_form),
        ("degree-2 antisymmetrisation closed form", omega2),
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
    ex.add_argument("--order", default=DEFAULT_ORDER)
    ex.add_argument("--format", choices=("json", "text"), default="json")
    ex.add_argument("--output")
    ex.set_defaults(handler=_cmd_expand)

    rl = sub.add_parser("relations", help="extract and reduce relations")
    rl.add_argument("--order", default=DEFAULT_ORDER)
    rl.add_argument(
        "--aux",
        default="none",
        help="comma separated subset of {shuffle,duality,known}, or none/all alone",
    )
    rl.add_argument("--reduce", action="store_true")
    rl.add_argument("--format", choices=("json", "latex", "text"), default="json")
    rl.add_argument("--output")
    rl.set_defaults(handler=_cmd_relations)

    vf = sub.add_parser("verify", help="numeric certification")
    vf.add_argument("--order", default=DEFAULT_ORDER)
    vf.add_argument("--digits", default=DEFAULT_DIGITS)
    vf.add_argument("--report")
    vf.set_defaults(handler=_cmd_verify)

    ev = sub.add_parser("eval", help="evaluate one zeta or delta value")
    group = ev.add_mutually_exclusive_group(required=True)
    group.add_argument("--zeta")
    group.add_argument("--delta")
    ev.add_argument("--digits", default=DEFAULT_DIGITS)
    ev.add_argument("--format", choices=("json", "text"), default="json")
    ev.add_argument("--output")
    ev.set_defaults(handler=_cmd_eval)

    st = sub.add_parser("selftest", help="run built-in consistency checks")
    st.set_defaults(handler=_cmd_selftest)
    return p


def _parse_aux(raw: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in raw.split(","))
    if "" in names:
        raise UsageError("aux set names must not be empty, got %r" % raw)
    if names == ("none",):
        return ()
    if names == ("all",):
        return AUX_NAMES
    if "all" in names or "none" in names:
        raise UsageError("aux sets all and none must stand alone, got %r" % raw)
    bad = [n for n in names if n not in AUX_NAMES]
    if bad:
        raise UsageError("unknown aux set(s): %s" % ", ".join(bad))
    return tuple(dict.fromkeys(names))


def _parse_composition(raw: str) -> tuple[int, ...]:
    comp = tuple(_natural(s, "composition must be comma separated integers, got %r")
                 for s in raw.split(","))
    if len(comp) > MAX_EVAL_DEPTH:
        raise UsageError("composition must have at most %d parts, got %d" % (MAX_EVAL_DEPTH, len(comp)))
    if sum(comp) > MAX_EVAL_WEIGHT:
        raise UsageError("composition weight must be <= %d, got %d" % (MAX_EVAL_WEIGHT, sum(comp)))
    return comp


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    created = []
    try:
        # check paths before any work; append mode leaves an existing file intact
        for path in (getattr(args, "output", None), getattr(args, "report", None)):
            if path is not None:
                existed = os.path.exists(path)  # follows links: a dangling one's target is new
                _emit((), path, "a")
                if not existed:
                    created.append(os.path.realpath(path))
        return args.handler(args)
    except BaseException as exc:
        # an unfinished run leaves no file it created, only what was there before
        for path in created:
            os.remove(path)
        if isinstance(exc, BrokenPipeError):
            # the reader left; fd 1 goes to devnull so the last flush cannot raise
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), 1)
            return 1
        if not isinstance(exc, UsageError):
            raise
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
