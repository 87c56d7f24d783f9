"""Traced run of one assoclab CLI invocation, timed per module.

Run as a child process with the checkout's ``src`` on PYTHONPATH:

    python3 perfbench/traced.py --out TRACE.json --run-id ID -- <cli args>

It installs timing wrappers on the public names of every assoclab module,
calls ``assoclab.cli.main`` with the given arguments (so the CLI's primary
output goes to this process's stdout, unchanged), removes the wrappers and
writes the spans, counters and per-layer metrics to TRACE.json.  Nothing
inside ``src/`` is edited: the spans are recorded around calls into each
layer, from this file.

A span is ``[name, start, end, parent, run_id, counted]``: ``parent`` is the
index of the enclosing span (-1 for the root) and ``counted`` is the time
spent inside it in the aggregated ``symring`` counters, which are too
frequent to record one span per call.  A span's self time is its duration
minus its child spans and its ``counted`` time, so self times partition the
root span.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

MODULES = ("symring", "freealg", "mzv_side", "delta_side", "relations", "numeric", "cli")
SLICE_WEIGHTS = range(1, 9)


class Tracer:
    """Installs wrappers on assoclab's public names; restores them on exit."""

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.times: Counter = Counter()
        self.numeric_keys: set = set()
        self.reduce_args: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._modules: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _timed_counter(self, key, fn):
        spans, stack, counters, times = self.spans, self._stack, self.counters, self.times

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            counters[key] += 1
            times[key] += dt
            if stack:
                spans[stack[-1]][5] += dt
            return result

        return wrapper

    def _counter(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_name(self, original, wrapper):
        """Replace ``original`` in every assoclab namespace that holds it."""
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        import assoclab

        self._modules = [assoclab] + [
            importlib.import_module("assoclab." + m) for m in MODULES
        ]
        from assoclab import cli, delta_side, freealg, mzv_side, numeric, relations, symring

        c = self.counters
        size = lambda key: lambda args, res: c.update({key: len(res)})
        terms = lambda key: lambda args, res: c.update({key: len(res.coeffs)})

        def mul_histogram(args, kwargs):
            a, b = args
            room = a.order
            ha = Counter(len(w) for w in a.coeffs)
            hb = Counter(len(w) for w in b.coeffs)
            c["nc_mul_visited"] += len(a.coeffs) * len(b.coeffs)
            c["nc_mul_useful"] += sum(
                na * nb for la, na in ha.items() for lb, nb in hb.items() if la + lb <= room
            )

        def numeric_key(kind):
            def before(args, kwargs):
                prec = args[1] if len(args) > 1 else kwargs.get("prec", numeric.Precision())
                self.numeric_keys.add((kind, tuple(args[0]), prec.digits, prec.guard))

            return before

        def verdict(args, res):
            c["verify_passed"] += bool(res.ok)

        def keep_reduce_args(args, kwargs):
            rels = args[0]
            aux = args[1] if len(args) > 1 else kwargs.get("aux", ())
            self.reduce_args.append((list(rels), list(aux)))

        iint = delta_side.iint_to_sym

        def iint_counter(levels):
            hits = iint.cache_info().hits
            result = iint(levels)
            c["iint_to_sym_calls"] += 1
            c["iint_to_sym_hits"] += iint.cache_info().hits - hits
            return result

        spans = [
            (cli.main, "cli.main", None, None),
            (mzv_side.phi_mzv, "mzv_side.phi_mzv", None, terms("mzv_terms")),
            (delta_side.phi_delta, "delta_side.phi_delta", None, terms("delta_terms")),
            (delta_side.xi_series, "delta_side.xi_series", None, None),
            (freealg.nc_mul, "freealg.nc_mul", mul_histogram, None),
            (freealg.nc_inverse, "freealg.nc_inverse", None, None),
            (freealg.series_to_json, "cli.render.series_to_json", None, None),
            (relations.comparison_relations, "relations.comparison_relations", None, None),
            (relations.extract_relations, "relations.extract_relations", None,
             size("comparison_rows")),
            (relations.shuffle_relations, "relations.aux.shuffle", None, size("aux_rows.shuffle")),
            (relations.duality_relations, "relations.aux.duality", None, size("aux_rows.duality")),
            (relations.known_values, "relations.aux.known", None, size("aux_rows.known")),
            (relations.reduce, "relations.reduce", keep_reduce_args, size("kept_rows")),
            (numeric.eval_delta, "numeric.eval_delta", numeric_key("delta"), None),
            (numeric.eval_zeta, "numeric.eval_zeta", numeric_key("zeta"), None),
            (numeric.verify_relation, "numeric.verify_relation", None, verdict),
        ]
        for fn, name, before, after in spans:
            self._patch_name(fn, self._span(name, fn, before, after))
        self._patch_name(iint, functools.wraps(iint)(iint_counter))

        methods = [
            (relations.Relation, "to_json", "cli.render.relation_to_json"),
            (symring.SymExpr, "render", "cli.render.expr_render"),
            (symring.SymExpr, "latex", "cli.render.expr_latex"),
        ]
        for cls, attr, name in methods:
            self._patch_attr(cls, attr, self._span(name, cls.__dict__[attr]))
        self._patch_attr(symring.SymExpr, "__mul__",
                         self._timed_counter("expr_mul", symring.SymExpr.__mul__))
        self._patch_attr(symring.SymExpr, "__add__",
                         self._timed_counter("expr_add", symring.SymExpr.__add__))
        self._patch_attr(symring.SymMonomial, "__post_init__",
                         self._counter("monomials_built", symring.SymMonomial.__post_init__))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# -- analysis ------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Duration of each span minus its child spans and its counted time."""
    out = [(s[2] - s[1]) - s[5] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def slice_probe(rels, aux) -> dict:
    """Per-weight cost of the span that ``reduce(rels, aux)`` builds.

    Builds ``Span(aux + rels)`` through its public constructor and reduces
    one row of each weight of ``rels`` in ascending order; each call builds
    exactly that weight's slice.  Rows is the number of rows the slice
    receives: the base rows of that weight plus every lower-weight base row
    times each multiplier monomial of the complementary weight.
    """
    from assoclab.relations import Span

    base = list(aux) + list(rels)
    gen_weights = Counter()
    for g in {g for r in base for m in r.expr.monomials() for g, _ in m.factors}:
        gen_weights[g.weight] += 1
    top = max(r.weight for r in base)
    # monomials[k]: number of monomials of weight k in the base generators
    monomials = [1] + [0] * top
    for gw, count in gen_weights.items():
        for _ in range(count):
            for k in range(gw, top + 1):
                monomials[k] += monomials[k - gw]

    span = Span(base)
    out = {}
    first = {}
    for r in rels:
        first.setdefault(r.weight, r)
    for w in sorted(first):
        t0 = perf_counter()
        span.reduce_expr(first[w].expr)
        out[w] = (
            perf_counter() - t0,
            sum(monomials[w - r.weight] for r in base if r.weight <= w),
        )
    return out


def layer_metrics(tracer: Tracer, slices: dict) -> dict:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    spans, c, t = tracer.spans, tracer.counters, tracer.times
    total = Counter()
    calls = Counter()
    for s in spans:
        total[s[0]] += s[2] - s[1]
        calls[s[0]] += 1
    selfs = Counter()
    for s, st in zip(spans, self_times(spans)):
        selfs[layer_of(s[0])] += st
    selfs["symring"] += t["expr_mul"] + t["expr_add"]
    render_s = sum(
        s[2] - s[1]
        for s in spans
        if s[0].startswith("cli.render.")
        and (s[3] < 0 or not spans[s[3]][0].startswith("cli.render."))
    )
    ratio = lambda a, b: a / b if b else 0.0
    numeric_calls = calls["numeric.eval_delta"] + calls["numeric.eval_zeta"]

    m = {
        "relations.reduce_s": (total["relations.reduce"], "s"),
        "relations.kept_rows": (c["kept_rows"], "count"),
        "relations.kept_ratio": (ratio(c["kept_rows"], c["comparison_rows"]), "ratio"),
        "relations.compare_s": (total["relations.comparison_relations"], "s"),
        "relations.extract_s": (total["relations.extract_relations"], "s"),
        "relations.comparison_rows": (c["comparison_rows"], "count"),
        "relations.aux_s": (
            sum(total["relations.aux." + k] for k in ("shuffle", "duality", "known")), "s"),
        "delta_side.phi_delta_s": (total["delta_side.phi_delta"], "s"),
        "delta_side.xi_series_s": (total["delta_side.xi_series"], "s"),
        "delta_side.terms": (c["delta_terms"], "count"),
        "delta_side.iint_to_sym_calls": (c["iint_to_sym_calls"], "count"),
        "delta_side.iint_to_sym_hit_ratio": (
            ratio(c["iint_to_sym_hits"], c["iint_to_sym_calls"]), "ratio"),
        "freealg.nc_mul_s": (total["freealg.nc_mul"], "s"),
        "freealg.nc_mul_calls": (calls["freealg.nc_mul"], "count"),
        "freealg.nc_mul_useful_ratio": (ratio(c["nc_mul_useful"], c["nc_mul_visited"]), "ratio"),
        "freealg.nc_inverse_s": (total["freealg.nc_inverse"], "s"),
        "mzv_side.phi_mzv_s": (total["mzv_side.phi_mzv"], "s"),
        "mzv_side.terms": (c["mzv_terms"], "count"),
        "symring.expr_mul_calls": (c["expr_mul"], "count"),
        "symring.expr_mul_s": (t["expr_mul"], "s"),
        "symring.expr_add_calls": (c["expr_add"], "count"),
        "symring.expr_add_s": (t["expr_add"], "s"),
        "symring.monomials_built": (c["monomials_built"], "count"),
        "numeric.eval_delta_s": (total["numeric.eval_delta"], "s"),
        "numeric.eval_delta_calls": (calls["numeric.eval_delta"], "count"),
        "numeric.value_cache_hit_ratio": (
            1 - ratio(len(tracer.numeric_keys), numeric_calls) if numeric_calls else 0.0, "ratio"),
        "numeric.eval_zeta_s": (total["numeric.eval_zeta"], "s"),
        "numeric.verify_relation_s": (total["numeric.verify_relation"], "s"),
        "numeric.verify_pass_ratio": (
            ratio(c["verify_passed"], calls["numeric.verify_relation"]), "ratio"),
        "cli.render_s": (render_s, "s"),
    }
    for kind in ("shuffle", "duality", "known"):
        m["relations.aux_rows." + kind] = (c["aux_rows." + kind], "count")
    for w in SLICE_WEIGHTS:
        seconds, rows = slices.get(w, (0.0, 0))
        m["relations.slice_s.w%d" % w] = (seconds, "s")
        m["relations.slice_rows.w%d" % w] = (rows, "count")
    for layer in MODULES:
        m["%s.self_s" % layer] = (selfs[layer], "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="where to write the trace JSON")
    ap.add_argument("--run-id", default="run")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from assoclab import cli

    tracer = Tracer(args.run_id)
    with tracer:
        code = cli.main(cli_args)
    main_end = perf_counter()
    sys.stdout.flush()
    slices = slice_probe(*tracer.reduce_args[-1]) if tracer.reduce_args else {}
    metrics = layer_metrics(tracer, slices)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "run_id": args.run_id,
                "exit_code": code,
                "main_end": main_end,
                "fields": ["name", "start", "end", "parent", "run_id", "counted"],
                "spans": tracer.spans,
                "counters": dict(tracer.counters),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
