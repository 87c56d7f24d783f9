"""Compare two benchmark records written by run.py.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Refuses (exit code 2) when the two records come from different machine
records (Python, core count, CPU model, mpmath version and backend) or
measure different workloads or modes: the numbers would not be comparable.
Otherwise prints each metric's median, quartiles and change, and for an
end-to-end metric whether the change is worse than the bound that
BENCHMARK.json fixes; exit code 1 when one is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def comparable(a: dict, b: dict) -> str | None:
    """None when the records may be compared, else the reason they may not."""
    if a["machine"] != b["machine"]:
        diff = sorted(k for k in a["machine"].keys() | b["machine"].keys()
                      if a["machine"].get(k) != b["machine"].get(k))
        return "machine records differ in %s" % ", ".join(diff)
    for key in ("workload", "trace", "seconds"):
        if a[key] != b[key]:
            return "%s differs: %r != %r" % (key, a[key], b[key])
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write("usage: compare.py BEFORE.json AFTER.json\n")
        return 2
    before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    reason = comparable(before, after)
    if reason:
        sys.stderr.write("refusing to compare: %s\n" % reason)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = False
    for name, b in after["metrics"].items():
        a = before["metrics"].get(name)
        if a is None:
            continue
        change = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
        line = "%-36s %12.6g -> %12.6g %s  %+.1f%%" % (name, a["value"], b["value"], b["unit"], 100 * change)
        meta = declared.get(name, {})
        if "bound" in meta:
            sign = 1 if meta["better"] == "lower" else -1
            bad = sign * change > meta["bound"]
            worse |= bad
            line += "  bound %.0f%%%s" % (100 * meta["bound"], "  WORSE" if bad else "")
        if "n" in b:
            line += "  (after: q1 %.6g, q3 %.6g, n=%d)" % (b["q1"], b["q3"], b["n"])
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
