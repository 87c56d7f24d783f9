"""assoclab benchmark: fresh-process CLI runs, untraced or traced.

    python3 perfbench/run.py --workload reduce-o8 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout that holds ``src/assoclab``.  Every
measurement is a separate child interpreter, started one at a time from
this process, with ``src`` on its PYTHONPATH and ASSOCLAB_MAX_ORDER=9 in
its environment only.

``--trace 0`` runs the workload's CLI invocation repeatedly until
``--seconds`` is used up, plus SETUP_PROBES interpreters that only import
``assoclab.cli``, and reports the end-to-end metrics as medians.  Its
times are scaled by slices of fixed reference work run while the child is
stopped, so that a core that runs slower for a while cancels out.
``--trace 1`` runs one untraced child and one traced child
(``perfbench/traced.py``) and reports the per-layer metrics.  The seed
permutes the order of the runs; the program's inputs are fixed.

Every child's output is checked against ``perfbench/golden.json``.  The last
line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  A fuller record, with quartiles, sample counts, every sample
and the machine record, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
REPORT = "{report}"

# why each workload is here: see README.md
WORKLOADS = {
    "reduce-o8": ["relations", "--order", "8", "--aux", "all", "--reduce"],
    "expand-o9": ["expand", "--side", "both", "--order", "9"],
    "verify-o7-d300": ["verify", "--order", "7", "--digits", "300", "--report", REPORT],
}
MAX_ORDER = "9"
SETUP_PROBES = 9
MAX_CHILDREN = 20
RAW_METRICS = ("wall_s", "cpu_s", "setup_raw_s")  # unscaled; recorded and printed, not declared
CHILD_TIMEOUT_S = 150.0
SLICE_S = 0.125  # child run time between two reference slices
REF_S = 0.016  # nominal time of one reference slice, about its median on the machine in README.md


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    kind: str
    wall_s: float
    cpu_s: float
    ref_wall_s: float  # mean wall time of the reference slices around and in this run
    ref_cpu_s: float
    slices: int
    peak_rss_mb: float
    output_bytes: int
    error: str | None
    launched: float

    @property
    def wall_norm_s(self) -> float:
        return self.wall_s * REF_S / self.ref_wall_s

    @property
    def cpu_norm_s(self) -> float:
        return self.cpu_s * REF_S / self.ref_cpu_s


@dataclass
class Child:
    """One finished child; ``ref_wall``/``ref_cpu`` time the reference slices."""

    code: int = -1
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    launched: float = 0.0
    ref_wall: list = field(default_factory=list)
    ref_cpu: list = field(default_factory=list)

    def sample(self, kind: str, output_bytes: int, error: str | None) -> Sample:
        return Sample(kind, self.wall_s, self.cpu_s, statistics.fmean(self.ref_wall),
                      statistics.fmean(self.ref_cpu), len(self.ref_wall), self.peak_rss_mb,
                      output_bytes, error, self.launched)


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["ASSOCLAB_MAX_ORDER"] = MAX_ORDER
    return env


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on a single CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_work() -> int:
    """One slice of fixed work: exact rationals in a dict with tuple keys, as
    in assoclab, but with nothing from assoclab, so no change to it moves this."""
    table: dict = {}
    for i in range(3000):
        key = (i % 31, i % 7, i % 3)
        table[key] = table.get(key, Fraction(0)) + Fraction(i + 1, 2 + i % 5)
    return len(table)


def reference_slice(child: Child) -> None:
    wall, cpu = perf_counter(), process_time()
    reference_work()
    child.ref_cpu.append(process_time() - cpu)
    child.ref_wall.append(perf_counter() - wall)


def run_child(args: list[str], stdout_path: Path, slice_s: float | None = SLICE_S) -> Child:
    """Run ``python args`` to completion, with a reference slice before and
    after it and, unless ``slice_s`` is None, one every ``slice_s`` of its run
    while it is stopped.  Its wall time leaves the stops out."""
    child = Child()
    reference_slice(child)
    err_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        child.launched = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(), stdout=out, stderr=err)
    stopped = 0.0
    status = usage = None
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                ran = perf_counter() - child.launched - stopped
                wait = max(0.0, CHILD_TIMEOUT_S - ran)
                if slice_s is not None:
                    wait = min(wait, slice_s)
                if select.select([pidfd], [], [], wait)[0]:
                    break
                if ran + wait >= CHILD_TIMEOUT_S:
                    proc.kill()
                    break
                proc.send_signal(signal.SIGSTOP)
                _, st, ru = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(st):
                    status, usage = st, ru
                    break
                t0 = perf_counter()
                reference_slice(child)
                proc.send_signal(signal.SIGCONT)
                stopped += perf_counter() - t0
        finally:
            os.close(pidfd)
        if status is None:
            _, status, usage = os.wait4(proc.pid, 0)
        child.wall_s = perf_counter() - child.launched - stopped
    finally:
        if status is None:  # interrupted: leave nothing running
            proc.kill()
            os.waitpid(proc.pid, 0)
    proc.returncode = child.code = os.waitstatus_to_exitcode(status)
    message = err_path.read_bytes()
    err_path.unlink()
    if message:
        sys.stderr.write(message.decode("utf-8", "replace"))
    child.cpu_s = usage.ru_utime + usage.ru_stime
    child.peak_rss_mb = usage.ru_maxrss / 1024.0
    reference_slice(child)
    return child


def load_golden() -> dict:
    with open(BENCH / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


def report_digest(report: dict) -> str:
    """sha256 of a verify report with the residual strings removed."""
    stripped = dict(report)
    stripped["relations"] = [
        {k: v for k, v in row.items() if k != "residual"} for row in report["relations"]
    ]
    text = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_output(golden: dict, code: int, stdout: bytes, report: bytes | None) -> str | None:
    """None when the run matches its golden, else what is wrong."""
    if code != 0:
        return "exit code %d" % code
    if "stdout_sha256" in golden:
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != golden["stdout_sha256"]:
            return "stdout sha256 %s != golden" % digest
    if "report_sha256_without_residual" in golden:
        if report is None:
            return "no report written"
        try:
            payload = json.loads(report)
            for key in ("count", "failures"):
                if payload[key] != golden[key]:
                    return "report %s %r != %r" % (key, payload[key], golden[key])
            digest = report_digest(payload)
        except (ValueError, KeyError, TypeError) as exc:
            return "malformed report: %s" % exc
        if digest != golden["report_sha256_without_residual"]:
            return "report sha256 %s != golden" % digest
    return None


class Runner:
    """Runs the children of one benchmark invocation and checks their output."""

    def __init__(self, workload: str, golden: dict, tag: str):
        self.workload = workload
        self.golden = golden
        self.tag = tag
        self.count = 0

    def _paths(self) -> tuple[Path, Path]:
        self.count += 1
        stem = "%s-%d-%d" % (self.tag, os.getpid(), self.count)
        return RESULTS / (stem + ".out"), RESULTS / (stem + ".report.json")

    def run(self, traced_out: Path | None = None, run_id: str = "", slice_s: float | None = SLICE_S) -> Sample:
        stdout_path, report_path = self._paths()
        cli = [str(report_path) if a == REPORT else a for a in WORKLOADS[self.workload]]
        if traced_out is None:
            kind, args = "untraced", ["-m", "assoclab.cli", *cli]
        else:
            kind = "traced"
            args = [str(BENCH / "traced.py"), "--out", str(traced_out), "--run-id", run_id, "--", *cli]
        try:
            child = run_child(args, stdout_path, slice_s)
            stdout = stdout_path.read_bytes()
            report = report_path.read_bytes() if report_path.exists() else None
        finally:
            for p in (stdout_path, report_path):
                if p.exists():
                    p.unlink()
        error = check_output(self.golden, child.code, stdout, report)
        return child.sample(kind, len(stdout) + len(report or b""), error)

    def setup_probe(self) -> Sample:
        """A fresh interpreter that imports the CLI and runs no workload."""
        stdout_path, _ = self._paths()
        try:
            child = run_child(setup_args(), stdout_path)
        finally:
            stdout_path.unlink()
        if child.code != 0:
            raise BenchError("importing assoclab.cli failed with exit code %d" % child.code)
        return child.sample("setup", 0, None)


def setup_args() -> list[str]:
    return ["-c", "import assoclab.cli"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(samples: list[Sample]) -> dict:
    """End-to-end metrics over the samples of one untraced run."""
    work = [s for s in samples if s.kind == "untraced"]
    setup = [s for s in samples if s.kind == "setup"]
    series = {
        "wall_norm_s": [s.wall_norm_s for s in work],
        "cpu_norm_s": [s.cpu_norm_s for s in work],
        "peak_rss_mb": [s.peak_rss_mb for s in work],
        "setup_s": [s.wall_norm_s for s in setup],
        "wall_s": [s.wall_s for s in work],
        "cpu_s": [s.cpu_s for s in work],
        "setup_raw_s": [s.wall_s for s in setup],
        "ok_ratio": [sum(s.error is None for s in work) / len(work)],
    }
    out = {}
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        out[name] = {"value": med, "q1": q1, "q3": q3, "n": len(values)}
    return out


def untraced(runner: Runner, rng: random.Random, seconds: float) -> tuple[list[Sample], dict]:
    start = perf_counter()
    deadline = start + seconds
    samples = [runner.run()]
    took = [perf_counter() - start]  # with the stops and the reference slices
    # machine speed on a shared box swings by tens of percent within seconds,
    # so plan generously from the first child and skip what no longer fits
    room = max(0.0, deadline - perf_counter())
    more = min(MAX_CHILDREN - 1, int(room // max(0.75 * took[0], 1e-3)))
    schedule = ["untraced"] * more + ["setup"] * SETUP_PROBES
    rng.shuffle(schedule)
    for kind in schedule:
        if kind == "setup":
            samples.append(runner.setup_probe())
            continue
        t0 = perf_counter()
        if t0 + statistics.median(took) <= deadline:
            samples.append(runner.run())
            took.append(perf_counter() - t0)
    return samples, summarise(samples)


def traced(runner: Runner, rng: random.Random, run_id: str) -> tuple[list[Sample], dict]:
    trace_path = RESULTS / ("%s.trace.json" % runner.tag)
    order = ["untraced", "traced"]
    rng.shuffle(order)
    if trace_path.exists():
        trace_path.unlink()
    samples = {}
    for kind in order:
        # no stops: the traced child's spans would count them
        samples[kind] = runner.run(trace_path if kind == "traced" else None, run_id, slice_s=None)
    if not trace_path.exists():
        raise BenchError("the traced run wrote no trace: %s" % samples["traced"].error)
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    metrics = dict(trace["metrics"])
    # both ends are time.perf_counter(), a clock shared by all processes on Linux
    traced_wall = trace["main_end"] - samples["traced"].launched
    metrics["cli.output_bytes"] = {"value": samples["untraced"].output_bytes}
    metrics["trace.wall_s"] = {"value": traced_wall}
    metrics["trace.overhead_s"] = {"value": traced_wall - samples["untraced"].wall_s}
    return [samples[k] for k in order], metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    """What a result depends on besides the code; compare.py refuses a mismatch."""
    import mpmath
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(samples: list[Sample], metrics: dict, units: dict[str, str]) -> dict:
    """The last stdout line; set-up probes are not attempted runs."""
    attempted = [s for s in samples if s.kind != "setup"]
    failed = sum(s.error is not None for s in attempted)
    return {
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": u} for n, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="assoclab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "assoclab" / "cli.py").is_file():
            raise BenchError("no src/assoclab under %s: run from a full checkout" % ROOT)
        RESULTS.mkdir(exist_ok=True)
        golden = load_golden()[args.workload]
        units = declared_metrics(bool(args.trace))
        machine = machine_record()
        tag = "%s-trace%d-seed%d" % (args.workload, args.trace, args.seed)
        runner = Runner(args.workload, golden, tag)
        rng = random.Random(args.seed)
        pin_to_one_cpu()
        runner.setup_probe()  # untimed: fills the bytecode cache
        if args.trace:
            samples, metrics = traced(runner, rng, tag)
        else:
            samples, metrics = untraced(runner, rng, args.seconds)
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2

    missing = [n for n in units if n not in metrics]
    if missing:
        sys.stderr.write("perfbench: metrics not measured: %s\n" % ", ".join(missing))
        return 2
    for s in samples:
        if s.error is not None:
            print("FAILED %s run: %s" % (s.kind, s.error))
    shown = dict(units, **{n: "s" for n in RAW_METRICS if n in metrics})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "metrics": {n: dict(metrics[n], unit=u) for n, u in shown.items()},
        "samples": [asdict(s) for s in samples],
    }
    result_path = RESULTS / (tag + ".json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("machine: " + json.dumps(machine, sort_keys=True))
    for n, unit in shown.items():
        m = metrics[n]
        extra = "  (q1 %.6g, q3 %.6g, n=%d)" % (m["q1"], m["q3"], m["n"]) if "n" in m else ""
        print("%-36s %14.6g %s%s" % (n, m["value"], unit, extra))
    print("record: %s" % result_path.relative_to(ROOT))
    result = result_line(samples, metrics, units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
