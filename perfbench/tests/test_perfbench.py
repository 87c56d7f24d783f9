"""Tests of the benchmark itself (not of assoclab).

    python3 -m pytest -q perfbench/tests

They run small CLI configurations only, so they take a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from assoclab import cli  # noqa: E402


def cli_stdout(capsys, argv) -> bytes:
    assert cli.main(argv) == 0
    return capsys.readouterr().out.encode("utf-8")


def sample(kind, wall, error=None, ref=run.REF_S):
    return run.Sample(kind, wall, wall, ref, ref, 1, 30.0, 0, error, 0.0)


def test_corrupted_stdout_counts_as_failed(capsys):
    out = cli_stdout(capsys, ["relations", "--order", "4", "--aux", "all", "--reduce"])
    golden = {"stdout_sha256": hashlib.sha256(out).hexdigest()}
    assert run.check_output(golden, 0, out, None) is None
    corrupted = out.replace(b"z[", b"d[", 1)
    assert run.check_output(golden, 0, corrupted, None) is not None
    assert run.check_output(golden, 1, out, None) == "exit code 1"

    samples = [
        sample("untraced", 1.0),
        sample("untraced", 1.0, run.check_output(golden, 0, corrupted, None)),
        sample("setup", 0.2),
    ]
    metrics = run.summarise(samples)
    assert metrics["ok_ratio"]["value"] == 0.5
    result = run.result_line(samples, metrics, {"wall_norm_s": "s", "ok_ratio": "ratio"})
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_verify_report_check_ignores_only_residuals(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--order", "3", "--digits", "30", "--report", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    golden = {"count": payload["count"], "failures": 0,
              "report_sha256_without_residual": run.report_digest(payload)}
    assert run.check_output(golden, 0, b"", report.read_bytes()) is None

    residual = json.loads(report.read_text())
    residual["relations"][0]["residual"] = "1.2345e-99"
    assert run.check_output(golden, 0, b"", json.dumps(residual).encode()) is None

    for key, value in (("lhs", "0"), ("provenance", {"kind": "known", "name": "x"})):
        bad = json.loads(report.read_text())
        bad["relations"][0][key] = value
        assert run.check_output(golden, 0, b"", json.dumps(bad).encode()) is not None
    bad = dict(payload, failures=1)
    assert run.check_output(golden, 0, b"", json.dumps(bad).encode()) is not None
    assert run.check_output(golden, 0, b"", None) == "no report written"
    assert run.check_output(golden, 0, b"", b"{not json") is not None


def _namespaces():
    import assoclab
    from assoclab import relations, symring

    owners = [assoclab] + [getattr(assoclab, m) for m in traced.MODULES]
    owners += [relations.Relation, symring.SymExpr, symring.SymMonomial]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_wrappers_restore_original_attributes(capsys):
    from assoclab import delta_side, freealg, relations, symring

    before = _namespaces()
    originals = (cli.main, freealg.nc_mul, relations.reduce, symring.SymExpr.__mul__)
    with traced.Tracer():
        assert cli.main is not originals[0]
        assert delta_side.nc_mul is freealg.nc_mul is not originals[1]
        assert cli.reduce_relations is relations.reduce is not originals[2]
        assert symring.SymExpr.__mul__ is not originals[3]
        assert delta_side.iint_to_sym is relations.iint_to_sym
        cli.main(["expand", "--order", "3"])
    capsys.readouterr()
    after = _namespaces()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), owner
        changed = [k for k in attrs if now[k] is not attrs[k]]
        assert not changed, (owner, changed)


def test_wrappers_restored_when_cli_raises():
    from assoclab import relations

    original = relations.reduce
    with pytest.raises(ZeroDivisionError):
        with traced.Tracer():
            1 / 0
    assert relations.reduce is original and cli.reduce_relations is original


def test_self_times_sum_to_at_most_wall(capsys):
    tracer = traced.Tracer("t")
    t0 = perf_counter()
    with tracer:
        cli.main(["relations", "--order", "5", "--aux", "all", "--reduce"])
    wall = perf_counter() - t0
    capsys.readouterr()

    selfs = traced.self_times(tracer.spans)
    assert all(s >= -1e-6 for s in selfs)
    counted = tracer.times["expr_mul"] + tracer.times["expr_add"]
    assert sum(selfs) + counted <= wall
    root = tracer.spans[0]
    assert root[0] == "cli.main" and root[3] == -1
    assert sum(selfs) + counted == pytest.approx(root[2] - root[1], rel=1e-6)
    assert {s[4] for s in tracer.spans} == {"t"}

    slices = traced.slice_probe(*tracer.reduce_args[0])
    metrics = traced.layer_metrics(tracer, slices)
    assert sum(metrics["%s.self_s" % m][0] for m in traced.MODULES) <= wall
    assert metrics["relations.kept_rows"][0] > 0
    assert metrics["relations.slice_rows.w5"][0] > metrics["relations.slice_rows.w4"][0] > 0


def test_setup_is_measured_without_a_workload():
    args = run.setup_args()
    assert not set(args) & {"expand", "relations", "verify", "eval", "selftest"}
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=run.child_env(), capture_output=True, timeout=60
    )
    assert proc.returncode == 0 and proc.stdout == b""
    metrics = run.summarise([sample("untraced", 10.0), sample("setup", 0.2), sample("setup", 0.4)])
    assert metrics["setup_s"]["value"] == pytest.approx(0.3)
    assert metrics["wall_norm_s"]["value"] == 10.0


def test_times_are_scaled_by_the_reference_slices():
    slow = sample("untraced", 10.0, ref=2 * run.REF_S)
    assert slow.wall_norm_s == slow.cpu_norm_s == pytest.approx(5.0)
    metrics = run.summarise([slow, sample("setup", 0.4, ref=2 * run.REF_S)])
    assert metrics["wall_s"]["value"] == 10.0
    assert metrics["wall_norm_s"]["value"] == pytest.approx(5.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)


def test_child_wall_time_leaves_out_its_stops(tmp_path):
    busy = "import time\nwhile time.process_time() < 0.4: pass"
    t0 = perf_counter()
    child = run.run_child(["-c", busy], tmp_path / "out", slice_s=0.05)
    elapsed = perf_counter() - t0
    assert child.code == 0 and child.cpu_s >= 0.4
    assert len(child.ref_wall) == len(child.ref_cpu) >= 4  # before, after and stops
    assert child.wall_s + sum(child.ref_wall) <= elapsed


def test_child_past_its_timeout_is_killed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.3)
    t0 = perf_counter()
    child = run.run_child(["-c", "import time; time.sleep(60)"], tmp_path / "out", slice_s=0.05)
    assert child.code == -9 and perf_counter() - t0 < 10


def test_compare_refuses_different_machines(tmp_path):
    machine = {"python": "3.11.7", "nproc": 2, "cpu_model": "x", "mpmath": "1.3.0",
               "mpmath_backend": "python"}
    rec = {"workload": "reduce-o8", "trace": 0, "seconds": 30, "machine": machine,
           "metrics": {"wall_norm_s": {"value": 1.0, "unit": "s"}}}
    other = dict(rec, machine=dict(machine, mpmath_backend="gmpy"))
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(json.dumps(rec))
    b.write_text(json.dumps(other))
    c.write_text(json.dumps(rec))
    assert "mpmath_backend" in compare.comparable(rec, other)
    assert compare.main([str(a), str(b)]) == 2
    assert compare.main([str(a), str(c)]) == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce-o8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
