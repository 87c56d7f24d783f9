"""Exercise the command line front end through main(argv)."""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

import assoclab
from assoclab import cli, freealg, numeric, relations
from assoclab.cli import main
from assoclab.delta_side import phi_delta
from assoclab.freealg import series_to_json
from assoclab.mzv_side import phi_mzv

from oracle_utils import close_enough


def run_capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_expand_both_json(capsys):
    code, out = run_capture(capsys, ["expand", "--order", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "expand"
    assert payload["order"] == 3
    for side in ("mzv", "delta"):
        terms = payload[side]["terms"]
        assert terms[0]["word"] == "1" and terms[0]["coeff"] == "1"
        assert all(len(t["word"]) <= 3 for t in terms)


def test_expand_single_side_text(capsys):
    code, out = run_capture(capsys, ["expand", "--side", "delta", "--order", "2",
                                     "--format", "text"])
    assert code == 0
    assert out.startswith("# series order 2")
    assert "BA:" in out


def test_expand_output_file(tmp_path, capsys):
    target = tmp_path / "series.json"
    code, out = run_capture(capsys, ["expand", "--order", "2", "--output", str(target)])
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["side"] == "both"


class Lazy(list):
    """A list the writer is handed as an iterator; json.dumps reads it as a list."""


def streamed(value):
    """value with every Lazy list replaced by a one-shot iterator."""
    if isinstance(value, dict):
        return {k: streamed(v) for k, v in value.items()}
    if isinstance(value, list):
        items = [streamed(v) for v in value]
        return iter(items) if isinstance(value, Lazy) else items
    return value


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(Lazy)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24,
)


@given(JSON_VALUES)
def test_json_writer_prints_what_json_dumps_prints(value):
    # escapes, non-ASCII text and empty iterators included
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit_json(streamed(value), None)
    assert out.getvalue() == json.dumps(value, indent=2, ensure_ascii=True) + "\n"


def test_json_writer_prints_scalar_leaves_as_json_dumps_does():
    # a bool is an int to isinstance: an int leaf printed by its repr would
    # write True and False where JSON has true and false
    value = [True, 1, False, 0, None, "1", {"a": True, "b": 2}]
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit_json(value, None)
    assert out.getvalue() == json.dumps(value, indent=2) + "\n"


class RecordedStdout:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def test_expand_streams_its_json_in_bounded_writes(monkeypatch):
    monkeypatch.setenv("ASSOCLAB_MAX_ORDER", "8")
    out = RecordedStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["expand", "--side", "both", "--order", "8"]) == 0
    # the whole document, as the command printed it before it streamed
    payload = {"command": "expand", "side": "both", "order": 8}
    for key, build in (("mzv", phi_mzv), ("delta", phi_delta)):
        doc = payload[key] = series_to_json(build(8))
        doc["terms"] = list(doc["terms"])  # json.dumps reads no generator
    assert "".join(out.writes) == json.dumps(payload, indent=2, ensure_ascii=True) + "\n"
    assert len(out.writes) > 1 and max(map(len, out.writes)) <= 256 * 1024
    # joined into blocks of 64 KiB: an unbuffered stdout makes a write(2) per call
    total = sum(map(len, out.writes))
    assert len(out.writes) <= -(-total // (64 * 1024)) + 1


def test_failed_expand_prints_nothing(tmp_path, capsys, monkeypatch):
    def failed(order):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "phi_delta", failed)
    with pytest.raises(KeyboardInterrupt):
        main(["expand", "--order", "3"])
    assert capsys.readouterr().out == ""
    old = tmp_path / "old.json"
    old.write_text("earlier result\n")
    for fmt in ("json", "text"):
        with pytest.raises(KeyboardInterrupt):
            main(["expand", "--order", "3", "--format", fmt, "--output", str(old)])
    assert old.read_text() == "earlier result\n"


def test_relations_order_two_exact(capsys):
    code, out = run_capture(capsys, ["relations", "--order", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    rel = payload["relations"][0]
    assert rel["lhs"] == "d[2] - 1/2*z[2] + 1/2*c^2"  # monic in the delta lead
    assert rel["provenance"]["kind"] == "comparison"


def test_relations_aux_and_reduce(capsys):
    code, out = run_capture(capsys, ["relations", "--order", "4",
                                     "--aux", "all", "--reduce"])
    assert code == 0
    payload = json.loads(out)
    assert payload["reduced"] is True
    assert payload["aux"] == ["duality", "known", "shuffle"]
    # aux rows absorb everything except one genuinely new comparison row
    assert payload["count"] >= 1
    for rel in payload["relations"]:
        assert rel["certificate"] is not None


@pytest.mark.parametrize("order", [0, 1, 2])
def test_relations_reduce_below_the_aux_weights(capsys, order):
    # shuffle rows start at weight 2 and duality rows at weight 3
    code, out = run_capture(capsys, ["relations", "--order", str(order),
                                     "--aux", "all", "--reduce"])
    assert code == 0
    assert json.loads(out)["order"] == order


def test_relations_latex_and_text(capsys):
    code, out = run_capture(capsys, ["relations", "--order", "2",
                                     "--format", "latex"])
    assert code == 0
    assert out.startswith("\\begin{alignat*}")
    assert "\\zeta_{2}" in out

    code, out = run_capture(capsys, ["relations", "--order", "2",
                                     "--format", "text"])
    assert code == 0
    assert out.startswith("w=2 comparison[2:")


def test_relations_bad_aux_is_usage_error(capsys):
    assert main(["relations", "--aux", "shuffle,bogus"]) == 2


def test_order_cap_default(capsys, monkeypatch):
    monkeypatch.delenv("ASSOCLAB_MAX_ORDER", raising=False)
    assert main(["relations", "--order", "7"]) == 2
    monkeypatch.setenv("ASSOCLAB_MAX_ORDER", "7")
    code, out = run_capture(capsys, ["relations", "--order", "7"])
    assert code == 0
    assert json.loads(out)["order"] == 7


def test_order_cap_env_not_integer(capsys, monkeypatch):
    def no_evaluation(order):
        raise AssertionError("evaluation started")

    monkeypatch.setattr(cli, "comparison_relations", no_evaluation)
    # int() reads all but "soon": a non-ASCII digit, a sign, a digit group
    for raw in ("soon", "\u0667", "+7", "1_0", "-1"):
        monkeypatch.setenv("ASSOCLAB_MAX_ORDER", raw)
        assert main(["relations", "--order", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: ASSOCLAB_MAX_ORDER must be a count in ASCII digits, got %r\n" % raw)


def test_blanks_around_integers_are_read(capsys, monkeypatch):
    monkeypatch.setenv("ASSOCLAB_MAX_ORDER", " 6 ")
    code, out = run_capture(capsys, ["relations", "--order", " 3"])
    assert code == 0 and json.loads(out)["order"] == 3
    code, out = run_capture(capsys, ["eval", "--zeta", "3, 2", "--digits", "20 "])
    assert code == 0
    payload = json.loads(out)
    assert payload["composition"] == [3, 2] and payload["digits"] == 20


def test_no_argument_has_a_type_of_its_own():
    # every integer from outside goes through cli._natural; argparse's
    # type=int would also read "1_0", "+3" and non-ASCII digits
    parsers, actions = [cli._parser()], []
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            actions.append(action)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    dests = {a.dest for a in actions}
    assert {"order", "digits", "zeta", "delta", "output", "report"} <= dests
    assert [a.dest for a in actions if a.type is not None] == []


def test_verify_passes_and_reports(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out = run_capture(capsys, ["verify", "--order", "3", "--digits", "30",
                                     "--report", str(report)])
    assert code == 0
    assert "all pass" in out
    payload = json.loads(report.read_text())
    assert payload["failures"] == 0
    assert payload["count"] == len(payload["relations"])
    assert all(r["verdict"] == "pass" for r in payload["relations"])


def test_verify_rejects_low_digits():
    assert main(["verify", "--digits", "5"]) == 2


def test_eval_zeta_json(capsys):
    code, out = run_capture(capsys, ["eval", "--zeta", "2", "--digits", "40"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "zeta" and payload["composition"] == [2]
    with mp.workdps(60):
        assert close_enough(mp.mpf(payload["value"]), mp.pi ** 2 / 6, 38)


def test_eval_delta_text(capsys):
    code, out = run_capture(capsys, ["eval", "--delta", "2,1", "--digits", "30",
                                     "--format", "text"])
    assert code == 0
    v = mp.mpf(out.strip())
    assert 0 < v < 1  # positive and below delta(2)


def test_eval_usage_errors(capsys):
    # inadmissible zeta index
    assert main(["eval", "--zeta", "1,2"]) == 2
    # malformed composition
    assert main(["eval", "--delta", "2,x"]) == 2
    # nonpositive part
    assert main(["eval", "--delta", "0"]) == 2
    # what int() reads but is not a part: digit grouping, a sign, a non-ASCII digit
    capsys.readouterr()
    for raw in ("1_2", "+2", "\u0662"):
        assert main(["eval", "--delta", raw]) == 2
        assert "comma separated integers" in capsys.readouterr().err
    # digits too low
    assert main(["eval", "--zeta", "2", "--digits", "3"]) == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--delta", "1", "--digits", "2000"],
    ["eval", "--delta", ",".join(["1"] * 12)],
    ["eval", "--delta", "24"],
])
def test_eval_at_input_bounds(capsys, argv):
    code, out = run_capture(capsys, argv)
    assert code == 0
    assert json.loads(out)["kind"] == "delta"


@pytest.mark.parametrize("argv,message", [
    (["eval", "--delta", "1", "--digits", "2001"], "digits must be <= 2000"),
    (["verify", "--order", "2", "--digits", "2001"], "digits must be <= 2000"),
    (["eval", "--delta", ",".join(["1"] * 13)], "at most 12 parts"),
    (["eval", "--delta", "25"], "weight must be <= 24"),
    (["eval", "--zeta", "20,5"], "weight must be <= 24"),
    (["relations", "--aux", "all,shuffle", "--reduce"], "all and none must stand alone"),
    (["relations", "--aux", "none,shuffle", "--reduce"], "all and none must stand alone"),
    (["relations", "--aux", ",", "--reduce"], "aux set names must not be empty"),
    (["relations", "--aux", "shuffle,,duality"], "aux set names must not be empty"),
    # what int() reads but is not a count in ASCII digits
    *[(argv + [raw], "%s must be a count in ASCII digits" % argv[-1][2:])
      for raw in ("\u0663", "+3", "1_0", "-1")
      for argv in (["relations", "--order"], ["verify", "--order"],
                   ["verify", "--order", "2", "--digits"], ["eval", "--delta", "1", "--digits"])],
])
def test_input_past_bounds_is_usage_error(capsys, monkeypatch, argv, message):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluation started")

    for name in ("eval_delta", "eval_zeta", "comparison_relations"):
        monkeypatch.setattr(cli, name, no_evaluation)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_missing_subcommand_and_unknown_flag(capsys):
    assert main([]) == 2
    assert main(["relations", "--frobnicate"]) == 2


def test_selftest_all_ok(capsys):
    code, out = run_capture(capsys, ["selftest"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 8
    assert all(ln.startswith("ok - ") for ln in lines)


def test_selftest_reads_the_delta_series_the_cli_prints(capsys, monkeypatch):
    # the swapped quotient swap(psi) / psi is the inverse of the delta side,
    # so its product with its swap is still the unit series
    from assoclab.delta_side import psi_series
    from assoclab.freealg import nc_div, nc_swap

    def swapped_quotient(order):
        psi = psi_series(order)
        return nc_div(nc_swap(psi), psi)

    monkeypatch.setattr(cli, "phi_delta", swapped_quotient)
    code, out = run_capture(capsys, ["selftest"])
    assert code == 1
    failed = [ln for ln in out.splitlines() if not ln.startswith("ok - ")]
    assert failed == ["FAIL - product form rebuilds the delta side"]
    assert "ok - delta side times its swap is the unit series" in out.splitlines()


def test_selftest_needs_only_the_package(tmp_path):
    # a fresh interpreter outside the checkout, with only src on the path
    src = str(Path(assoclab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "assoclab.cli", "selftest"], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8 and all(ln.startswith("ok - ") for ln in lines)


def test_a_reader_that_leaves_early_gets_no_traceback():
    # the reader takes one line and closes the pipe; the rest of the output
    # is far more than the pipe holds, so the next write meets a broken pipe
    src = str(Path(assoclab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "assoclab.cli", "expand", "--order", "8", "--format", "text"],
        env=dict(os.environ, PYTHONPATH=path, ASSOCLAB_MAX_ORDER="8"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"# mzv order 8\n"
    proc.stdout.close()
    assert proc.wait(timeout=600) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_json_outputs_are_deterministic(tmp_path, capsys):
    for argv in (
        ["relations", "--order", "4", "--aux", "all", "--reduce"],
        ["expand", "--order", "3"],
        ["eval", "--zeta", "3,2", "--digits", "30"],
    ):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_outputs_do_not_depend_on_the_hash_seed():
    # generators and monomials hash by identity, so hashes follow memory
    # addresses; the output must not follow them, nor string hash order
    src = str(Path(assoclab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for argv in (
        ["relations", "--order", "6", "--aux", "all", "--reduce"],
        ["expand", "--side", "both", "--order", "6"],
    ):
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path, ASSOCLAB_MAX_ORDER="6")
            proc = subprocess.run(
                [sys.executable, "-m", "assoclab.cli", *argv],
                env=env, capture_output=True, timeout=600, check=True,
            )
            outs.append(proc.stdout)
        assert outs[0] and outs[0] == outs[1], argv


def test_verify_reports_are_byte_identical(tmp_path):
    # a delta value's last bits depend on the batch that summed it, so two
    # fresh runs must sum the same batch: the reports match, residuals included
    src = str(Path(assoclab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    reports = []
    for seed in ("0", "1"):
        out = tmp_path / ("report_%s.json" % seed)
        subprocess.run(
            [sys.executable, "-m", "assoclab.cli", "verify", "--order", "5", "--digits", "300",
             "--report", str(out)],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True, timeout=600, check=True,
        )
        reports.append(out.read_bytes())
    assert b'"residual"' in reports[0] and reports[0] == reports[1]


@pytest.mark.parametrize("argv", [
    ["expand", "--order", "2", "--output"],
    ["verify", "--order", "2", "--digits", "20", "--report"],
], ids=["expand-output", "verify-report"])
def test_unwritable_path_is_usage_error(tmp_path, capsys, argv):
    # the empty path is a path too, not stdout and not "no report"
    for target in (str(tmp_path / "missing" / "out.json"), ""):
        assert main(argv + [target]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write %s: " % target)


def test_verify_checks_report_path_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(order):
        raise AssertionError("relations built before the report path was checked")

    monkeypatch.setattr(cli, "comparison_relations", no_work)
    target = tmp_path / "missing" / "report.json"
    assert main(["verify", "--order", "2", "--digits", "20", "--report", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write %s" % target)


@pytest.mark.parametrize("argv", [
    ["expand", "--order", "2"],
    ["relations", "--order", "2", "--aux", "all", "--reduce"],
    ["eval", "--zeta", "3"],
], ids=["expand", "relations", "eval"])
def test_output_path_is_checked_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    for name in ("phi_mzv", "comparison_relations", "eval_zeta"):
        monkeypatch.setattr(cli, name, no_work)
    target = tmp_path / "missing" / "out.json"
    assert main(argv + ["--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write %s" % target)


def test_usage_error_leaves_existing_output_intact(tmp_path, capsys):
    target = tmp_path / "out.json"
    target.write_text("earlier result\n")
    assert main(["relations", "--order", "99", "--output", str(target)]) == 2
    assert target.read_text() == "earlier result\n"


@pytest.mark.parametrize("argv,flag", [
    (["relations", "--aux", "bogus"], "--output"),
    (["expand", "--order", "99"], "--output"),
    (["verify", "--digits", "5"], "--report"),
], ids=["relations", "expand", "verify"])
def test_usage_error_leaves_no_new_file(tmp_path, capsys, monkeypatch, argv, flag):
    target = tmp_path / "new.json"
    assert main(argv + [flag, str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not target.exists()
    # the empty path is checked, and refused, before the usage error in argv
    monkeypatch.chdir(tmp_path)
    assert main(argv + [flag, ""]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write : ")
    assert os.listdir(tmp_path) == []


def test_interrupted_run_leaves_no_new_file(tmp_path, monkeypatch):
    def interrupted(order):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "comparison_relations", interrupted)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("earlier result\n")
    for target in (new, old):
        with pytest.raises(KeyboardInterrupt):
            main(["relations", "--order", "3", "--output", str(target)])
    assert not new.exists()
    assert old.read_text() == "earlier result\n"


@pytest.mark.parametrize("argv,flag,interrupted", [
    (["relations", "--order", "99"], "--output", False),
    (["verify", "--digits", "5"], "--report", False),
    (["relations", "--order", "3"], "--output", True),
], ids=["usage-error", "usage-error-report", "interrupted"])
def test_failed_run_through_a_dangling_link_leaves_only_the_link(
        tmp_path, monkeypatch, argv, flag, interrupted):
    # opening the link creates its target, which the failed run then removes
    def interrupt(order):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "comparison_relations", interrupt)
    link = tmp_path / "out.json"
    link.symlink_to(tmp_path / "target.json")
    if interrupted:
        with pytest.raises(KeyboardInterrupt):
            main(argv + [flag, str(link)])
    else:
        assert main(argv + [flag, str(link)]) == 2
    assert os.listdir(tmp_path) == ["out.json"] and link.is_symlink()


def _interrupt_after(real, n):
    """``render_each`` that yields real's first n texts, then is interrupted."""
    def render(exprs, *styles):
        texts = real(exprs, *styles)
        for _ in range(n):
            yield next(texts)
        raise KeyboardInterrupt

    return render


@pytest.mark.parametrize("module,argv", [
    (freealg, ["expand", "--order", "3"]),
    (freealg, ["expand", "--order", "3", "--format", "text"]),
    (relations, ["relations", "--order", "6", "--aux", "all", "--reduce"]),
], ids=["expand-json", "expand-text", "relations"])
def test_interrupted_write_keeps_an_existing_file_and_leaves_no_new_one(
        tmp_path, monkeypatch, module, argv):
    # the interrupt comes while the output is being written, after work is done
    monkeypatch.setattr(module, "render_each", _interrupt_after(module.render_each, 5))
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text("earlier result\n")
    old.chmod(0o640)
    for target in (old, new):
        with pytest.raises(KeyboardInterrupt):
            main(argv + ["--output", str(target)])
    assert old.read_text() == "earlier result\n"
    assert old.stat().st_mode & 0o7777 == 0o640
    assert os.listdir(tmp_path) == ["old.json"]  # no new file, no part file


def test_output_replaces_an_existing_file_and_keeps_its_mode(tmp_path, capsys):
    argv = ["expand", "--order", "3", "--format", "text"]
    target, twin = tmp_path / "out.txt", tmp_path / "twin.txt"
    target.write_text("earlier result\n")
    target.chmod(0o604)
    os.link(target, twin)
    code, printed = run_capture(capsys, argv)
    assert run_capture(capsys, argv + ["--output", str(target)]) == (0, "")
    assert target.read_text() == printed and code == 0
    assert target.stat().st_mode & 0o7777 == 0o604
    assert twin.read_text() == "earlier result\n"  # the replaced file's other name
    assert sorted(os.listdir(tmp_path)) == ["out.txt", "twin.txt"]


def test_output_through_a_symlink_is_written_in_place(tmp_path, capsys):
    argv = ["expand", "--order", "3", "--format", "text"]
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("earlier result\n")
    link.symlink_to(real)
    _, printed = run_capture(capsys, argv)
    assert run_capture(capsys, argv + ["--output", str(link)]) == (0, "")
    assert link.is_symlink() and real.read_text() == printed
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]


def test_verify_failure_is_reported(tmp_path, capsys, monkeypatch):
    from assoclab.relations import comparison_relations

    target = comparison_relations(3)[-1]
    real = numeric._row_total

    def planted(e, prec):
        # the target row's integer sum reads a quarter of its scale: 0.25
        if e == target.expr:
            return (e.den << numeric._scale_bits(prec)) // 4
        return real(e, prec)

    monkeypatch.setattr(numeric, "_row_total", planted)
    report = tmp_path / "report.json"
    code, out = run_capture(capsys, ["verify", "--order", "3", "--digits", "20",
                                     "--report", str(report)])
    assert code == 1
    lines = out.splitlines()
    assert lines[0].endswith(": 1 FAILED")
    assert lines[1:] == ["fail %s residual=0.25" % target.provenance.label()]
    payload = json.loads(report.read_text())
    assert payload["failures"] == 1
    failed = [r for r in payload["relations"] if r["verdict"] == "fail"]
    assert len(failed) == 1 and failed[0]["residual"] == "0.25"
    assert failed[0]["provenance"] == target.provenance.to_json()


def test_verify_without_report_renders_nothing(tmp_path, capsys, monkeypatch):
    target = relations.comparison_relations(4)[-1]
    real = numeric._row_total

    def planted(e, prec):
        if e == target.expr:  # one failing row, so a fail line is printed too
            return (e.den << numeric._scale_bits(prec)) // 4
        return real(e, prec)

    monkeypatch.setattr(numeric, "_row_total", planted)
    argv = ["verify", "--order", "4"]
    code, printed = run_capture(capsys, argv + ["--report", str(tmp_path / "report.json")])

    def no_render(*args):
        raise AssertionError("verify rendered a relation it does not print")

    monkeypatch.setattr(relations, "render_each", no_render)
    assert run_capture(capsys, argv) == (code, printed)
    assert code == 1
    assert printed == "verified %d relations at 40 digits: 1 FAILED\nfail %s residual=0.25\n" % (
        len(relations.comparison_relations(4) + relations.aux_relations(relations.AUX_NAMES, 4)),
        target.provenance.label())
