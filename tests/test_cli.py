"""Exercise the command line front end through main(argv)."""

from __future__ import annotations

import json

import pytest
from mpmath import mp

from assoclab import cli
from assoclab.cli import main

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


def test_order_cap_env_not_integer(monkeypatch):
    monkeypatch.setenv("ASSOCLAB_MAX_ORDER", "soon")
    assert main(["relations", "--order", "3"]) == 2


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
    # digits too low
    assert main(["eval", "--zeta", "2", "--digits", "3"]) == 2


def test_missing_subcommand_and_unknown_flag(capsys):
    assert main([]) == 2
    assert main(["relations", "--frobnicate"]) == 2


def test_selftest_all_ok(capsys):
    code, out = run_capture(capsys, ["selftest"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 8
    assert all(ln.startswith("ok - ") for ln in lines)


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


@pytest.mark.parametrize("argv", [
    ["expand", "--order", "2", "--output"],
    ["verify", "--order", "2", "--digits", "20", "--report"],
], ids=["expand-output", "verify-report"])
def test_unwritable_path_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.json"
    assert main(argv + [str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write %s" % target)


def test_verify_failure_is_reported(tmp_path, capsys, monkeypatch):
    from assoclab.relations import comparison_relations

    target = comparison_relations(3)[-1]
    real = cli.verify_relation

    def planted(rel, prec):
        res = real(rel, prec)
        if rel.expr == target.expr:
            return res._replace(residual=mp.mpf("0.25"), ok=False)
        return res

    monkeypatch.setattr(cli, "verify_relation", planted)
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
