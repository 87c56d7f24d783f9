"""Golden contract: sha256 of the primary output of fixed CLI runs.

A refactor must leave every digest unchanged.  The verify report is hashed
with its ``residual`` strings removed (last-digit noise is not part of the
contract) and serialised with sorted keys, as the benchmark harness does.
The benchmark's own output checks in ``perfbench/golden.json`` are read
(never written) and run here too, so a moved digest fails a test rather
than only the benchmark runs; the verify workload also goes through the
harness's own ``check_output``, loaded from ``perfbench/run.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from assoclab.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_GOLDEN = BENCH / "golden.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_sha(payload: dict) -> str:
    for row in payload["relations"]:
        del row["residual"]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return _sha(text.encode("utf-8"))


def _bench_golden(workload: str) -> dict:
    return json.loads(BENCH_GOLDEN.read_text(encoding="utf-8"))[workload]


OUTPUT_GOLDENS = [
    (["relations", "--order", "2", "--aux", "all", "--reduce"],
     "3d9a891d14556eab572577ca0c98ba505df4fa5922a54a1a728c5792ba5b8d3e"),
    (["relations", "--order", "3", "--aux", "all", "--reduce"],
     "686fc7f2d375890c03994ac03999d5ce39223ce2fcc188881106f06e5e147c77"),
    (["relations", "--order", "4", "--aux", "all", "--reduce"],
     "fdf9e9363fc25090005e9ab27cfa07392494b08240f0985f97f760bc2e016d37"),
    (["relations", "--order", "5", "--aux", "all", "--reduce"],
     "6e670dea150ea173d22e11e886518909cf1a528965a93b09769c43083aa1a8ea"),
    (["relations", "--order", "6", "--aux", "all", "--reduce"],
     "e0304e876af0ba33a23f67a8b28a52d8429387d5c470ea317656148c8a7ad795"),
    (["relations", "--order", "7", "--aux", "all", "--reduce"],
     "5d1d523476cf2a2d723a2a89bd6661cef20392a19fa1e366d3a85c3bce0548d8"),
    (["relations", "--order", "8", "--aux", "all", "--reduce"],
     "dc95d669b5b496e51501fbdd24f7297c1faff611c5ca46ed77dc4c1470013b93"),
    (["relations", "--order", "9", "--aux", "all", "--reduce"],
     "ad700e212f9454ec5704a076a17dd30108a0a9ab7603ed5c87162045cf22834c"),
    (["relations", "--order", "6", "--aux", "shuffle", "--reduce"],
     "bab05eb5fad78d4a61cc297a3f379db8e9948c78f702f89810162f9d86ebd57c"),
    (["relations", "--order", "5", "--aux", "all", "--reduce", "--format", "text"],
     "a5d54936ce0b75215561c025973fad4f7328df9f8651f4d88f6deba1671cd368"),
    (["relations", "--order", "5", "--aux", "all", "--reduce", "--format", "latex"],
     "4e0836ccee10d790330548613b419753e25a485b3c4e87c52711db3240d44a66"),
    (["relations", "--order", "8", "--aux", "all", "--reduce", "--format", "text"],
     "8063bfc528843d7ef031e0c070dc404c87e763b7ab1c9d7e604aaee35eb2cf6b"),
    (["relations", "--order", "8", "--aux", "all", "--reduce", "--format", "latex"],
     "fac1cb47fa6acd67aa4b3efdf7c142a9dfb9fabe6ddeb243e180a3bc7d369c80"),
    # long unreduced rows, many of them over denominators above 1
    (["relations", "--order", "7", "--aux", "none", "--format", "latex"],
     "e7ff8bcbc7a4eea357782cd0c9039441022c28d4dde378585cd1f0cc5fbb9b10"),
    (["relations", "--order", "5", "--aux", "none"],
     "f2fbe3c99133cd90312557c54a0207fc586b4665dbe11a5dd89ca5eb33259f4d"),
    (["expand", "--side", "both", "--order", "5"],
     "ab0add17a2982f2c7ac47f1a73cc32a38d4c858fd8c146a506dfb7f61dda33bb"),
    (["expand", "--side", "both", "--order", "5", "--format", "text"],
     "11f26f05ed7f42598a57b033bc4b63fac8f25cfe4fd39833eafed88ec94451e5"),
    (["expand", "--side", "delta", "--order", "6"],
     "968c1e4470cc4ca64822efb21ba2f324c627b630135a0c95450da1eecf1f61ff"),
    (["expand", "--side", "both", "--order", "7"],
     "32cf75b3b9f5552772644d7faaa6a34da0cf4b531126c293b69753871bbc4b9e"),
    (["expand", "--side", "delta", "--order", "8"],
     "760ad05aa702dbba29d56bc07042111ff85ab3fb851b0f790056f5b8edd0b9b6"),
    (["expand", "--side", "both", "--order", "8", "--format", "text"],
     "a334556365bf156d8c18c69f46f0e2cd6695ca1bec094cce91c5de04ef45f6e5"),
    # the highest practical order: word sums over the most terms
    (["expand", "--side", "both", "--order", "10"],
     "b134ebd43a05fe40103a289476fd11d3d5f33807b478538875f9c051c9fb6f5a"),
    (["eval", "--zeta", "3,2", "--digits", "50"],
     "23db2f8e3a2fd41f067834ba629a11f7e83e8c2b8481c1d9fe7785c2919c83ed"),
    (["eval", "--delta", "1,2,2", "--digits", "300"],
     "a43040410db831ba2012524b4c7cf8862126da036c0fdbc2fd1f9c092c44f52e"),
    (["eval", "--zeta", "2", "--digits", "2000"],
     "498ed20317afa02b82d9d76cd3024dc09f0a6ff44c9fcb1ea72cdb550d2ed3d5"),
    # a small value (2.4e-11) at the digit bound: its last printed digits
    # sit near the absolute rounding floor of the summation
    (["eval", "--delta", "1,1,1,1,1,1,1,1,1,1,1,13", "--digits", "2000"],
     "1f9881764e181000a74a3b59420ff0a4717c2ba987c01d8ffbb32528cd0fd946"),
    (["eval", "--zeta", "12", "--digits", "1000"],
     "7ad46beea2b6e61f2976166f020f49e30257801ca6a3dbda70dadcf25083f72a"),
]

# keyed by (order, digits)
VERIFY_GOLDENS = {
    (2, 40): "7985c0e2cab1b2329c4826c46cf04b7eded9ef8c48fe876477822ea22bd51392",
    (3, 40): "f76f754f6a5b9fbf5b84c8383d6dddb2b9172095bb4da2de3632cd2cc0915e00",
    (4, 40): "1e43c3c0251878dff069e074cb2cf79ba91a16948daa9467163a6abca084a126",
    (5, 40): "fd8c779c5215ba1e259d54fa27cf7f9f5e18b8274253bff60dc1cb6437608d27",
    (6, 40): "d4d60735254a70b83db6689fae32c5f84f01fb77b8acba98fd2b9e530a81e90f",
    (5, 300): "1ba74d4e831a3fc5505d553cc04fac1a04e819031398c9630e14331b44bfedbc",
}


@pytest.mark.parametrize(
    "argv,digest",
    OUTPUT_GOLDENS,
    ids=["-".join(a.lstrip("-") for a in argv) for argv, _ in OUTPUT_GOLDENS],
)
def test_output_golden(tmp_path, capsys, monkeypatch, argv, digest):
    # the order-7 to order-9 cases run above the default order cap of 6;
    # the cap rises to 10 only for the one order-10 case
    monkeypatch.setenv("ASSOCLAB_MAX_ORDER", "10" if "10" in argv else "9")
    target = tmp_path / "out"
    assert main(argv + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert _sha(target.read_bytes()) == digest


@pytest.mark.parametrize(
    "order,digits",
    sorted(VERIFY_GOLDENS),
    ids=[str(o) if d == 40 else "%d-digits-%d" % (o, d) for o, d in sorted(VERIFY_GOLDENS)],
)
def test_verify_report_golden(tmp_path, capsys, order, digits):
    report = tmp_path / "report.json"
    assert main(["verify", "--order", str(order), "--digits", str(digits),
                 "--report", str(report)]) == 0
    assert _report_sha(json.loads(report.read_text())) == VERIFY_GOLDENS[order, digits]


# reduce-o8 is pinned above as relations --order 8 --aux all --reduce
def test_benchmark_expand_o9_golden(capsys, monkeypatch):
    golden = _bench_golden("expand-o9")
    monkeypatch.setenv("ASSOCLAB_MAX_ORDER", "9")
    assert main(["expand", "--side", "both", "--order", "9"]) == 0
    assert _sha(capsys.readouterr().out.encode("utf-8")) == golden["stdout_sha256"]


def test_benchmark_verify_o7_d300_golden(tmp_path, capsys, monkeypatch):
    golden = _bench_golden("verify-o7-d300")
    monkeypatch.setenv("ASSOCLAB_MAX_ORDER", "9")
    report = tmp_path / "report.json"
    assert main(["verify", "--order", "7", "--digits", "300", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert (payload["count"], payload["failures"]) == (golden["count"], golden["failures"])
    assert _report_sha(payload) == golden["report_sha256_without_residual"]


def test_benchmark_verify_o7_d300_passes_the_harness_check(tmp_path, capsys, monkeypatch):
    # the harness's own check, on the harness's own invocation: a report the
    # harness would reject or crash on fails here first
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    report = tmp_path / "report.json"
    argv = [str(report) if a == run.REPORT else a for a in run.WORKLOADS["verify-o7-d300"]]
    assert argv == ["verify", "--order", "7", "--digits", "300", "--report", str(report)]
    monkeypatch.setenv("ASSOCLAB_MAX_ORDER", run.MAX_ORDER)
    code = main(argv)
    stdout = capsys.readouterr().out.encode("utf-8")
    golden = run.load_golden()["verify-o7-d300"]
    written = report.read_bytes() if report.exists() else None
    assert run.check_output(golden, code, stdout, written) is None
