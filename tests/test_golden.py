"""Golden contract: sha256 of the primary output of fixed CLI runs.

A refactor must leave every digest unchanged.  The verify report is hashed
with its ``residual`` strings removed (last-digit noise is not part of the
contract) and serialised with sorted keys, as the benchmark harness does.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from assoclab.cli import main


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    (["relations", "--order", "5", "--aux", "all", "--reduce", "--format", "text"],
     "a5d54936ce0b75215561c025973fad4f7328df9f8651f4d88f6deba1671cd368"),
    (["relations", "--order", "5", "--aux", "all", "--reduce", "--format", "latex"],
     "4e0836ccee10d790330548613b419753e25a485b3c4e87c52711db3240d44a66"),
    (["relations", "--order", "5", "--aux", "none"],
     "f2fbe3c99133cd90312557c54a0207fc586b4665dbe11a5dd89ca5eb33259f4d"),
    (["expand", "--side", "both", "--order", "5"],
     "ab0add17a2982f2c7ac47f1a73cc32a38d4c858fd8c146a506dfb7f61dda33bb"),
    (["expand", "--side", "both", "--order", "5", "--format", "text"],
     "11f26f05ed7f42598a57b033bc4b63fac8f25cfe4fd39833eafed88ec94451e5"),
]

VERIFY_GOLDENS = {
    2: "7985c0e2cab1b2329c4826c46cf04b7eded9ef8c48fe876477822ea22bd51392",
    3: "f76f754f6a5b9fbf5b84c8383d6dddb2b9172095bb4da2de3632cd2cc0915e00",
    4: "1e43c3c0251878dff069e074cb2cf79ba91a16948daa9467163a6abca084a126",
    5: "fd8c779c5215ba1e259d54fa27cf7f9f5e18b8274253bff60dc1cb6437608d27",
}


@pytest.mark.parametrize(
    "argv,digest",
    OUTPUT_GOLDENS,
    ids=["-".join(a.lstrip("-") for a in argv) for argv, _ in OUTPUT_GOLDENS],
)
def test_output_golden(tmp_path, capsys, argv, digest):
    target = tmp_path / "out"
    assert main(argv + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert _sha(target.read_bytes()) == digest


@pytest.mark.parametrize("order", sorted(VERIFY_GOLDENS))
def test_verify_report_golden(tmp_path, capsys, order):
    report = tmp_path / "report.json"
    assert main(["verify", "--order", str(order), "--digits", "40",
                 "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    for row in payload["relations"]:
        del row["residual"]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert _sha(text.encode("utf-8")) == VERIFY_GOLDENS[order]
