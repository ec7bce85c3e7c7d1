"""Golden reports: the byte-exact `smartcar-report v1` of each bundled
scenario, pinned by SHA-256.

The report is the contract of the simulator, so any change to the
program that alters one of these digests changes behaviour. A change
that means to alter a report updates its digest here and says why.
"""

import hashlib
from pathlib import Path

import pytest

from smartcar.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN_SHA256 = {
    "crash_demo": "a7d00fc85780bb0a5969e509d7de201c035ff45ede7c00c23da2612887938c26",
    "drunk_start": "301eb32d629c58f086c8b026363e737adb3db5d7bac56d25d944e93a869f379d",
    "remote_query": "014d49190e1924135eb7a3c7d8e84959f107b4e0e72e3a7f514e76b64066a2cf",
}


def test_every_bundled_scenario_has_a_digest():
    assert sorted(p.stem for p in SCENARIOS.glob("*.txt")) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_report_matches_golden_digest(name, tmp_path):
    out = tmp_path / "report.txt"
    code = main([
        "run",
        "--scenario", str(SCENARIOS / f"{name}.txt"),
        "--config", str(SCENARIOS / "default.cfg"),
        "--report", str(out),
    ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[name]
