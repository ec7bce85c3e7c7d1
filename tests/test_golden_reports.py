"""Golden reports: the byte-exact `smartcar-report v1` of each bundled
scenario and of each benchmark drive at seeds 201 and 202, pinned by
SHA-256.

The report is the contract of the simulator, so any change to the
program that alters one of these digests changes behaviour. A change
that means to alter a report updates its digest here and says why.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from smartcar.cli import main
from smartcar.config import load_config
from smartcar.sim.runner import run
from smartcar.sim.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

GOLDEN_SHA256 = {
    "cold_start": "8e006b3ff2320ad1eafd03c8aaf20369f77dd51cd269781ded9996b9ae766524",
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


# the long generated drives of bench/workloads.py, by seed
WORKLOAD_SHA256 = {
    201: {
        "comms_storm": "e81b4b127efd9365648f98e99d1d0d3041e170aea43137ff74cf2b444f215583",
        "idle_park": "c509c4d64bd8280c307e447e40346e712ce33427fb0c0cf8ddd6efb340505f6f",
        "rain_drive": "ae1de44457e2a31dbe31be84233a2e6a831e375a208b2889d3404426950ecab1",
    },
    202: {
        "comms_storm": "569ae2b3cbae41e771f8e006ab3f8db25dff0fddae34f4adb673435dfa9723a9",
        "idle_park": "54f12a56306edffb5566e7a829f58724f1fd139e1c143a20d90cf8e5e88ac4ac",
        "rain_drive": "c91b3613eed93a37f4faaf55c796b850ebb90b8e7900feb90d7c71f457e76a07",
    },
}


def load_workloads():
    """bench/workloads.py, imported by path: bench/ is not a package."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


GENERATORS = load_workloads().GENERATORS


def test_every_workload_has_a_digest():
    for digests in WORKLOAD_SHA256.values():
        assert sorted(GENERATORS) == sorted(digests)


@pytest.mark.parametrize("name,seed", [
    pytest.param(name, seed, id=name if seed == 201 else f"{name}-seed{seed}")
    for seed, digests in WORKLOAD_SHA256.items()
    for name in sorted(digests)
])
def test_workload_report_matches_golden_digest(name, seed):
    w = GENERATORS[name](seed)
    text = run(load_scenario(w.scenario), load_config(w.config), w.until_ms).serialize()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == WORKLOAD_SHA256[seed][name]
