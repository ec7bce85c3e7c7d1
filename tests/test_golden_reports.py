"""Golden reports: the byte-exact `smartcar-report v1` of each bundled
scenario, of each benchmark drive at seeds 201 and 202 and of two
drives of short rain spells, one with faulted queries, at two tick
lengths, pinned by SHA-256.

The report is the contract of the simulator, so any change to the
program that alters one of these digests changes behaviour. A change
that means to alter a report updates its digest here and says why.
The same reports also check the in-process records view: printed back
as lines, it must give the serialized report.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from smartcar.cli import DEFAULT_TAIL_MS, main
from smartcar.config import Config, load_config, load_config_file
from smartcar.sim.runner import REPORT_HEADER, run
from smartcar.sim.scenario import load_scenario, load_scenario_file

from helpers import BLOCKED_SPELLS_CONFIG, blocked_rain_spells, rain_spells

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


def assert_records_match_text(report):
    """The records view, printed as report lines between the header and
    the C/F/V tail, gives the serialized report back."""
    records = report.records
    assert {r.tag for r in records} <= {"A", "S", "M"}
    head = [REPORT_HEADER, f"tick_ms={report.tick_ms}", f"until_ms={report.until_ms}"]
    body = [f"{r.tag} t={r.t_ms} {r.text}" for r in records]
    tail = [f"C {name}={value}" for name, value in vars(report.counters).items()]
    tail += [f"F {key}={value}" for key, value in report.final_state]
    tail += [f"V {text}" for text in report.violations]
    assert report.serialize() == "\n".join(head + body + tail) + "\n"


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
    report = run(load_scenario(w.scenario), load_config(w.config), w.until_ms)
    text = report.serialize()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == WORKLOAD_SHA256[seed][name]
    assert_records_match_text(report)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_records_view_matches_bundled_report(name):
    events = load_scenario_file(SCENARIOS / f"{name}.txt")
    config = load_config_file(SCENARIOS / "default.cfg")
    report = run(events, config, events[-1].t_ms + DEFAULT_TAIL_MS)  # as `smartcar run` does
    assert hashlib.sha256(report.serialize().encode()).hexdigest() == GOLDEN_SHA256[name]
    assert_records_match_text(report)


def test_records_view_keeps_spaces_and_t_inside_a_text():
    # the failed read's note has spaces; the reply's "dest=" holds a "t="
    report = run(load_scenario(
        "t=1000 modem_fault error_once\nt=1000 sms +15550100 STATUS\nt=5000 sms +15550101 TEMP\n"
    ), Config(), 8000)
    records = [tuple(r) for r in report.records]
    assert ("A", 1000, "note inbound-read-failed: failed to fetch stored SMS at index 1") in records
    assert ("A", 5000, "reply dest=+15550101 body=TEMP=20.0C") in records
    assert ("M", 5000, "dest=+15550101 body=TEMP=20.0C") in records
    assert_records_match_text(report)


# the ten minutes of 1-6 s rain spells of tests/helpers.py's rain_spells
# at SPELLS_SEED, by tick length: a wiper sweep starts at a new offset
# within its second every few seconds
SPELLS_SEED = 201
SPELLS_SHA256 = {
    7: "c914b1b973a6982a0113da86773ebf48ae85815401064f4622947bbb6d0b3d4d",
    10: "2070c7af696e3cc42691c47c249d3055ef21f860378636e37867a9a268cdb4ae",
}


@pytest.mark.parametrize("tick_ms", sorted(SPELLS_SHA256))
def test_rain_spells_match_golden_digest(tick_ms):
    scenario, until_ms = rain_spells(SPELLS_SEED)
    report = run(load_scenario(scenario), Config(tick_ms=tick_ms), until_ms)
    assert hashlib.sha256(report.serialize().encode()).hexdigest() == SPELLS_SHA256[tick_ms]
    assert_records_match_text(report)


# tests/helpers.py's blocked_rain_spells at SPELLS_SEED, by tick length:
# the rain spells with a faulted STATUS query every 2-9 s, whose read
# may move the clock inside its visit while the wiper is mid-cycle
BLOCKED_SPELLS_SHA256 = {
    7: "24652d0b76ef889e20f2724a4d98c963457d6c8c627d9ff87f3990588145e322",
    10: "52d5e73f24ccc69daea1832b9e7c06c189cff3b68fda2a9fd25282ded740bbbf",
}


@pytest.mark.parametrize("tick_ms", sorted(BLOCKED_SPELLS_SHA256))
def test_blocked_rain_spells_match_golden_digest(tick_ms):
    scenario, until_ms = blocked_rain_spells(SPELLS_SEED)
    report = run(load_scenario(scenario), Config(tick_ms=tick_ms, **BLOCKED_SPELLS_CONFIG), until_ms)
    assert hashlib.sha256(report.serialize().encode()).hexdigest() == BLOCKED_SPELLS_SHA256[tick_ms]
    assert_records_match_text(report)
