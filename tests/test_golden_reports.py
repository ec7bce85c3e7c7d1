"""Golden reports: the byte-exact `smartcar-report v1` of every drive
in tests/helpers.py's PINNED registry, pinned by SHA-256: the bundled
scenarios, the benchmark drives at two seeds, the hour of rain and
ten minutes of rain spells, with and without faulted queries.

The report is the contract of the simulator, so any change to the
program that alters one of these digests changes behaviour. A change
that means to alter a report updates its digest in the registry and
says why. The same reports also check the in-process records view:
printed back as lines, it must give the serialized report. The module
entry point, `python -m smartcar`, runs in a fresh interpreter on one
bundled scenario and on one malformed scenario.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from smartcar.cli import main
from smartcar.config import Config
from smartcar.sim.runner import REPORT_HEADER, run
from smartcar.sim.scenario import load_scenario

from helpers import PINNED, ROOT, WORKLOAD_SEEDS, load_workloads

SCENARIOS = ROOT / "scenarios"


def test_every_bundled_scenario_has_a_digest():
    assert {label for label in PINNED if label.startswith("bundled ")} == {
        f"bundled {p.stem}" for p in SCENARIOS.glob("*.txt")
    }


def test_every_workload_has_a_digest():
    assert {label for label in PINNED if label.startswith("workload ")} == {
        f"workload {name} seed={seed}" for seed in WORKLOAD_SEEDS for name in load_workloads().GENERATORS
    }


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.txt")))
def test_report_matches_golden_digest(name, tmp_path):
    # through the CLI, which reads the files and writes the report itself
    out = tmp_path / "report.txt"
    code = main([
        "run",
        "--scenario", str(SCENARIOS / f"{name}.txt"),
        "--config", str(SCENARIOS / "default.cfg"),
        "--report", str(out),
    ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[f"bundled {name}"].sha256


def python_m_smartcar(*args):
    """`python -m smartcar` with args, run in a fresh interpreter with
    src/ first on its path; the finished process, output as bytes."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "smartcar", *args], capture_output=True, env=env, cwd=ROOT)


def test_module_entry_point_prints_the_report():
    proc = python_m_smartcar(
        "run", "--scenario", "scenarios/crash_demo.txt", "--config", "scenarios/default.cfg"
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED["bundled crash_demo"].sha256


def test_module_entry_point_rejects_a_bad_scenario(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("t=10 impact 5\n")
    proc = python_m_smartcar("check", "--scenario", str(bad))
    assert proc.returncode == 1
    assert b"line 1" in proc.stderr


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


@pytest.mark.parametrize("label", PINNED)
def test_pinned_drive_matches_its_digest(label):
    drive = PINNED[label]
    report = run(*drive.build())
    assert hashlib.sha256(report.serialize().encode()).hexdigest() == drive.sha256
    if not drive.long:
        assert_records_match_text(report)
