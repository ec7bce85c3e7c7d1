"""Helpers shared by the test modules and by tools/crosscheck.py and
tools/opcount.py, which put tests/ on sys.path and import this file as
the tests do.

PINNED is the one registry of pinned drives: each label maps to the
SHA-256 of the drive's `smartcar-report v1` and a builder of the run.
The golden tests, the every-tick checks and both tools iterate it or
look a drive up by its label, so pinning a new drive is one entry here.
every_tick() is the one visit-every-tick reference that the every-tick
checks compare a run against. report_memory() is the one measurement of
the report's memory, which test_report_holds_its_text_about_once and
tools/crosscheck.py hold to HELD_PER_REPORT and PEAK_PER_REPORT.
Importing this file opens no file and needs no src/ on sys.path: a
builder, every_tick() and report_memory() import bench/workloads.py and
the program when they are called.
"""

import importlib.util
import random
import sys
from contextlib import contextmanager
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Record(NamedTuple):
    tag: str  # "A", "S" or "M"
    t_ms: int
    text: str


def printed_records(report):
    """The report's records read back from its printed text: one Record
    per `<tag> t=<t_ms> <text>` line between the header and the C/F/V
    tail, in order."""
    records = []
    for line in report.serialize().split("\n"):
        if line[:2] in ("A ", "S ", "M "):
            tag, t, text = line.split(" ", 2)
            assert t.startswith("t="), line
            records.append(Record(tag, int(t[2:]), text))
    return records


def typed(values):
    """Each value paired with its type. A NamedTuple equals any tuple with
    the same fields (ErrorOnce(8000) == (8000,)), so lists of events are
    compared through this to still fail on a value of the wrong type."""
    return [(type(value), value) for value in values]


def rain_spells(seed, drive_ms=10 * 60 * 1000):
    """drive_ms of rain spells of 1-6 s at random phases: each spell sets
    a new intensity in any wiper band, or, one time in ten, dry, so a
    wiper sweep starts at a new offset within its second every few
    seconds. Returns the scenario text, a pure function of the seed and
    drive_ms, and the run's until_ms, 3 s after the last spell ends."""
    rng = random.Random(f"rain_spells:{seed}")
    lines, t = [], rng.randint(0, 999)
    while t < drive_ms:
        wet = rng.random() >= 0.1
        lines.append(f"t={t} rain {int(wet)} {rng.randint(1, 1023) if wet else 0}")
        t += rng.randint(1000, 6000)
    return "\n".join(lines) + "\n", t + 3000


def blocked_rain_spells(seed, drive_ms=10 * 60 * 1000):
    """rain_spells' drive plus, every 2-9 s, a modem fault (error_once,
    or silent_for 1-3000 ms) armed with a STATUS query. The fault fails
    the query's read; a silent modem's read times out and moves the
    clock off the tick grid inside its visit, with the wiper anywhere in
    its cycle. Returns the scenario text, a pure function of the seed
    and drive_ms, and the run's until_ms, rain_spells' own."""
    spells, until_ms = rain_spells(seed, drive_ms)
    rng = random.Random(f"blocked_rain_spells:{seed}")
    lines, t = [], rng.randint(2000, 9000)
    while t < drive_ms:
        fault = "error_once" if rng.random() < 0.5 else f"silent_for {rng.randint(1, 3000)}"
        lines += [f"t={t} modem_fault {fault}", f"t={t} sms +15550100 STATUS"]
        t += rng.randint(2000, 9000)
    return spells + "\n".join(lines) + "\n", until_ms


@cache
def load_workloads():
    """bench/workloads.py, imported by path: bench/ is not a package."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _bundled(name):
    """scenarios/<name>.txt with scenarios/default.cfg, as `smartcar run`
    runs it."""
    from smartcar.cli import DEFAULT_TAIL_MS
    from smartcar.config import load_config_file
    from smartcar.sim.scenario import load_scenario_file

    events = load_scenario_file(ROOT / "scenarios" / f"{name}.txt")
    return events, load_config_file(ROOT / "scenarios" / "default.cfg"), events[-1].t_ms + DEFAULT_TAIL_MS


def _workload(name, seed):
    """bench/workloads.py's drive name at seed, with its own config."""
    from smartcar.config import load_config
    from smartcar.sim.scenario import load_scenario

    w = load_workloads().GENERATORS[name](seed)
    return load_scenario(w.scenario), load_config(w.config), w.until_ms


def _generated(drive, tick_ms, **config):
    """drive()'s scenario text and until_ms, with Config(tick_ms, **config)."""
    from smartcar.config import Config
    from smartcar.sim.scenario import load_scenario

    scenario, until_ms = drive()
    return load_scenario(scenario), Config(tick_ms=tick_ms, **config), until_ms


def hour_of_rain():
    """An hour of heavy rain: one sweep."""
    return "t=0 rain 1 900\n", 3_600_000


def dead_modem():
    """An accident with a fix, while the modem stays silent for a minute:
    the alert times out on every attempt and is given up."""
    return (
        "t=1000 gps $GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A\n"
        "t=4000 modem_fault silent_for 60000\n"
        "t=5000 impact 1\n"
        "t=5060 impact 0\n"
    ), 90_000


def gps_cold_start():
    """A GPS receiver finding its fix while an accident alert waits for
    one: a void RMC, a GGA without a fix, a GGA with a malformed
    latitude and a GSV are each stepped and rejected before the first
    valid RMC releases the alert; a LOC query before it gets no fix and
    one after it gets the position."""
    return (
        "t=1000 gps $GPRMC,000001,V,,,,,,,230394,,*3F\n"
        "t=1500 impact 1\n"
        "t=1560 impact 0\n"
        "t=2000 gps $GPGGA,000002,4807.038,N,01131.000,E,0,00,,,M,,M,,*5D\n"
        "t=2500 sms +15550100 LOC\n"
        "t=3000 gps $GPGGA,000003,480.7038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*49\n"
        "t=3500 gps $GPGSV,1,1,01,01,40,083,46*44\n"
        "t=4000 gps $GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A\n"
        "t=4500 sms +15550100 LOC\n"
    ), 20_000


class Drive(NamedTuple):
    sha256: str  # of the serialized report
    build: Callable  # () -> (events, config, until_ms)
    every_tick: bool = False  # also run visiting every tick, which must give the same report
    # a report of hundreds of thousands of lines: the records view and
    # the every-tick reference would take seconds on it, so it checks
    # the wiper's cache bound instead
    long: bool = False


@contextmanager
def every_tick():
    """Within it, the executor visits every tick, as a plain polled loop
    does: SafetyController.next_deadline_ms returns now_ms, so every gap
    is empty and every wiper step, EMA update and GPS line comes from
    stepping the full controller. Its sweep raises, so a gap that should
    not be there shows."""
    from unittest import mock

    from smartcar.controller import SafetyController

    def no_gap_to_sweep(self, ticks):
        raise AssertionError(f"a sweep of {ticks} ticks after t={self.last_frame_ms} while visiting every tick")

    with (
        mock.patch.object(SafetyController, "next_deadline_ms", lambda self, now_ms: now_ms),
        mock.patch.object(SafetyController, "sweep", no_gap_to_sweep),
    ):
        yield


# the seeds each drive of bench/workloads.py is pinned at
WORKLOAD_SEEDS = (201, 202)
SPELLS_SEED = 201

PINNED = {
    **{f"bundled {name}": Drive(sha256, partial(_bundled, name), every_tick=True) for name, sha256 in (
        ("cold_start", "8e006b3ff2320ad1eafd03c8aaf20369f77dd51cd269781ded9996b9ae766524"),
        ("crash_demo", "a7d00fc85780bb0a5969e509d7de201c035ff45ede7c00c23da2612887938c26"),
        ("drunk_start", "301eb32d629c58f086c8b026363e737adb3db5d7bac56d25d944e93a869f379d"),
        ("remote_query", "014d49190e1924135eb7a3c7d8e84959f107b4e0e72e3a7f514e76b64066a2cf"),
    )},
    **{f"workload {name} seed={seed}": Drive(sha256, partial(_workload, name, seed)) for seed, name, sha256 in (
        (201, "comms_storm", "e81b4b127efd9365648f98e99d1d0d3041e170aea43137ff74cf2b444f215583"),
        (201, "idle_park", "c509c4d64bd8280c307e447e40346e712ce33427fb0c0cf8ddd6efb340505f6f"),
        (201, "rain_drive", "ae1de44457e2a31dbe31be84233a2e6a831e375a208b2889d3404426950ecab1"),
        (202, "comms_storm", "569ae2b3cbae41e771f8e006ab3f8db25dff0fddae34f4adb673435dfa9723a9"),
        (202, "idle_park", "54f12a56306edffb5566e7a829f58724f1fd139e1c143a20d90cf8e5e88ac4ac"),
        (202, "rain_drive", "c91b3613eed93a37f4faaf55c796b850ebb90b8e7900feb90d7c71f457e76a07"),
    )},
    # at 1001 each second of the sweep holds one tick
    **{f"hour of rain tick_ms={tick}": Drive(
        sha256, partial(_generated, hour_of_rain, tick), long=True
    ) for tick, sha256 in (
        (7, "e8b276a2039ef9c87954f0a69dc45e4fae9cba0e654e043554f19ffc03b08b12"),
        (10, "810ddc48647282ceeab3c3de4f472b5c4b060ab43ca720c501e411260fbc2ee7"),
        (1001, "bc113a46079a737eb8865a41dda342fd2e89814e8d650f7fb4c7d55eb1005495"),
    )},
    **{f"rain spells tick_ms={tick}": Drive(
        sha256, partial(_generated, partial(rain_spells, SPELLS_SEED), tick), every_tick=True
    ) for tick, sha256 in (
        (7, "c914b1b973a6982a0113da86773ebf48ae85815401064f4622947bbb6d0b3d4d"),
        (10, "2070c7af696e3cc42691c47c249d3055ef21f860378636e37867a9a268cdb4ae"),
    )},
    # a read that times out leaves the clock off the grid at either tick length
    **{f"blocked rain spells tick_ms={tick}": Drive(
        sha256, partial(_generated, partial(blocked_rain_spells, SPELLS_SEED), tick, sms_ok_timeout_ms=1234),
        every_tick=True,
    ) for tick, sha256 in (
        (7, "24652d0b76ef889e20f2724a4d98c963457d6c8c627d9ff87f3990588145e322"),
        (10, "52d5e73f24ccc69daea1832b9e7c06c189cff3b68fda2a9fd25282ded740bbbf"),
    )},
    # the one drive whose alert uses up its retries: S delivered=no, C sms_failed=1
    "dead modem": Drive(
        "b6c1ba937c2df26eab3abbda2607bec63971c10e4472aaa49f6172181d0e72a7",
        partial(_generated, dead_modem, 10), every_tick=True,
    ),
    # the only drive whose GPS lines update_fix rejects for a void RMC, a
    # GGA without a fix and a malformed coordinate
    "gps cold start": Drive(
        "ee14d6a3b0dc6872f92a683072b5b5c365e923bec4c715fff6ff6de65f981cea",
        partial(_generated, gps_cold_start, 10), every_tick=True,
    ),
}

# report_memory()'s bounds on the memory held after its drive and at its
# peak, as multiples of the report's size
HELD_PER_REPORT = 1.25
PEAK_PER_REPORT = 1.5


def report_memory():
    """Ten minutes of heavy rain, one sweep of 60,000 wiper lines, run
    once to warm up, which builds the wiper's cycle tables that outlive
    it, and once under tracemalloc. Returns the memory held after the
    drive and its peak, each divided by the report's size."""
    import tracemalloc

    from smartcar.config import Config
    from smartcar.sim.runner import run
    from smartcar.sim.scenario import load_scenario

    scenario, until_ms, config = "t=0 rain 1 900\n", 600_000, Config()
    run(load_scenario(scenario), config, until_ms)
    events = load_scenario(scenario)
    tracemalloc.start()
    try:
        report = run(events, config, until_ms)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = len(report.serialize())
    return held / size, peak / size
