"""Helpers shared by the test modules, and by tools/crosscheck.py,
which imports this file by path."""

import random
from typing import NamedTuple


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


# the Config keys blocked_rain_spells is run with: a read that times out
# leaves the clock off the grid at either pinned tick length
BLOCKED_SPELLS_CONFIG = {"sms_ok_timeout_ms": 1234}


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
