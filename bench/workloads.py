"""Seeded scenario generators for the benchmark workloads.

Each generator turns (seed) into scenario text in the `t=<ms> <event>`
grammar plus the facts the benchmark checks the report against. The
text is a pure function of the seed: the same seed gives the same bytes
on every machine, because only `random.Random` seeded with a string and
fixed-precision formatting are used.

This module imports nothing from the program under test, so the inputs
and the expectations derived from them stay independent of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# The stock values of scenarios/default.cfg; every other key takes the
# program's default.
CONFIG_TEXT = """\
# Stock tuning; numbers are E.164 test placeholders.
alert_primary_number = +15550001
alert_safety_number = +15550002
alcohol_threshold = 450
alcohol_release = 400
"""

# Run-on after the last event, as `smartcar run` uses when --until-ms is
# not given.
TAIL_MS = 30000

QUERY_WORDS = ("STATUS", "TEMP", "HUM", "LOC", "HELP")
UNKNOWN_WORDS = ("WHERE", "PING", "SPEED?", "open doors", "status please", "42")
UNSUPPORTED_BODIES = (
    "GPGSV,3,1,11,03,03,111,00,04,15,270,00,06,01,010,00,13,06,292,00",
    "GPGSA,A,3,04,05,,09,12,,,24,,,,,2.5,1.3,2.1",
    "GPVTG,054.7,T,034.4,M,005.5,N,010.2,K",
    "GLGSV,2,1,07,65,52,288,36,66,11,339,32,72,55,040,45,73,20,102,41",
    "GPZDA,201530.00,04,07,2002,00,00",
)


@dataclass
class Workload:
    """Generated inputs plus what a correct report must show for them."""

    name: str
    seed: int
    scenario: str
    config: str
    until_ms: int
    gps_good: int  # gps lines whose checksum is valid
    gps_bad: int  # gps lines with a corrupted checksum
    sms_in: int  # inbound messages injected
    counts: dict = field(default_factory=dict)  # events by kind, for the summary


def _frame(body: str) -> str:
    total = 0
    for ch in body:
        total ^= ord(ch)
    return f"${body}*{total:02X}"


def _ddmm(value: float, deg_digits: int) -> str:
    deg = int(value)
    minutes = round((value - deg) * 60.0, 4)
    if minutes >= 60.0:
        deg += 1
        minutes = 0.0
    return f"{deg:0{deg_digits}d}{minutes:07.4f}"


def _utc(t_ms: int) -> str:
    s = t_ms // 1000
    return f"{s // 3600 % 24:02d}{s // 60 % 60:02d}{s % 60:02d}.{t_ms % 1000 // 10:02d}"


class _Route:
    """A car moving on a random heading; yields GGA and RMC bodies."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.lat = rng.uniform(-60.0, 60.0)
        self.lon = rng.uniform(-170.0, 170.0)
        self.d_lat = rng.uniform(-2e-4, 2e-4)
        self.d_lon = rng.uniform(-2e-4, 2e-4)

    def advance(self, seconds: float) -> None:
        self.lat += self.d_lat * seconds
        self.lon += self.d_lon * seconds
        if self.rng.random() < 0.02:
            self.d_lat = self.rng.uniform(-2e-4, 2e-4)
            self.d_lon = self.rng.uniform(-2e-4, 2e-4)

    def _fields(self) -> tuple[str, str]:
        lat = f"{_ddmm(abs(self.lat), 2)},{'S' if self.lat < 0 else 'N'}"
        lon = f"{_ddmm(abs(self.lon), 3)},{'W' if self.lon < 0 else 'E'}"
        return lat, lon

    def gga(self, t_ms: int, talker: str = "GP") -> str:
        lat, lon = self._fields()
        sats = self.rng.randint(4, 12)
        alt = self.rng.uniform(10.0, 900.0)
        return f"{talker}GGA,{_utc(t_ms)},{lat},{lon},1,{sats:02d},0.9,{alt:.1f},M,46.9,M,,"

    def rmc(self, t_ms: int, talker: str = "GP") -> str:
        lat, lon = self._fields()
        speed = self.rng.uniform(0.0, 70.0)
        course = self.rng.uniform(0.0, 359.9)
        return f"{talker}RMC,{_utc(t_ms)},A,{lat},{lon},{speed:05.1f},{course:05.1f},230394,003.1,W"


def _corrupt(line: str, rng: random.Random) -> str:
    """Keep the frame shape but make the checksum disagree with the body."""
    star = line.rfind("*")
    good = int(line[star + 1:], 16)
    bad = good ^ rng.randint(1, 255)
    return f"{line[:star]}*{bad:02X}"


class _Script:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.lines: list[tuple[int, int, str]] = []  # (t_ms, order, text)
        self.counts: dict[str, int] = {}
        self.gps_good = 0
        self.gps_bad = 0

    def add(self, t_ms: int, text: str) -> None:
        self.lines.append((t_ms, len(self.lines), f"t={t_ms} {text}"))
        kind = text.split(" ", 1)[0]
        if kind == "modem_fault":
            kind = text.split(" ", 2)[1]
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def gps(self, t_ms: int, line: str, ok: bool) -> None:
        self.add(t_ms, f"gps {line}")
        if ok:
            self.gps_good += 1
        else:
            self.gps_bad += 1

    def build(self) -> Workload:
        self.lines.sort()
        last = self.lines[-1][0] if self.lines else 0
        text = f"# {self.name} seed={self.seed}\n" + "".join(t + "\n" for _, _, t in self.lines)
        return Workload(
            name=self.name,
            seed=self.seed,
            scenario=text,
            config=CONFIG_TEXT,
            until_ms=last + TAIL_MS,
            gps_good=self.gps_good,
            gps_bad=self.gps_bad,
            sms_in=self.counts.get("sms", 0),
            counts=dict(sorted(self.counts.items())),
        )


def _sender(rng: random.Random) -> str:
    return f"+1555{rng.randint(0, 9999999):07d}"


# Drive lengths: about one host second each, so a run times many drives.
RAIN_DRIVE_MS = 10 * 60 * 1000
IDLE_PARK_MS = 20 * 60 * 1000
COMMS_STORM_MS = 12 * 60 * 1000


# (wet, lowest, highest intensity) of each one-minute spell, in the stock
# config's wiper bands: intermittent <= 300 < low <= 700 < high. The
# drive lasts ten spells; it stops raining as it ends.
RAIN_SPELLS = [(1, 301, 700)] * 4 + [(1, 701, 1023)] * 4 + [(1, 1, 300), (0, 0, 200)]


def rain_drive(seed: int) -> Workload:
    """1 Hz GGA+RMC while driving through rain of changing intensity."""
    rng = random.Random(f"rain_drive:{seed}")
    s = _Script("rain_drive", seed)
    route = _Route(rng)
    for t in range(1000, RAIN_DRIVE_MS + 1, 1000):
        route.advance(1.0)
        s.gps(t, _frame(route.gga(t)), True)
        s.gps(t, _frame(route.rmc(t)), True)
    # one-minute spells, mostly low or high so the servo moves on almost
    # every tick, with one light and one dry spell; the seed picks their
    # order and intensities, not the mix, so drives differ little in cost
    spells = RAIN_SPELLS[:]
    rng.shuffle(spells)
    for k, (wet, lo, hi) in enumerate(spells):
        s.add(k * 60_000 + rng.randint(200, 5_000), f"rain {wet} {rng.randint(lo, hi)}")
    s.add(RAIN_DRIVE_MS, "rain 0 0")
    t = rng.randint(10_000, 60_000)
    while t < RAIN_DRIVE_MS:
        s.add(t, f"cabin {rng.uniform(5.0, 30.0):.1f} {rng.uniform(40.0, 99.0):.1f}")
        t += rng.randint(180_000, 420_000)
    # the owner asks where the car is now and then, and presses panic once,
    # so the modem and message layers are timed here too
    t = rng.randint(30_000, 120_000)
    while t < RAIN_DRIVE_MS:
        s.add(t, f"sms {_sender(rng)} {rng.choice(QUERY_WORDS)}")
        t += rng.randint(90_000, 240_000)
    t = rng.randint(60_000, RAIN_DRIVE_MS - 60_000)
    s.add(t, "panic 1")
    s.add(t + rng.randint(200, 900), "panic 0")
    return s.build()


def idle_park(seed: int) -> Workload:
    """A dry, parked car with no GPS input: almost every tick produces no
    action, so only the per-tick path is left to measure."""
    rng = random.Random(f"idle_park:{seed}")
    s = _Script("idle_park", seed)
    t = rng.randint(5_000, 60_000)
    while t < IDLE_PARK_MS:
        s.add(t, f"cabin {rng.uniform(-5.0, 40.0):.1f} {rng.uniform(20.0, 90.0):.1f}")
        t += rng.randint(120_000, 360_000)
    s.add(IDLE_PARK_MS, f"cabin {rng.uniform(-5.0, 40.0):.1f} {rng.uniform(20.0, 90.0):.1f}")
    t = rng.randint(60_000, 300_000)
    while t < IDLE_PARK_MS - 120_000:
        # a breath test: over the limit or sober, then back to clean air
        s.add(t, f"alcohol {rng.choice((rng.randint(500, 1023), rng.randint(50, 300)))}")
        s.add(t + rng.randint(5_000, 20_000), f"alcohol {rng.randint(0, 60)}")
        t += rng.randint(240_000, 600_000)
    t = rng.randint(30_000, 200_000)
    while t < IDLE_PARK_MS:
        s.add(t, f"sms {_sender(rng)} STATUS")
        t += rng.randint(180_000, 420_000)
    return s.build()


def comms_storm(seed: int) -> Workload:
    """10 Hz NMEA with garbage, SMS queries twice a second, alerts and
    modem faults: the wire protocols and message formats do the work."""
    rng = random.Random(f"comms_storm:{seed}")
    s = _Script("comms_storm", seed)
    route = _Route(rng)
    for t in range(100, COMMS_STORM_MS + 1, 100):
        route.advance(0.1)
        roll = rng.random()
        talker = "GN" if rng.random() < 0.3 else "GP"
        body = route.gga(t, talker) if t // 100 % 2 else route.rmc(t, talker)
        if roll < 0.13:
            s.gps(t, _frame(rng.choice(UNSUPPORTED_BODIES)), True)
        elif roll < 0.25:
            s.gps(t, _corrupt(_frame(body), rng), False)
        else:
            s.gps(t, _frame(body), True)

    # alerts: panic presses and impact bursts. Inbound SMS keep away from
    # them, so a fault armed with an alert hits the alert's send rather
    # than the read of a message: one or two one-shot errors, or a dead
    # window that times the first attempt out, each make the send retry.
    quiet_from = COMMS_STORM_MS - 90_000
    alerts = []
    t = rng.randint(5_000, 20_000)
    while t < quiet_from:
        alerts.append(t)
        roll = rng.random()
        if roll < 0.6:
            for _ in range(rng.randint(1, 2)):
                s.add(t, "modem_fault error_once")
        elif roll < 0.8:
            s.add(t, f"modem_fault silent_for {rng.randint(3_000, 6_000)}")
        if rng.random() < 0.5:
            s.add(t, "panic 1")
            s.add(t + rng.randint(150, 900), "panic 0")
        else:
            s.add(t, "impact 1")
            s.add(t + rng.randint(60, 120), "impact 0")
        t += rng.randint(32_000, 45_000)

    senders = [_sender(rng) for _ in range(8)]
    t = rng.randint(100, 600)
    while t < COMMS_STORM_MS:
        word = rng.choice(UNKNOWN_WORDS) if rng.random() < 0.15 else rng.choice(QUERY_WORDS)
        if rng.random() < 0.3:
            word = word.lower()
        if not any(a - 1_000 <= t <= a + 2_000 for a in alerts):
            s.add(t, f"sms {rng.choice(senders)} {word}")
        t += rng.randint(200, 800)

    # faults between alerts: inbound reads hit one-shot errors, and dead
    # windows time out whatever exchange falls into them
    t = rng.randint(3_000, 10_000)
    n = 0
    while t < quiet_from:
        n += 1
        if n % 3:
            s.add(t, "modem_fault error_once")
        else:
            s.add(t, f"modem_fault silent_for {rng.randint(2_000, 4_000)}")
        t += rng.randint(11_000, 17_000)
    return s.build()


GENERATORS = {
    "rain_drive": rain_drive,
    "idle_park": idle_park,
    "comms_storm": comms_storm,
}
