"""Line-oriented scenario scripts: `t=<ms> <event> <args...>`.

Events set virtual-device state at their timestamp: sensor channels are
levels that hold until the next event on the same channel, gps/sms lines
inject traffic, modem_fault arms a fault. `#` starts a comment; blank
lines are skipped. Events are sorted stably by time, so same-tick events
apply in file order.

    t=1000 gps $GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A
    t=5000 impact 1
    t=5060 impact 0
    t=8000 sms +15550100 STATUS
    t=9000 modem_fault silent_for 30000
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..modem import check_body, check_number
from ..types import ADC_MAX, ModemError, ScenarioError, read_utf8


@dataclass(frozen=True)
class Impact:
    t_ms: int
    level: int


@dataclass(frozen=True)
class Panic:
    t_ms: int
    level: int


@dataclass(frozen=True)
class Alcohol:
    t_ms: int
    counts: int


@dataclass(frozen=True)
class Rain:
    t_ms: int
    wet: int
    intensity: int


@dataclass(frozen=True)
class Cabin:
    t_ms: int
    temp_c: float
    humidity_pct: float


@dataclass(frozen=True)
class GpsLine:
    t_ms: int
    text: str


@dataclass(frozen=True)
class SmsIn:
    t_ms: int
    sender: str
    body: str


ERROR_ONCE = "error_once"
SILENT_FOR = "silent_for"


@dataclass(frozen=True)
class ModemFault:
    t_ms: int
    mode: str  # ERROR_ONCE or SILENT_FOR
    duration_ms: int = 0


ScenarioEvent = Union[Impact, Panic, Alcohol, Rain, Cabin, GpsLine, SmsIn, ModemFault]


def _int_arg(text: str, lineno: int, what: str, lo: int, hi: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ScenarioError(f"line {lineno}: {what} must be an integer, got {text!r}") from None
    if not lo <= value <= hi:
        raise ScenarioError(f"line {lineno}: {what} out of range {lo}..{hi}: {value}")
    return value


def _float_arg(text: str, lineno: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ScenarioError(f"line {lineno}: {what} must be a number, got {text!r}") from None


def _parse_line(s: str, lineno: int) -> ScenarioEvent:
    head, _, rest = s.partition(" ")
    if not head.startswith("t="):
        raise ScenarioError(f"line {lineno}: expected t=<ms> prefix, got {head!r}")
    try:
        t_ms = int(head[2:])
    except ValueError:
        raise ScenarioError(f"line {lineno}: bad timestamp {head!r}") from None
    if t_ms < 0:
        raise ScenarioError(f"line {lineno}: negative timestamp {t_ms}")

    word, _, args = rest.strip().partition(" ")
    if word == "impact":
        return Impact(t_ms, _int_arg(args, lineno, "impact level", 0, 1))
    if word == "panic":
        return Panic(t_ms, _int_arg(args, lineno, "panic level", 0, 1))
    if word == "alcohol":
        return Alcohol(t_ms, _int_arg(args, lineno, "alcohol counts", 0, ADC_MAX))
    if word == "rain":
        parts = args.split()
        if len(parts) != 2:
            raise ScenarioError(f"line {lineno}: rain needs <wet> <intensity>")
        return Rain(
            t_ms,
            _int_arg(parts[0], lineno, "rain wet level", 0, 1),
            _int_arg(parts[1], lineno, "rain intensity", 0, ADC_MAX),
        )
    if word == "cabin":
        parts = args.split()
        if len(parts) != 2:
            raise ScenarioError(f"line {lineno}: cabin needs <temp_c> <humidity_pct>")
        hum = _float_arg(parts[1], lineno, "humidity")
        if not 0.0 <= hum <= 100.0:
            raise ScenarioError(f"line {lineno}: humidity out of range 0..100: {hum}")
        return Cabin(t_ms, _float_arg(parts[0], lineno, "temperature"), hum)
    if word == "gps":
        if not args:
            raise ScenarioError(f"line {lineno}: gps needs the sentence text")
        return GpsLine(t_ms, args)
    if word == "sms":
        sender, _, body = args.partition(" ")
        if not sender or not body:
            raise ScenarioError(f"line {lineno}: sms needs <sender> <body>")
        try:
            check_number(sender)
            check_body(body)
        except ModemError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
        return SmsIn(t_ms, sender, body)
    if word == "modem_fault":
        mode, _, extra = args.partition(" ")
        if mode == ERROR_ONCE:
            if extra:
                raise ScenarioError(f"line {lineno}: error_once takes no argument")
            return ModemFault(t_ms, ERROR_ONCE)
        if mode == SILENT_FOR:
            ms = _int_arg(extra, lineno, "silence duration", 1, 10**9)
            return ModemFault(t_ms, SILENT_FOR, ms)
        raise ScenarioError(f"line {lineno}: unknown modem fault {mode!r}")
    raise ScenarioError(f"line {lineno}: unknown event {word!r}")


def load_scenario(source: str) -> list[ScenarioEvent]:
    events = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        events.append(_parse_line(s, lineno))
    return sorted(events, key=lambda e: e.t_ms)


def load_scenario_file(path: str) -> list[ScenarioEvent]:
    return load_scenario(read_utf8(path, ScenarioError))
