"""Line-oriented scenario scripts: `t=<ms> <event> <args...>`.

Level words (impact, panic, alcohol, rain, cabin) set SensorFrame fields,
which hold until they are set again; SensorFrame holds each field's range
and its value before the first set. gps/sms lines inject traffic,
modem_fault arms a fault. `#` starts a comment; blank lines are skipped.
Lines are split as types.content_lines splits them.
Events are sorted stably by time, so same-tick events apply in file order.

    t=1000 gps $GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A
    t=5000 impact 1
    t=5060 impact 0
    t=8000 sms +15550100 STATUS
    t=9000 modem_fault silent_for 30000
"""

from __future__ import annotations

from typing import NamedTuple, Union

from ..modem import check_body, check_number
from ..types import ModemError, ScenarioError, SensorFrame, content_lines, read_utf8
from ..types import parse_decimal, parse_int

# the SensorFrame fields each level word sets, in argument order
_LEVEL_FIELDS = {
    "impact": ("impact",),
    "panic": ("panic",),
    "alcohol": ("alcohol_raw",),
    "rain": ("rain_wet", "rain_intensity"),
    "cabin": ("temp_c", "humidity_pct"),
}
# each SensorFrame field's parser, and what its error calls the value
_FIELD_PARSERS = {
    name: (parse_int, "an integer") if type(default) is int else (parse_decimal, "a number")
    for name, default in SensorFrame._field_defaults.items()
}


class Levels(NamedTuple):
    """(SensorFrame field name, value) pairs that hold from t_ms on."""

    t_ms: int
    values: tuple[tuple[str, int | float], ...]


class GpsLine(NamedTuple):
    t_ms: int
    text: str


class SmsIn(NamedTuple):
    t_ms: int
    sender: str
    body: str


class ErrorOnce(NamedTuple):  # the modem's next answered command fails with ERROR
    t_ms: int


class SilentFor(NamedTuple):  # the modem drops every byte written for duration_ms
    t_ms: int
    duration_ms: int


ScenarioEvent = Union[Levels, GpsLine, SmsIn, ErrorOnce, SilentFor]


def _levels(t_ms: int, word: str, args: str, lineno: int) -> Levels:
    names = _LEVEL_FIELDS[word]
    parts = args.split()
    if len(parts) != len(names):
        raise ScenarioError(f"line {lineno}: {word} needs " + " ".join(f"<{n}>" for n in names))
    values = {}
    for name, text in zip(names, parts):
        parse, what = _FIELD_PARSERS[name]
        try:
            values[name] = parse(text)
        except ValueError:
            raise ScenarioError(f"line {lineno}: {name} must be {what}, got {text!r}") from None
    try:
        SensorFrame(**values)  # the ranges live there
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: {exc}") from None
    return Levels(t_ms, tuple(values.items()))


def _parse_line(s: str, lineno: int) -> ScenarioEvent:
    head, _, rest = s.partition(" ")
    if not head.startswith("t="):
        raise ScenarioError(f"line {lineno}: expected t=<ms> prefix, got {head!r}")
    try:
        t_ms = parse_int(head[2:])
    except ValueError:
        raise ScenarioError(f"line {lineno}: bad timestamp {head!r}") from None
    if t_ms < 0:
        raise ScenarioError(f"line {lineno}: negative timestamp {t_ms}")

    word, _, args = rest.strip().partition(" ")
    if word in _LEVEL_FIELDS:
        return _levels(t_ms, word, args, lineno)
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
        if mode == "error_once":
            if extra:
                raise ScenarioError(f"line {lineno}: error_once takes no argument")
            return ErrorOnce(t_ms)
        if mode == "silent_for":
            try:
                ms = parse_int(extra.strip())
            except ValueError:
                raise ScenarioError(
                    f"line {lineno}: silence duration must be an integer, got {extra!r}"
                ) from None
            if not 1 <= ms <= 10**9:
                raise ScenarioError(f"line {lineno}: silence duration out of range 1..{10**9}: {ms}")
            return SilentFor(t_ms, ms)
        raise ScenarioError(f"line {lineno}: unknown modem fault {mode!r}")
    raise ScenarioError(f"line {lineno}: unknown event {word!r}")


def load_scenario(source: str) -> list[ScenarioEvent]:
    events = [_parse_line(s, lineno) for lineno, s in content_lines(source)]
    return sorted(events, key=lambda e: e.t_ms)


def load_scenario_file(path: str) -> list[ScenarioEvent]:
    return load_scenario(read_utf8(path, ScenarioError))
