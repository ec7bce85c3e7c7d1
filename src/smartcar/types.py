"""Shared value types for the telematics core.

Everything here is an immutable value: safe to copy between contexts,
hashable where it matters, and validated on every construction, copies
included. Time is simulation milliseconds supplied by the harness;
nothing in this package reads a wall clock.
"""

from enum import Enum
from typing import NamedTuple

ADC_MAX = 1023  # 10-bit analog inputs
SMS_MAX_LEN = 160  # GSM-7 single-message budget, 1 char = 1 septet


class AlertKind(Enum):
    ACCIDENT = "Accident"
    PANIC = "Panic"
    ALCOHOL = "Alcohol"


class Frozen:
    """An immutable value with its fields in __slots__ (the fastest read) and
    defaults in _field_defaults; it runs the subclass's _validate() on every
    construction, _replace() copies included, and compares field by field."""

    __slots__ = ()
    _field_defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            values = dict(self._field_defaults, **dict(zip(names, args)), **kwargs)
            if len(args) > len(names) or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._validate()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _replace(self, **changes):
        return type(self)(*[changes.pop(name, getattr(self, name)) for name in self.__slots__], **changes)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return type(self).__name__ + repr(self._values())


class GeoFix(Frozen):
    """Latest decoded GPS position, in decimal degrees."""

    __slots__ = ("latitude", "longitude")

    def _validate(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude}")


# (field, low, high) of SensorFrame's analog channels; temp_c is the
# DHT22's span. NaN fails every range.
_RANGES = (
    ("alcohol_raw", 0, ADC_MAX),
    ("rain_intensity", 0, ADC_MAX),
    ("temp_c", -40, 85),
    ("humidity_pct", 0, 100),
)


class SensorFrame(Frozen):
    """The level of every virtual sensor channel. It holds no time: the
    controller records when it stepped each frame."""

    _field_defaults = dict(
        impact=0, panic=0, alcohol_raw=0, rain_wet=0, rain_intensity=0, temp_c=20.0, humidity_pct=50.0
    )
    __slots__ = tuple(_field_defaults)

    def _validate(self):
        for name in ("impact", "panic", "rain_wet"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be logic 0/1, got {getattr(self, name)}")
        for name, lo, hi in _RANGES:
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise ValueError(f"{name} must be within {lo}..{hi}, got {value}")


class InboundSms(NamedTuple):
    """A text message received by the modem, after fetch and decode."""

    sender: str
    body: str


class ConfigError(ValueError):
    """Raised for malformed or invariant-violating configuration text."""


class ScenarioError(ValueError):
    """Raised for malformed scenario script lines."""


class ModemError(RuntimeError):
    """Raised for modem protocol misuse (bad number or body, failed fetch)."""


def read_utf8(path, error: type[ValueError]) -> str:
    """A UTF-8 file's text, with CRLF and CR read as LF and one leading
    byte-order mark dropped; an undecodable byte raises ``error`` with
    its offset in the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}") from None


def content_lines(text: str):
    """(1-based line number, stripped text) of each line that is neither
    blank nor a '#' comment. Lines end at LF only, so a U+2028 or a form
    feed stays inside its line, and line N is the one an editor shows."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_int(text: str) -> int:
    """The integer that ``text`` spells in ASCII digits with an optional
    leading '-'; any other text (a '+', '_', spaces, non-ASCII digits)
    raises ValueError."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_decimal(text: str) -> float:
    """The number that ``text`` spells in parse_int's grammar, optionally
    followed by '.' and ASCII digits; any other text (an exponent, 'nan',
    '21.', '.5') raises ValueError."""
    whole, dot, frac = text.removeprefix("-").partition(".")
    for digits in (whole, frac) if dot else (whole,):
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"not a decimal number: {text!r}")
    return float(text)
