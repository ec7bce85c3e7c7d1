"""NMEA 0183 sentence handling for the virtual GPS feed.

Only GGA and RMC are decoded; they carry everything the controller needs
(position and validity). Every other sentence type parses to Unsupported
and is ignored. The parser is total: any byte or character sequence
yields an NmeaSentence, never an exception.

Lines arrive whole from the transport; partial-line reassembly is the
transport's job, not this module's.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from operator import xor
from typing import NamedTuple

from .types import GeoFix

# each two-character checksum field over 0-9a-fA-F, and its value
_HEX_DIGITS = "0123456789abcdefABCDEF"
_CHECKSUM_VALUE = {a + b: int(a + b, 16) for a in _HEX_DIGITS for b in _HEX_DIGITS}
_HEMISPHERE_SIGN = {"N": 1.0, "E": 1.0, "S": -1.0, "W": -1.0}


class SentenceKind(Enum):
    GGA = "gga"
    RMC = "rmc"
    UNSUPPORTED = "unsupported"


_KIND_BY_TALKER = {
    "GPGGA": SentenceKind.GGA,
    "GNGGA": SentenceKind.GGA,
    "GPRMC": SentenceKind.RMC,
    "GNRMC": SentenceKind.RMC,
}


class NmeaSentence(NamedTuple):
    kind: SentenceKind
    raw_fields: tuple[str, ...]
    checksum_ok: bool


class GpsState(NamedTuple):
    """Receiver-side fix state: absent until the first valid sentence."""

    last_fix: GeoFix | None = None
    last_update_ms: int = 0

    def fresh(self, now_ms: int, stale_ms: int) -> bool:
        return self.last_fix is not None and now_ms - self.last_update_ms <= stale_ms


def xor_checksum(body: str) -> int:
    """XOR-fold of the ASCII characters between '$' and '*' (exclusive);
    other text raises UnicodeEncodeError."""
    return reduce(xor, body.encode("ascii"), 0)


def to_decimal_degrees(raw: str, hemisphere: str) -> float:
    """Convert NMEA ddmm.mmmm / dddmm.mmmm text to signed decimal degrees.

    The minutes field is always two integer digits, so the degree part is
    whatever precedes them (2 digits for latitude, 3 for longitude).
    S and W negate the result.
    """
    sign = _HEMISPHERE_SIGN.get(hemisphere)
    if sign is None:
        raise ValueError(f"bad hemisphere: {hemisphere!r}")
    intpart, _, frac = raw.partition(".")
    if len(intpart) not in (4, 5) or not intpart.isdigit() or (frac and not frac.isdigit()):
        raise ValueError(f"bad coordinate text: {raw!r}")
    degrees = int(intpart[:-2])
    minutes = float(intpart[-2:] + ("." + frac if frac else ""))
    if minutes >= 60.0:
        raise ValueError(f"minutes out of range in {raw!r}")
    return sign * (degrees + minutes / 60.0)


def parse_sentence(line: str | bytes) -> NmeaSentence:
    """Split a line into kind + fields. Total: garbage decodes to Unsupported.

    Trailing CR/LF is ignored. checksum_ok holds iff the line is an ASCII
    $...*hh frame whose XOR-fold matches the two hex digits; NMEA 0183 is
    ASCII, so any other character (a byte >= 0x80, a non-ASCII digit)
    fails the checksum.
    """
    if isinstance(line, (bytes, bytearray)):
        line = line.decode("latin-1")
    text = line.rstrip("\r\n")
    body, checksum_ok = text, False
    if text.startswith("$"):
        head, star, suffix = text[1:].rpartition("*")
        if star:
            body = head
            checksum_ok = text.isascii() and _CHECKSUM_VALUE.get(suffix) == xor_checksum(head)
        else:
            body = text[1:]
    fields = tuple(body.split(","))
    kind = _KIND_BY_TALKER.get(fields[0], SentenceKind.UNSUPPORTED)
    return NmeaSentence(kind=kind, raw_fields=fields, checksum_ok=checksum_ok)


def update_fix(state: GpsState, sentence: NmeaSentence, now_ms: int) -> GpsState:
    """Merge a sentence into the fix state.

    Accepts GGA with fix quality > 0 and RMC with status 'A'; everything
    else (bad checksum, void status, unsupported kind, malformed fields)
    leaves the state unchanged.
    """
    if not sentence.checksum_ok:
        return state
    f = sentence.raw_fields
    try:
        if sentence.kind is SentenceKind.GGA:
            if len(f) < 8 or not f[6].isdigit() or int(f[6]) <= 0:
                return state
            lat = to_decimal_degrees(f[2], f[3])
            lon = to_decimal_degrees(f[4], f[5])
        elif sentence.kind is SentenceKind.RMC:
            if len(f) < 7 or f[2] != "A":
                return state
            lat = to_decimal_degrees(f[3], f[4])
            lon = to_decimal_degrees(f[5], f[6])
        else:
            return state
        fix = GeoFix(latitude=lat, longitude=lon)  # ValueError if out of range
    except ValueError:
        return state
    return GpsState(last_fix=fix, last_update_ms=now_ms)
