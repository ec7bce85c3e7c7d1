"""NMEA 0183 sentence handling for the GPS module's lines.

Only GGA and RMC are decoded; they carry everything the controller needs
(position and validity). Every other sentence type parses to Unsupported
and is ignored. The parser is total: any byte or character sequence
yields an NmeaSentence, never an exception. split_frame states when a
line's checksum holds, and checksums_ok applies it to many lines at once.

Lines arrive whole from the transport; partial-line reassembly is the
transport's job, not this module's.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from enum import Enum
from functools import partial, reduce
from itertools import accumulate, count, repeat
from math import ceil, log
from operator import and_, mul, xor
from typing import NamedTuple

from .types import GeoFix

# each two-character checksum field over 0-9a-fA-F, and its value
_HEX_DIGITS = "0123456789abcdefABCDEF"
_CHECKSUM_VALUE = {a + b: int(a + b, 16) for a in _HEX_DIGITS for b in _HEX_DIGITS}
_HEMISPHERE_SIGN = {"N": 1.0, "E": 1.0, "S": -1.0, "W": -1.0}

# checksums_ok checks CHECKSUM_CHUNK lines a pass, fewer where a long
# line would make the pass's rows exceed _PASS_BYTES, and folds rows
# wider than _FOLD_BLOCK in levels of at most about that many columns
CHECKSUM_CHUNK = 1024
_FOLD_BLOCK = 128
_PASS_BYTES = CHECKSUM_CHUNK * _FOLD_BLOCK
# a digit's value in the high (low) place XOR itself and the frame's '$' ('*')
_HEX = _HEX_DIGITS.encode()
_HI_TERM = bytes.maketrans(_HEX, bytes(int(chr(d), 16) << 4 ^ 0x24 ^ d for d in _HEX))
_LO_TERM = bytes.maketrans(_HEX, bytes(int(chr(d), 16) ^ 0x2A ^ d for d in _HEX))
_IS_HEX = bytes(map(_HEX.__contains__, range(256)))
_IS_STAR = bytes(map(b"*".__contains__, range(256)))
_IS_ZERO = b"\1" + bytes(255)
_as_int = partial(int.from_bytes, byteorder="little")


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


def split_frame(line: str | bytes) -> tuple[str, bool]:
    """A line's body and whether its checksum holds. Total over str and
    bytes (bytes read as latin-1).

    Trailing CR/LF is ignored. The body is the text between '$' and '*'
    (or all of it, without a '$'). checksum_ok holds iff the line is an
    ASCII $...*hh frame whose XOR-fold matches the two hex digits; NMEA
    0183 is ASCII, so any other character (a byte >= 0x80, a non-ASCII
    digit) fails the checksum.
    """
    if isinstance(line, (bytes, bytearray)):
        line = line.decode("latin-1")
    text = line.rstrip("\r\n")
    if not text.startswith("$"):
        return text, False
    head, star, suffix = text[1:].rpartition("*")
    if not star:
        return text[1:], False
    return head, text.isascii() and _CHECKSUM_VALUE.get(suffix) == xor_checksum(head)


def checksums_ok(lines: Iterable[str]) -> bytes:
    """One byte per line, 1 exactly where split_frame(line)[1] holds, with no
    Python code run per line. A pass right-aligns its lines in NUL-padded rows,
    a byte per character ('?' past latin-1), and XORs each row's bytes, the
    digits' through _HI_TERM and _LO_TERM, which folds a framed row to body ^
    value, in levels that each XOR the columns of the rows' blocks as big ints;
    translations and big-int ANDs add the framing tests."""
    texts, start, passes = list(map(str.rstrip, lines, repeat("\r\n"))), 0, []
    while start < len(texts):
        rows = texts[start:start + CHECKSUM_CHUNK]
        width = max(3, *map(len, rows))
        if width * len(rows) > _PASS_BYTES:  # then the longest run of rows that fits
            sizes = list(map(mul, count(1), accumulate(map(len, rows), max)))
            rows = rows[:max(1, bisect_right(sizes, _PASS_BYTES))]
            width = max(3, *map(len, rows))
        n, levels = len(rows), ceil(log(width, _FOLD_BLOCK))
        start += n
        block = next(b for b in count(int(width ** (1 / levels))) if b**levels >= width)
        width = block**levels  # the least such block: a float root may be a hair short
        table = ("{:\0>%d}" % width * n).format(*rows).encode("latin-1", "replace")
        star, hi, lo = (table[c::width] for c in range(width - 3, width))
        terms = _as_int(hi.translate(_HI_TERM)) ^ _as_int(lo.translate(_LO_TERM))
        for _ in range(levels):
            folds = (_as_int(table[c::block]) for c in range(block))
            table = reduce(xor, folds).to_bytes(len(table) // block, "little")
        tests = (
            (_as_int(table) ^ terms).to_bytes(n, "little").translate(_IS_ZERO),
            star.translate(_IS_STAR), hi.translate(_IS_HEX), lo.translate(_IS_HEX),
            bytes(map(str.isascii, rows)), bytes(map(str.startswith, rows, repeat("$"))),
        )
        passes.append(reduce(and_, map(_as_int, tests)).to_bytes(n, "little"))
    return b"".join(passes)


def parse_sentence(line: str | bytes) -> NmeaSentence:
    """Split a line into kind + fields. Total: garbage decodes to
    Unsupported. The framing and checksum are split_frame's."""
    body, checksum_ok = split_frame(line)
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
        fix = GeoFix(lat, lon)  # ValueError if out of range
    except ValueError:
        return state
    return GpsState(last_fix=fix, last_update_ms=now_ms)
