"""Sentence grammar, checksum fold, coordinate conversion, fix state.

Frozen expectations were computed with an independent hand fold/convert
before being pinned here; the property tests re-derive them per case.
"""

import math
import tracemalloc
from functools import reduce
from operator import xor
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from smartcar import nmea
from smartcar.nmea import (
    CHECKSUM_CHUNK,
    GpsState,
    SentenceKind,
    checksums_ok,
    parse_sentence,
    split_frame,
    to_decimal_degrees,
    update_fix,
    xor_checksum,
)

GGA = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47"
RMC = "$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A"


def frame_sentence(body: str) -> str:
    """body in the $...*hh frame with a correct checksum."""
    return f"${body}*{xor_checksum(body):02X}"


def checksum_ok(line) -> bool:
    return parse_sentence(line).checksum_ok


def fold(text: str) -> int:
    # independent oracle: byte-wise XOR, written without peeking at the impl
    acc = 0
    for b in text.encode("ascii"):
        acc = acc ^ b
    return acc


HEX = "0123456789abcdefABCDEF"


def hex_rule(line: str) -> bool:
    """The frame rule on ASCII text, written out: '$', then the body up to
    the last '*', then exactly two hex digits equal to the body's fold."""
    text = line.rstrip("\r\n")
    if not text.startswith("$") or "*" not in text:
        return False
    head, _, suffix = text[1:].rpartition("*")
    return len(suffix) == 2 and all(c in HEX for c in suffix) and fold(head) == int(suffix, 16)


@st.composite
def checksummed_lines(draw):
    """A $body*suffix line: an ASCII or any body, and a suffix that is the
    body's code-point fold in either case, hex-like junk, a short hex run,
    full-width digits or any text."""
    body = draw(st.one_of(st.text(st.characters(max_codepoint=127), max_size=40),
                          st.text(max_size=40)))
    code_point_fold = reduce(xor, map(ord, body), 0)
    suffix = draw(st.one_of(
        st.sampled_from([f"{code_point_fold:02X}", f"{code_point_fold:02x}"]),
        st.sampled_from([" f", "0_", "+f", "4Z", "\uff14\uff17", "\uff10"]),
        st.text(HEX, min_size=1, max_size=3),
        st.text(min_size=1, max_size=3),
    ))
    return f"${body}*{suffix}" + draw(st.sampled_from(["", "\r\n"]))


@st.composite
def framed_lines(draw):
    """A $body*hh line whose digits, in either case, hold the body's
    code-point fold or miss it, ended by a run of CR/LF. The body may
    hold '*', an inner newline, NUL, latin-1 and astral characters, or
    run past 255 characters."""
    body = draw(st.one_of(
        st.text(st.sampled_from("GPA,.09*\n\0\xe9\U0001f600"), max_size=12),
        st.text(st.characters(max_codepoint=127), min_size=256, max_size=300),
    ))
    value = (reduce(xor, map(ord, body), 0) ^ draw(st.sampled_from([0, 0, 1, 0x40]))) & 0xFF
    digits = draw(st.sampled_from([f"{value:02X}", f"{value:02x}"]))
    return f"${body}*{digits}" + draw(st.text("\r\n", max_size=3))


def reference_checksums(lines) -> bytes:
    return bytes(split_frame(line)[1] for line in lines)


class TestChecksum:
    def test_known_gga_fold(self):
        assert xor_checksum(GGA[1:-3]) == 0x47

    def test_known_rmc_fold(self):
        assert xor_checksum(RMC[1:-3]) == 0x6A

    def test_validate_known_sentences(self):
        assert checksum_ok(GGA)
        assert checksum_ok(RMC)
        assert checksum_ok(GGA.encode("ascii"))
        assert checksum_ok(RMC + "\r\n")

    def test_validate_rejects_corruption(self):
        assert not checksum_ok(GGA.replace("4807", "4808"))
        assert not checksum_ok(GGA[:-1] + "8")

    def test_validate_rejects_malformed_frames(self):
        assert not checksum_ok("")
        assert not checksum_ok("GPGGA,1,2*00")  # no $
        assert not checksum_ok("$GPGGA,1,2")  # no *
        assert not checksum_ok("$GPGGA,1,2*4")  # short hex
        assert not checksum_ok("$GPGGA,1,2*4Z")  # bad hex
        assert not checksum_ok("$GPGGA,1,2*471")  # long hex

    @given(checksummed_lines())
    def test_checksum_ok_is_the_hex_rule_on_ascii_and_false_otherwise(self, line):
        if line.isascii():
            assert checksum_ok(line) == hex_rule(line)
        else:
            assert checksum_ok(line) is False

    def test_non_ascii_text_fails_the_checksum(self):
        # U+0664 U+0668 U+0660 U+0667 are Arabic-Indic 4807: str.isdigit
        # accepts them, and their code points fold to the 66 given here
        line = ("$GPGGA,001234.50,\u0664\u0668\u0660\u0667.\u0660\u0663\u0668\u0661,N,"
                "01131.0002,E,1,08,0.9,545.4,M,46.9,M,,*66")
        assert reduce(xor, map(ord, line[1:-3]), 0) == 0x66
        assert not checksum_ok(line)
        assert update_fix(GpsState(), parse_sentence(line), now_ms=0) == GpsState()
        # a byte >= 0x80 in a bytes line, folded the same way
        body = "GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W\xb0"
        assert not checksum_ok(f"${body}*{reduce(xor, map(ord, body), 0):02X}".encode("latin-1"))

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126,
                                          exclude_characters="$*"), max_size=40))
    def test_frame_round_trips(self, body):
        framed = frame_sentence(body)
        assert checksum_ok(framed)
        assert xor_checksum(body) == fold(body)


class TestChecksumsOk:
    """checksums_ok is split_frame's checksum test, for many lines at once."""

    @given(st.lists(st.one_of(st.text(), st.text(max_size=4), framed_lines()), max_size=40))
    @example([])
    def test_is_split_frame_per_line(self, lines):
        assert checksums_ok(lines) == reference_checksums(lines)

    @pytest.mark.parametrize("n", [0, 1, CHECKSUM_CHUNK - 1, CHECKSUM_CHUNK, CHECKSUM_CHUNK + 1])
    def test_chunked_count_is_one_split_frame_count(self, n):
        # good, corrupt and garbage lines in turn, so a pass ends on each kind
        kinds = [GGA, RMC + "\r\n", GGA[:-1] + "8", "nonsense", "", RMC.lower()]
        lines = [kinds[i % len(kinds)] for i in range(n)]
        assert sum(checksums_ok(lines)) == sum(reference_checksums(lines))
        assert checksums_ok(lines) == reference_checksums(lines)

    def test_a_long_line_shortens_its_pass(self):
        # 200,001 'A's fold to 0x41, so the line holds; laid out in one
        # pass with the other 40 lines, it would make their rows as wide
        long = "$" + "A" * 200_001 + "*41"
        lines = [GGA] * 10 + [long] + [RMC, "$*00", "x"] * 10
        tracemalloc.start()
        try:
            ok = checksums_ok(lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok == reference_checksums(lines)
        assert ok[10] == 1
        assert peak < 3 * len(long)

    @pytest.mark.parametrize("at", [0, 500, CHECKSUM_CHUNK - 1])
    def test_a_long_line_costs_few_column_folds(self, at):
        # a frame of 1,000,000 characters among 1,023 RMC lines: its row
        # folds in levels of blocks, so the big-int conversions, one per
        # column a level plus a few a pass, stay in the hundreds, where a
        # fold column by column would make ~1,000,000
        long = "$" + "A" * 999_996 + "*00"  # an even run of 'A's folds to 0
        lines = [RMC] * (CHECKSUM_CHUNK - 1)
        lines.insert(at, long)
        with mock.patch("smartcar.nmea._as_int", wraps=nmea._as_int) as as_int:
            ok = checksums_ok(lines)
        assert ok == reference_checksums(lines) == bytes([1]) * CHECKSUM_CHUNK
        assert as_int.call_count < 2_000


class TestToDecimalDegrees:
    def test_latitude_example(self):
        assert to_decimal_degrees("4807.038", "N") == pytest.approx(48.1173, abs=1e-9)

    def test_longitude_example(self):
        assert to_decimal_degrees("01131.000", "E") == pytest.approx(11.516667, abs=1e-6)

    def test_south_west_negate(self):
        assert to_decimal_degrees("4807.038", "S") == pytest.approx(-48.1173, abs=1e-9)
        assert to_decimal_degrees("01131.000", "W") == pytest.approx(-11.516667, abs=1e-6)

    def test_rejects_bad_hemisphere(self):
        with pytest.raises(ValueError):
            to_decimal_degrees("4807.038", "Q")

    def test_rejects_minutes_over_sixty(self):
        with pytest.raises(ValueError):
            to_decimal_degrees("4865.000", "N")

    def test_rejects_wrong_width_or_garbage(self):
        for bad in ("480.038", "480738.0", "48o7.038", "4807.03x", ""):
            with pytest.raises(ValueError):
                to_decimal_degrees(bad, "N")

    @given(st.integers(0, 89), st.floats(0, 59.9999))
    def test_inverse_of_hand_conversion(self, deg, minutes):
        raw = f"{deg:02d}{minutes:07.4f}"
        got = to_decimal_degrees(raw, "N")
        want = deg + float(f"{minutes:07.4f}") / 60.0
        assert math.isclose(got, want, abs_tol=1e-9)


class TestParseSentence:
    def test_gga_fields(self):
        s = parse_sentence(GGA)
        assert s.kind is SentenceKind.GGA
        assert s.checksum_ok
        assert s.raw_fields[0] == "GPGGA"
        assert s.raw_fields[2] == "4807.038"
        assert s.raw_fields[7] == "08"

    def test_rmc_fields(self):
        s = parse_sentence(RMC)
        assert s.kind is SentenceKind.RMC
        assert s.checksum_ok
        assert s.raw_fields[2] == "A"

    def test_gn_talkers_map(self):
        assert parse_sentence(frame_sentence("GNGGA,,,,,,0,,,,,,,,")).kind is SentenceKind.GGA
        assert parse_sentence(frame_sentence("GNRMC,,V,,,,,,,,,")).kind is SentenceKind.RMC

    def test_unsupported_and_garbage(self):
        assert parse_sentence("$GPGSV,3,1,11*00").kind is SentenceKind.UNSUPPORTED
        assert parse_sentence("nonsense").kind is SentenceKind.UNSUPPORTED
        assert not parse_sentence("nonsense").checksum_ok

    @given(st.binary(max_size=64))
    def test_total_over_bytes(self, blob):
        s = parse_sentence(blob)
        assert s.kind in SentenceKind

    @given(st.text(max_size=64))
    def test_total_over_text(self, text):
        s = parse_sentence(text)
        assert s.kind in SentenceKind


class TestUpdateFix:
    def test_gga_accepted(self):
        state = update_fix(GpsState(), parse_sentence(GGA), now_ms=1000)
        assert state.last_fix is not None
        assert state.last_fix.latitude == pytest.approx(48.1173, abs=1e-9)
        assert state.last_fix.longitude == pytest.approx(11.516667, abs=1e-6)
        assert state.last_update_ms == 1000

    def test_rmc_accepted_after_gga(self):
        state = update_fix(GpsState(), parse_sentence(GGA), now_ms=1000)
        state = update_fix(state, parse_sentence(RMC), now_ms=2000)
        assert state.last_update_ms == 2000
        assert state.last_fix.latitude == pytest.approx(48.1173, abs=1e-9)

    def test_rmc_accepted_without_prior_fix(self):
        state = update_fix(GpsState(), parse_sentence(RMC), now_ms=500)
        assert state.last_fix is not None
        assert state.last_update_ms == 500

    def test_void_rmc_ignored(self):
        void = frame_sentence("GPRMC,000001.00,V,,,,,,,,,")
        state = update_fix(GpsState(), parse_sentence(void), now_ms=1000)
        assert state.last_fix is None

    def test_zero_quality_gga_ignored(self):
        no_fix = frame_sentence("GPGGA,123519,4807.038,N,01131.000,E,0,00,,,M,,M,,")
        state = update_fix(GpsState(), parse_sentence(no_fix), now_ms=1000)
        assert state.last_fix is None

    def test_bad_checksum_ignored(self):
        corrupt = GGA[:-1] + "8"
        state = update_fix(GpsState(), parse_sentence(corrupt), now_ms=1000)
        assert state.last_fix is None

    def test_malformed_coordinates_ignored(self):
        bad = frame_sentence("GPGGA,123519,48o7.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,")
        state = update_fix(GpsState(), parse_sentence(bad), now_ms=1000)
        assert state.last_fix is None

    def test_out_of_range_position_ignored(self):
        # 91 degrees latitude encodes fine but is not a place on earth
        bad = frame_sentence("GPGGA,123519,9107.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,")
        state = update_fix(GpsState(), parse_sentence(bad), now_ms=1000)
        assert state.last_fix is None

    def test_freshness_boundary_is_inclusive(self):
        state = update_fix(GpsState(), parse_sentence(GGA), now_ms=1000)
        assert state.fresh(now_ms=6000, stale_ms=5000)
        assert not state.fresh(now_ms=6001, stale_ms=5000)

    def test_empty_state_never_fresh(self):
        assert not GpsState().fresh(now_ms=0, stale_ms=10**9)
