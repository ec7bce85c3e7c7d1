"""Query parsing, reply templates and alert bodies."""

import pytest
from hypothesis import given, reject, strategies as st

from smartcar.config import Config
from smartcar.messages import (
    NO_FIX_TEXT,
    QueryKind,
    coordinate_text,
    format_alert,
    format_reply,
    parse_query,
)
from smartcar.modem import check_body
from smartcar.nmea import GpsState, parse_sentence, update_fix
from smartcar.types import AlertKind, SensorFrame

CFG = Config()
GGA = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47"
COORDS = "48.117300,11.516667"
URL = "https://maps.google.com/?q=48.117300,11.516667"


def fresh_gps(at_ms=1000):
    return update_fix(GpsState(), parse_sentence(GGA), now_ms=at_ms)


class TestParseQuery:
    @pytest.mark.parametrize("body,kind", [
        ("STATUS", QueryKind.STATUS),
        ("TEMP", QueryKind.TEMP),
        ("HUM", QueryKind.HUM),
        ("LOC", QueryKind.LOC),
        ("HELP", QueryKind.HELP),
    ])
    def test_canonical_keywords(self, body, kind):
        assert parse_query(body) is kind

    def test_case_and_whitespace_insensitive(self):
        assert parse_query("  status \r\n") is QueryKind.STATUS
        assert parse_query("loc") is QueryKind.LOC

    def test_unknown_keeps_original_text(self):
        assert parse_query("  Where Are You ") is QueryKind.UNKNOWN
        assert parse_query("UNKNOWN") is QueryKind.UNKNOWN  # not a keyword

    def test_keyword_round_trip(self):
        for kind in QueryKind:
            if kind is QueryKind.UNKNOWN:
                continue
            assert parse_query(kind.value) is kind


class TestFormatReply:
    def test_temp_one_decimal(self):
        frame = SensorFrame(temp_c=24.5)
        assert format_reply(parse_query("TEMP"), frame, GpsState(), CFG, 0) == "TEMP=24.5C"

    def test_temp_rounds_not_truncates(self):
        frame = SensorFrame(temp_c=24.46)
        assert format_reply(parse_query("TEMP"), frame, GpsState(), CFG, 0) == "TEMP=24.5C"

    @pytest.mark.parametrize("temp,text", [(-0.0, "TEMP=0.0C"), (-0.04, "TEMP=0.0C"),
                                           (-0.05, "TEMP=-0.1C")])
    def test_temp_never_reads_negative_zero(self, temp, text):
        frame = SensorFrame(temp_c=temp)
        assert format_reply(parse_query("TEMP"), frame, GpsState(), CFG, 0) == text
        status = format_reply(parse_query("STATUS"), frame, GpsState(), CFG, 0)
        assert status.startswith(text + " ")

    def test_hum_integer(self):
        frame = SensorFrame(humidity_pct=51.0)
        assert format_reply(parse_query("HUM"), frame, GpsState(), CFG, 0) == "HUM=51%"

    def test_loc_with_fresh_fix(self):
        got = format_reply(parse_query("LOC"), SensorFrame(), fresh_gps(1000), CFG, 2000)
        assert got == f"LOC={COORDS} {URL}"

    def test_loc_without_fix(self):
        got = format_reply(parse_query("LOC"), SensorFrame(), GpsState(), CFG, 0)
        assert got == f"LOC={NO_FIX_TEXT}"

    def test_loc_staleness_judged_at_frame_time(self):
        gps = fresh_gps(1000)
        # age 5000 = limit, still fresh
        assert COORDS in format_reply(parse_query("LOC"), SensorFrame(), gps, CFG, 6000)
        assert NO_FIX_TEXT in format_reply(parse_query("LOC"), SensorFrame(), gps, CFG, 6010)

    def test_status_line(self):
        frame = SensorFrame(temp_c=24.5, humidity_pct=51, alcohol_raw=123,
                            rain_wet=1, rain_intensity=400)
        got = format_reply(parse_query("STATUS"), frame, GpsState(), CFG, 0,
                           engine_enabled=False)
        assert got == "TEMP=24.5C HUM=51% ALC=123 RAIN=WET ENGINE=DISABLED"

    def test_status_dry_enabled(self):
        frame = SensorFrame(temp_c=20.0, humidity_pct=50)
        got = format_reply(parse_query("STATUS"), frame, GpsState(), CFG, 0)
        assert got == "TEMP=20.0C HUM=50% ALC=0 RAIN=DRY ENGINE=ENABLED"

    def test_help_is_one_line(self):
        got = format_reply(parse_query("HELP"), SensorFrame(), GpsState(), CFG, 0)
        assert got == "CMDS: STATUS TEMP HUM LOC HELP"
        assert "\n" not in got

    def test_unknown_reply(self):
        got = format_reply(parse_query("dance"), SensorFrame(), GpsState(), CFG, 0)
        assert got == "UNKNOWN CMD. SEND HELP"

    @given(
        kind=st.sampled_from([k for k in QueryKind]),
        temp=st.floats(),
        hum=st.floats(0, 100),
        alc=st.integers(0, 1023),
        wet=st.integers(0, 1),
    )
    def test_every_reply_fits_one_sms(self, kind, temp, hum, alc, wet):
        # any temperature SensorFrame accepts: its range is written only there
        try:
            frame = SensorFrame(temp_c=temp, humidity_pct=hum,
                                alcohol_raw=alc, rain_wet=wet)
        except ValueError:
            reject()
        text = format_reply(kind, frame, fresh_gps(1000), CFG, 2000)
        assert len(text) <= 160
        check_body(text)  # printable GSM-text payload


class TestFormatAlert:
    def test_accident_body(self):
        body = format_alert(AlertKind.ACCIDENT, fresh_gps(1000), CFG, now_ms=2000)
        assert body == f"ACCIDENT DETECTED. Location: {COORDS} {URL}"

    def test_panic_body(self):
        body = format_alert(AlertKind.PANIC, fresh_gps(1000), CFG, now_ms=2000)
        assert body == f"PANIC BUTTON PRESSED. Location: {COORDS} {URL}"

    def test_alcohol_body(self):
        body = format_alert(AlertKind.ALCOHOL, fresh_gps(1000), CFG, now_ms=2000)
        assert body == (
            f"ALCOHOL LIMIT EXCEEDED. Vehicle interlock engaged. Location: {COORDS} {URL}"
        )

    def test_stale_fix_reads_unknown(self):
        body = format_alert(AlertKind.PANIC, fresh_gps(1000), CFG, now_ms=99999)
        assert body.endswith(f"Location: {NO_FIX_TEXT}")

    def test_no_fix_reads_unknown(self):
        body = format_alert(AlertKind.ACCIDENT, GpsState(), CFG, now_ms=0)
        assert body == f"ACCIDENT DETECTED. Location: {NO_FIX_TEXT}"

    def test_url_embeds_identical_coordinate_text(self):
        gps = fresh_gps(1000)
        body = format_alert(AlertKind.ACCIDENT, gps, CFG, now_ms=1500)
        coords = coordinate_text(gps.last_fix.latitude, gps.last_fix.longitude)
        after_location = body.split("Location: ", 1)[1]
        plain, url = after_location.split(" ", 1)
        assert plain == coords
        assert url == f"https://maps.google.com/?q={coords}"

    @given(lat=st.floats(-90, 90), lon=st.floats(-180, 180),
           kind=st.sampled_from(list(AlertKind)))
    def test_every_alert_fits_one_sms(self, lat, lon, kind):
        from smartcar.types import GeoFix
        gps = GpsState(
            last_fix=GeoFix(latitude=lat, longitude=lon),
            last_update_ms=0,
        )
        body = format_alert(kind, gps, CFG, now_ms=0)
        assert len(body) <= 160
        check_body(body)
