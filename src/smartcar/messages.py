"""The human-facing SMS text formats: remote queries, replies, alerts.

These strings are the system's wire contract with the phone on the other
end: bit-exact, plain ASCII, never longer than one GSM-7 message.
Coordinates always render at 6 decimal places ('.' separator) and the
maps URL embeds exactly the same coordinate text as the visible field.
"""

from __future__ import annotations

from enum import Enum

from .config import Config
from .nmea import GpsState
from .types import AlertKind, SensorFrame

NO_FIX_TEXT = "UNKNOWN (no GPS fix)"
_MAPS_URL = "https://maps.google.com/?q="

_ALERT_PREFIX = {
    AlertKind.ACCIDENT: "ACCIDENT DETECTED",
    AlertKind.PANIC: "PANIC BUTTON PRESSED",
    AlertKind.ALCOHOL: "ALCOHOL LIMIT EXCEEDED. Vehicle interlock engaged",
}


class QueryKind(Enum):
    STATUS = "STATUS"
    TEMP = "TEMP"
    HUM = "HUM"
    LOC = "LOC"
    HELP = "HELP"
    UNKNOWN = "UNKNOWN"


_KNOWN_QUERIES = {k.value: k for k in QueryKind if k is not QueryKind.UNKNOWN}


def parse_query(body: str) -> QueryKind:
    """Map an inbound text to a query: case-insensitive, whitespace-trimmed."""
    return _KNOWN_QUERIES.get(body.strip().upper(), QueryKind.UNKNOWN)


def coordinate_text(lat: float, lon: float) -> str:
    return f"{lat:.6f},{lon:.6f}"


def _location_text(gps: GpsState, now_ms: int, config: Config) -> str:
    if gps.fresh(now_ms, config.gps_stale_ms):
        coords = coordinate_text(gps.last_fix.latitude, gps.last_fix.longitude)
        return f"{coords} {_MAPS_URL}{coords}"
    return NO_FIX_TEXT


def format_reply(
    kind: QueryKind,
    frame: SensorFrame,
    gps: GpsState,
    config: Config,
    frame_ms: int,
    engine_enabled: bool = True,
) -> str:
    """Render the reply for a query against the latest sensor frame.

    frame_ms is when that frame was sampled, and GPS staleness is judged
    at it, so a LOC reply reports the position as of the data it goes
    with, however long a send blocked since. Always <= 160 chars.
    """
    # a temperature that rounds to zero reads 0.0, never -0.0
    temp = f"TEMP={frame.temp_c:.1f}C".replace("=-0.0C", "=0.0C")
    hum = f"HUM={round(frame.humidity_pct)}%"
    if kind is QueryKind.TEMP:
        return temp
    if kind is QueryKind.HUM:
        return hum
    if kind is QueryKind.LOC:
        return f"LOC={_location_text(gps, frame_ms, config)}"
    if kind is QueryKind.STATUS:
        rain = "WET" if frame.rain_wet else "DRY"
        engine = "ENABLED" if engine_enabled else "DISABLED"
        return f"{temp} {hum} ALC={frame.alcohol_raw} RAIN={rain} ENGINE={engine}"
    if kind is QueryKind.HELP:
        return "CMDS: " + " ".join(_KNOWN_QUERIES)
    return "UNKNOWN CMD. SEND HELP"


def format_alert(kind: AlertKind, gps: GpsState, config: Config, now_ms: int) -> str:
    """Render an alert SMS body. Without a fix fresher than gps_stale_ms
    the location section reads UNKNOWN; the controller picks the number."""
    return f"{_ALERT_PREFIX[kind]}. Location: {_location_text(gps, now_ms, config)}"
