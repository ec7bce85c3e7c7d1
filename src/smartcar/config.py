"""Runtime configuration: thresholds, timing windows, alert numbers.

Config files are UTF-8 ``key = value`` lines, split as types.content_lines
splits them: ``#`` starts a comment line and blank lines are ignored.
Unknown keys are permitted (and skipped) so one file can serve several
firmware variants.
All thresholds are raw 10-bit ADC counts; all times are milliseconds.
"""

from .modem import check_number
from .types import ADC_MAX, ConfigError, Frozen, ModemError, content_lines, parse_int, read_utf8

# smallest accepted value of each duration and count key
_MINIMUMS = {
    "impact_window_ms": 1,
    "impact_min_high": 1,
    "impact_refractory_ms": 1,
    "panic_refractory_ms": 1,
    "gps_stale_ms": 1,
    "gps_wait_ms": 1,
    "sms_retry_max": 0,
    "sms_retry_backoff_ms": 1,
    "sms_ok_timeout_ms": 1,
    "tick_ms": 1,
}


class Config(Frozen):
    _field_defaults = dict(
        alert_primary_number="+15550001", alert_safety_number="+15550002",
        alcohol_threshold=450, alcohol_release=400,
        impact_window_ms=100, impact_min_high=5, impact_refractory_ms=60000,
        panic_refractory_ms=30000, gps_stale_ms=5000, gps_wait_ms=10000,
        sms_retry_max=3, sms_retry_backoff_ms=2000, sms_ok_timeout_ms=5000,
        wiper_intermittent_max=300, wiper_low_max=700, tick_ms=10,
    )
    __slots__ = tuple(_field_defaults)

    def _validate(self):
        """Check cross-field invariants, raising ConfigError naming the keys."""
        if self.alcohol_release >= self.alcohol_threshold:
            raise ConfigError(
                "alcohol_release must be < alcohol_threshold "
                f"(got {self.alcohol_release} >= {self.alcohol_threshold})"
            )
        if not 1 <= self.alcohol_release < self.alcohol_threshold <= ADC_MAX:
            raise ConfigError(
                "require 1 <= alcohol_release < alcohol_threshold <= 1023 "
                f"(got {self.alcohol_release}, {self.alcohol_threshold})"
            )
        if not self.wiper_intermittent_max < self.wiper_low_max < ADC_MAX + 1:
            raise ConfigError(
                "require wiper_intermittent_max < wiper_low_max < 1024 "
                f"(got {self.wiper_intermittent_max}, {self.wiper_low_max})"
            )
        for key, low in _MINIMUMS.items():
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low} (got {getattr(self, key)})")
        for key in ("alert_primary_number", "alert_safety_number"):
            try:
                check_number(getattr(self, key))
            except ModemError as exc:
                raise ConfigError(f"{key}: {exc}") from None


def load_config(source: str) -> Config:
    """Parse ``key = value`` text into a Config, defaulting missing keys.

    Raises ConfigError with the 1-based line number for a line that has
    content but no '=', or for a value that does not parse as the field's
    type; cross-field invariant violations raise from Config construction.
    """
    defaults = Config._field_defaults  # a key's type is its default's
    overrides: dict[str, object] = {}
    for lineno, line in content_lines(source):
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in defaults:
            continue  # unknown keys permitted
        try:
            overrides[key] = parse_int(value) if type(defaults[key]) is int else value
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return Config(**overrides)


def load_config_file(path: str) -> Config:
    return load_config(read_utf8(path, ConfigError))
