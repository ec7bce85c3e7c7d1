"""Config defaults, file parsing, validation."""

import pytest

from smartcar.config import Config, load_config, load_config_file
from smartcar.types import ConfigError, GeoFix, SensorFrame


class TestDefaults:
    def test_frozen_default_table(self):
        cfg = Config()
        assert cfg.alert_primary_number == "+15550001"
        assert cfg.alert_safety_number == "+15550002"
        assert cfg.alcohol_threshold == 450
        assert cfg.alcohol_release == 400
        assert cfg.impact_window_ms == 100
        assert cfg.impact_min_high == 5
        assert cfg.impact_refractory_ms == 60000
        assert cfg.panic_refractory_ms == 30000
        assert cfg.gps_stale_ms == 5000
        assert cfg.gps_wait_ms == 10000
        assert cfg.sms_retry_max == 3
        assert cfg.sms_retry_backoff_ms == 2000
        assert cfg.sms_ok_timeout_ms == 5000
        assert cfg.wiper_intermittent_max == 300
        assert cfg.wiper_low_max == 700
        assert cfg.tick_ms == 10

    def test_config_is_immutable(self):
        # and so are the other values the loop reads on every visit
        values = (Config(), SensorFrame(), GeoFix(48.1, 11.5))
        for value in values:
            name = type(value).__slots__[0]
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert value == value._replace() and hash(value) == hash(value._replace())


class TestValidation:
    def test_every_construction_is_validated(self):
        bad_values = (
            lambda: GeoFix(91.0, 0.0),
            lambda: GeoFix(0.0, 0.0)._replace(longitude=181.0),
            lambda: SensorFrame(panic=2),
            lambda: Config()._replace(tick_ms=0),
        )
        for build in bad_values:
            with pytest.raises(ValueError):
                build()
        for build in (lambda: SensorFrame(bogus=1), lambda: GeoFix(1.0), lambda: GeoFix(1.0, 2.0, 3.0)):
            with pytest.raises(TypeError):
                build()

    def test_values_repr_their_fields(self):
        assert repr(GeoFix(48.1, 11.5)) == "GeoFix(48.1, 11.5)"

    def test_release_must_sit_below_threshold(self):
        with pytest.raises(ConfigError, match="alcohol_release"):
            Config(alcohol_threshold=400, alcohol_release=400)

    @pytest.mark.parametrize("release, threshold", [(4000, 5000), (400, 1024), (0, 450), (-1, 0)])
    def test_alcohol_thresholds_must_lie_in_the_adc_range(self, release, threshold):
        # a threshold above 1023 never engages; a release below 1 never lets go
        with pytest.raises(ConfigError, match="alcohol_release < alcohol_threshold <= 1023"):
            Config(alcohol_threshold=threshold, alcohol_release=release)

    def test_alcohol_threshold_range_ends_are_accepted(self):
        Config(alcohol_threshold=1023, alcohol_release=1)
        Config(alcohol_threshold=2, alcohol_release=1)

    def test_wiper_bands_must_be_ordered(self):
        with pytest.raises(ConfigError, match="wiper"):
            Config(wiper_intermittent_max=700, wiper_low_max=700)
        with pytest.raises(ConfigError, match="wiper"):
            Config(wiper_low_max=1024)

    def test_durations_must_be_positive(self):
        for field in ("impact_window_ms", "panic_refractory_ms", "gps_stale_ms",
                      "sms_ok_timeout_ms", "tick_ms"):
            with pytest.raises(ConfigError, match=field):
                Config(**{field: 0})

    def test_count_keys_have_a_floor(self):
        with pytest.raises(ConfigError, match="sms_retry_max"):
            Config(sms_retry_max=-3)
        with pytest.raises(ConfigError, match="impact_min_high"):
            Config(impact_min_high=0)
        Config(sms_retry_max=0, impact_min_high=1)  # the floors themselves are fine

    @pytest.mark.parametrize("number", ["+1555\xe9", "+1555\u20ac", '+1"55', "", "+", "1555 0100",
                                        "+1234567890123456", "+\u0661\u0662"])
    def test_alert_numbers_must_be_dialable(self, number):
        for key in ("alert_primary_number", "alert_safety_number"):
            with pytest.raises(ConfigError, match=key):
                Config(**{key: number})

    def test_alert_number_bounds(self):
        Config(alert_primary_number="1", alert_safety_number="+123456789012345")


class TestLoad:
    def test_parses_keys_comments_and_blanks(self):
        cfg = load_config(
            """
            # tuning for the bench rig
            alcohol_threshold = 500
            alcohol_release=350

            alert_primary_number = +15559999
            alcohol_cutoff_while_running = true
            """
        )
        assert cfg.alcohol_threshold == 500
        assert cfg.alcohol_release == 350
        assert cfg.alert_primary_number == "+15559999"
        assert not hasattr(cfg, "alcohol_cutoff_while_running")  # no longer read, skipped

    def test_unknown_keys_are_skipped(self):
        cfg = load_config("frobnicator = 9\ntick_ms = 20\n")
        assert cfg.tick_ms == 20

    def test_missing_equals_names_the_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            load_config("tick_ms = 10\nbroken line\n")

    def test_bad_int_names_the_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            load_config("tick_ms = fast\n")

    @pytest.mark.parametrize("setting", [
        "tick_ms = +1_0", "tick_ms = +10", "tick_ms = 1_0", "sms_retry_max = \u0663",
        "gps_wait_ms = \uff11",
    ])
    def test_integers_are_ascii_digits(self, setting):
        with pytest.raises(ConfigError, match="line 1: bad value for "):
            load_config(setting + "\n")

    def test_cross_field_validation_applies_to_files(self):
        with pytest.raises(ConfigError):
            load_config("alcohol_threshold = 100\n")  # release default 400 above it

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("gps_wait_ms = 2500\n")
        assert load_config_file(str(p)).gps_wait_ms == 2500

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_load_config_file_reads_crlf_and_cr_as_lf(self, tmp_path, ending):
        p = tmp_path / "a.cfg"
        p.write_bytes(ending.join([b"gps_wait_ms = 2500", b"# x", b"tick_ms = 20", b""]))
        cfg = load_config_file(str(p))
        assert (cfg.gps_wait_ms, cfg.tick_ms) == (2500, 20)
        p.write_bytes(ending.join([b"tick_ms = 20", b"", b"tick_ms"]))
        with pytest.raises(ConfigError, match="line 3: "):
            load_config_file(str(p))

    def test_load_config_file_drops_a_leading_bom(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_bytes(b"\xef\xbb\xbfalert_primary_number = +4915112345678\n")
        assert load_config_file(str(p)).alert_primary_number == "+4915112345678"

    def test_a_line_separator_does_not_end_a_line(self):
        with pytest.raises(ConfigError, match="line 2: "):
            load_config("# tuning \u2028 tick_ms = 20\ntick_ms\n")
        assert load_config("# tuning \u2028 tick_ms = 20\n").tick_ms == Config().tick_ms
