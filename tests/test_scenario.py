"""Simulation layer: scenario grammar, virtual devices, executor, CLI."""

import sys
import tracemalloc

import pytest

from smartcar.cli import main
from smartcar.config import Config
from smartcar.sim.clock import SimClock
from smartcar.sim.devices import SensorBoard, VirtualGps, VirtualModem
from smartcar.sim.runner import REPORT_HEADER, LogRecord, SimReport, run
from smartcar.sim.scenario import (
    ErrorOnce,
    GpsLine,
    Levels,
    SilentFor,
    SmsIn,
    load_scenario,
    load_scenario_file,
)
from smartcar.types import ScenarioError, SensorFrame

from helpers import printed_records, typed

CFG = Config()
# test_report_holds_its_text_about_once's drive and its bounds on the
# memory held after it and at its peak, as multiples of the report's size;
# tools/crosscheck.py reads all three from here
TEN_MINUTES_OF_RAIN = ("t=0 rain 1 900\n", 600_000)
HELD_PER_REPORT = 1.25
PEAK_PER_REPORT = 1.5


def impact(t_ms, level):
    return Levels(t_ms, (("impact", level),))


# -- grammar ----------------------------------------------------------------


class TestScenarioGrammar:
    def test_every_event_kind(self):
        text = "\n".join([
            "t=1000 gps $GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47",
            "t=2000 impact 1",
            "t=2060 impact 0",
            "t=3000 panic 1",
            "t=4000 alcohol 612",
            "t=5000 rain 1 520",
            "t=6000 cabin 24.5 51",
            "t=7000 sms +15550100 STATUS NOW",
            "t=8000 modem_fault error_once",
            "t=9000 modem_fault silent_for 12000",
        ])
        events = load_scenario(text)
        assert typed(events) == typed([
            GpsLine(1000, "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47"),
            impact(2000, 1),
            impact(2060, 0),
            Levels(3000, (("panic", 1),)),
            Levels(4000, (("alcohol_raw", 612),)),
            Levels(5000, (("rain_wet", 1), ("rain_intensity", 520))),
            Levels(6000, (("temp_c", 24.5), ("humidity_pct", 51.0))),
            SmsIn(7000, "+15550100", "STATUS NOW"),  # body keeps spaces
            ErrorOnce(8000),
            SilentFor(9000, 12000),
        ])

    def test_comments_and_blanks_skipped(self):
        events = load_scenario("# header\n\n   \nt=10 impact 1\n  # trailing\n")
        assert typed(events) == typed([impact(10, 1)])

    def test_sorted_by_time_stable(self):
        events = load_scenario("t=500 panic 1\nt=100 impact 1\nt=500 impact 0\n")
        assert typed(events) == typed([impact(100, 1), Levels(500, (("panic", 1),)), impact(500, 0)])

    def test_unknown_event_names_line(self):
        with pytest.raises(ScenarioError, match="line 1: unknown event 'bogus'"):
            load_scenario("t=2000 bogus 1")

    def test_error_line_numbers_count_raw_lines(self):
        with pytest.raises(ScenarioError, match="line 4"):
            load_scenario("# one\n\nt=10 impact 1\nt=20 impact 3\n")

    @pytest.mark.parametrize("bad", [
        "impact 2",
        "impact x",
        "panic -1",
        "alcohol 1024",
        "rain 1",
        "rain 2 100",
        "rain 0 1024",
        "cabin 21.0",
        "cabin 21.0 101",
        "cabin warm 50",
        "cabin 21 -0.5",
        "cabin 21 nan",
        "cabin nan 50",
        "cabin inf 50",
        "cabin 1e300 50",
        "cabin 85.1 50",
        "cabin -40.1 50",
        "impact 1 1",
        "impact 1.0",
        "gps",
        "sms +1555",
        "sms +1555\xe9 STATUS",
        "sms +1555\u20ac STATUS",
        'sms +1"55 STATUS',
        "sms +1234567890123456 STATUS",
        "sms +15550100 ST\u20acTUS",
        "sms +15550100 " + "x" * 161,
        "modem_fault",
        "modem_fault error_once 5",
        "modem_fault silent_for 0",
        "modem_fault silent_for later",
        "modem_fault flaky",
        # integers are ASCII digits with an optional leading '-'
        "panic +1",
        "alcohol 1_000",
        "impact \u0661",
        "modem_fault silent_for 1_0",
        "modem_fault silent_for +10",
        "modem_fault silent_for \u0661\u0660",
        # decimals are the same, optionally followed by '.' and ASCII digits
        "cabin 2_1 5_0",
        "cabin \u0662\u0661 50",
        "cabin 21 +50",
        "cabin 1e1 50",
        "cabin 21. 50",
        "cabin .5 50",
    ])
    def test_malformed_arguments(self, bad):
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario(f"t=100 {bad}")

    @pytest.mark.parametrize("line", [
        "impact 0", "impact 1",
        "panic 0", "panic 1",
        "alcohol 0", "alcohol 1023",
        "rain 0 0", "rain 1 1023",
        "cabin -40 0", "cabin 85 100",
    ])
    def test_level_edges_accepted(self, line):
        assert len(load_scenario(f"t=100 {line}")) == 1

    @pytest.mark.parametrize("bad,kind", [
        ("impact x", "integer"),
        ("alcohol 1.5", "integer"),
        ("rain 1 x", "integer"),
        ("cabin warm 50", "number"),
        ("cabin 21 dry", "number"),
    ])
    def test_level_parse_errors_name_the_type(self, bad, kind):
        with pytest.raises(ScenarioError, match=f"^line 1: .* must be an? {kind}, got "):
            load_scenario(f"t=100 {bad}")

    def test_sms_limits_accepted(self):
        events = load_scenario("t=0 sms 1 x\nt=0 sms +123456789012345 " + "~" * 160
                               + "\nt=0 sms +15550100 hi   there   ")
        assert typed(events) == typed([
            SmsIn(0, "1", "x"), SmsIn(0, "+123456789012345", "~" * 160),
            SmsIn(0, "+15550100", "hi   there"),  # trailing spaces go with the line's
        ])

    @pytest.mark.parametrize("prefix", ["1000 impact 1", "t= impact 1", "t=-5 impact 1", "t=1.5 impact 1",
                                        "t=+3 panic 1", "t=1_0 impact 1", "t=\u0663 impact 1"])
    def test_bad_timestamps(self, prefix):
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario(prefix)

    def test_file_loader(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("t=0 impact 1\n")
        assert typed(load_scenario_file(p)) == typed([impact(0, 1)])

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_file_loader_reads_crlf_and_cr_as_lf(self, tmp_path, ending):
        p = tmp_path / "s.txt"
        p.write_bytes(ending.join([b"# drill", b"t=0 impact 1", b"", b"t=10 impact 0", b""]))
        assert typed(load_scenario_file(p)) == typed([impact(0, 1), impact(10, 0)])
        p.write_bytes(ending.join([b"t=0 impact 1", b"", b"t=10 impact 3"]))
        with pytest.raises(ScenarioError, match="line 3: "):
            load_scenario_file(p)

    def test_file_loader_drops_a_leading_bom(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_bytes(b"\xef\xbb\xbft=1000 panic 1\n")
        assert typed(load_scenario_file(p)) == typed([Levels(1000, (("panic", 1),))])

    @pytest.mark.parametrize("sep", list("\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e"))
    def test_lines_end_at_lf_only(self, sep):
        # an editor shows one comment line here, so no line ends at sep
        events = load_scenario(f"# panic drill {sep} see wiki\nt=1000 panic 1\n")
        assert typed(events) == typed([Levels(1000, (("panic", 1),))])
        with pytest.raises(ScenarioError, match="line 2: unknown event 'bogus'"):
            load_scenario(f"# drill {sep} see wiki\nt=1000 bogus\n")


# -- virtual gps --------------------------------------------------------------


class TestVirtualGps:
    def test_raw_passthrough_byte_exact(self):
        line = "$GPGGA,clearly,not,valid*00"
        gps = VirtualGps()
        assert gps.poll() == []
        gps.push_raw(line)
        gps.push_raw("second")
        assert gps.poll() == [line, "second"]
        assert gps.poll() == []


# -- clock and virtual modem extras --------------------------------------------


def test_clock_refuses_to_move_backwards():
    clock = SimClock()
    clock.advance(10)
    with pytest.raises(ValueError, match="backwards"):
        clock.advance(-1)
    assert clock.now_ms == 10


class TestVirtualModemFaults:
    def test_garbage_command_errors(self):
        modem = VirtualModem(SimClock())
        modem.write(b"GARBAGE\r")
        assert modem.read() == b"\r\nERROR\r\n"

    def test_reading_missing_slot_errors(self):
        modem = VirtualModem(SimClock())
        modem.write(b"AT+CMGR=7\r")
        assert modem.read() == b"\r\nERROR\r\n"

    def test_slot_consumed_after_read(self):
        modem = VirtualModem(SimClock())
        slot = modem.inject_sms("+1", "HI")
        modem.read()  # discard the CMTI notification
        modem.write(f"AT+CMGR={slot}\r".encode())
        assert b"+CMGR:" in modem.read()
        modem.write(f"AT+CMGR={slot}\r".encode())
        assert modem.read() == b"\r\nERROR\r\n"

    def test_silence_swallows_bytes_then_recovers(self):
        clock = SimClock()
        modem = VirtualModem(clock)
        modem.silence_for(100)
        modem.write(b'AT+CMGS="+1"\r')
        assert modem.read() == b""
        assert modem.swallowed_bytes == 13
        clock.advance(100)
        # a dead link, not a deaf listener: a parsed header would leave the
        # modem waiting for a body, and this AT would not be answered
        modem.write(b"AT\r")
        assert modem.read() == b"\r\nOK\r\n"

    def test_error_armed_before_the_body_refuses_it(self):
        modem = VirtualModem(SimClock())
        modem.write(b'AT+CMGS="+1"\r')
        assert modem.read() == b"\r\n> "
        modem.arm_error_once()
        modem.write(b"HI\x1a")
        assert modem.read() == b"\r\nERROR\r\n"
        assert modem.deliveries == []
        modem.write(b"AT\r")  # back to commands
        assert modem.read() == b"\r\nOK\r\n"

    def test_error_once_is_one_shot(self):
        modem = VirtualModem(SimClock())
        modem.arm_error_once()
        modem.write(b"AT\r")
        assert modem.read() == b"\r\nERROR\r\n"
        modem.write(b"AT\r")
        assert modem.read() == b"\r\nOK\r\n"


class TestSensorBoard:
    def test_levels_hold_between_samples(self):
        board = SensorBoard()
        frame = board.sample()
        assert (frame.impact, frame.temp_c, frame.humidity_pct) == (0, 20.0, 50.0)
        board.set_levels((("impact", 1),))
        board.set_levels((("temp_c", 30.0),))
        assert (board.sample().impact, board.sample().temp_c) == (1, 30.0)

    def test_one_frame_per_level_change(self):
        board = SensorBoard()
        board.set_levels((("alcohol_raw", 500),))
        frame = board.sample()
        assert board.sample() is frame
        board.set_levels((("alcohol_raw", 501),))
        assert board.sample() is not frame and board.sample().alcohol_raw == 501

    @pytest.mark.parametrize("values", [(("rain_intensity", 2000),), (("impact", 2),),
                                        (("temp_c", 85.5),), (("humidity_pct", -1.0),)])
    def test_each_copy_is_validated(self, values):
        board = SensorBoard()
        with pytest.raises(ValueError):
            board.set_levels(values)
        assert board.sample() == SensorFrame()


# -- executor -------------------------------------------------------------------


RMC_LINE = "t=1000 gps $GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A\n"
CRASH = RMC_LINE + "t=5000 impact 1\nt=5060 impact 0\n"


class TestRunner:
    def test_empty_scenario_is_quiet_and_reproducible(self):
        a = run([], CFG, 1000).serialize()
        b = run([], CFG, 1000).serialize()
        assert a == b
        assert a.startswith(REPORT_HEADER + "\n")
        assert "\nA " not in a and "\nS " not in a and "\nM " not in a
        assert "\nV " not in a

    def test_until_before_last_event_rejected(self):
        events = load_scenario("t=5000 impact 1")
        with pytest.raises(ScenarioError):
            run(events, CFG, 4000)

    def test_crash_scenario_delivers_one_alert(self):
        report = run(load_scenario(CRASH), CFG, 20000)
        assert report.violations == []
        assert "C sms_sent=1\nC sms_failed=0\n" in report.serialize()
        messages = [r.text for r in printed_records(report) if r.tag == "M"]
        assert len(messages) == 1
        assert messages[0].startswith(f"dest={CFG.alert_primary_number} body=")
        assert "48.117300,11.516667" in messages[0]
        airbags = [r for r in printed_records(report) if "airbag" in r.text]
        assert len(airbags) == 1 and airbags[0].t_ms == 5040

    def test_record_times_never_decrease(self):
        report = run(load_scenario(CRASH), CFG, 20000)
        times = [r.t_ms for r in printed_records(report)]
        assert times == sorted(times)

    def test_checksum_failure_counted_not_fatal(self):
        events = load_scenario("t=1000 gps $GPGGA,junk*FF\n")
        report = run(events, CFG, 2000)
        assert report.counters.checksum_failures == 1
        assert report.counters.sentences_parsed == 0
        assert report.violations == []

    def test_good_sentences_counted(self):
        report = run(load_scenario(CRASH), CFG, 20000)
        assert report.counters.sentences_parsed >= 1

    def test_loc_after_a_long_send_is_judged_at_the_frame_time(self):
        # the impact alert at t=1040 finds the modem silent until t=8000,
        # so its send blocks well past gps_stale_ms; the LOC that arrived
        # on the same tick is read after it, in the same visit, and still
        # reports the fix as fresh as of the frame it goes with
        text = (RMC_LINE + "t=1000 modem_fault silent_for 7000\n"
                "t=1000 impact 1\nt=1040 sms +15550100 LOC\nt=1100 impact 0\n")
        report = run(load_scenario(text), CFG, 20000)
        alert, reply = [r for r in printed_records(report) if r.tag == "S"]
        assert "body=ACCIDENT DETECTED" in alert.text
        assert alert.t_ms - 1040 > CFG.gps_stale_ms
        assert reply.t_ms == alert.t_ms
        assert "body=LOC=48.117300,11.516667 " in reply.text
        assert report.violations == []

    def test_report_holds_its_text_about_once(self):
        # ten minutes of heavy rain: one sweep of 60,000 wiper lines,
        # which the body holds as one string per swept second; the
        # warm-up run builds the wiper's cycle tables, which outlive it
        scenario, until_ms = TEN_MINUTES_OF_RAIN
        run(load_scenario(scenario), CFG, until_ms)
        events = load_scenario(scenario)
        tracemalloc.start()
        try:
            report = run(events, CFG, until_ms)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = len(report.serialize())
        assert held <= HELD_PER_REPORT * size
        assert peak <= PEAK_PER_REPORT * size

    def test_records_split_batches_at_newlines_only(self):
        report = SimReport(tick_ms=10, until_ms=100)
        report.body += ["A t=1 a\rb\u2028c", "A t=2 d\nS t=3 e f"]
        assert report.records == [
            LogRecord("A", 1, "a\rb\u2028c"), LogRecord("A", 2, "d"), LogRecord("S", 3, "e f")
        ]

    def test_final_state_keys(self):
        report = run([], CFG, 100)
        keys = [k for k, _ in report.final_state]
        assert keys == ["engine_enabled", "wiper_mode", "alcohol_ema", "gps_fix", "pending_alerts"]


# -- cli -----------------------------------------------------------------------


@pytest.fixture
def workdir(tmp_path):
    scenario = tmp_path / "crash.txt"
    scenario.write_text(CRASH)
    config = tmp_path / "default.cfg"
    config.write_text("")  # every key at its default
    return tmp_path, scenario, config


class TestCli:
    def test_check_ok(self, workdir, capsys):
        _, scenario, _ = workdir
        assert main(["check", "--scenario", str(scenario)]) == 0
        assert capsys.readouterr().out == "ok: 3 events\n"

    def test_check_missing_file(self, workdir, capsys):
        tmp, _, _ = workdir
        assert main(["check", "--scenario", str(tmp / "absent.txt")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_check_bad_scenario(self, workdir, capsys):
        tmp, _, _ = workdir
        bad = tmp / "bad.txt"
        bad.write_text("t=10 impact 5\n")
        assert main(["check", "--scenario", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_run_writes_report_file(self, workdir, capsys):
        tmp, scenario, config = workdir
        out = tmp / "report.txt"
        code = main([
            "run", "--scenario", str(scenario), "--config", str(config),
            "--until-ms", "20000", "--report", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith(REPORT_HEADER + "\n")
        assert "until_ms=20000" in text
        assert capsys.readouterr().out == ""  # report went to the file

    def test_run_stdout_is_deterministic(self, workdir, capsys):
        _, scenario, config = workdir
        argv = ["run", "--scenario", str(scenario), "--config", str(config)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_run_into_a_closed_pipe_exits_0(self, workdir, monkeypatch):
        # a reader such as head that hangs up early is not an error
        class HungUp:
            def write(self, text):
                raise BrokenPipeError

            def flush(self):
                pass

        _, scenario, config = workdir
        monkeypatch.setattr(sys, "stdout", HungUp())
        assert main(["run", "--scenario", str(scenario), "--config", str(config)]) == 0

    def test_non_ascii_digits_in_a_sentence_are_no_position(self, workdir, capsys):
        # Arabic-Indic digits pass str.isdigit, and folded as code points
        # they match this checksum: they became the car's position
        tmp, _, config = workdir
        scenario = tmp / "arabic.txt"
        scenario.write_text(
            "t=1000 gps $GPGGA,001234.50,\u0664\u0668\u0660\u0667.\u0660\u0663\u0668\u0661,N,"
            "01131.0002,E,1,08,0.9,545.4,M,46.9,M,,*66\nt=2000 sms +15550100 LOC\n",
            encoding="utf-8",
        )
        argv = ["run", "--scenario", str(scenario), "--config", str(config), "--until-ms", "3000"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "C checksum_failures=1\n" in out
        assert "F gps_fix=none\n" in out
        assert "reply dest=+15550100 body=LOC=UNKNOWN (no GPS fix)\n" in out

    def test_run_bad_config(self, workdir, capsys):
        tmp, scenario, _ = workdir
        cfg = tmp / "broken.cfg"
        cfg.write_text("impact_min_high = many\n")
        assert main(["run", "--scenario", str(scenario), "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_alcohol_threshold_beyond_the_adc(self, workdir, capsys):
        tmp, scenario, _ = workdir
        cfg = tmp / "deaf.cfg"
        cfg.write_text("alcohol_threshold = 5000\nalcohol_release = 4000\n")
        assert main(["run", "--scenario", str(scenario), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "alcohol_release" in err and "alcohol_threshold" in err

    def test_run_until_too_early(self, workdir, capsys):
        _, scenario, config = workdir
        code = main([
            "run", "--scenario", str(scenario), "--config", str(config),
            "--until-ms", "4000",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_run_empty_config_path(self, workdir, capsys):
        _, scenario, _ = workdir
        assert main(["run", "--scenario", str(scenario), "--config", ""]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "s.txt", "--config", "c.cfg", "--until-ms", "1_0000"],
        ["run", "--scenario", "s.txt", "--config", "c.cfg", "--until-ms", "\u0661\u0660\u0660\u0660\u0660"],
        ["run", "--scenario", "s.txt", "--config", "c.cfg", "--until-ms", "+10000"],
        ["run", "--scenario", "s.txt", "--config", "c.cfg", "--until-ms", "ten"],
        ["run", "--scenario", "s.txt", "--config", "c.cfg", "--until-ms"],
        ["run", "--scenario", "s.txt", "--config", "c.cfg", "--bogus"],
        ["run", "--scenario", "s.txt"],
        ["check"],
        [],
        ["fly"],
        ["run", "--scenario", "s.txt", "--config", "c.cfg", "--until-ms", "-5"],
    ])
    def test_argument_error_prints_usage_and_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: smartcar")
        assert "error: " in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: smartcar")

    @pytest.mark.parametrize("line", [
        "t=1000 sms +1555\xe9 STATUS",
        "t=1000 sms +1555€ STATUS",
        "t=1000 sms +15550100 ST€TUS",
        't=1000 sms +1"55 STATUS',
    ])
    def test_run_rejects_sms_the_modem_cannot_carry(self, workdir, capsys, line):
        tmp, _, config = workdir
        scenario = tmp / "sms.txt"
        scenario.write_text(line + "\n", encoding="utf-8")
        assert main(["run", "--scenario", str(scenario), "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {scenario}: line 1: ")

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("line", [
        "t=+3 panic 1",
        "t=1_0 impact 1",
        "t=100 panic +1",
        "t=100 alcohol 1_000",
        "t=100 impact \u0661",
        "t=100 modem_fault silent_for 1_0",
        "t=100 cabin 1e300 50",
    ])
    def test_rejects_integers_and_levels_off_the_grammar(self, workdir, capsys, command, line):
        tmp, _, config = workdir
        scenario = tmp / "odd.txt"
        scenario.write_text("t=0 impact 0\n" + line + "\nt=200 sms +15550100 TEMP\n", encoding="utf-8")
        argv = [command, "--scenario", str(scenario)]
        if command == "run":
            argv += ["--config", str(config)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {scenario}: line 2: ")

    @pytest.mark.parametrize("setting", ["tick_ms = +1_0", "sms_retry_max = \u0663"])
    def test_run_rejects_config_integers_off_the_grammar(self, workdir, capsys, setting):
        tmp, scenario, _ = workdir
        cfg = tmp / "odd.cfg"
        cfg.write_text("# tuning\n" + setting + "\n", encoding="utf-8")
        assert main(["run", "--scenario", str(scenario), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg}: line 2: bad value for ")

    @pytest.mark.parametrize("setting,key", [
        ("alert_primary_number = +1555\xe9", "alert_primary_number"),
        ("alert_safety_number = +1\"55", "alert_safety_number"),
        ("sms_retry_max = -3", "sms_retry_max"),
        ("impact_min_high = 0", "impact_min_high"),
    ])
    def test_run_rejects_bad_config_values(self, workdir, capsys, setting, key):
        tmp, scenario, _ = workdir
        cfg = tmp / "bad.cfg"
        cfg.write_text(setting + "\n", encoding="utf-8")
        assert main(["run", "--scenario", str(scenario), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg}: {key}")

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_non_utf8_scenario_names_the_byte(self, workdir, capsys, command):
        tmp, _, config = workdir
        scenario = tmp / "latin1.txt"
        scenario.write_bytes(b"t=1000 impact 1\n# caf\xe9\n")
        argv = [command, "--scenario", str(scenario)]
        if command == "run":
            argv += ["--config", str(config)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {scenario}: not UTF-8: byte 0xe9 at offset 21\n"

    def test_run_non_utf8_config_names_the_byte(self, workdir, capsys):
        tmp, scenario, _ = workdir
        cfg = tmp / "binary.cfg"
        cfg.write_bytes(b"tick_ms = 10\n\xff\n")
        assert main(["run", "--scenario", str(scenario), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: not UTF-8: byte 0xff at offset 13\n"

    def test_run_unwritable_report_path(self, workdir, capsys):
        tmp, scenario, config = workdir
        out = tmp / "absent" / "report.txt"
        code = main(["run", "--scenario", str(scenario), "--config", str(config),
                     "--report", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {out}: ")
        assert not out.exists()

    def test_check_keeps_a_comment_with_a_line_separator_whole(self, workdir, capsys):
        tmp, _, _ = workdir
        scenario = tmp / "drill.txt"
        scenario.write_text("# panic drill \u2028 see wiki\nt=1000 panic 1\n", encoding="utf-8")
        assert main(["check", "--scenario", str(scenario)]) == 0
        assert capsys.readouterr().out == "ok: 1 events\n"

    def test_run_reads_the_first_key_of_a_config_with_a_bom(self, workdir, capsys):
        # a BOM read as part of the first key makes it unknown, so it is
        # skipped and the alert goes to the default number
        tmp, _, _ = workdir
        cfg = tmp / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfalert_primary_number = +4915112345678\n")
        scenario = tmp / "panic.txt"
        scenario.write_text(
            "t=1000 gps $GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A\n"
            "t=2000 panic 1\nt=2100 panic 0\n"
        )
        argv = ["run", "--scenario", str(scenario), "--config", str(cfg), "--until-ms", "5000"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "\nM t=2000 dest=+4915112345678 body=PANIC BUTTON PRESSED. " in out
        assert "+15550001" not in out

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_non_utf8_after_a_bom_names_the_file_offset(self, workdir, capsys, command):
        tmp, _, config = workdir
        scenario = tmp / "bom.txt"
        scenario.write_bytes(b"\xef\xbb\xbft=1\xff\n")
        argv = [command, "--scenario", str(scenario)]
        if command == "run":
            argv += ["--config", str(config)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {scenario}: not UTF-8: byte 0xff at offset 6\n"
