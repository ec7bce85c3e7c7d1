"""The executor's self-audits fire: each test breaks the invariant one
audit guards, through unittest.mock, and expects that audit's V line.

Every other test expects no V line, so without these a deleted audit
would pass the whole suite.
"""

from pathlib import Path
from unittest import mock

from smartcar.cli import main
from smartcar.config import Config
from smartcar.controller import Action, ActionKind, AlcoholInterlock, SafetyController
from smartcar.nmea import NmeaSentence
from smartcar.sim.devices import VirtualModem
from smartcar.sim.runner import _Executor, run, sweep_lines
from smartcar.sim.scenario import load_scenario

CFG = Config()
DEFAULT_CFG = Path(__file__).resolve().parent.parent / "scenarios" / "default.cfg"
RMC_FIX = "$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A"
CRASH = f"t=1000 gps {RMC_FIX}\nt=5000 impact 1\nt=5060 impact 0\n"
ALERT = (
    "dest=+15550001 body=ACCIDENT DETECTED. Location: 48.117300,11.516667"
    " https://maps.google.com/?q=48.117300,11.516667"
)


def v_lines(report) -> list[str]:
    return [line for line in report.serialize().splitlines() if line.startswith("V ")]


def _update_never_engages(self, raw):
    """An interlock that smooths nothing and never drops the engine line."""
    self.ema = raw
    return False


def _finish_body_unrecorded(self, body):
    """A modem that acknowledges the body but records no delivery."""
    self._pending_dest = None
    self._emit("\r\n+CMGS: 1\r\n\r\nOK\r\n")


def test_interlock_audit_fires():
    with mock.patch.object(AlcoholInterlock, "update", _update_never_engages):
        report = run(load_scenario("t=100 alcohol 900"), CFG, 2000)
    assert v_lines(report) == ["V t=100 interlock: engine enabled while ema=900.0 >= 450"]


def _coast_to_the_level(self, raw, updates):
    """A coast that skips the smoothing and lands on the level itself."""
    self.ema = float(raw)


def test_interlock_audit_fires_after_the_last_coast():
    # the visit at 100 leaves the EMA at 100.0, ten ticks short of its
    # flip at 200; the ticks up to the end are coasted, and no visit follows
    with mock.patch.object(AlcoholInterlock, "coast", _coast_to_the_level):
        report = run(load_scenario("t=0 alcohol 0\nt=100 alcohol 500"), CFG, 150)
    assert v_lines(report) == ["V t=150 interlock: engine enabled while ema=500.0 >= 450"]


def early_batch(t_ms):
    """A sweep's batch of one wiper line at t_ms."""
    return t_ms, t_ms, f"A t={t_ms} wiper mode=HIGH angle=0.0"


def test_clock_order_audit_fires():
    def sweep_with_early_step(changes, k, t_ms, count, tick_ms):
        return [*sweep_lines(changes, k, t_ms, count, tick_ms), early_batch(t_ms - 1)]

    with mock.patch("smartcar.sim.runner.sweep_lines", sweep_with_early_step):
        report = run(load_scenario("t=0 rain 1 900"), CFG, 2000)
    [line] = v_lines(report)
    assert line.startswith("V clock: record at t=")


# a visit at t=1000 splits the rain into two sweeps: 10..990, then 1010..1990
TWO_SWEEPS = "t=0 rain 1 900\nt=1000 cabin 21 50"


def test_clock_order_audit_fires_mid_sweep():
    def sweep_with_early_step_inside(changes, k, t_ms, count, tick_ms):
        # after the sweep's first second, a step just before its last
        # line, then the rest of the sweep's batches
        first, *rest = sweep_lines(changes, k, t_ms, count, tick_ms)
        return [first, early_batch(first[1] - 1), *rest]

    # one sweep, 10..3000, a batch a second
    with mock.patch("smartcar.sim.runner.sweep_lines", sweep_with_early_step_inside):
        report = run(load_scenario("t=0 rain 1 900"), CFG, 3000)
    assert "\nA t=989 wiper mode=HIGH angle=0.0\nA t=1000 wiper " in report.serialize()
    assert v_lines(report) == ["V clock: record at t=989 after one at t=990"]


def test_clock_order_audit_fires_on_a_sweeps_first_step():
    def sweep_starting_early(changes, k, t_ms, count, tick_ms):
        # after the visit at 1000 writes its own wiper step, the sweep
        # from 1010 steps back before its first batch
        batches = list(sweep_lines(changes, k, t_ms, count, tick_ms))
        return [early_batch(995), *batches] if t_ms == 1010 else batches

    with mock.patch("smartcar.sim.runner.sweep_lines", sweep_starting_early):
        report = run(load_scenario(TWO_SWEEPS), CFG, 2000)
    assert "\nA t=1000 wiper mode=HIGH " in report.serialize()
    assert v_lines(report) == ["V clock: record at t=995 after one at t=1000"]


def test_clock_order_audit_fires_on_an_action():
    check_interlock = _Executor._check_interlock

    def check_interlock_then_note_early(self):
        check_interlock(self)
        if self.clock.now_ms == 1000:
            self._record_action(985, "note early")

    with mock.patch.object(_Executor, "_check_interlock", check_interlock_then_note_early):
        report = run(load_scenario(TWO_SWEEPS), CFG, 2000)
    assert v_lines(report) == ["V clock: record at t=985 after one at t=1000"]


def test_fold_audit_fires():
    step = SafetyController.step

    def step_asserting_the_airbag_on_a_sentence(self, event, now_ms):
        actions = step(self, event, now_ms)
        if isinstance(event, NmeaSentence):
            actions.append(Action(ActionKind.ASSERT_AIRBAG_LINE))
        return actions

    # no alert is pending, so both lines are folded between the visit at
    # 0 and the end, newest first: the 1995 line, stepped on tick 2000,
    # sets the fix, so the 1000 line is only counted; the action the
    # stepped line gives has nowhere to go
    scenario = f"t=1000 gps {RMC_FIX}\nt=1995 gps {RMC_FIX}"
    with mock.patch.object(SafetyController, "step", step_asserting_the_airbag_on_a_sentence):
        report = run(load_scenario(scenario), CFG, 3000)
    assert "\nA " not in report.serialize()
    assert report.counters.sentences_parsed == 2
    assert v_lines(report) == ["V t=2000 fold: GPS line between visits gave ASSERT_AIRBAG_LINE"]


def test_conservation_audit_fires_per_send_and_at_the_end():
    with mock.patch.object(VirtualModem, "_finish_body", _finish_body_unrecorded):
        report = run(load_scenario(CRASH), CFG, 20000)
    assert f"M t=5040 {ALERT}" in report.serialize()
    assert v_lines(report) == [
        f"V t=5040 conservation: delivered=yes attempts=1 reason=- {ALERT}, modem recorded []",
        "V conservation: report lists 1 deliveries, modem recorded 0",
    ]


def test_conservation_audit_counts_send_actions():
    with mock.patch.object(_Executor, "_dispatch", lambda self, dest, body: None):
        report = run(load_scenario(CRASH), CFG, 20000)
    assert v_lines(report) == ["V conservation: 1 send actions, 0 send records"]


def test_cli_exits_2_on_a_violation(tmp_path, capsys):
    scenario = tmp_path / "drunk.txt"
    scenario.write_text("t=100 alcohol 900\n", encoding="utf-8")
    with mock.patch.object(AlcoholInterlock, "update", _update_never_engages):
        code = main(["run", "--scenario", str(scenario), "--config", str(DEFAULT_CFG)])
    out, err = capsys.readouterr()
    assert code == 2
    assert "\nV t=100 interlock: " in out
    assert err == "error: 1 invariant violation(s), see report\n"


def test_rejected_send_is_one_failed_send():
    # a reply the text-mode encoder cannot carry is rejected before any byte is written
    with mock.patch("smartcar.controller.format_reply", return_value="X" * 161):
        text = run(load_scenario("t=100 sms +15550100 STATUS"), CFG, 2000).serialize()
    assert (
        "\nS t=100 delivered=no attempts=1 reason=rejected: SMS body exceeds 160 chars (161)"
        f" dest=+15550100 body={'X' * 161}\n"
    ) in text
    assert "\nC sms_sent=0\nC sms_failed=1\nC sms_retries=0\n" in text
    assert "\nM " not in text
    assert "\nV " not in text
