"""Reactive core: debounce, interlock, wiper, panic, alert release.

The debouncer, the EMA and the cached servo angle are checked against
brute-force re-derivations written independently in this file.
"""

import hashlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from smartcar.config import Config
from smartcar.controller import (
    Action,
    ActionKind,
    AlcoholInterlock,
    ImpactDebouncer,
    SafetyController,
    WIPER_PERIOD_MS,
    WiperCommand,
    WiperMode,
    _cycle_angle,
    servo_angle,
    wiper_mode,
)
from smartcar.messages import NO_FIX_TEXT
from smartcar.nmea import parse_sentence
from smartcar.sim.runner import run
from smartcar.sim.scenario import load_scenario
from smartcar.types import AlertKind, InboundSms, SensorFrame

CFG = Config()
GGA = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47"
RMC = "$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A"
COORDS = "48.117300,11.516667"


def kinds(actions):
    return [a.kind for a in actions]


# -- debounce ------------------------------------------------------------


def oracle_debounce(samples, window, min_high, refractory):
    """Independent recount: all high timestamps, full window scan each step."""
    highs, latch_until, decisions = [], 0, []
    for t, level in samples:
        if level:
            highs.append(t)
        in_window = sum(1 for h in highs if t - h < window)
        fire = in_window >= min_high and t >= latch_until
        if fire:
            latch_until = t + refractory
        decisions.append(fire)
    return decisions


class TestImpactDebouncer:
    def test_five_highs_in_window_fire(self):
        deb = ImpactDebouncer(100, 5, 60000)
        fired = [deb.update(5000 + 10 * i, 1) for i in range(6)]
        assert fired == [False, False, False, False, True, False]

    def test_lone_spike_is_ignored(self):
        deb = ImpactDebouncer(100, 5, 60000)
        assert not deb.update(1000, 1)
        assert not any(deb.update(1000 + 200 * i, 0) for i in range(1, 30))

    def test_sparse_highs_never_accumulate(self):
        deb = ImpactDebouncer(100, 5, 60000)
        assert not any(deb.update(i * 100, 1) for i in range(50))

    def test_refractory_suppresses_then_releases(self):
        deb = ImpactDebouncer(100, 5, 1000)
        for i in range(5):
            fired = deb.update(10 * i, 1)
        assert fired
        # immediately keep hammering: still inside the latch
        assert not any(deb.update(50 + 10 * i, 1) for i in range(20))
        # a burst after the latch expires fires again
        fired = [deb.update(1300 + 10 * i, 1) for i in range(5)]
        assert fired == [False, False, False, False, True]

    def test_window_is_half_open_at_the_back(self):
        # highs at 0,10,20,30 then one exactly window later: the t=0 high
        # has aged out (now - t == window), so only 4 remain
        deb = ImpactDebouncer(100, 5, 60000)
        for t in (0, 10, 20, 30):
            assert not deb.update(t, 1)
        assert not deb.update(100, 1)
        assert deb.update(109, 1)  # t=10..109 holds five

    def test_matches_bruteforce_on_random_streams(self):
        rng = random.Random(99)
        for _ in range(300):
            t, samples = 0, []
            for _ in range(rng.randrange(5, 40)):
                t += rng.randrange(1, 40)
                samples.append((t, rng.randrange(2)))
            deb = ImpactDebouncer(100, 5, 300)
            got = [deb.update(*s) for s in samples]
            assert got == oracle_debounce(samples, 100, 5, 300)


# -- interlock -------------------------------------------------------------


def ema_series(raws, alpha=0.2):
    ema = None
    out = []
    for r in raws:
        ema = r if ema is None else alpha * r + (1 - alpha) * ema
        out.append(ema)
    return out


class TestAlcoholInterlock:
    def test_ema_initializes_to_first_sample(self):
        lock = AlcoholInterlock(450, 400)
        lock.update(300)
        assert lock.ema == 300

    def test_engages_exactly_when_ema_crosses(self):
        raws = [0] * 5 + [600] * 30
        expect = ema_series(raws)
        lock = AlcoholInterlock(450, 400)
        crossed_at = None
        for i, (raw, ema) in enumerate(zip(raws, expect)):
            changed, alert = lock.update(raw)
            assert lock.ema == ema
            assert changed == alert  # first crossing carries the alert
            if changed:
                crossed_at = i
                break
        assert crossed_at is not None
        assert not lock.engine_enabled
        assert expect[crossed_at] >= 450 > expect[crossed_at - 1]

    def test_single_alert_per_engagement(self):
        lock = AlcoholInterlock(450, 400)
        alerts = sum(lock.update(800)[1] for _ in range(50))
        assert alerts == 1
        assert not lock.engine_enabled

    def test_hysteresis_band_holds(self):
        lock = AlcoholInterlock(450, 400)
        for _ in range(50):
            lock.update(800)
        # hover between release and threshold: stays engaged, no new alert
        for _ in range(100):
            changed, alert = lock.update(430)
            assert not alert
        assert not lock.engine_enabled
        # drop below release: re-enables, and a fresh breach alerts again
        while not lock.engine_enabled:
            lock.update(0)
        assert lock.engine_enabled
        alerts = sum(lock.update(900)[1] for _ in range(30))
        assert alerts == 1

    def test_smoothing_rejects_single_spike(self):
        lock = AlcoholInterlock(450, 400)
        lock.update(0)
        changed, alert = lock.update(1023)  # ema 204.6, nowhere near 450
        assert not changed and not alert
        assert lock.engine_enabled


# -- wiper ----------------------------------------------------------------


class TestWiperMapping:
    def test_band_boundaries(self):
        assert wiper_mode(0, 1023, CFG) is WiperMode.OFF
        assert wiper_mode(1, 0, CFG) is WiperMode.INTERMITTENT
        assert wiper_mode(1, 300, CFG) is WiperMode.INTERMITTENT
        assert wiper_mode(1, 301, CFG) is WiperMode.LOW
        assert wiper_mode(1, 700, CFG) is WiperMode.LOW
        assert wiper_mode(1, 701, CFG) is WiperMode.HIGH
        assert wiper_mode(1, 1023, CFG) is WiperMode.HIGH

    def test_monotone_in_intensity(self):
        prev = WiperMode.INTERMITTENT
        for level in range(1024):
            mode = wiper_mode(1, level, CFG)
            assert mode >= prev
            prev = mode


class TestServoAngle:
    def test_high_quarter_points(self):
        assert servo_angle(WiperMode.HIGH, 0) == 0.0
        assert servo_angle(WiperMode.HIGH, 250) == 85.0
        assert servo_angle(WiperMode.HIGH, 500) == 170.0
        assert servo_angle(WiperMode.HIGH, 750) == 85.0
        assert servo_angle(WiperMode.HIGH, 1000) == 0.0  # wrapped

    def test_low_quarter_points(self):
        assert servo_angle(WiperMode.LOW, 500) == 85.0
        assert servo_angle(WiperMode.LOW, 1000) == 170.0
        assert servo_angle(WiperMode.LOW, 1500) == 85.0

    def test_intermittent_sweeps_then_rests(self):
        assert servo_angle(WiperMode.INTERMITTENT, 1000) == 170.0
        assert servo_angle(WiperMode.INTERMITTENT, 2000) == 0.0
        assert servo_angle(WiperMode.INTERMITTENT, 3500) == 0.0  # resting
        assert servo_angle(WiperMode.INTERMITTENT, 4500) == 85.0  # next cycle

    def test_off_is_parked(self):
        assert all(servo_angle(WiperMode.OFF, p) == 0.0 for p in range(0, 5000, 10))

    def test_bounds_and_continuity_everywhere(self):
        periods = {WiperMode.HIGH: 1000, WiperMode.LOW: 2000, WiperMode.INTERMITTENT: 4000}
        actives = {WiperMode.HIGH: 1000, WiperMode.LOW: 2000, WiperMode.INTERMITTENT: 2000}
        for mode, period in periods.items():
            max_step = 170.0 * 10 / (actives[mode] / 2)
            prev = servo_angle(mode, 0)
            for phase in range(10, 2 * period + 10, 10):
                cur = servo_angle(mode, phase)
                assert 0.0 <= cur <= 170.0
                assert abs(cur - prev) <= max_step + 1e-9
                prev = cur


# (period, active window) of each mode, written out here rather than read
# from the module
TRIANGLE_MS = {
    WiperMode.HIGH: (1000, 1000),
    WiperMode.LOW: (2000, 2000),
    WiperMode.INTERMITTENT: (4000, 2000),
}


def oracle_angle(mode, phase_ms):
    """The triangle wave as 170 degrees times the distance from the
    nearer end of the active window, over half the window."""
    if mode is WiperMode.OFF:
        return 0.0
    period, active = TRIANGLE_MS[mode]
    phase = phase_ms % period
    return 170.0 * min(phase, active - phase) / (active / 2) if phase < active else 0.0


class TestServoAngleCache:
    """servo_angle caches per (mode, phase modulo the period); a cache
    keyed without the mode, or by the raw phase, shows here."""

    @given(st.lists(
        st.tuples(st.integers(0, 10**9), st.permutations(list(WiperMode))), min_size=1, max_size=30
    ))
    def test_cached_angle_is_the_triangle_wave(self, asks):
        # every phase is asked in every mode, in a drawn order, and then
        # all of it again backwards, answered from the cache
        _cycle_angle.cache_clear()
        for phase, modes in asks + asks[::-1]:
            for mode in modes:
                assert servo_angle(mode, phase) == pytest.approx(oracle_angle(mode, phase), abs=1e-9)

    # an hour of heavy rain, t=0 rain 1 900, at two tick lengths
    HOUR_OF_RAIN_SHA256 = {
        7: "e8b276a2039ef9c87954f0a69dc45e4fae9cba0e654e043554f19ffc03b08b12",
        10: "810ddc48647282ceeab3c3de4f472b5c4b060ab43ca720c501e411260fbc2ee7",
    }

    def test_cache_stays_bounded_over_long_drives(self):
        _cycle_angle.cache_clear()
        for tick_ms, digest in self.HOUR_OF_RAIN_SHA256.items():
            report = run(load_scenario("t=0 rain 1 900\n"), Config(tick_ms=tick_ms), 3_600_000)
            assert hashlib.sha256(report.serialize().encode()).hexdigest() == digest, tick_ms
        assert _cycle_angle.cache_info().currsize <= sum(WIPER_PERIOD_MS.values())


# -- controller ------------------------------------------------------------


class TestAccidentFlow:
    def burst(self, ctl, start, n=6):
        out = []
        for i in range(n):
            out.extend(ctl.step(SensorFrame(impact=1), start + 10 * i))
        return out

    def test_airbag_then_alert_with_fresh_fix(self):
        ctl = SafetyController(CFG)
        ctl.step(parse_sentence(GGA), 1000)
        actions = self.burst(ctl, 5000)
        assert kinds(actions) == [ActionKind.ASSERT_AIRBAG_LINE, ActionKind.SEND_ALERT]
        alert = actions[1]
        assert alert.alert is AlertKind.ACCIDENT
        assert COORDS in alert.text

    def test_without_fix_alert_waits_for_one(self):
        # the fix arriving 3 s into the wait must be inside the alert body
        ctl = SafetyController(CFG)
        actions = self.burst(ctl, 5000)
        assert kinds(actions) == [ActionKind.ASSERT_AIRBAG_LINE]
        assert len(ctl.pending_alerts) == 1
        actions = ctl.step(parse_sentence(RMC), 8040)
        assert kinds(actions) == [ActionKind.SEND_ALERT]
        assert COORDS in actions[0].text
        assert not ctl.pending_alerts

    def test_without_any_fix_alert_releases_unknown_at_deadline(self):
        ctl = SafetyController(CFG)
        self.burst(ctl, 5000)
        deadline = 5040 + CFG.gps_wait_ms
        assert not ctl.step(SensorFrame(), deadline - 10)
        actions = ctl.step(SensorFrame(), deadline)
        assert kinds(actions) == [ActionKind.SEND_ALERT]
        assert NO_FIX_TEXT in actions[0].text

    def test_one_alert_per_refractory_window(self):
        ctl = SafetyController(CFG)
        ctl.step(parse_sentence(GGA), 4000)
        first = self.burst(ctl, 5000)
        again = self.burst(ctl, 7000)  # still latched
        assert sum(1 for a in first if a.kind is ActionKind.SEND_ALERT) == 1
        assert sum(1 for a in again if a.kind is ActionKind.SEND_ALERT) == 0

    def test_separated_bursts_alert_each(self):
        ctl = SafetyController(CFG)
        alerts = 0
        for start in (5000, 70000, 140000):  # > impact_refractory_ms apart
            ctl.step(parse_sentence(GGA.encode()), start - 100)
            alerts += sum(
                1 for a in self.burst(ctl, start) if a.kind is ActionKind.SEND_ALERT
            )
        assert alerts == 3


class TestPanicFlow:
    def press(self, ctl, t):
        acts = list(ctl.step(SensorFrame(panic=1), t))
        acts += ctl.step(SensorFrame(panic=0), t + 10)
        return acts

    def test_edge_triggered_not_level(self):
        ctl = SafetyController(CFG)
        ctl.step(parse_sentence(GGA), 900)
        actions = ctl.step(SensorFrame(panic=1), 1000)
        assert sum(1 for a in actions if a.kind is ActionKind.SEND_ALERT) == 1
        # holding the button produces nothing new
        for t in range(1010, 1200, 10):
            assert not ctl.step(SensorFrame(panic=1), t)

    def test_refractory_windows(self):
        ctl = SafetyController(CFG)
        ctl.step(parse_sentence(GGA), 900)
        a1 = self.press(ctl, 1000)
        a2 = self.press(ctl, 6000)  # inside 30 s window
        ctl.step(parse_sentence(GGA), 31900)
        a3 = self.press(ctl, 32000)  # outside
        count = lambda acts: sum(1 for a in acts if a.kind is ActionKind.SEND_ALERT)
        assert (count(a1), count(a2), count(a3)) == (1, 0, 1)
        assert a1[0].alert is AlertKind.PANIC


class TestAlcoholFlow:
    def test_full_engagement_cycle(self):
        ctl = SafetyController(CFG)
        ctl.step(parse_sentence(GGA), 1900)
        log = []
        t = 2000
        for raw in [600] * 30 + [0] * 30:
            log.extend(ctl.step(SensorFrame(alcohol_raw=raw), t))
            t += 10
        engine = [a.engine_enabled for a in log if a.kind is ActionKind.SET_ENGINE]
        alerts = [a for a in log if a.kind is ActionKind.SEND_ALERT]
        assert engine == [False, True]
        assert len(alerts) == 1
        assert alerts[0].alert is AlertKind.ALCOHOL
        assert alerts[0].dest == CFG.alert_safety_number

    def test_engine_disable_precedes_alert_action(self):
        ctl = SafetyController(CFG)
        ctl.step(parse_sentence(GGA), 1900)
        t = 2000
        while True:
            actions = ctl.step(SensorFrame(alcohol_raw=700), t)
            if actions:
                break
            t += 10
        assert kinds(actions) == [ActionKind.SET_ENGINE, ActionKind.SEND_ALERT]
        assert actions[0].engine_enabled is False


class TestAlertRouting:
    # the frames that raise each alert, 10 ms apart
    TRIGGERS = {
        AlertKind.ACCIDENT: [SensorFrame(impact=1)] * 6,
        AlertKind.PANIC: [SensorFrame(panic=1)],
        AlertKind.ALCOHOL: [SensorFrame(alcohol_raw=1023)],
    }
    ROUTE = {
        AlertKind.ACCIDENT: CFG.alert_primary_number,
        AlertKind.PANIC: CFG.alert_primary_number,
        AlertKind.ALCOHOL: CFG.alert_safety_number,
    }

    @pytest.mark.parametrize("kind", list(AlertKind))
    @pytest.mark.parametrize("fresh_fix", [True, False], ids=["immediate", "parked"])
    def test_kind_picks_the_number_on_both_release_paths(self, kind, fresh_fix):
        assert CFG.alert_primary_number != CFG.alert_safety_number
        ctl = SafetyController(CFG)
        if fresh_fix:
            ctl.step(parse_sentence(GGA), 900)
        actions = []
        for i, frame in enumerate(self.TRIGGERS[kind]):
            actions += ctl.step(frame, 1000 + 10 * i)
        if not fresh_fix:
            assert ActionKind.SEND_ALERT not in kinds(actions)
            deadline = ctl.pending_alerts[0].deadline_ms
            assert ActionKind.SEND_ALERT not in kinds(ctl.step(SensorFrame(), deadline - 10))
            actions = ctl.step(SensorFrame(), deadline)
        alerts = [a for a in actions if a.kind is ActionKind.SEND_ALERT]
        assert len(alerts) == 1
        assert alerts[0].alert is kind
        assert alerts[0].dest == self.ROUTE[kind]
        assert (COORDS if fresh_fix else NO_FIX_TEXT) in alerts[0].text
        assert not ctl.pending_alerts


class TestWiperFlow:
    def test_emits_on_change_with_phase_anchor(self):
        ctl = SafetyController(CFG)
        a0 = ctl.step(SensorFrame(rain_wet=1, rain_intensity=500), 1000)
        assert kinds(a0) == [ActionKind.SET_WIPER]
        assert a0[0].wiper.mode is WiperMode.LOW
        assert a0[0].wiper.servo_angle_deg == 0.0  # phase restarts on entry
        a1 = ctl.step(SensorFrame(rain_wet=1, rain_intensity=500), 1010)
        assert a1[0].wiper.servo_angle_deg == 1.7

    def test_dry_parks_once(self):
        ctl = SafetyController(CFG)
        ctl.step(SensorFrame(rain_wet=1, rain_intensity=900), 1000)
        a = ctl.step(SensorFrame(rain_wet=0), 1010)
        assert kinds(a) == [ActionKind.SET_WIPER]
        assert a[0].wiper.mode is WiperMode.OFF
        assert a[0].wiper.servo_angle_deg == 0.0
        assert not ctl.step(SensorFrame(rain_wet=0), 1020)


class TestNextDeadline:
    """next_deadline_ms: when a frame repeating the last levels could next
    change anything; None when it never could."""

    def test_all_quiet_has_no_deadline(self):
        ctl = SafetyController(CFG)
        ctl.step(SensorFrame(), 0)
        assert ctl.next_deadline_ms(0) is None
        assert ctl.next_deadline_ms(12345) is None

    def test_impact_high_is_now(self):
        ctl = SafetyController(CFG)
        ctl.step(SensorFrame(impact=1), 0)
        assert ctl.next_deadline_ms(0) == 0

    def test_highs_in_window_are_now_until_they_leave_it(self):
        ctl = SafetyController(CFG)
        ctl.step(SensorFrame(impact=1), 0)
        ctl.step(SensorFrame(), 10)
        assert ctl.next_deadline_ms(10) == 10
        ctl.step(SensorFrame(), CFG.impact_window_ms)
        assert ctl.next_deadline_ms(CFG.impact_window_ms) is None

    def test_moving_ema_is_now_until_it_settles(self):
        ctl = SafetyController(CFG)
        ctl.step(SensorFrame(), 0)
        t = 10
        ctl.step(SensorFrame(alcohol_raw=500), t)
        assert ctl.next_deadline_ms(t) == t
        while ctl.next_deadline_ms(t) is not None:
            t += 10
            ctl.step(SensorFrame(alcohol_raw=500), t)
        assert ctl.interlock.ema == 500.0
        assert not ctl.interlock.engine_enabled

    def test_low_and_high_wipers_set_no_deadline(self):
        # a moving servo is sweep()'s to step, not a reason to visit
        for intensity in (500, 900):
            ctl = SafetyController(CFG)
            ctl.step(SensorFrame(rain_wet=1, rain_intensity=intensity), 0)
            assert ctl.wiper.mode in (WiperMode.LOW, WiperMode.HIGH)
            assert ctl.next_deadline_ms(0) is None

    def test_intermittent_sweep_sets_no_deadline(self):
        ctl = SafetyController(CFG)
        ctl.step(SensorFrame(rain_wet=1, rain_intensity=100), 0)
        assert ctl.wiper.mode is WiperMode.INTERMITTENT
        assert ctl.next_deadline_ms(0) is None
        ctl.step(SensorFrame(rain_wet=1, rain_intensity=100), 10)
        assert ctl.next_deadline_ms(10) is None

    def test_intermittent_first_rest_tick_sweeps_the_servo_down(self):
        # a blocking send moved the clock into the rest phase after the
        # last frame left the servo mid-sweep: the sweep's first tick
        # steps it down to 0, and the next one comes with the next cycle
        ctl = SafetyController(CFG)
        ctl.step(SensorFrame(rain_wet=1, rain_intensity=100), 0)
        ctl.step(SensorFrame(rain_wet=1, rain_intensity=100), 1990)
        assert ctl.wiper.servo_angle_deg > 0.0
        assert ctl.next_deadline_ms(2005) is None
        up = servo_angle(WiperMode.INTERMITTENT, 4015)
        assert ctl.sweep(2005, 4020) == [
            (2015, 0.0), (4005, servo_angle(WiperMode.INTERMITTENT, 4005)), (4015, up)
        ]
        assert ctl.wiper == WiperCommand(WiperMode.INTERMITTENT, up)

    def test_intermittent_rest_is_jumped_over(self):
        ctl = SafetyController(CFG)
        ctl.step(SensorFrame(rain_wet=1, rain_intensity=100), 0)
        ctl.step(SensorFrame(rain_wet=1, rain_intensity=100), 2000)
        assert ctl.wiper.servo_angle_deg == 0.0
        assert ctl.next_deadline_ms(2000) is None
        with mock.patch("smartcar.controller.servo_angle", wraps=servo_angle) as angle:
            assert ctl.sweep(2000, 4000) == []
            assert angle.call_count == 0
            assert ctl.sweep(2000, 4020) == [(4010, servo_angle(WiperMode.INTERMITTENT, 10))]
            assert angle.call_count == 2  # 4000 (still 0.0) and 4010

    def test_pending_alert_is_its_deadline(self):
        ctl = SafetyController(CFG)
        for t in range(5000, 5060, 10):
            ctl.step(SensorFrame(impact=1), t)
        (pending,) = ctl.pending_alerts
        ctl.step(SensorFrame(), 5200)
        assert ctl.next_deadline_ms(5200) == pending.deadline_ms == 5040 + CFG.gps_wait_ms


class TestSweep:
    """sweep() against stepping, on every tick it covers, a frame that
    repeats the last visit's levels."""

    INTENSITY = {WiperMode.INTERMITTENT: 100, WiperMode.LOW: 500, WiperMode.HIGH: 900}

    @settings(deadline=None)
    @given(
        mode=st.sampled_from(sorted(INTENSITY)),
        tick_ms=st.sampled_from((1, 7, 10, 25, 300, 1000, 1500)),
        visit_ticks=st.integers(0, 500),
        blocked_ms=st.one_of(st.just(0), st.integers(1, 5000)),
        span_ms=st.integers(0, 9000),
    )
    def test_sweep_matches_stepping_every_tick(self, mode, tick_ms, visit_ticks, blocked_ms, span_ms):
        # the mode starts at 0 and the last visit is on the tick grid; a
        # send that blocked after it can leave the clock off the grid,
        # possibly in a rest phase with the servo still up
        levels = {"rain_wet": 1, "rain_intensity": self.INTENSITY[mode]}
        visit = visit_ticks * tick_ms
        now, end = visit + blocked_ms, visit + blocked_ms + span_ms
        config = Config(tick_ms=tick_ms)
        swept, stepped = SafetyController(config), SafetyController(config)
        for ctl in (swept, stepped):
            ctl.step(SensorFrame(**levels), 0)
            ctl.step(SensorFrame(**levels), visit)
        expected = [
            (t, action.wiper.servo_angle_deg)
            for t in range(now + tick_ms, end, tick_ms)
            for action in stepped.step(SensorFrame(**levels), t)
            if action.kind is ActionKind.SET_WIPER
        ]
        assert swept.sweep(now, end) == expected
        assert swept.wiper == stepped.wiper


class TestQueryDispatch:
    def test_reply_goes_to_sender(self):
        ctl = SafetyController(CFG)
        ctl.step(SensorFrame(temp_c=24.5, humidity_pct=51.0), 1000)
        actions = ctl.step(InboundSms(sender="+15550100", body="STATUS"), 1500)
        assert kinds(actions) == [ActionKind.SEND_REPLY]
        assert actions[0].dest == "+15550100"
        assert "TEMP=24.5C" in actions[0].text
        assert "HUM=51%" in actions[0].text

    def test_reply_without_any_frame_uses_defaults(self):
        ctl = SafetyController(CFG)
        actions = ctl.step(InboundSms(sender="+1", body="TEMP"), 100)
        assert actions[0].text == "TEMP=20.0C"

    def test_status_reflects_interlock(self):
        ctl = SafetyController(CFG)
        for t in range(1000, 1400, 10):
            ctl.step(SensorFrame(alcohol_raw=900), t)
        actions = ctl.step(InboundSms(sender="+1", body="STATUS"), 1400)
        assert "ENGINE=DISABLED" in actions[0].text


class TestDeterminism:
    def script(self):
        seq = [(parse_sentence(GGA), 1000)]
        t = 1200
        rng = random.Random(7)
        for _ in range(200):
            roll = rng.random()
            if roll < 0.1:
                seq.append((parse_sentence(RMC), t))
            elif roll < 0.15:
                seq.append((InboundSms("+1", rng.choice(["STATUS", "LOC", "?"])), t))
            else:
                seq.append((
                    SensorFrame(
                        impact=rng.randrange(2),
                        panic=rng.randrange(2),
                        alcohol_raw=rng.randrange(1024),
                        rain_wet=rng.randrange(2),
                        rain_intensity=rng.randrange(1024),
                    ),
                    t,
                ))
            t += 10
        return seq

    def test_identical_runs_identical_actions(self):
        script = self.script()
        ctl_a, ctl_b = SafetyController(CFG), SafetyController(CFG)
        run_a = [ctl_a.step(e, t) for e, t in script]
        run_b = [ctl_b.step(e, t) for e, t in script]
        assert run_a == run_b
        assert any(run_a)  # the script provokes at least some output

    def test_actions_are_values(self):
        a = Action(ActionKind.ASSERT_AIRBAG_LINE)
        b = Action(ActionKind.ASSERT_AIRBAG_LINE)
        assert a == b and hash(a) == hash(b)
