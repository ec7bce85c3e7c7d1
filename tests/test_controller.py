"""Reactive core: debounce, interlock, wiper, panic, alert release.

The debouncer, the EMA, the servo angle and the wiper's cycle tables are
checked against brute-force re-derivations written independently in
this file.
"""

import copy
import hashlib
import math
import random
import tracemalloc
from itertools import islice
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from smartcar.config import Config
from smartcar.controller import (
    Action,
    ActionKind,
    AlcoholInterlock,
    ImpactDebouncer,
    SafetyController,
    WIPER_PERIOD_MS,
    WiperCommand,
    WiperCycle,
    WiperMode,
    _WIPER_CYCLES,
    servo_angle,
    wiper_mode,
)
from smartcar.messages import NO_FIX_TEXT
from smartcar.nmea import parse_sentence
from smartcar.sim.runner import run, sweep_lines
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
            changed = lock.update(raw)
            assert lock.ema == ema
            if changed:
                crossed_at = i
                break
        assert crossed_at is not None
        assert not lock.engine_enabled
        assert expect[crossed_at] >= 450 > expect[crossed_at - 1]

    def test_single_alert_per_engagement(self):
        lock = AlcoholInterlock(450, 400)
        changes = sum(lock.update(800) for _ in range(50))
        assert changes == 1
        assert not lock.engine_enabled

    def test_hysteresis_band_holds(self):
        lock = AlcoholInterlock(450, 400)
        for _ in range(50):
            lock.update(800)
        # hover between release and threshold: the line does not move
        for _ in range(100):
            assert not lock.update(430)
        assert not lock.engine_enabled
        # drop below release: re-enables, and a fresh breach drops it again
        while not lock.engine_enabled:
            lock.update(0)
        assert lock.engine_enabled
        changes = sum(lock.update(900) for _ in range(30))
        assert changes == 1

    def test_smoothing_rejects_single_spike(self):
        lock = AlcoholInterlock(450, 400)
        lock.update(0)
        assert not lock.update(1023)  # ema 204.6, nowhere near 450
        assert lock.engine_enabled

    def test_clean_air_settles_at_zero_not_in_the_subnormals(self):
        lock = AlcoholInterlock(450, 400)
        lock.update(700)
        updates = 0
        while lock.smoothed(0, lock.ema) != lock.ema:
            lock.update(0)
            updates += 1
        assert lock.ema == 0.0 and updates < 250  # ~3,350 through the subnormals
        # an EMA below the floor adds under half an ulp to any level's update
        below = math.nextafter(AlcoholInterlock.EMA_FLOOR, 0)
        assert all(lock.smoothed(raw, below) == lock.smoothed(raw, 0.0) for raw in range(1, 1024))

    def test_clean_air_coasts_a_few_hundred_updates(self):
        # 700 drops the line, clean air returns it and settles, 30 settles
        # again: 384 updates in all, against 2,664 that settled at 5e-324
        scenario = load_scenario("t=0 alcohol 700\nt=5000 alcohol 0\nt=30000 alcohol 30")
        smoothed = mock.patch.object(
            AlcoholInterlock, "smoothed", autospec=True, side_effect=AlcoholInterlock.smoothed
        )
        with smoothed as calls:
            report = run(scenario, CFG, 90_000)
        assert calls.call_count == 384
        assert "\nF alcohol_ema=30.000\n" in report.serialize()

    @settings(deadline=None)
    @given(
        raw=st.integers(0, 1023),
        ema=st.floats(0, 1023),
        enabled=st.booleans(),
        band=st.tuples(st.integers(1, 1023), st.integers(1, 1023)).filter(lambda b: b[0] != b[1]),
        coasted=st.integers(0, 4000),
    )
    def test_constant_level_flips_at_most_once_where_coast_stops(self, raw, ema, enabled, band, coasted):
        # any start the hysteresis allows: an enabled line below the
        # threshold, a dropped one at or above the release
        release, threshold = sorted(band)
        assume(ema < threshold if enabled else ema >= release)
        lock = AlcoholInterlock(threshold, release)
        lock.ema, lock.engine_enabled = ema, enabled
        lock.update(raw)  # starts the stretch at raw
        coasting = copy.copy(lock)
        emas, flips = [lock.ema], []
        for n in range(1, 5000):
            if lock.update(raw):
                flips.append(n)
            emas.append(lock.ema)
            if emas[-1] == emas[-2]:
                break
        assert emas[-1] == emas[-2], "no fixed point within 5,000 updates"
        assert emas == sorted(emas) or emas == sorted(emas, reverse=True)
        assert len(flips) <= 1
        # a coast names the flip if it lies in range and stops short of
        # it, landing where as many updates do
        stop = coasting.coast(raw, coasted)
        assert stop == (flips[0] if flips and flips[0] <= coasted else None)
        applied = coasted if stop is None else stop - 1
        assert coasting.ema == emas[min(applied, len(emas) - 1)]


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


def wiper_line(mode, angle):
    """The report line of a wiper step, written out here."""
    return f"wiper mode={mode.name} angle={angle:.1f}"


def cycle_angle(mode, tick_ms, phase_ms):
    """The angle and report line the cycle tables give at phase_ms."""
    cycle, position = WiperCycle.find(mode, tick_ms, phase_ms)
    return cycle.angles[position], cycle.texts[position]


def batch(*steps):
    """A sweep's batch of (t_ms, text) steps: their report lines joined
    by newlines, with the first and last step's time."""
    return steps[0][0], steps[-1][0], "\n".join(f"A t={t} {text}" for t, text in steps)


def sweep_batches(ctl, end):
    """The batches of a sweep of the ticks strictly between the last frame
    and end as the executor writes them, lazily: none if no tick lies
    there, else the runner's sweep_lines over the controller's walk."""
    tick, now = ctl.config.tick_ms, ctl.last_frame_ms
    ticks = (end - now - 1) // tick
    if ticks <= 0:
        return iter(())
    changes, start = ctl.sweep(ticks)
    return sweep_lines(changes, start, now + tick, ticks, tick)


# the tick lengths TestSweep draws from
SWEEP_TICKS_MS = (1, 7, 10, 25, 300, 1000, 1500)


class TestServoAngleCache:
    """The wiper's angles are kept in one WiperCycle per (mode, tick_ms,
    coset); a table keyed without the mode, the tick length or the
    coset, or a walk position worked out wrong, shows here."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 10**9), st.permutations(list(WiperMode))),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from(SWEEP_TICKS_MS),
    )
    def test_cached_angle_is_the_triangle_wave(self, asks, tick_ms):
        # every phase is asked in every mode, in a drawn order, and then
        # all of it again backwards, answered from the tables
        _WIPER_CYCLES.clear()
        for phase, modes in asks + asks[::-1]:
            for mode in modes:
                angle, text = cycle_angle(mode, tick_ms, phase)
                assert angle == pytest.approx(oracle_angle(mode, phase), abs=1e-9)
                assert text == wiper_line(mode, angle)

    @pytest.mark.parametrize("tick_ms", SWEEP_TICKS_MS)
    def test_every_table_entry_is_the_triangle_wave(self, tick_ms):
        # each mode's period, written out here; Off rests for its 1 ms
        periods = {WiperMode.OFF: 1, **{mode: period for mode, (period, _) in TRIANGLE_MS.items()}}
        for mode, period in periods.items():
            g = gcd(period, tick_ms)
            for coset in range(g):
                cycle, position = WiperCycle.find(mode, tick_ms, coset)
                assert (position, cycle.steps) == (0, period // g)
                walk = [oracle_angle(mode, coset + k * tick_ms) for k in range(period // g)]
                assert len(cycle.angles) == len(cycle.texts) == len(cycle.changes) == len(walk)
                for k, want in enumerate(walk):
                    angle, text = cycle.angles[k], cycle.texts[k]
                    assert angle == pytest.approx(want, abs=1e-9)
                    assert text == wiper_line(mode, angle)
                    assert float(text.rpartition("=")[2]) == pytest.approx(want, abs=0.05 + 1e-9)
                    # the line again where the walk moves on from the position before, cyclically
                    if want != walk[k - 1]:
                        assert cycle.changes[k] is text
                    else:
                        assert cycle.changes[k] is None

    # an hour of heavy rain, and its report's digest at three tick
    # lengths; at 1001 each second of the sweep holds one tick
    HOUR_OF_RAIN = ("t=0 rain 1 900\n", 3_600_000)
    HOUR_OF_RAIN_SHA256 = {
        7: "e8b276a2039ef9c87954f0a69dc45e4fae9cba0e654e043554f19ffc03b08b12",
        10: "810ddc48647282ceeab3c3de4f472b5c4b060ab43ca720c501e411260fbc2ee7",
        1001: "bc113a46079a737eb8865a41dda342fd2e89814e8d650f7fb4c7d55eb1005495",
    }

    def test_cache_stays_bounded_over_long_drives(self):
        _WIPER_CYCLES.clear()
        scenario, until_ms = self.HOUR_OF_RAIN
        for tick_ms, digest in self.HOUR_OF_RAIN_SHA256.items():
            report = run(load_scenario(scenario), Config(tick_ms=tick_ms), until_ms)
            assert hashlib.sha256(report.serialize().encode()).hexdigest() == digest, tick_ms
        # the cosets of one mode and tick length split its period between them
        positions = {}
        for (mode, tick_ms, _), cycle in _WIPER_CYCLES.items():
            assert len(cycle.angles) == len(cycle.texts) == len(cycle.changes) == cycle.steps
            positions[mode, tick_ms] = positions.get((mode, tick_ms), 0) + cycle.steps
        assert {tick_ms for _, tick_ms in positions} == set(self.HOUR_OF_RAIN_SHA256)
        assert all(size <= WIPER_PERIOD_MS[mode] for (mode, _), size in positions.items())


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
        assert ctl.wiper.mode is WiperMode.LOW
        assert ctl.wiper.servo_angle_deg == 0.0  # phase restarts on entry
        a1 = ctl.step(SensorFrame(rain_wet=1, rain_intensity=500), 1010)
        assert kinds(a1) == [ActionKind.SET_WIPER]
        assert ctl.wiper.servo_angle_deg == 1.7

    def test_dry_parks_once(self):
        ctl = SafetyController(CFG)
        ctl.step(SensorFrame(rain_wet=1, rain_intensity=900), 1000)
        a = ctl.step(SensorFrame(rain_wet=0), 1010)
        assert kinds(a) == [ActionKind.SET_WIPER]
        assert ctl.wiper.mode is WiperMode.OFF
        assert ctl.wiper.servo_angle_deg == 0.0
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

    def test_coast_names_the_tick_it_flips_the_line(self):
        # stepping every tick from the same start finds the flip tick; a
        # level that settles short of the threshold never flips the line.
        # Either way the moving EMA sets no deadline: the flip is coast()'s
        for raw, flips in ((500, True), (300, False)):
            ctl, stepped = SafetyController(CFG), SafetyController(CFG)
            for c in (ctl, stepped):
                c.step(SensorFrame(), 0)
                c.step(SensorFrame(alcohol_raw=raw), 10)
            # the updates of the ticks strictly between 10 and 10**6
            flip = ctl.coast((10**6 - 10 - 1) // CFG.tick_ms)
            flip_ms = None if flip is None else 10 + flip * CFG.tick_ms
            t, ema, emas = 10, None, {}
            while stepped.interlock.engine_enabled and ema != stepped.interlock.ema:
                ema, t = stepped.interlock.ema, t + CFG.tick_ms
                emas[t - CFG.tick_ms] = ema
                stepped.step(SensorFrame(alcohol_raw=raw), t)
            if flips:
                assert not stepped.interlock.engine_enabled
                assert flip_ms == t > 10 + CFG.tick_ms
                # the coast stops on the tick before the flip, unflipped
                assert ctl.interlock.engine_enabled
                assert ctl.interlock.ema == emas[t - CFG.tick_ms]
            else:
                assert stepped.interlock.engine_enabled
                assert flip_ms is None
                assert ctl.interlock.ema == stepped.interlock.ema
                assert ctl.interlock.smoothed(raw, ctl.interlock.ema) == ctl.interlock.ema
            assert ctl.next_deadline_ms(10) is None

    def test_a_visit_in_a_stretch_evaluates_the_ema_once(self):
        # 449 settles just short of the threshold: next_deadline_ms reads
        # no EMA, so each visit in the stretch costs only its own update
        ctl = SafetyController(CFG)
        ctl.step(SensorFrame(), 0)
        ctl.step(SensorFrame(alcohol_raw=449), 10)
        assert ctl.next_deadline_ms(10) is None
        smoothed = mock.patch.object(
            AlcoholInterlock, "smoothed", autospec=True, side_effect=AlcoholInterlock.smoothed
        )
        with smoothed as calls:
            for t in range(20, 200, 10):
                ctl.step(SensorFrame(alcohol_raw=449), t)
                assert ctl.next_deadline_ms(t) is None
        assert calls.call_count == len(range(20, 200, 10))
        assert ctl.interlock.smoothed(449, ctl.interlock.ema) != ctl.interlock.ema

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

    def test_intermittent_rest_is_jumped_over(self):
        ctl = SafetyController(CFG)
        ctl.step(SensorFrame(rain_wet=1, rain_intensity=100), 0)
        ctl.step(SensorFrame(rain_wet=1, rain_intensity=100), 2000)
        assert ctl.wiper.servo_angle_deg == 0.0
        assert ctl.next_deadline_ms(2000) is None
        step = (4010, wiper_line(WiperMode.INTERMITTENT, servo_angle(WiperMode.INTERMITTENT, 10)))
        # the steps at 0 and 2000 built the cycle; a sweep only reads it
        with mock.patch("smartcar.controller.servo_angle", wraps=servo_angle) as angle:
            assert list(sweep_batches(ctl, 4000)) == []
            assert list(sweep_batches(ctl, 4020)) == [batch(step)]
        assert angle.call_count == 0

    def test_pending_alert_is_its_deadline(self):
        ctl = SafetyController(CFG)
        for t in range(5000, 5060, 10):
            ctl.step(SensorFrame(impact=1), t)
        (pending,) = ctl.pending_alerts
        ctl.step(SensorFrame(), 5200)
        assert ctl.next_deadline_ms(5200) == pending.deadline_ms == 5040 + CFG.gps_wait_ms


def assert_sweep_matches_stepping(mode, tick_ms, entry, visit, end):
    """Sweep from visit to end after visits at entry, where the mode was
    entered, and at visit, with its levels held, and step a controller
    with those levels on every tick the sweep covers: the batches' text,
    joined, is the stepped SET_WIPER lines, byte for byte, each batch's
    first and last times are its lines', and both end at one command."""
    levels = {"rain_wet": 1, "rain_intensity": TestSweep.INTENSITY[mode]}
    config = Config(tick_ms=tick_ms)
    swept, stepped = SafetyController(config), SafetyController(config)
    for ctl in (swept, stepped):
        ctl.step(SensorFrame(**levels), entry)
        ctl.step(SensorFrame(**levels), visit)
    expected = []
    for t in range(visit + tick_ms, end, tick_ms):
        for action in stepped.step(SensorFrame(**levels), t):
            if action.kind is ActionKind.SET_WIPER:
                angle = stepped.wiper.servo_angle_deg
                assert angle == servo_angle(mode, t - entry)
                assert action.text == wiper_line(mode, angle)
                expected.append(f"A t={t} {action.text}")
    batches = list(sweep_batches(swept, end))
    assert "\n".join(text for _, _, text in batches) == "\n".join(expected)
    for first, last, text in batches:
        times = [int(line.split(" ", 2)[1][2:]) for line in text.split("\n")]
        assert (first, last) == (times[0], times[-1])
    assert swept.wiper == stepped.wiper
    return batches


class TestSweep:
    """sweep() against stepping, on every tick it covers, a frame that
    repeats the last visit's levels."""

    INTENSITY = {WiperMode.INTERMITTENT: 100, WiperMode.LOW: 500, WiperMode.HIGH: 900}

    @settings(deadline=None)
    @given(
        mode=st.sampled_from(sorted(INTENSITY)),
        tick_ms=st.sampled_from(SWEEP_TICKS_MS),
        entry_draw=st.integers(0, 10**6),
        visit_ticks=st.integers(0, 500),
        span_ms=st.integers(0, 9000),
    )
    def test_sweep_matches_stepping_every_tick(self, mode, tick_ms, entry_draw, visit_ticks, span_ms):
        # the last visit is on the tick grid, and the mode was entered
        # at or before it, on or off the grid, so the swept ticks may lie
        # in any coset
        visit = visit_ticks * tick_ms
        entry = entry_draw % (visit + 1)
        assert_sweep_matches_stepping(mode, tick_ms, entry, visit, visit + span_ms)

    def test_sweep_is_a_lazy_stream(self):
        # a sweep of a million ticks, each a step: the controller's walk
        # and the runner's stream over it allocate next to nothing until
        # the stream is read, yet the servo moves to its last tick
        tick = 1001  # coprime to HIGH's period: the servo moves every tick
        mode, config = WiperMode.HIGH, Config(tick_ms=tick)
        short, long = SafetyController(config), SafetyController(config)
        for ctl in (short, long):
            # builds the cycle the sweeps read
            ctl.step(SensorFrame(rain_wet=1, rain_intensity=self.INTENSITY[mode]), 0)
        end = 10**9
        expected = list(sweep_batches(short, 4 * tick))
        assert len(expected) == 3 and expected[0][0] == tick
        tracemalloc.start()
        try:
            steps = sweep_batches(long, end)
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert allocated < 10_000
        assert long.wiper == WiperCommand(mode, servo_angle(mode, (end - 1) // tick * tick))
        assert list(islice(steps, 3)) == expected


class TestSweepSeconds:
    """The edges of a sweep's seconds, each against stepping every tick:
    every second, the unpadded first one and partial ones included, is
    one batch."""

    @pytest.mark.parametrize("mode", sorted(TestSweep.INTENSITY))
    def test_first_second_is_unpadded(self, mode):
        # 910..990 print their times unpadded, 1000 on as hi and lo
        batches = assert_sweep_matches_stepping(mode, 10, 0, 900, 2500)
        assert [first for first, _, _ in batches] == [910, 1000, 2000]
        assert batches[0][2].startswith("A t=910 wiper ")
        assert batches[1][2].startswith("A t=1000 wiper ")

    @pytest.mark.parametrize("now", [8_500, 98_500])
    def test_whole_seconds_gain_a_digit(self, now):
        # the seconds before 10,000 and 100,000 and the ones from there
        batches = assert_sweep_matches_stepping(WiperMode.HIGH, 10, 0, now, now + 3_000)
        assert [first for first, _, _ in batches] == [now + 10, *range(now + 500, now + 3_000, 1000)]

    def test_sweep_from_mid_second(self):
        # the first tick's second is a whole second's tail, pieces at an
        # offset of 240
        batches = assert_sweep_matches_stepping(WiperMode.LOW, 10, 0, 1230, 4_000)
        assert [first for first, _, _ in batches] == [1240, 2000, 3000]

    @pytest.mark.parametrize("mode", sorted(TestSweep.INTENSITY))
    def test_sweep_from_an_off_grid_clock(self, mode):
        # a visit off the grid, as on the tick after a send that blocked:
        # each second's first tick lies 7 ms past its start
        batches = assert_sweep_matches_stepping(mode, 10, 0, 2237, 7_500)
        assert {first % 1000 for first, _, _ in batches[1:]} <= {7}

    def test_intermittent_rest_second_has_no_batch(self):
        # the servo reaches 0 at 2000 and rests there until 4010
        mode = WiperMode.INTERMITTENT
        batches = assert_sweep_matches_stepping(mode, 10, 0, 0, 9_000)
        assert [(first, last) for first, last, _ in batches] == [
            (10, 990), (1000, 1990), (2000, 2000),
            (4010, 4990), (5000, 5990), (6000, 6000), (8010, 8990),
        ]

    @pytest.mark.parametrize("mode", sorted(TestSweep.INTENSITY))
    @pytest.mark.parametrize("tick_ms,span_ms", [(7, 9_000), (1001, 1_010_000), (1500, 60_000)])
    def test_tick_lengths_that_do_not_divide_a_second(self, mode, tick_ms, span_ms):
        # the first tick's offset drifts from second to second; at 1001
        # and 1500 a second holds one tick or none
        visit = 3 * tick_ms + 5
        assert_sweep_matches_stepping(mode, tick_ms, 1, visit, visit + span_ms)


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
