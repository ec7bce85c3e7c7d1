"""Deterministic reactive core: impact debounce and airbag line, panic
latch, alcohol interlock, rain-driven wiper, remote-query dispatch.

The controller is a pure state machine over simulation time: it consumes
timestamped inputs (sensor frames, NMEA sentences, inbound texts) and
emits Action values. It performs no I/O itself (the harness interprets
the actions), so replaying an input transcript reproduces the action
transcript exactly.
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum, Enum
from math import gcd
from typing import NamedTuple

from .config import Config
from .messages import format_alert, format_reply, parse_query
from .nmea import GpsState, NmeaSentence, update_fix
from .types import AlertKind, InboundSms, SensorFrame


class WiperMode(IntEnum):
    # ordering matters: more water never selects a slower mode
    OFF = 0
    INTERMITTENT = 1
    LOW = 2
    HIGH = 3


SERVO_MAX_DEG = 170.0

# full cycle length and the sweep portion at its start, ms; the
# remainder of a cycle rests at 0 degrees, which is all of Off's
WIPER_PERIOD_MS = {
    WiperMode.OFF: 1, WiperMode.HIGH: 1000, WiperMode.LOW: 2000, WiperMode.INTERMITTENT: 4000
}
WIPER_ACTIVE_MS = {
    WiperMode.OFF: 0, WiperMode.HIGH: 1000, WiperMode.LOW: 2000, WiperMode.INTERMITTENT: 2000
}


class ActionKind(Enum):
    ASSERT_AIRBAG_LINE = "assert_airbag_line"
    SEND_ALERT = "send_alert"
    SEND_REPLY = "send_reply"
    SET_WIPER = "set_wiper"
    SET_ENGINE = "set_engine"
    LOG = "log"  # no producer; kept because the benchmark reports one count per member


class Action(NamedTuple):
    """One output. Both sends carry the number in dest and the body in
    text; an alert also names its kind. Every other action carries its
    finished report line in text."""

    kind: ActionKind
    alert: AlertKind | None = None
    dest: str = ""
    text: str = ""


# the actions that are not sends and not wiper steps, each built once
AIRBAG = Action(ActionKind.ASSERT_AIRBAG_LINE, text="airbag-line asserted")
ENGINE_OFF = Action(ActionKind.SET_ENGINE, text="engine enabled=no")
ENGINE_ON = Action(ActionKind.SET_ENGINE, text="engine enabled=yes")


def wiper_mode(rain_wet: int, rain_intensity: int, config: Config) -> WiperMode:
    """Digital line gates wiping entirely; the analog level picks the speed."""
    if not rain_wet:
        return WiperMode.OFF
    if rain_intensity <= config.wiper_intermittent_max:
        return WiperMode.INTERMITTENT
    if rain_intensity <= config.wiper_low_max:
        return WiperMode.LOW
    return WiperMode.HIGH


def servo_angle(mode: WiperMode, phase_ms: int) -> float:
    """Triangle sweep 0 -> 170 -> 0 over the mode's active window.

    phase_ms is time since the mode was entered; it wraps at the full
    period. Intermittent cycles rest at 0 for their second half.
    """
    active = WIPER_ACTIVE_MS[mode]
    phase = phase_ms % WIPER_PERIOD_MS[mode]
    if phase >= active:
        return 0.0
    half = active / 2.0
    if phase <= half:
        return SERVO_MAX_DEG * (phase / half)
    return SERVO_MAX_DEG * ((active - phase) / half)


class WiperCycle:
    """A mode's servo angles on one tick length's grid. Ticks tick_ms
    apart walk the phases of one coset, phase modulo gcd(period,
    tick_ms), and the walk repeats after `steps` ticks. Each walk
    position keeps its angle and report line, and in `changes` that
    line again where the angle differs from the position before it
    (cyclically), else None.
    """

    __slots__ = ("steps", "inverse", "angles", "texts", "changes")

    def __init__(self, mode: WiperMode, tick_ms: int, coset: int):
        period = WIPER_PERIOD_MS[mode]
        g = gcd(period, tick_ms)
        self.steps = steps = period // g  # walk positions
        self.inverse = pow(tick_ms // g, -1, steps)  # turns a phase into its position
        self.angles = angles = [servo_angle(mode, coset + k * tick_ms) for k in range(steps)]
        texts: dict[float, str] = {}  # one string per angle, for both sweep directions
        self.texts = [texts.setdefault(a, f"wiper mode={mode.name} angle={a:.1f}") for a in angles]
        self.changes = [
            text if angles[k] != angles[k - 1] else None for k, text in enumerate(self.texts)
        ]

    @classmethod
    def find(cls, mode: WiperMode, tick_ms: int, phase_ms: int) -> tuple[WiperCycle, int]:
        """The cycle that a tick at phase_ms since the mode was entered
        lies on, built on first use, and the tick's walk position in it."""
        period = WIPER_PERIOD_MS[mode]
        g = gcd(period, tick_ms)
        phase = phase_ms % period
        key = (mode, tick_ms, phase % g)
        cycle = _WIPER_CYCLES.get(key)
        if cycle is None:
            cycle = _WIPER_CYCLES[key] = cls(*key)
        return cycle, phase // g * cycle.inverse % cycle.steps


# (mode, tick_ms, coset) -> its WiperCycle; for one tick length the
# cosets of a mode hold at most its period's positions between them,
# so a tick length's tables hold at most 7,001 positions in all
_WIPER_CYCLES: dict[tuple[WiperMode, int, int], WiperCycle] = {}


class ImpactDebouncer:
    """Count-in-window debounce for the bouncy impact line.

    Triggers when at least ``min_high`` high samples fall inside the
    trailing half-open window (now - window_ms, now], then latches for
    ``refractory_ms``. A lone spike never deploys anything.
    """

    def __init__(self, window_ms: int, min_high: int, refractory_ms: int):
        self.window_ms = window_ms
        self.min_high = min_high
        self.refractory_ms = refractory_ms
        self.latch_until_ms = 0
        self.highs: deque[int] = deque()  # timestamps of recent high samples

    def update(self, now_ms: int, level: int) -> bool:
        if level:
            self.highs.append(now_ms)
        while self.highs and now_ms - self.highs[0] >= self.window_ms:
            self.highs.popleft()
        if len(self.highs) >= self.min_high and now_ms >= self.latch_until_ms:
            self.latch_until_ms = now_ms + self.refractory_ms
            return True
        return False


class AlcoholInterlock:
    """EMA-smoothed hysteresis gate on the raw alcohol channel.

    The engine-enable line drops when the smoothed value reaches the
    engage threshold and returns only below the release threshold.

    Updates at one level form a stretch, which a flip also ends. At a
    fixed level smoothed() is monotone in ema, so a stretch's EMAs are
    monotone, reach a fixed point in finitely many updates and cross
    each threshold at most once. coast() applies a stretch's updates
    without a frame, up to the one that would flip the line.
    """

    EMA_ALPHA = 0.2
    EMA_KEEP = 1 - EMA_ALPHA  # the old EMA's share, worked out once
    # an update at level 0 stores 0.0 once the EMA is below this: 0.8 * ema
    # is then under half an ulp of 0.2 * raw for any raw >= 1, so later
    # updates store what they would have, and clean air settles in ~200
    # updates, not in ~3,350 through the subnormals
    EMA_FLOOR = 2.0**-60

    def __init__(self, threshold: int, release: int):
        self.threshold = threshold
        self.release = release
        self.ema: float | None = None
        self.engine_enabled = True

    def smoothed(self, raw: int, ema: float | None) -> float:
        """The EMA that an update at raw stores when the EMA stands at ema."""
        if ema is None:
            return raw
        if not raw and ema < self.EMA_FLOOR:
            return 0.0
        return self.EMA_ALPHA * raw + self.EMA_KEEP * ema

    def _flips(self, ema: float) -> bool:
        """Whether storing ema moves the engine-enable line."""
        return ema >= self.threshold if self.engine_enabled else ema < self.release

    def update(self, raw: int) -> bool:
        """Feed one sample; returns whether the engine-enable line changed."""
        ema = self.ema = self.smoothed(raw, self.ema)
        if self._flips(ema):
            self.engine_enabled = not self.engine_enabled
            return True
        return False

    def coast(self, raw: int, updates: int) -> int | None:
        """Apply up to updates at level raw, with update()'s arithmetic,
        stopping at the fixed point or before the first update that
        would flip the line. Returns that update's number (1 = the
        next), None if none of them flips."""
        ema = self.ema
        for n in range(1, updates + 1):
            nxt = self.smoothed(raw, ema)
            if nxt == ema:
                break
            if self._flips(nxt):
                self.ema = ema
                return n
            ema = nxt
        self.ema = ema
        return None


class _PendingAlert(NamedTuple):
    kind: AlertKind
    deadline_ms: int


# every controller's last frame before it steps one; frames are immutable,
# so one is shared
_NO_FRAME = SensorFrame()


class SafetyController:
    """Owns the controller state; step(), coast() and sweep() are the
    only ways it changes.

    next_deadline_ms() tells the executor how long everything but the
    wiper servo and the alcohol EMA would stay put if the sensor levels
    held, so those ticks need not be sampled. Those ticks follow the
    last frame, tick_ms apart. coast() moves the EMA across them and
    names the update on which it would flip the engine line, whose tick
    then needs a visit; sweep() steps the servo across them and returns
    the walk it took, whose report lines the executor writes.
    """

    def __init__(self, config: Config):
        self.config = config
        self.gps = GpsState()
        self.impact = ImpactDebouncer(
            config.impact_window_ms, config.impact_min_high, config.impact_refractory_ms
        )
        self.interlock = AlcoholInterlock(config.alcohol_threshold, config.alcohol_release)
        self.panic_latch_until_ms = 0
        self.wiper_mode, self.servo_angle_deg = WiperMode.OFF, 0.0
        self._wiper_mode_since_ms = 0
        self.last_frame = _NO_FRAME
        self.last_frame_ms = 0  # when last_frame was stepped
        self.pending_alerts: deque[_PendingAlert] = deque()

    def step(self, event, now_ms: int) -> list[Action]:
        """Route one input; returns the actions it caused, in fixed order."""
        actions: list[Action] = []
        if isinstance(event, NmeaSentence):
            self.gps = update_fix(self.gps, event, now_ms)
        elif isinstance(event, SensorFrame):
            panic_prev = self.last_frame.panic
            self.last_frame, self.last_frame_ms = event, now_ms
            self._step_impact(event.impact, now_ms, actions)
            self._step_panic(event.panic, panic_prev, now_ms, actions)
            self._step_alcohol(event.alcohol_raw, now_ms, actions)
            self._step_wiper(event.rain_wet, event.rain_intensity, now_ms, actions)
        elif isinstance(event, InboundSms):
            self._step_sms(event, now_ms, actions)
        self._drain_pending(now_ms, actions)
        return actions

    def next_deadline_ms(self, now_ms: int) -> int | None:
        """Earliest time at which a frame repeating the last frame's levels
        could change state or emit an action other than a wiper step or
        an EMA flip: now_ms while an impact sample is in the window, a
        pending alert's deadline, or None if no such time exists. The
        EMA's flip tick comes from coast(), the wiper's steps from
        sweep(). Inputs other than the sensor levels (texts, NMEA
        sentences, level changes) are the caller's to schedule; panic
        acts only on an edge, so it sets no deadline."""
        # a high level is itself a sample in the window, and a latch that
        # runs out while highs remain can still trigger
        if self.impact.highs:
            return now_ms
        return self.pending_alerts[0].deadline_ms if self.pending_alerts else None

    def coast(self, ticks: int) -> int | None:
        """Apply the alcohol EMA's updates on the gap's ticks, with the
        last frame's level held, up to the first that would flip the
        engine line. Returns that update's number (1 = the next tick),
        whose tick a visit must step, or None if none flips."""
        return self.interlock.coast(self.last_frame.alcohol_raw, ticks)

    def sweep(self, ticks: int) -> tuple[list[str | None], int]:
        """Move the servo across the gap of ticks (at least one) after the
        last frame, with its levels held, and return its walk: the
        cycle's `changes` and the first tick's walk position. Each tick
        steps where its own position's `changes` entry holds a line."""
        tick = self.config.tick_ms
        phase = self.last_frame_ms + tick - self._wiper_mode_since_ms
        cycle, start = WiperCycle.find(self.wiper_mode, tick, phase)
        self.servo_angle_deg = cycle.angles[(start + ticks - 1) % cycle.steps]
        return cycle.changes, start

    # -- sub-operations -------------------------------------------------

    def _step_impact(self, level: int, now_ms: int, actions: list[Action]) -> None:
        if self.impact.update(now_ms, level):
            # safety-critical line first; the SMS can wait for a fix
            actions.append(AIRBAG)
            self._request_alert(AlertKind.ACCIDENT, now_ms, actions)

    def _step_panic(self, level: int, prev: int, now_ms: int, actions: list[Action]) -> None:
        if level == 1 and prev == 0 and now_ms >= self.panic_latch_until_ms:
            self.panic_latch_until_ms = now_ms + self.config.panic_refractory_ms
            self._request_alert(AlertKind.PANIC, now_ms, actions)

    def _step_alcohol(self, raw: int, now_ms: int, actions: list[Action]) -> None:
        if not self.interlock.update(raw):
            return
        enabled = self.interlock.engine_enabled
        actions.append(ENGINE_ON if enabled else ENGINE_OFF)
        if not enabled:
            # the line drops once per engagement, so one alert per engagement
            self._request_alert(AlertKind.ALCOHOL, now_ms, actions)

    def _step_wiper(self, wet: int, intensity: int, now_ms: int, actions: list[Action]) -> None:
        mode = wiper_mode(wet, intensity, self.config)
        if mode is not self.wiper_mode:
            self._wiper_mode_since_ms = now_ms
        elif mode is WiperMode.OFF:
            return  # parked, and it stays so
        phase = now_ms - self._wiper_mode_since_ms
        cycle, position = WiperCycle.find(mode, self.config.tick_ms, phase)
        angle, text = cycle.angles[position], cycle.texts[position]
        if mode is not self.wiper_mode or angle != self.servo_angle_deg:
            self.wiper_mode, self.servo_angle_deg = mode, angle
            actions.append(Action(ActionKind.SET_WIPER, text=text))

    def _step_sms(self, sms: InboundSms, now_ms: int, actions: list[Action]) -> None:
        reply = format_reply(
            parse_query(sms.body), self.last_frame, self.gps, self.config, self.last_frame_ms,
            self.interlock.engine_enabled,
        )
        actions.append(Action(ActionKind.SEND_REPLY, dest=sms.sender, text=reply))

    # -- alert release --------------------------------------------------

    def _alert(self, kind: AlertKind, now_ms: int) -> Action:
        """The alert SMS for kind: Alcohol goes to the safety number,
        Accident and Panic to the primary number."""
        if kind is AlertKind.ALCOHOL:
            dest = self.config.alert_safety_number
        else:
            dest = self.config.alert_primary_number
        body = format_alert(kind, self.gps, self.config, now_ms)
        return Action(ActionKind.SEND_ALERT, alert=kind, dest=dest, text=body)

    def _request_alert(self, kind: AlertKind, now_ms: int, actions: list[Action]) -> None:
        """Emit now if a fresh fix exists, else park until one arrives
        or gps_wait_ms runs out."""
        if self.gps.fresh(now_ms, self.config.gps_stale_ms):
            actions.append(self._alert(kind, now_ms))
        else:
            self.pending_alerts.append(_PendingAlert(kind, now_ms + self.config.gps_wait_ms))

    def _drain_pending(self, now_ms: int, actions: list[Action]) -> None:
        while self.pending_alerts:
            head = self.pending_alerts[0]
            if self.gps.fresh(now_ms, self.config.gps_stale_ms) or now_ms >= head.deadline_ms:
                self.pending_alerts.popleft()
                actions.append(self._alert(head.kind, now_ms))
            else:
                break
