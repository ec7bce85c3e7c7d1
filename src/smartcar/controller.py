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
from dataclasses import dataclass
from enum import IntEnum, Enum
from functools import cache

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
# remainder of an intermittent cycle rests at 0 degrees
WIPER_PERIOD_MS = {WiperMode.HIGH: 1000, WiperMode.LOW: 2000, WiperMode.INTERMITTENT: 4000}
WIPER_ACTIVE_MS = {WiperMode.HIGH: 1000, WiperMode.LOW: 2000, WiperMode.INTERMITTENT: 2000}


@dataclass(frozen=True)
class WiperCommand:
    mode: WiperMode
    servo_angle_deg: float

    def __post_init__(self):
        if self.mode is WiperMode.OFF and self.servo_angle_deg != 0.0:
            raise ValueError("wiper Off requires servo angle 0")
        if not 0.0 <= self.servo_angle_deg <= SERVO_MAX_DEG:
            raise ValueError(f"servo angle out of range: {self.servo_angle_deg}")


class ActionKind(Enum):
    ASSERT_AIRBAG_LINE = "assert_airbag_line"
    SEND_ALERT = "send_alert"
    SEND_REPLY = "send_reply"
    SET_WIPER = "set_wiper"
    SET_ENGINE = "set_engine"
    LOG = "log"  # no producer; kept because the benchmark reports one count per member


@dataclass(frozen=True)
class Action:
    """One output. Both sends carry the number in dest and the body in
    text; an alert also names its kind."""

    kind: ActionKind
    alert: AlertKind | None = None
    dest: str = ""
    text: str = ""
    wiper: WiperCommand | None = None
    engine_enabled: bool = False


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
    period. Intermittent cycles rest at 0 for their second half. Each
    angle is worked out once per (mode, phase_ms modulo the period) and
    cached, so the cache holds at most one entry per millisecond of the
    three periods (7,000), however long the drive.
    """
    if mode is WiperMode.OFF:
        return 0.0
    return _cycle_angle(mode, phase_ms % WIPER_PERIOD_MS[mode])


@cache
def _cycle_angle(mode: WiperMode, phase: int) -> float:
    active = WIPER_ACTIVE_MS[mode]
    if phase >= active:
        return 0.0
    half = active / 2.0
    if phase <= half:
        return SERVO_MAX_DEG * (phase / half)
    return SERVO_MAX_DEG * ((active - phase) / half)


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
    engage threshold and returns only below the release threshold; one
    alert per engagement.
    """

    EMA_ALPHA = 0.2

    def __init__(self, threshold: int, release: int):
        self.threshold = threshold
        self.release = release
        self.ema: float | None = None
        self.engine_enabled = True

    def smoothed(self, raw: int) -> float:
        """The EMA that update(raw) would store."""
        return raw if self.ema is None else self.EMA_ALPHA * raw + (1 - self.EMA_ALPHA) * self.ema

    def update(self, raw: int) -> tuple[bool, bool]:
        """Feed one sample; returns (engine_line_changed, alert_due)."""
        self.ema = self.smoothed(raw)
        if self.engine_enabled and self.ema >= self.threshold:
            self.engine_enabled = False
            return True, True
        if not self.engine_enabled and self.ema < self.release:
            self.engine_enabled = True
            return True, False
        return False, False


@dataclass
class _PendingAlert:
    kind: AlertKind
    deadline_ms: int


class SafetyController:
    """Owns the controller state; step() and sweep() are the only ways it
    changes.

    next_deadline_ms() tells the executor how long everything but the
    wiper would stay put if the sensor levels held, so those ticks need
    not be sampled; sweep() gives the wiper's steps on them.
    """

    def __init__(self, config: Config):
        self.config = config
        self.gps = GpsState()
        self.impact = ImpactDebouncer(
            config.impact_window_ms, config.impact_min_high, config.impact_refractory_ms
        )
        self.interlock = AlcoholInterlock(config.alcohol_threshold, config.alcohol_release)
        self.panic_latch_until_ms = 0
        self.wiper = WiperCommand(WiperMode.OFF, 0.0)
        self._wiper_mode_since_ms = 0
        self.last_frame: SensorFrame | None = None
        self.last_frame_ms = 0  # when last_frame was stepped
        self.pending_alerts: deque[_PendingAlert] = deque()

    def step(self, event, now_ms: int) -> list[Action]:
        """Route one input; returns the actions it caused, in fixed order."""
        actions: list[Action] = []
        if isinstance(event, NmeaSentence):
            self.gps = update_fix(self.gps, event, now_ms)
        elif isinstance(event, SensorFrame):
            panic_prev = self.last_frame.panic if self.last_frame else 0
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
        could change state or emit an action other than a wiper step:
        now_ms while a channel is still moving, None if no such time
        exists. The wiper's steps until then come from sweep(). Inputs
        other than the sensor levels (NMEA lines, texts, level changes)
        are the caller's to schedule; panic acts only on an edge, so it
        sets no deadline."""
        frame = self.last_frame
        # a high level is itself a sample in the window, and a latch that
        # runs out while highs remain can still trigger
        if frame is None or self.impact.highs:
            return now_ms
        if self.interlock.smoothed(frame.alcohol_raw) != self.interlock.ema:
            return now_ms
        return self.pending_alerts[0].deadline_ms if self.pending_alerts else None

    def sweep(self, now_ms: int, end_ms: int) -> list[tuple[int, float]]:
        """The wiper's steps on the ticks strictly between now_ms and
        end_ms, with the last frame's levels held: the (t_ms, angle) of
        each tick on which step() would emit SET_WIPER. The mode stays
        the current one, which must not be OFF; self.wiper ends at the
        last command. Each angle comes from servo_angle's cache, so a
        long sweep works out each of the cycle's angles only once."""
        mode, angle = self.wiper.mode, self.wiper.servo_angle_deg
        period, active = WIPER_PERIOD_MS[mode], WIPER_ACTIVE_MS[mode]
        since, tick = self._wiper_mode_since_ms, self.config.tick_ms
        steps = []
        t = now_ms + tick
        while t < end_ms:
            phase = (t - since) % period
            if phase >= active and angle == 0.0:
                # resting at 0: on to the first tick of the next cycle
                t += -((phase - period) // tick) * tick
                continue
            step_angle = servo_angle(mode, t - since)
            if step_angle != angle:
                angle = step_angle
                steps.append((t, angle))
            t += tick
        self.wiper = WiperCommand(mode, angle)
        return steps

    # -- sub-operations -------------------------------------------------

    def _step_impact(self, level: int, now_ms: int, actions: list[Action]) -> None:
        if self.impact.update(now_ms, level):
            # safety-critical line first; the SMS can wait for a fix
            actions.append(Action(ActionKind.ASSERT_AIRBAG_LINE))
            self._request_alert(AlertKind.ACCIDENT, now_ms, actions)

    def _step_panic(self, level: int, prev: int, now_ms: int, actions: list[Action]) -> None:
        if level == 1 and prev == 0 and now_ms >= self.panic_latch_until_ms:
            self.panic_latch_until_ms = now_ms + self.config.panic_refractory_ms
            self._request_alert(AlertKind.PANIC, now_ms, actions)

    def _step_alcohol(self, raw: int, now_ms: int, actions: list[Action]) -> None:
        changed, alert_due = self.interlock.update(raw)
        if changed:
            enabled = self.interlock.engine_enabled
            actions.append(Action(ActionKind.SET_ENGINE, engine_enabled=enabled))
        if alert_due:
            self._request_alert(AlertKind.ALCOHOL, now_ms, actions)

    def _step_wiper(self, wet: int, intensity: int, now_ms: int, actions: list[Action]) -> None:
        mode = wiper_mode(wet, intensity, self.config)
        mode_changed = mode is not self.wiper.mode
        if mode_changed:
            self._wiper_mode_since_ms = now_ms
        angle = servo_angle(mode, now_ms - self._wiper_mode_since_ms)
        if mode_changed or angle != self.wiper.servo_angle_deg:
            self.wiper = WiperCommand(mode, angle)
            actions.append(Action(ActionKind.SET_WIPER, wiper=self.wiper))

    def _step_sms(self, sms: InboundSms, now_ms: int, actions: list[Action]) -> None:
        frame, frame_ms = self.last_frame, self.last_frame_ms
        if frame is None:
            frame, frame_ms = SensorFrame(), now_ms
        reply = format_reply(
            parse_query(sms.body), frame, self.gps, self.config, frame_ms,
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
