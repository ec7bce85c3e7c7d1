"""Next-event executor: feeds scripted inputs through the virtual
devices into the controller, interprets the actions it emits, and
accumulates the run report.

Time moves in whole ticks of `tick_ms`, as the firmware's polled loop
does, but the executor visits only the ticks on which something other
than the wiper can change: the tick of each scripted event, and the
ticks the controller asks for through next_deadline_ms(). On the ticks
between two visits the levels repeat and only the wiper servo can step;
the executor records those steps from SafetyController.sweep() without
sampling, stepping or polling, so the report is byte-identical to
sampling every tick. Visiting every tick leaves no tick between two
visits, and the sweep then covers nothing.

The loop is strictly single-threaded. Sending an SMS blocks inside the
tick and moves the clock (timeouts, retry backoff), exactly like
firmware busy-waiting on the modem; events falling due during the block
are delivered at the next tick. Ticks are counted from wherever the
clock stands, so after a block they are off the tick_ms grid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

from ..config import Config
from ..controller import ActionKind, SafetyController, WiperMode
from ..messages import coordinate_text
from ..modem import ModemError, ModemSession, SendRecord, fetch_inbound, send_sms
from ..nmea import parse_sentence
from ..types import ScenarioError
from . import scenario as sc
from .clock import SimClock
from .devices import SensorBoard, VirtualGps, VirtualModem

REPORT_HEADER = "smartcar-report v1"


class LogRecord(NamedTuple):
    tag: str  # "A" action, "S" send outcome, "M" delivered message
    t_ms: int
    text: str


@cache
def _wiper_text(mode_name: str, angle: float) -> str:
    # one text per (mode, angle), so bounded like servo_angle's cache
    return f"wiper mode={mode_name} angle={angle:.1f}"


@dataclass
class Counters:
    sentences_parsed: int = 0
    checksum_failures: int = 0


@dataclass
class SimReport:
    tick_ms: int
    until_ms: int
    records: list[LogRecord] = field(default_factory=list)
    sends: list[SendRecord] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    final_state: list[tuple[str, str]] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def outbound_sms(self) -> list[tuple[int, str, str]]:
        """(t_ms, destination, body) of each delivered send, in order."""
        return [(s.t_ms, s.destination, s.body) for s in self.sends if s.delivered]

    def serialize(self) -> str:
        lines = [REPORT_HEADER, f"tick_ms={self.tick_ms}", f"until_ms={self.until_ms}"]
        lines.extend(f"{r.tag} t={r.t_ms} {r.text}" for r in self.records)
        lines += [
            f"C sentences_parsed={self.counters.sentences_parsed}",
            f"C checksum_failures={self.counters.checksum_failures}",
            f"C sms_sent={sum(s.delivered for s in self.sends)}",
            f"C sms_failed={sum(not s.delivered for s in self.sends)}",
            f"C sms_retries={sum(s.attempts - 1 for s in self.sends)}",
        ]
        lines.extend(f"F {key}={value}" for key, value in self.final_state)
        lines.extend(f"V {text}" for text in self.violations)
        return "\n".join(lines) + "\n"


class _Executor:
    def __init__(self, events: list[sc.ScenarioEvent], config: Config, until_ms: int):
        if events and until_ms < events[-1].t_ms:
            raise ScenarioError(
                f"until_ms={until_ms} ends before the last event at t={events[-1].t_ms}"
            )
        self.config = config
        self.events = deque(events)
        self.clock = SimClock()
        self.modem = VirtualModem(self.clock)
        self.gps_feed = VirtualGps()
        self.board = SensorBoard()
        self.session = ModemSession(transport=self.modem, clock=self.clock)
        self.controller = SafetyController(config)
        self.report = SimReport(tick_ms=config.tick_ms, until_ms=until_ms)
        self.send_action_count = 0

    # -- bookkeeping -----------------------------------------------------

    def _record_action(self, t_ms: int, text: str) -> None:
        self.report.records.append(LogRecord("A", t_ms, text))

    # -- per-tick stages ---------------------------------------------------

    def _apply_event(self, ev: sc.ScenarioEvent) -> None:
        if isinstance(ev, sc.Levels):
            self.board.set_levels(ev.values)
        elif isinstance(ev, sc.GpsLine):
            self.gps_feed.push_raw(ev.text)
        elif isinstance(ev, sc.SmsIn):
            self.modem.inject_sms(ev.sender, ev.body)
        elif isinstance(ev, sc.ModemFault):
            if ev.mode == sc.ERROR_ONCE:
                self.modem.arm_error_once()
            else:
                self.modem.silence_for(ev.duration_ms)

    def _interpret(self, actions) -> None:
        for action in actions:
            t = self.clock.now_ms
            if action.kind is ActionKind.ASSERT_AIRBAG_LINE:
                self._record_action(t, "airbag-line asserted")
            elif action.kind is ActionKind.SEND_ALERT or action.kind is ActionKind.SEND_REPLY:
                head = "reply" if action.alert is None else f"alert kind={action.alert.name}"
                self._record_action(t, f"{head} dest={action.dest} body={action.text}")
                self.send_action_count += 1
                self._dispatch(action.dest, action.text)
            elif action.kind is ActionKind.SET_WIPER:
                cmd = action.wiper
                self._record_action(t, _wiper_text(cmd.mode.name, cmd.servo_angle_deg))
            elif action.kind is ActionKind.SET_ENGINE:
                state = "yes" if action.engine_enabled else "no"
                self._record_action(t, f"engine enabled={state}")

    def _dispatch(self, dest: str, body: str) -> None:
        try:
            send = send_sms(self.session, dest, body, self.config)
        except ModemError as exc:
            send = SendRecord(self.clock.now_ms, dest, body, False, 1, f"rejected: {exc}")
        self.report.sends.append(send)
        self.report.records.append(
            LogRecord(
                "S",
                send.t_ms,
                f"delivered={'yes' if send.delivered else 'no'} attempts={send.attempts} "
                f"reason={send.reason or '-'} dest={dest} body={body}",
            )
        )
        if send.delivered:
            self.report.records.append(LogRecord("M", send.t_ms, f"dest={dest} body={body}"))

    def _step_gps(self) -> None:
        for line in self.gps_feed.poll():
            sentence = parse_sentence(line)
            if sentence.checksum_ok:
                self.report.counters.sentences_parsed += 1
            else:
                self.report.counters.checksum_failures += 1
            self._interpret(self.controller.step(sentence, self.clock.now_ms))

    def _step_frame(self) -> None:
        self._interpret(self.controller.step(self.board.sample(), self.clock.now_ms))

    def _step_inbound(self) -> None:
        for slot in self.session.poll():
            try:
                sms = fetch_inbound(self.session, slot, self.config)
            except ModemError as exc:
                self._record_action(self.clock.now_ms, f"note inbound-read-failed: {exc}")
                continue
            self._interpret(self.controller.step(sms, self.clock.now_ms))

    def _sweep_wiper(self, end_ms: int) -> None:
        mode_name = self.controller.wiper.mode.name
        self.report.records.extend(
            LogRecord("A", t, _wiper_text(mode_name, angle))
            for t, angle in self.controller.sweep(self.clock.now_ms, end_ms)
        )

    def _check_interlock(self) -> None:
        interlock = self.controller.interlock
        ema = interlock.ema
        if ema is not None and ema >= self.config.alcohol_threshold and interlock.engine_enabled:
            self.report.violations.append(
                f"t={self.clock.now_ms} interlock: engine enabled while ema={ema:.1f}"
                f" >= {self.config.alcohol_threshold}"
            )

    # -- audits ------------------------------------------------------------

    def _check_conservation(self) -> None:
        delivered = [(dest, body) for _, dest, body in self.report.outbound_sms]
        if delivered != self.modem.deliveries:
            self.report.violations.append(
                f"conservation: report lists {len(delivered)} deliveries,"
                f" modem recorded {len(self.modem.deliveries)}"
            )
        if self.send_action_count != len(self.report.sends):
            self.report.violations.append(
                f"conservation: {self.send_action_count} send actions,"
                f" {len(self.report.sends)} send records"
            )

    def _check_clock_order(self) -> None:
        last = 0
        for rec in self.report.records:
            if rec.t_ms < last:
                self.report.violations.append(
                    f"clock: record at t={rec.t_ms} after one at t={last}"
                )
                return
            last = rec.t_ms

    def _final_state(self) -> None:
        ema = self.controller.interlock.ema
        fix = self.controller.gps.last_fix
        self.report.final_state = [
            ("engine_enabled", "yes" if self.controller.interlock.engine_enabled else "no"),
            ("wiper_mode", self.controller.wiper.mode.name),
            ("alcohol_ema", "none" if ema is None else f"{ema:.3f}"),
            ("gps_fix", coordinate_text(fix.latitude, fix.longitude) if fix else "none"),
            ("pending_alerts", str(len(self.controller.pending_alerts))),
        ]

    def _ticks_to_next_visit(self) -> int:
        """Whole ticks from now to the first tick at or after the next
        scripted event or controller deadline, whichever is sooner; with
        neither, to the first tick past until_ms. At least one."""
        now = self.clock.now_ms
        target = self.controller.next_deadline_ms(now)
        if self.events and (target is None or self.events[0].t_ms < target):
            target = self.events[0].t_ms
        if target is None:
            target = self.report.until_ms + 1
        return max(1, -((now - target) // self.config.tick_ms))

    def run(self) -> SimReport:
        while self.clock.now_ms <= self.report.until_ms:
            while self.events and self.events[0].t_ms <= self.clock.now_ms:
                self._apply_event(self.events.popleft())
            self._step_gps()
            self._step_frame()
            self._step_inbound()
            self._check_interlock()
            skip_ms = self._ticks_to_next_visit() * self.config.tick_ms
            if self.controller.wiper.mode is not WiperMode.OFF:
                self._sweep_wiper(min(self.clock.now_ms + skip_ms, self.report.until_ms + 1))
            self.clock.advance(skip_ms)
        self._check_conservation()
        self._check_clock_order()
        self._final_state()
        return self.report


def run(scenario: list[sc.ScenarioEvent], config: Config, until_ms: int) -> SimReport:
    """Execute a loaded scenario to completion and return the report."""
    return _Executor(scenario, config, until_ms).run()
