"""Next-event executor: feeds scripted inputs through the virtual
devices into the controller, interprets the actions it emits, and
accumulates the run report.

Time moves in whole ticks of `tick_ms`, as the firmware's polled loop
does, but the executor visits only the ticks on which something other
than the wiper servo, the alcohol EMA and the GPS fix can change: the
tick of each scripted event but a GPS line, the ticks the controller
asks for through next_deadline_ms(), the tick on which the EMA flips
the engine line, and the tick after a visit that moved the clock. The
tick of a time is the first tick at or after it, counted from where
the clock stands, and at least one on (_tick_at). The gap of a visit
is the ticks strictly between it and the next visit, up to until_ms:
run() counts them once, and an EMA flip in the gap shortens it. On a
gap's ticks the levels repeat, so three things are applied without
sampling, stepping or polling, in this order. SafetyController.coast()
updates the EMA once per tick with a visit's arithmetic, up to its
fixed point or the update that would flip the line, whose tick then
becomes the next visit. The fold steps the queued GPS lines whose tick
lies in the gap, which are the lines up to its last tick. While the
wiper is on, SafetyController.sweep() moves the servo across the gap
along the wiper's cycle table, and sweep_lines() writes that walk as
batches of report lines, a second of the clock each. So the report is
byte-identical to sampling every tick, which leaves every gap empty.
Each action but a send carries the text of its `A t=<t> <text>` line;
the executor formats a send's records once and keeps each write batch
(one record, or a sweep's batch) as one string, checking its first
time against the last record written; its own times rise by construction.

GPS lines wait in their own queue, and a visit steps each line due by
its start straight from it. A line is a scripted event only while an
alert is pending, waiting for a fix. Otherwise a gap's lines are
folded: stepped into the controller newest first, each on its own
tick, until one sets the fix; the older ones are passed over. A
sentence the fix accepts replaces it outright, so the older ones could
not have changed it. With no alert pending a sentence can emit no
action and changes only the fix, which only visits read, and alerts are
queued and released only on visits; the coast and the sweep change only
the EMA and the servo. So the fold is exact and commutes with both.
Visits and folds take lines from the queue's head, so a run consumes a
prefix of it. run() counts the prefix's checksums once, after the loop,
and not the lines a blocked send leaves unconsumed past until_ms.

The loop is strictly single-threaded. Sending or reading an SMS blocks
inside the tick and moves the clock (timeouts, retry backoff), exactly
like firmware busy-waiting on the modem. The tick after the block is
the next visit, with no gap before it, and ticks count on from there,
off the tick_ms grid; so every gap starts on the tick after a frame.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import compress, islice, repeat
from operator import attrgetter
from types import SimpleNamespace
from typing import NamedTuple

from ..config import Config
from ..controller import ActionKind, SafetyController, WiperMode
from ..messages import coordinate_text
from ..modem import ModemError, ModemSession, SendRecord, fetch_inbound, send_sms
from ..nmea import checksums_ok, parse_sentence
from ..types import ScenarioError
from . import scenario as sc
from .clock import SimClock
from .devices import SensorBoard, VirtualModem

REPORT_HEADER = "smartcar-report v1"


class LogRecord(NamedTuple):
    tag: str  # "A" action, "S" send outcome, "M" delivered message
    t_ms: int
    text: str


class SimReport:
    """A run's report: `body` holds one string per write batch, its
    records' finished lines `<tag> t=<t_ms> <text>` joined by newlines,
    in the order the records were made; the counters, final state and
    violations are the C, F and V tail."""

    def __init__(self, tick_ms: int, until_ms: int):
        self.tick_ms = tick_ms
        self.until_ms = until_ms
        self.body: list[str] = []
        self.counters = SimpleNamespace(  # the C lines in printed order; a send counts as it ends
            sentences_parsed=0, checksum_failures=0, sms_sent=0, sms_failed=0, sms_retries=0
        )
        self.final_state: list[tuple[str, str]] = []
        self.violations: list[str] = []

    @property
    def records(self) -> list[LogRecord]:
        """Each line read back as a record, for readers in this process.
        Batches split at newlines only, which no record's text holds."""
        split = (line.split(" ", 2) for batch in self.body for line in batch.split("\n"))
        return [LogRecord(tag, int(t[2:]), text) for tag, t, text in split]

    def serialize(self) -> str:
        head = [REPORT_HEADER, f"tick_ms={self.tick_ms}", f"until_ms={self.until_ms}"]
        tail = [f"C {name}={value}" for name, value in vars(self.counters).items()]
        tail += [f"F {key}={value}" for key, value in self.final_state]
        tail += [f"V {text}" for text in self.violations]
        return "\n".join([*head, *self.body, *tail, ""])


_T_MS, _TEXT = attrgetter("t_ms"), attrgetter("text")  # a GPS line's fields
# where one report line of a sweep's second ends and the next begins
_NEXT_LINE = "\nA t="


@cache
def _second_labels() -> list[str]:
    """The `<lo:03d> ` label of each millisecond, built on first use."""
    return [f"{lo:03d} " for lo in range(1000)]


def _block(
    offsets: range, labels: Iterable[str], walk: list[str | None]
) -> tuple[int, int, list[str]] | None:
    """The pieces of the ticks of one second at these offsets, with these
    labels and `changes` entries, `["A t=", "<lo> <text>\\nA t=", ...,
    "<lo> <text>"]`, and the offsets of its first and last step; None if
    it has no step."""
    first = next(compress(offsets, walk), None)
    if first is None:
        return None
    last = next(compress(reversed(offsets), reversed(walk)))
    pieces = ["A t=", *map("".join, compress(zip(labels, walk, repeat(_NEXT_LINE)), walk))]
    pieces[-1] = pieces[-1][: -len(_NEXT_LINE)]
    return first, last, pieces


def sweep_lines(
    changes: list[str | None], k: int, t_ms: int, count: int, tick_ms: int
) -> Iterator[tuple[int, int, str]]:
    """The `A t=<t_ms> <text>` lines of count ticks from t_ms on, tick_ms
    apart, at walk positions k on: a lazy stream of batches (first t_ms,
    last t_ms, lines joined by newlines), one per second of the clock
    that holds a step. Each second is one join of its pieces with
    str(hi) between them, or "" in the first second, whose labels are
    unpadded. The pieces are kept by the second's first walk position,
    its offset, its tick count and whether it is the first second."""
    steps, padded = len(changes), _second_labels()
    blocks: dict[tuple[int, int, int, bool], tuple[int, int, list[str]] | None] = {}
    end_ms = t_ms + count * tick_ms
    while t_ms < end_ms:
        k %= steps
        hi, lo = divmod(t_ms, 1000)
        n = -((t_ms - min(end_ms, t_ms - lo + 1000)) // tick_ms)  # the second's ticks from t_ms
        key = (k, lo, n, not hi)
        block = blocks.get(key, False)
        if block is False:
            # the second's walk, wrapping round the cycle as often as it must
            walk = changes[k:k + n]
            while len(walk) < n:
                walk += changes[: n - len(walk)]
            offsets = range(lo, lo + n * tick_ms, tick_ms)
            labels = padded[lo::tick_ms] if hi else map("{} ".format, offsets)
            block = blocks[key] = _block(offsets, labels, walk)
        if block is not None:
            first_lo, last_lo, pieces = block
            yield t_ms - lo + first_lo, t_ms - lo + last_lo, (str(hi) if hi else "").join(pieces)
        t_ms, k = t_ms + n * tick_ms, k + n


class _Executor:
    def __init__(self, events: list[sc.ScenarioEvent], config: Config, until_ms: int):
        if events and until_ms < events[-1].t_ms:
            raise ScenarioError(
                f"until_ms={until_ms} ends before the last event at t={events[-1].t_ms}"
            )
        self.config = config
        # GPS lines wait in a list of their own; both keep scenario order
        self.events = deque([ev for ev in events if type(ev) is not sc.GpsLine])
        self.gps_lines = [ev for ev in events if type(ev) is sc.GpsLine]
        self.clock = SimClock()
        self.modem = VirtualModem(self.clock)
        self.board = SensorBoard()
        self.session = ModemSession(transport=self.modem, clock=self.clock)
        self.controller = SafetyController(config)
        self.report = SimReport(tick_ms=config.tick_ms, until_ms=until_ms)
        self.send_action_count = 0
        self.last_ms = 0  # the time of the last record written
        self.flagged: set[str] = set()  # the audits that have written their V line

    # -- bookkeeping -----------------------------------------------------

    def _flag(self, audit: str, text: str) -> None:
        """Write text as a V line if it is audit's first violation."""
        if audit not in self.flagged:
            self.flagged.add(audit)
            self.report.violations.append(text)

    def _write(self, first_ms: int, last_ms: int, text: str) -> None:
        """Append a batch of finished report lines, joined by newlines,
        whose times rise from first_ms to last_ms, checking first_ms
        against the last record's; only the first record out of order
        writes a V line."""
        if first_ms < self.last_ms:
            self._flag("clock", f"clock: record at t={first_ms} after one at t={self.last_ms}")
        self.last_ms = last_ms
        self.report.body.append(text)

    def _record_action(self, t_ms: int, text: str) -> None:
        self._write(t_ms, t_ms, f"A t={t_ms} {text}")

    # -- per-tick stages ---------------------------------------------------

    def _apply_event(self, ev: sc.ScenarioEvent) -> None:
        if isinstance(ev, sc.Levels):
            self.board.set_levels(ev.values)
        elif isinstance(ev, sc.SmsIn):
            self.modem.inject_sms(ev.sender, ev.body)
        elif isinstance(ev, sc.ErrorOnce):
            self.modem.arm_error_once()
        elif isinstance(ev, sc.SilentFor):
            self.modem.silence_for(ev.duration_ms)

    def _interpret(self, actions) -> None:
        for action in actions:
            t = self.clock.now_ms
            if action.kind is ActionKind.SEND_ALERT or action.kind is ActionKind.SEND_REPLY:
                head = "reply" if action.alert is None else f"alert kind={action.alert.name}"
                self._record_action(t, f"{head} dest={action.dest} body={action.text}")
                self.send_action_count += 1
                self._dispatch(action.dest, action.text)
            else:
                self._record_action(t, action.text)

    def _dispatch(self, dest: str, body: str) -> None:
        counters = self.report.counters
        sent_before = counters.sms_sent
        try:
            send = send_sms(self.session, dest, body, self.config)
        except ModemError as exc:
            send = SendRecord(1, f"rejected: {exc}")
        t = self.clock.now_ms
        message = f"dest={dest} body={body}"
        outcome = (
            f"delivered={'yes' if send.delivered else 'no'} attempts={send.attempts}"
            f" reason={send.reason or '-'} {message}"
        )
        self._write(t, t, f"S t={t} {outcome}")
        if send.delivered:
            self._write(t, t, f"M t={t} {message}")
            counters.sms_sent += 1
        else:
            counters.sms_failed += 1
        counters.sms_retries += send.attempts - 1
        # past the report's earlier count the modem holds this delivery or nothing
        new = self.modem.deliveries[sent_before:]
        if new != ([(dest, body)] if send.delivered else []):
            self.report.violations.append(f"t={t} conservation: {outcome}, modem recorded {new}")

    def _tick_at(self, t_ms: int) -> int:
        """The tick of t_ms: the first at or after it, at least one on."""
        now, tick = self.clock.now_ms, self.config.tick_ms
        return now + tick if t_ms <= now else t_ms + (now - t_ms) % tick

    def _fold_gps(self, first: int, last_ms: int) -> int:
        """Fold the GPS lines from index first of a gap whose last tick is
        last_ms: step them newest first, each on its tick, until
        update_fix accepts one. Returns the index past the gap's lines.
        Only the first action a fold would drop writes a V line."""
        lines, controller = self.gps_lines, self.controller
        end = bisect_right(lines, last_ms, first, key=_T_MS)
        for i in range(end - 1, first - 1, -1):
            t, gps = self._tick_at(lines[i].t_ms), controller.gps
            actions = controller.step(parse_sentence(lines[i].text), t)
            if actions:
                kinds = ", ".join(action.kind.name for action in actions)
                self._flag("fold", f"t={t} fold: GPS line between visits gave {kinds}")
            if controller.gps is not gps:
                break
        return end

    def _step_inbound(self) -> None:
        for slot in self.session.poll():
            try:
                sms = fetch_inbound(self.session, slot, self.config)
            except ModemError as exc:
                self._record_action(self.clock.now_ms, f"note inbound-read-failed: {exc}")
                continue
            self._interpret(self.controller.step(sms, self.clock.now_ms))

    def _check_interlock(self) -> None:
        """Only the first violation writes a V line. After the run the
        clock stands past until_ms, and the line names until_ms."""
        interlock = self.controller.interlock
        ema = interlock.ema
        if ema is not None and ema >= self.config.alcohol_threshold and interlock.engine_enabled:
            self._flag(
                "interlock",
                f"t={min(self.clock.now_ms, self.report.until_ms)} interlock:"
                f" engine enabled while ema={ema:.1f} >= {self.config.alcohol_threshold}",
            )

    # -- audits ------------------------------------------------------------

    def _check_conservation(self) -> None:
        counters = self.report.counters
        if counters.sms_sent != len(self.modem.deliveries):
            self.report.violations.append(
                f"conservation: report lists {counters.sms_sent} deliveries,"
                f" modem recorded {len(self.modem.deliveries)}"
            )
        sends = counters.sms_sent + counters.sms_failed
        if self.send_action_count != sends:
            self.report.violations.append(
                f"conservation: {self.send_action_count} send actions, {sends} send records"
            )

    def _final_state(self) -> None:
        ema = self.controller.interlock.ema
        fix = self.controller.gps.last_fix
        self.report.final_state = [
            ("engine_enabled", "yes" if self.controller.interlock.engine_enabled else "no"),
            ("wiper_mode", self.controller.wiper_mode.name),
            ("alcohol_ema", "none" if ema is None else f"{ema:.3f}"),
            ("gps_fix", coordinate_text(fix.latitude, fix.longitude) if fix else "none"),
            ("pending_alerts", str(len(self.controller.pending_alerts))),
        ]

    def run(self) -> SimReport:
        events, lines, until_ms = self.events, self.gps_lines, self.report.until_ms
        controller, tick = self.controller, self.config.tick_ms
        # the head event's time, read once per event; with no event left,
        # the first millisecond after the run
        next_event_ms = events[0].t_ms if events else until_ms + 1
        consumed = 0  # the GPS lines stepped or folded, a prefix of lines
        while (now := self.clock.now_ms) <= until_ms:
            while next_event_ms <= now:
                self._apply_event(events.popleft())
                next_event_ms = events[0].t_ms if events else until_ms + 1
            # a line due during a send that blocks here waits for the next tick
            while consumed < len(lines) and lines[consumed].t_ms <= now:
                sentence = parse_sentence(lines[consumed].text)
                self._interpret(controller.step(sentence, self.clock.now_ms))
                consumed += 1
            self._interpret(controller.step(self.board.sample(), self.clock.now_ms))
            self._step_inbound()
            self._check_interlock()
            if self.clock.now_ms != now:
                # the modem blocked: the next tick is a visit, with no gap before it
                self.clock.advance(tick)
                continue
            due_ms = next_event_ms
            # a GPS line needs a visit only while an alert waits for a fix
            if controller.pending_alerts and consumed < len(lines):
                due_ms = min(due_ms, lines[consumed].t_ms)
            deadline_ms = controller.next_deadline_ms(now)
            if deadline_ms is not None and deadline_ms < due_ms:
                due_ms = deadline_ms
            visit_ms = self._tick_at(due_ms)
            # the gap: the ticks strictly between this visit and the next
            ticks = (min(visit_ms, until_ms + 1) - now - 1) // tick
            # an EMA flip in the gap is the next visit
            flip = controller.coast(ticks)
            if flip is not None:
                visit_ms, ticks = now + flip * tick, flip - 1
            if ticks:
                if consumed < len(lines):
                    consumed = self._fold_gps(consumed, now + ticks * tick)
                if controller.wiper_mode is not WiperMode.OFF:
                    changes, start = controller.sweep(ticks)
                    for batch in sweep_lines(changes, start, now + tick, ticks, tick):
                        self._write(*batch)
            self.clock.advance(visit_ms - now)
        counters = self.report.counters
        counters.sentences_parsed = sum(checksums_ok(map(_TEXT, islice(lines, consumed))))
        counters.checksum_failures = consumed - counters.sentences_parsed
        # the ticks after the last visit may have been coasted
        self._check_interlock()
        self._check_conservation()
        self._final_state()
        return self.report


def run(scenario: list[sc.ScenarioEvent], config: Config, until_ms: int) -> SimReport:
    """Execute a loaded scenario to completion and return the report."""
    return _Executor(scenario, config, until_ms).run()
