"""Span recorder and per-layer metrics for a traced drive.

The program carries no instrumentation of its own, so tracing wraps its
public functions from outside: each wrapped function object is replaced
in every `smartcar` module (and class) that holds a reference to it. A
wrapper records one span (name, start, end, parent) in flat arrays and
may update counters from the call's arguments and result. Self time of
a span is its duration minus the durations of its direct children;
calls are strictly nested in this single-threaded program, so children
never overlap.

`Tracer.metrics()` turns spans and counters into the per-layer metric
set the benchmark reports; `Tracer.replay()` re-runs the captured NMEA
lines and modem byte stream through the layer functions alone and
checks they give what the drive gave.
"""

from __future__ import annotations

import random
import sys
import time
from array import array

import smartcar.config as config_mod
import smartcar.controller as controller_mod
import smartcar.messages as messages_mod
import smartcar.modem as modem_mod
import smartcar.nmea as nmea_mod
import smartcar.sim.devices as devices_mod
import smartcar.sim.runner as runner_mod
import smartcar.sim.scenario as scenario_mod

ACTION_KINDS = tuple(k.name for k in controller_mod.ActionKind)
STEP_KINDS = {"SensorFrame": "frame", "NmeaSentence": "nmea", "InboundSms": "sms"}

# (owner, attribute, span name): the layer boundaries that get a span
_FUNCTIONS = (
    (runner_mod, "run", "runner.run"),
    (runner_mod.SimReport, "serialize", "runner.serialize"),
    (devices_mod.SensorBoard, "sample", "devices.sample"),
    (devices_mod.VirtualGps, "poll", "devices.gps_poll"),
    (devices_mod.VirtualModem, "write", "devices.modem_write"),
    (devices_mod.VirtualModem, "read", "devices.modem_read"),
    (controller_mod.SafetyController, "step", "controller.step"),
    (nmea_mod, "parse_sentence", "nmea.parse_sentence"),
    (nmea_mod, "update_fix", "nmea.update_fix"),
    (modem_mod, "decode_stream", "modem.decode_stream"),
    (modem_mod.ModemSession, "poll", "modem.poll"),
    (modem_mod, "send_sms", "modem.send_sms"),
    (modem_mod, "fetch_inbound", "modem.fetch_inbound"),
    (messages_mod, "format_alert", "messages.format_alert"),
    (messages_mod, "format_reply", "messages.format_reply"),
    (messages_mod, "parse_query", "messages.parse_query"),
    (scenario_mod, "load_scenario", "scenario.load_scenario"),
    (config_mod, "load_config", "config.load_config"),
)


def _rebind(original, replacement) -> None:
    """Point every smartcar module or class attribute bound to `original`
    at `replacement`, so callers that imported the name see it too."""
    for name, module in list(sys.modules.items()):
        if name != "smartcar" and not name.startswith("smartcar."):
            continue
        for owner in (module, *(v for v in vars(module).values() if isinstance(v, type))):
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, replacement)


class Tracer:
    """Records spans and counters for one drive in this process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.originals: dict[str, object] = {}
        # captured for the replays
        self.nmea_lines: list = []
        self.nmea_sentences: list = []
        self.fix_inputs: list[int] = []
        self.fix_states: list = []
        self.modem_stream = bytearray()
        self.decoded: list = []
        self.decode_rest = b""

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, fn, name: str, before=None, after=None):
        nid = self._id(name)
        if name == "controller.step":
            ids = {cls: self._id(f"{name}.{kind}") for cls, kind in STEP_KINDS.items()}
        else:
            ids = None
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            idx = len(start)
            name_of.append(ids.get(type(args[1]).__name__, nid) if ids else nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                result, error = None, exc
            t1 = clock()
            stack.pop()
            start[idx] = t0
            end[idx] = t1
            if after:
                after(args, result, error, token)
            if error is not None:
                raise error
            return result

        return wrapper

    # -- counters at each boundary ------------------------------------

    def _after_parse(self, args, sentence, error, _):
        self.nmea_lines.append(args[0])
        self.nmea_sentences.append(sentence)
        if not sentence.checksum_ok:
            self._count("nmea.checksum_fail")

    def _after_update_fix(self, args, state, error, _):
        self.fix_inputs.append(args[2])
        self.fix_states.append(state)
        if state is not args[0]:
            self._count("nmea.fix_accepted")

    def _after_step(self, args, actions, error, _):
        for action in actions:
            self._count("controller.actions." + action.kind.name)
        if not actions and type(args[1]).__name__ == "SensorFrame":
            self._count("controller.idle_frames")

    def _after_decode(self, args, result, error, _):
        self._count("modem.decode_stream.bytes", len(args[0]))
        self.decoded.extend(result[0])
        self.decode_rest = result[1]

    def _after_poll(self, args, events, error, _):
        if not events:
            self._count("modem.empty_polls")

    def _before_write(self, args):
        return args[0].swallowed_bytes

    def _after_write(self, args, result, error, swallowed_before):
        self._count("devices.modem_bytes_in", len(args[1]))
        self._count("devices.swallowed_bytes", args[0].swallowed_bytes - swallowed_before)

    def _after_read(self, args, data, error, _):
        self._count("devices.modem_bytes_out", len(data))
        self.modem_stream += data

    def _before_send(self, args):
        return args[0].clock.now_ms

    def _after_send(self, args, outcome, error, t_before):
        self._count("modem.send_sms.sim_ms_blocked", args[0].clock.now_ms - t_before)
        if error is not None:
            self._count("modem.send_sms.rejected")
            return
        self._count("modem.send_sms.attempts", outcome.attempts)
        self._count("modem.send_sms.delivered", int(outcome.delivered))

    def _after_fetch(self, args, sms, error, _):
        if error is not None:
            self._count("modem.fetch_inbound.failures")

    def _after_load_scenario(self, args, events, error, _):
        self._count("scenario.events", len(events))

    def install(self) -> None:
        hooks = {
            "nmea.parse_sentence": (None, self._after_parse),
            "nmea.update_fix": (None, self._after_update_fix),
            "controller.step": (None, self._after_step),
            "modem.decode_stream": (None, self._after_decode),
            "modem.poll": (None, self._after_poll),
            "devices.modem_write": (self._before_write, self._after_write),
            "devices.modem_read": (None, self._after_read),
            "modem.send_sms": (self._before_send, self._after_send),
            "modem.fetch_inbound": (None, self._after_fetch),
            "scenario.load_scenario": (None, self._after_load_scenario),
        }
        for owner, attr, name in _FUNCTIONS:
            original = vars(owner)[attr]
            self.originals[name] = original
            _rebind(original, self._wrap(original, name, *hooks.get(name, (None, None))))

    # -- results --------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One span a line: index, name, parent index, start and end in ns
        from the first span's start."""
        base = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tparent\tstart_ns\tend_ns\n")
            for i, (nid, p, s, e) in enumerate(zip(self.name_of, self.parent, self.start, self.end)):
                fh.write(f"{i}\t{self.names[nid]}\t{p}\t{round((s - base) * 1e9)}\t{round((e - base) * 1e9)}\n")

    def _per_name(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Calls, total duration and total self time, by span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = {name: 0 for name in self.names}
        total = {name: 0.0 for name in self.names}
        own = {name: 0.0 for name in self.names}
        for i in range(n):
            name = self.names[self.name_of[i]]
            d = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += d
            own[name] += d - child[i]
        return calls, total, own

    def metrics(self, report, sim_s: float) -> dict[str, float]:
        """The per-layer metric set, from spans, counters and the report.

        `.us` metrics are mean self time per call in microseconds; ratios
        are 0 when their base count is 0."""
        calls, total, own = self._per_name()
        c = self.counts.get

        def us(name):
            return own.get(name, 0.0) / calls[name] * 1e6 if calls.get(name) else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        tags = {"A": 0, "S": 0, "M": 0}
        for record in report.records:
            tags[record.tag] += 1
        frames = calls.get("devices.sample", 0)
        parsed = calls.get("nmea.parse_sentence", 0)
        sends = calls.get("modem.send_sms", 0)
        polls = calls.get("modem.poll", 0)
        m = {
            "runner.frames": frames,
            "runner.self_us_per_sim_s": own.get("runner.run", 0.0) * 1e6 / sim_s,
            "runner.records.A": tags["A"],
            "runner.records.S": tags["S"],
            "runner.records.M": tags["M"],
            "runner.serialize_s": total.get("runner.serialize", 0.0),
            "devices.sample.calls": frames,
            "devices.sample.us": us("devices.sample"),
            "devices.gps_poll.us": us("devices.gps_poll"),
            "devices.modem_bytes_in": c("devices.modem_bytes_in", 0),
            "devices.modem_bytes_out": c("devices.modem_bytes_out", 0),
            "devices.swallowed_bytes": c("devices.swallowed_bytes", 0),
        }
        for kind in STEP_KINDS.values():
            m[f"controller.step.calls.{kind}"] = calls.get(f"controller.step.{kind}", 0)
            m[f"controller.step.self_us.{kind}"] = us(f"controller.step.{kind}")
        for kind in ACTION_KINDS:
            m[f"controller.actions.{kind}"] = c(f"controller.actions.{kind}", 0)
        m["controller.idle_frame_ratio"] = ratio(c("controller.idle_frames", 0), frames)
        m.update({
            "nmea.parse_sentence.calls": parsed,
            "nmea.parse_sentence.us": us("nmea.parse_sentence"),
            "nmea.update_fix.us": us("nmea.update_fix"),
            "nmea.checksum_fail_ratio": ratio(c("nmea.checksum_fail", 0), parsed),
            "nmea.fix_accept_ratio": ratio(c("nmea.fix_accepted", 0), calls.get("nmea.update_fix", 0)),
            "modem.poll.calls": polls,
            "modem.empty_poll_ratio": ratio(c("modem.empty_polls", 0), polls),
            "modem.decode_stream.bytes": c("modem.decode_stream.bytes", 0),
            "modem.decode_stream.us": us("modem.decode_stream"),
            "modem.send_sms.calls": sends,
            "modem.send_sms.us": us("modem.send_sms"),
            "modem.send_sms.attempts_per_call": ratio(c("modem.send_sms.attempts", 0), sends),
            "modem.send_sms.sim_ms_blocked": c("modem.send_sms.sim_ms_blocked", 0),
            "modem.delivered_ratio": ratio(c("modem.send_sms.delivered", 0), sends),
            "modem.fetch_inbound.calls": calls.get("modem.fetch_inbound", 0),
            "modem.fetch_inbound.us": us("modem.fetch_inbound"),
            "modem.fetch_inbound.failures": c("modem.fetch_inbound.failures", 0),
            "messages.format_alert.us": us("messages.format_alert"),
            "messages.format_reply.us": us("messages.format_reply"),
            "messages.parse_query.us": us("messages.parse_query"),
            "scenario.load_scenario.s": total.get("scenario.load_scenario", 0.0),
            "scenario.events": c("scenario.events", 0),
            "config.load_config.us": total.get("config.load_config", 0.0) * 1e6,
        })
        return m

    def replay(self, seed: int, min_seconds: float = 0.2) -> tuple[dict[str, float], list[str]]:
        """Time the NMEA and decoder layers alone on the drive's own input.

        Returns the replay metrics and a list of mismatches against what
        the drive produced (empty when the layers agree)."""
        parse = self.originals["nmea.parse_sentence"]
        update = self.originals["nmea.update_fix"]
        decode = self.originals["modem.decode_stream"]
        errors = []
        lines, now = self.nmea_lines, self.fix_inputs

        def nmea_pass(check):
            state = nmea_mod.GpsState()
            for i, line in enumerate(lines):
                sentence = parse(line)
                state = update(state, sentence, now[i])
                if check and (sentence != self.nmea_sentences[i] or state != self.fix_states[i]):
                    errors.append(f"nmea replay differs at line {i}: {line!r}")
                    return

        stream = bytes(self.modem_stream)
        rng = random.Random(f"chunks:{seed}")
        cuts, pos = [], 0
        while pos < len(stream):
            pos = min(len(stream), pos + rng.randint(1, 64))
            cuts.append(pos)

        def decode_pass(check):
            events, rest, prev = [], b"", 0
            for cut in cuts:
                got, rest = decode(rest + stream[prev:cut])
                events.extend(got)
                prev = cut
            if check and (events != self.decoded or rest != self.decode_rest):
                errors.append(
                    f"decode replay gives {len(events)} events and {len(rest)} bytes left,"
                    f" the drive {len(self.decoded)} and {len(self.decode_rest)}"
                )

        if len(lines) != len(now):
            errors.append(f"{len(lines)} sentences parsed but {len(now)} fix updates")
        else:
            nmea_pass(True)
        decode_pass(True)
        nmea_s = _median_pass(nmea_pass, min_seconds)
        decode_s = _median_pass(decode_pass, min_seconds)
        return {
            "nmea.us_per_sentence": nmea_s / len(lines) * 1e6 if lines else 0.0,
            "modem.decode_stream.mb_per_s_chunked": len(stream) / decode_s / 1e6 if stream else 0.0,
        }, errors


def _median_pass(fn, min_seconds: float) -> float:
    """Median wall time of repeated fn(False) calls: at least three, and
    enough to cover min_seconds."""
    times = []
    t_end = time.perf_counter() + min_seconds
    while len(times) < 3 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn(False)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]
