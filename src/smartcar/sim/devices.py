"""Virtual peers for the wire protocols: a GSM modem that answers AT
commands, a GPS feed that emits NMEA text, and a sensor board holding
the analog/digital input levels.

The modem and the board are plain state machines driven inline by the
executor, which steps GPS lines from its own queue; the modem is the
only one that consults the clock, and only to honor a scripted silence
window.
"""

from __future__ import annotations

import re

from ..modem import CTRL_Z
from ..types import SensorFrame
from .clock import SimClock

_CMGS_RE = re.compile(r'^AT\+CMGS="([^"]*)"$')
_CMGR_RE = re.compile(r"^AT\+CMGR=(\d+)$")
_IPR_RE = re.compile(r"^AT\+IPR=\d+$")


class VirtualModem:
    """SIM900-class text-mode peer.

    Commands arrive CR-terminated through write(); responses queue up for
    read(). Fault hooks: arm_error_once() makes the next answered command
    fail with ERROR, silence_for() drops all bytes written before the
    window closes (a dead serial link, so no state changes either).
    """

    def __init__(self, clock: SimClock):
        self.clock = clock
        self._rx = b""
        self._out = bytearray()
        self._pending_dest: str | None = None  # set from AT+CMGS until the body ends
        self._inbox: dict[int, tuple[str, str]] = {}
        self._next_slot = 1
        self.pending_errors = 0
        self.silent_until_ms = 0
        self.swallowed_bytes = 0
        self.deliveries: list[tuple[str, str]] = []  # (dest, body) in send order

    # -- fault hooks -----------------------------------------------------

    def arm_error_once(self) -> None:
        self.pending_errors += 1

    def silence_for(self, duration_ms: int) -> None:
        self.silent_until_ms = max(self.silent_until_ms, self.clock.now_ms + duration_ms)

    def inject_sms(self, sender: str, body: str) -> int:
        """Store an inbound message and raise the +CMTI notification."""
        slot = self._next_slot
        self._next_slot += 1
        self._inbox[slot] = (sender, body)
        self._emit(f'\r\n+CMTI: "SM",{slot}\r\n')
        return slot

    # -- byte transport --------------------------------------------------

    def write(self, data: bytes) -> int:
        if self.clock.now_ms < self.silent_until_ms:
            self.swallowed_bytes += len(data)
            return len(data)
        self._rx += data
        # a body runs to CTRL-Z, a command to CR
        while (cut := self._rx.find(b"\r" if self._pending_dest is None else CTRL_Z)) >= 0:
            text = self._rx[:cut].decode("latin-1")
            self._rx = self._rx[cut + 1:]
            if self._pending_dest is not None:
                self._finish_body(text)
            elif line := text.strip():
                self._handle_command(line)
        return len(data)

    def read(self) -> bytes:
        if not self._out:
            return b""
        out = bytes(self._out)
        self._out.clear()
        return out

    # -- command handling ------------------------------------------------

    def _emit(self, text: str) -> None:
        self._out += text.encode("latin-1")

    def _take_armed_error(self) -> bool:
        if self.pending_errors > 0:
            self.pending_errors -= 1
            self._emit("\r\nERROR\r\n")
            return True
        return False

    def _handle_command(self, cmd: str) -> None:
        if self._take_armed_error():
            return
        if cmd == "AT" or cmd == "AT+CMGF=1" or _IPR_RE.match(cmd):
            self._emit("\r\nOK\r\n")
            return
        m = _CMGS_RE.match(cmd)
        if m:
            self._pending_dest = m.group(1)
            self._emit("\r\n> ")
            return
        m = _CMGR_RE.match(cmd)
        if m:
            self._answer_read(int(m.group(1)))
            return
        self._emit("\r\nERROR\r\n")

    def _finish_body(self, body: str) -> None:
        dest, self._pending_dest = self._pending_dest, None
        if self._take_armed_error():
            return
        self.deliveries.append((dest, body))
        self._emit(f"\r\n+CMGS: {len(self.deliveries)}\r\n\r\nOK\r\n")

    def _answer_read(self, slot: int) -> None:
        stored = self._inbox.pop(slot, None)
        if stored is None:
            self._emit("\r\nERROR\r\n")
            return
        sender, body = stored
        self._emit(f'\r\n+CMGR: "REC UNREAD","{sender}","","00/01/01,00:00:00+00"\r\n{body}\r\n\r\nOK\r\n')


class VirtualGps:
    """NMEA text source: push_raw() lines come out of poll() byte-exact, in
    push order. The executor steps GPS lines from its own queue and no
    program code calls this; the benchmark's tracer wraps poll()."""

    def __init__(self):
        self._raw: list[str] = []

    def push_raw(self, line: str) -> None:
        self._raw.append(line)

    def poll(self) -> list[str]:
        out, self._raw = self._raw, []
        return out


class SensorBoard:
    """Input levels as the controller samples them: one SensorFrame,
    built and validated once per level change and handed out by every
    sample() until the next. A field never set keeps SensorFrame's
    default."""

    def __init__(self):
        self._frame = SensorFrame()

    def set_levels(self, values) -> None:
        """Apply (SensorFrame field name, value) pairs; the others hold."""
        self._frame = self._frame._replace(**dict(values))

    def sample(self) -> SensorFrame:
        return self._frame
