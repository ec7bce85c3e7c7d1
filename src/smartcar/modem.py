"""AT codec, SMS exchange machines and their driver for a SIM900-class modem.

Wire shape: commands are ASCII terminated with '\\r'; responses arrive
framed "\\r\\n...\\r\\n"; the SMS body prompt is "\\r\\n> "; the body itself
is terminated by CTRL-Z (0x1A). Text mode only (CMGF=1), so bodies are
plain printable ASCII, one character per septet, 160 max.

decode_stream is a pure function over an accumulated buffer so the
transport may split responses at any byte boundary: keep the returned
remainder, append new bytes, call again. send_steps and read_steps are the
exchanges as sans-I/O machines; ModemSession.exchange alone runs them.
"""

from __future__ import annotations

import re
from collections.abc import Generator
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .types import SMS_MAX_LEN, InboundSms, ModemError

if TYPE_CHECKING:
    from .config import Config

CTRL_Z = b"\x1a"

_CMTI_RE = re.compile(r'^\+CMTI:\s*"[^"]*"\s*,\s*(\d+)\s*$')
_CMGR_SENDER_RE = re.compile(r'^\+CMGR:\s*"[^"]*"\s*,\s*"([^"]*)"')
# <da> of AT+CMGS="<da>" (3GPP TS 27.005), at most the 15 digits of E.164
_NUMBER_RE = re.compile(r"\+?[0-9]{1,15}")


class EventKind(Enum):
    OK = "ok"
    ERROR = "error"
    PROMPT = "prompt"
    SMS_ARRIVED = "sms_arrived"
    INBOUND_SMS = "inbound_sms"
    LINE = "line"


class AtEvent(NamedTuple):
    kind: EventKind
    index: int = 0  # SMS_ARRIVED storage slot
    sms: InboundSms | None = None  # INBOUND_SMS


_OK = AtEvent(EventKind.OK)
_ERROR = AtEvent(EventKind.ERROR)
_PROMPT = AtEvent(EventKind.PROMPT)
_LINE = AtEvent(EventKind.LINE)  # any other line, such as +CMGS: <mr>


class SendRecord(NamedTuple):
    """What one send found out: how many attempts it took and why it
    failed ("" if it was delivered)."""

    attempts: int
    reason: str

    @property
    def delivered(self) -> bool:
        return not self.reason


def check_body(body: str) -> None:
    """Reject bodies the text-mode encoder cannot carry: no truncation here."""
    if len(body) > SMS_MAX_LEN:
        raise ModemError(f"SMS body exceeds {SMS_MAX_LEN} chars ({len(body)})")
    if not (body.isascii() and body.isprintable()):  # exactly 0x20..0x7E
        bad = next(ch for ch in body if not " " <= ch <= "~")
        raise ModemError(f"SMS body contains non-printable character {bad!r}")


def check_number(number: str) -> None:
    """Reject phone numbers other than an optional '+' and 1-15 digits."""
    if _NUMBER_RE.fullmatch(number) is None:
        raise ModemError(f"bad phone number {number!r}: need an optional '+' and 1-15 digits")


def header_command(dest: str) -> bytes:
    """AT+CMGS="<dest>", for a number check_number accepts."""
    check_number(dest)
    return f'AT+CMGS="{dest}"\r'.encode("ascii")


def body_command(body: str) -> bytes:
    """The body and its CTRL-Z terminator, for a body check_body accepts."""
    check_body(body)
    return body.encode("ascii") + CTRL_Z


def decode_stream(buffer: bytes) -> tuple[list[AtEvent], bytes]:
    """Decode as many complete events as the buffer holds.

    Returns the events plus the unconsumed remainder. A "+CMGR:" header is
    not consumed until its body line is complete, so chunk boundaries never
    change the decoded event sequence.
    """
    events: list[AtEvent] = []
    buf = buffer
    while True:
        buf = buf.lstrip(b"\r\n")
        if not buf:
            return events, b""
        if buf[:2] == b"> ":
            events.append(_PROMPT)
            buf = buf[2:]
            continue
        end = buf.find(b"\r\n")
        if end < 0:
            return events, buf
        text = buf[:end].decode("latin-1")
        rest = buf[end + 2 :]
        if text == "OK":
            events.append(_OK)
        elif text == "ERROR" or text.startswith(("+CMS ERROR:", "+CME ERROR:")):
            events.append(_ERROR)  # the code of a 27.005 / 27.007 error is dropped
        elif (m := _CMTI_RE.match(text)) is not None:
            events.append(AtEvent(EventKind.SMS_ARRIVED, index=int(m.group(1))))
        elif text.startswith("+CMGR:"):
            body_end = rest.find(b"\r\n")
            if body_end < 0:
                return events, buf  # wait for the body line
            sender_match = _CMGR_SENDER_RE.match(text)
            sender = sender_match.group(1) if sender_match else ""
            sms = InboundSms(sender, rest[:body_end].decode("latin-1"))
            events.append(AtEvent(EventKind.INBOUND_SMS, sms=sms))
            rest = rest[body_end + 2 :]
        else:
            events.append(_LINE)
        buf = rest


class ModemSession:
    """One owner of one byte transport, with incremental decode state.

    The session alone decides what is unsolicited: only the storage slot
    of a +CMTI arrival (SMS_ARRIVED) outlives the exchange it was decoded
    in, until poll() hands it out. Every other event is either the answer
    exchange() sends back to its machine or dropped.
    """

    def __init__(self, transport, clock):
        self.transport = transport  # needs write(bytes), read() -> bytes
        self.clock = clock  # needs now_ms: int, advance(ms)
        self._buf = b""
        self._slots: list[int] = []

    def _pump(self) -> list[AtEvent]:
        """Decode what the transport holds, keeping each arrival's slot.

        The remainder decode_stream leaves decodes to no events and
        itself, so with no new bytes there is nothing to decode."""
        data = self.transport.read()
        if not data:
            return []
        events, self._buf = decode_stream(self._buf + data)
        for ev in events:
            if ev.kind is EventKind.SMS_ARRIVED:
                self._slots.append(ev.index)
        return events

    def poll(self) -> list[int]:
        """The storage slots of the messages that arrived and were not yet
        handed out, in arrival order; every other event is dropped."""
        self._pump()
        slots, self._slots = self._slots, []
        return slots

    def exchange(self, steps: Generator):
        """Run a machine to its end and return what it returns.

        A machine yields a command as (bytes, awaited EventKind, wait_ms)
        and is sent back the first awaited event or ERROR decoded after the
        write, or None. The transport is drained before the write; the
        virtual one answers within the write or not at all, so one read
        after it gets all there is. A command with no answer moves the
        clock by its wait_ms, and a pause (an int yielded) by itself.
        """
        answer = None
        try:
            while True:
                wait_ms = steps.send(answer)
                answer = None
                if type(wait_ms) is tuple:  # a command and its wait; else a pause
                    command, want, wait_ms = wait_ms
                    self._pump()
                    self.transport.write(command)
                    for ev in self._pump():
                        if ev.kind is want or ev.kind is EventKind.ERROR:
                            answer = ev
                            break
                if answer is None:
                    self.clock.advance(wait_ms)
        except StopIteration as done:
            return done.value


def send_steps(dest: str, body: str, config: Config) -> Generator[object, AtEvent | None, SendRecord]:
    """The text-mode send sequence as a machine: CMGF=1 (await OK), CMGS
    (await prompt), body+CTRL-Z (await OK), each bounded by sms_ok_timeout_ms.
    ERROR or a timeout at any stage restarts it after a pause of
    sms_retry_backoff_ms, at most sms_retry_max times. A number or body the
    modem cannot carry raises at the first step, before any command."""
    stages = (
        (b"AT+CMGF=1\r", EventKind.OK, config.sms_ok_timeout_ms),
        (header_command(dest), EventKind.PROMPT, config.sms_ok_timeout_ms),
        (body_command(body), EventKind.OK, config.sms_ok_timeout_ms),
    )
    attempt = 1
    while True:
        for stage in stages:
            ev = yield stage
            if ev is None or ev.kind is EventKind.ERROR:
                break
        else:
            return SendRecord(attempt, "")
        if attempt > config.sms_retry_max:
            return SendRecord(attempt, "timeout" if ev is None else "error")
        yield config.sms_retry_backoff_ms
        attempt += 1


def read_steps(slot: int, config: Config) -> Generator[object, AtEvent | None, InboundSms]:
    """Reading and consuming the stored message in ``slot``, as a machine."""
    ev = yield f"AT+CMGR={slot}\r".encode("ascii"), EventKind.INBOUND_SMS, config.sms_ok_timeout_ms
    if ev is None or ev.kind is EventKind.ERROR:
        raise ModemError(f"failed to fetch stored SMS at index {slot}")
    return ev.sms


def send_sms(session: ModemSession, dest: str, body: str, config: Config) -> SendRecord:
    """Run send_steps; the session's clock stands where the sequence ended."""
    return session.exchange(send_steps(dest, body, config))


def fetch_inbound(session: ModemSession, slot: int, config: Config) -> InboundSms:
    """Read and consume the stored message in ``slot``, as poll() gave it."""
    return session.exchange(read_steps(slot, config))
