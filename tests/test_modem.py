"""AT codec, incremental decoder, send/receive exchanges.

The frozen transcript in data/transcript_sim900.txt is the shared oracle:
the encoder must produce its TX bytes, the virtual modem must answer its
RX bytes, and the decoder must turn the RX stream into the expected
events. One file, three implementations held to it.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from smartcar.config import Config
from smartcar.modem import (
    CTRL_Z,
    AtEvent,
    EventKind,
    ModemError,
    ModemSession,
    SendRecord,
    body_command,
    check_body,
    decode_stream,
    fetch_inbound,
    header_command,
    send_sms,
)
from smartcar.sim.clock import SimClock
from smartcar.sim.devices import VirtualModem

TRANSCRIPT = Path(__file__).parent / "data" / "transcript_sim900.txt"
ALERT_BODY = (
    "ACCIDENT DETECTED. Location: 48.117300,11.516667 "
    "https://maps.google.com/?q=48.117300,11.516667"
)


def unescape(text: str) -> bytes:
    return text.encode("latin-1").decode("unicode_escape").encode("latin-1")


def load_transcript():
    entries = []
    for raw in TRANSCRIPT.read_text(encoding="utf-8").splitlines():
        if not raw or raw.startswith("#"):
            continue
        tag, _, payload = raw.partition(" ")
        entries.append((tag, payload))
    return entries


class Tap:
    """A transport that records every write on its way to the modem."""

    def __init__(self, modem):
        self.modem = modem
        self.written: list[bytes] = []

    def write(self, data: bytes) -> int:
        self.written.append(data)
        return self.modem.write(data)

    def read(self) -> bytes:
        return self.modem.read()


class Scripted:
    """A transport whose n-th write queues the n-th canned reply; writes
    past the end of the script get no reply."""

    def __init__(self, *replies: bytes):
        self.replies = list(replies)
        self.written: list[bytes] = []
        self._out = b""

    def write(self, data: bytes) -> int:
        n = len(self.written)
        self.written.append(data)
        if n < len(self.replies):
            self._out += self.replies[n]
        return len(data)

    def read(self) -> bytes:
        out, self._out = self._out, b""
        return out


class Released:
    """A transport that ignores writes and gives out a fixed byte stream,
    one piece per read."""

    def __init__(self, pieces):
        self.pieces = list(pieces)

    def write(self, data: bytes) -> int:
        return len(data)

    def read(self) -> bytes:
        return self.pieces.pop(0) if self.pieces else b""


def fresh_session(clock=None):
    clock = clock or SimClock()
    modem = VirtualModem(clock)
    return modem, ModemSession(transport=modem, clock=clock)


class TestEncode:
    def test_frozen_wire_forms(self):
        assert header_command("+15550001") == b'AT+CMGS="+15550001"\r'
        assert body_command("HI") == b"HI" + CTRL_Z

    def test_ctrl_z_is_sub(self):
        assert CTRL_Z == b"\x1a"

    def test_body_length_cap(self):
        check_body("x" * 160)
        with pytest.raises(ModemError):
            check_body("x" * 161)

    def test_body_printable_only(self):
        with pytest.raises(ModemError):
            check_body("line\nbreak")
        with pytest.raises(ModemError):
            check_body("caf\xe9")

    @given(st.one_of(st.text(), st.text(st.characters(max_codepoint=127)),
                     st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=170)))
    def test_body_check_is_the_per_character_rule(self, body):
        # the rule written out: at most 160 characters, each in 0x20..0x7E;
        # the first one outside is named
        want = None
        if len(body) > 160:
            want = f"SMS body exceeds 160 chars ({len(body)})"
        else:
            for ch in body:
                if not 0x20 <= ord(ch) <= 0x7E:
                    want = f"SMS body contains non-printable character {ch!r}"
                    break
        if want is None:
            check_body(body)
        else:
            with pytest.raises(ModemError) as exc:
                check_body(body)
            assert str(exc.value) == want

    @pytest.mark.parametrize("number", ["1", "+1", "15550100", "+123456789012345"])
    def test_dialable_numbers_encode(self, number):
        assert header_command(number) == f'AT+CMGS="{number}"\r'.encode()

    @pytest.mark.parametrize("number", ["", "+", "++1", "+1555\xe9", "+1555\u20ac", '+1"55',
                                        "+1555 0100", "1555-0100", "+1234567890123456", "\u0661"])
    def test_undialable_numbers_rejected_before_wire(self, number):
        with pytest.raises(ModemError, match="phone number"):
            header_command(number)


class TestGoldenTranscript:
    """Walk the frozen exchange three ways."""

    EXPECTED_EVENTS = [
        AtEvent(EventKind.OK),
        AtEvent(EventKind.OK),
        AtEvent(EventKind.OK),
        AtEvent(EventKind.PROMPT),
        AtEvent(EventKind.LINE),  # +CMGS: 1
        AtEvent(EventKind.OK),
        AtEvent(EventKind.SMS_ARRIVED, index=1),
        AtEvent(EventKind.INBOUND_SMS, sender="+15550100", body="STATUS"),
        AtEvent(EventKind.OK),
        AtEvent(EventKind.ERROR),
        AtEvent(EventKind.ERROR),
    ]

    # the TX lines one send_sms and one fetch_inbound write; None marks the
    # lines the program never sends (AT, AT+IPR, GARBAGE, a second read)
    TX_COMMANDS = [
        None,
        None,
        b"AT+CMGF=1\r",
        header_command("+15550001"),
        body_command(ALERT_BODY),
        b"AT+CMGR=1\r",
        None,
        None,
    ]

    def test_encoder_produces_tx_bytes(self):
        tx_bytes = [unescape(p) for tag, p in load_transcript() if tag == "TX"]
        assert len(tx_bytes) == len(self.TX_COMMANDS)
        for raw, cmd in zip(tx_bytes, self.TX_COMMANDS):
            if cmd is not None:
                assert cmd == raw
        modem = VirtualModem(SimClock())
        tap = Tap(modem)
        session = ModemSession(transport=tap, clock=modem.clock)
        assert send_sms(session, "+15550001", ALERT_BODY, Config()).delivered
        modem.inject_sms("+15550100", "STATUS")
        # the "+CMGS: 1" line before the final OK was consumed by the send
        assert session.poll() == [1]
        fetch_inbound(session, 1, Config())
        assert tap.written == [cmd for cmd in self.TX_COMMANDS if cmd is not None]

    def test_virtual_modem_answers_rx_bytes(self):
        modem = VirtualModem(SimClock())
        for tag, payload in load_transcript():
            if tag == "TX":
                modem.write(unescape(payload))
            elif tag == "INJECT":
                sender, _, body = payload.partition("|")
                modem.inject_sms(sender, body)
            elif tag == "RX":
                assert modem.read() == unescape(payload)

    def rx_stream(self) -> bytes:
        return b"".join(unescape(p) for tag, p in load_transcript() if tag == "RX")

    def test_decoder_yields_expected_events(self):
        events, rest = decode_stream(self.rx_stream())
        assert rest == b""
        assert events == self.EXPECTED_EVENTS

    def test_decoder_invariant_under_chunking(self):
        stream = self.rx_stream()
        rng = random.Random(20250819)
        for _ in range(200):
            cuts = sorted(rng.randrange(len(stream) + 1) for _ in range(rng.randrange(8)))
            events, buf = [], b""
            for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
                buf += stream[lo:hi]
                got, buf = decode_stream(buf)
                events.extend(got)
            got, buf = decode_stream(buf)
            events.extend(got)
            assert buf == b""
            assert events == self.EXPECTED_EVENTS


class TestDecodeStream:
    def test_partial_line_waits(self):
        events, rest = decode_stream(b"\r\nO")
        assert events == []
        events, rest = decode_stream(rest + b"K\r\n")
        assert events == [AtEvent(EventKind.OK)]
        assert rest == b""

    def test_bare_gt_waits_for_prompt_space(self):
        events, rest = decode_stream(b"\r\n>")
        assert events == []
        events, rest = decode_stream(rest + b" ")
        assert events == [AtEvent(EventKind.PROMPT)]

    def test_cmgr_header_held_until_body_complete(self):
        head = b'\r\n+CMGR: "REC UNREAD","+1555","","00/01/01,00:00:00+00"\r\nSTA'
        events, rest = decode_stream(head)
        assert events == []
        events, rest = decode_stream(rest + b"TUS\r\n\r\nOK\r\n")
        assert events == [
            AtEvent(EventKind.INBOUND_SMS, sender="+1555", body="STATUS"),
            AtEvent(EventKind.OK),
        ]

    def test_unrecognized_line_surfaces_as_line_event(self):
        events, _ = decode_stream(b"\r\n+CSQ: 18,0\r\n")
        assert events == [AtEvent(EventKind.LINE)]

    @given(st.lists(st.one_of(
        st.binary(max_size=24),
        st.sampled_from((b"\r\nOK\r\n", b"\r\n> ", b">", b"\r", b"\n", b"+CMGR:",
                         b'\r\n+CMGR: "REC UNREAD","+1",""\r\n', b"BODY\r\n")),
    ), max_size=12))
    def test_remainder_decodes_to_nothing_and_itself(self, chunks):
        # what lets ModemSession skip decoding when no new byte arrived
        rest = b""
        for chunk in chunks:
            _, rest = decode_stream(rest + chunk)
            assert decode_stream(rest) == ([], rest)

    @given(st.binary(max_size=96), st.integers(0, 95))
    def test_split_anywhere_decodes_identically(self, blob, cut):
        cut = min(cut, len(blob))
        whole, whole_rest = decode_stream(blob)
        first, buf = decode_stream(blob[:cut])
        second, split_rest = decode_stream(buf + blob[cut:])
        assert first + second == whole
        assert split_rest == whole_rest


class TestSendSms:
    def test_happy_path_single_attempt(self):
        clock = SimClock()
        modem, session = fresh_session(clock)
        record = send_sms(session, "+15550001", "HELLO", Config())
        assert record == SendRecord(0, "+15550001", "HELLO", True, 1, "")
        assert modem.deliveries == [("+15550001", "HELLO")]
        assert clock.now_ms == 0  # synchronous peer, no waiting

    def test_protocol_order_mode_header_body(self):
        modem = VirtualModem(SimClock())
        tap = Tap(modem)
        send_sms(ModemSession(transport=tap, clock=modem.clock), "+15550001", "HELLO", Config())
        assert tap.written == [b"AT+CMGF=1\r", b'AT+CMGS="+15550001"\r', b"HELLO\x1a"]

    def test_error_twice_then_delivered(self):
        clock = SimClock()
        modem, session = fresh_session(clock)
        modem.arm_error_once()
        modem.arm_error_once()
        outcome = send_sms(session, "+15550001", "HELLO", Config())
        assert outcome.delivered and outcome.attempts == 3
        assert clock.now_ms == 2 * Config().sms_retry_backoff_ms
        assert modem.deliveries == [("+15550001", "HELLO")]

    def test_silent_modem_exhausts_retries(self):
        clock = SimClock()
        modem, session = fresh_session(clock)
        modem.silence_for(10**6)
        cfg = Config()
        outcome = send_sms(session, "+15550001", "HELLO", cfg)
        assert not outcome.delivered
        assert outcome.attempts == cfg.sms_retry_max + 1
        assert outcome.reason == "timeout"
        assert modem.deliveries == []
        # 4 attempts time out on the first stage; 3 backoffs in between
        expected = 4 * cfg.sms_ok_timeout_ms + 3 * cfg.sms_retry_backoff_ms
        assert clock.now_ms == expected
        assert outcome.t_ms == expected  # stamped when the sequence ends

    def test_silence_mid_run_recovers(self):
        clock = SimClock()
        modem, session = fresh_session(clock)
        modem.silence_for(6000)  # first attempt times out, second one lands
        outcome = send_sms(session, "+15550001", "HELLO", Config())
        assert outcome.delivered and outcome.attempts == 2
        assert clock.now_ms == 7000  # 5000 timeout + 2000 backoff

    def test_attempt_count_tracks_armed_errors(self):
        cfg = Config()
        for armed in range(7):
            modem, session = fresh_session()
            for _ in range(armed):
                modem.arm_error_once()
            outcome = send_sms(session, "+1", "X", cfg)
            assert outcome.delivered == (armed <= cfg.sms_retry_max)
            assert outcome.attempts == min(armed + 1, cfg.sms_retry_max + 1)

    def test_oversize_body_rejected_before_wire(self):
        modem = VirtualModem(SimClock())
        tap = Tap(modem)
        with pytest.raises(ModemError):
            send_sms(ModemSession(transport=tap, clock=modem.clock), "+1", "y" * 161, Config())
        assert tap.written == []

    def test_undialable_destination_never_delivered(self):
        modem, session = fresh_session()
        with pytest.raises(ModemError, match="phone number"):
            send_sms(session, '+1"55', "X", Config())
        assert modem.deliveries == []

    def test_exact_160_goes_through(self):
        modem, session = fresh_session()
        outcome = send_sms(session, "+1", "z" * 160, Config())
        assert outcome.delivered
        assert modem.deliveries[0][1] == "z" * 160


class TestInbound:
    def test_fetch_round_trip(self):
        modem, session = fresh_session()
        modem.inject_sms("+15550100", "STATUS")
        slots = session.poll()
        assert slots == [1]
        sms = fetch_inbound(session, slots[0], Config())
        assert (sms.sender, sms.body) == ("+15550100", "STATUS")

    def test_slot_consumed_after_read(self):
        modem, session = fresh_session()
        modem.inject_sms("+1", "PING")
        (slot,) = session.poll()
        fetch_inbound(session, slot, Config())
        with pytest.raises(ModemError):
            fetch_inbound(session, slot, Config())  # same slot again: modem says ERROR

    def test_read_does_not_stall_the_clock(self):
        clock = SimClock()
        modem, session = fresh_session(clock)
        modem.inject_sms("+1", "PING")
        (slot,) = session.poll()
        fetch_inbound(session, slot, Config())
        assert clock.now_ms == 0  # trailing OK consumed without a timeout jump

    def test_read_times_out_after_the_configured_wait(self):
        clock = SimClock()
        modem, session = fresh_session(clock)
        modem.inject_sms("+1", "PING")
        (slot,) = session.poll()
        modem.silence_for(10**6)
        with pytest.raises(ModemError):
            fetch_inbound(session, slot, Config(sms_ok_timeout_ms=1234))
        assert clock.now_ms == 1234

    def test_notification_parks_during_send(self):
        modem, session = fresh_session()
        slot = modem.inject_sms("+15550100", "LOC")  # arrives before the send starts
        outcome = send_sms(session, "+15550001", "HELLO", Config())
        assert outcome.delivered
        assert session.poll() == [slot]


class TestUnsolicited:
    """Only a +CMTI arrival outlives the exchange it was decoded in."""

    def test_poll_returns_only_arrivals(self):
        transport = Scripted(b'\r\n+CSQ: 18,0\r\n\r\nOK\r\n\r\n+CMTI: "SM",3\r\n')
        transport.write(b"AT+CSQ\r")  # answered outside any exchange
        session = ModemSession(transport=transport, clock=SimClock())
        assert session.poll() == [3]

    def test_unrelated_lines_do_not_answer(self):
        # a status line and an arrival come back, but no OK: the exchange
        # times out after exactly its wait and the arrival waits for poll()
        transport = Scripted(b'\r\n+CSQ: 18,0\r\n\r\n+CMTI: "SM",4\r\nRING\r\n')
        clock = SimClock()
        session = ModemSession(transport=transport, clock=clock)
        assert session.ask(b"AT+CMGF=1\r", EventKind.OK, 5000) is None
        assert clock.now_ms == 5000
        assert session.poll() == [4]

    def test_late_prompt_does_not_answer_a_later_header(self):
        # the second CMGF gets the prompt the first header never got; it
        # must not make the second header look answered
        transport = Scripted(b"\r\nOK\r\n", b"", b"\r\n> \r\nOK\r\n", b"")
        session = ModemSession(transport=transport, clock=SimClock())
        outcome = send_sms(session, "+1", "X", Config(sms_retry_max=1))
        assert not outcome.delivered
        assert outcome.reason == "timeout"
        assert not any(CTRL_Z in data for data in transport.written)

    @given(
        lines=st.lists(st.one_of(
            st.integers(0, 999),
            st.sampled_from((b"\r\nOK\r\n", b"\r\nERROR\r\n", b"\r\n> ", b"\r\n+CSQ: 18,0\r\n",
                             b"\r\nRING\r\n", b"\r\n+CMGS: 7\r\n", b"\r\n>x\r\n")),
        ), max_size=40),
        calls=st.lists(st.sampled_from(("poll", "send", "fetch")), max_size=12),
        data=st.data(),
    )
    def test_each_arrival_is_polled_once_in_order(self, lines, calls, data):
        arrivals = [line for line in lines if isinstance(line, int)]
        stream = b"".join(
            b'\r\n+CMTI: "SM",%d\r\n' % line if isinstance(line, int) else line for line in lines
        )
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=20)))
        transport = Released(stream[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(stream)]))
        session = ModemSession(transport=transport, clock=SimClock())
        cfg = Config(sms_retry_max=1)
        polled = []
        for call in calls:
            if call == "poll":
                polled += session.poll()
            elif call == "send":
                send_sms(session, "+1", "X", cfg)
            else:
                with pytest.raises(ModemError):  # the stream holds no +CMGR answer
                    fetch_inbound(session, 1, cfg)
        while transport.pieces:
            polled += session.poll()
        polled += session.poll()
        assert polled == arrivals
