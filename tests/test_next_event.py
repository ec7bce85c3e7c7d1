"""Next-event time advance against a visit-every-tick reference.

The executor applies the ticks between two visits without visiting
them; smartcar.sim.runner's module docstring states the rule. Under
helpers.every_tick() it visits every tick, as a plain polled loop does.
The two runs of one generated scenario must give byte-identical
reports.

Scenarios mix off-grid event times, odd tick lengths, modem faults that
move the clock off the tick grid during a send, impact held high past
the refractory period, alcohol levels at the interlock thresholds, all
rain bands and alerts that wait out gps_wait_ms without a fix. Timing
keys are shrunk so a scenario stays short. GPS lines are folded into
the controller between visits while no alert is pending; a focused
property drives that path with GPS streams at 1-10 Hz.

The default hypothesis profile runs here; `--hypothesis-profile=long`
(tests/conftest.py) runs many more examples.
"""

from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from smartcar.cli import DEFAULT_TAIL_MS
from smartcar.config import Config, load_config_file
from smartcar.controller import WIPER_PERIOD_MS, AlcoholInterlock, WiperMode
from smartcar.sim.devices import SensorBoard
from smartcar.sim.runner import _Executor, run
from smartcar.sim.scenario import load_scenario, load_scenario_file

from helpers import PINNED, every_tick, printed_records

GPS_LINES = (
    "$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A",
    "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47",
    "$GPRMC,123519,V,,,,,,,230394,,*00",  # bad checksum
    # checksums hold, but update_fix rejects each: void, no fix, unsupported
    "$GPRMC,123519,V,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*7D",
    "$GPGGA,123519,4807.038,N,01131.000,E,0,00,,,M,,M,,*52",
    "$GPGSV,1,1,01,01,40,083,46*44",
)
ALCOHOL_LEVELS = (0, 50, 399, 400, 401, 449, 450, 451, 1023)
RAIN_LEVELS = (0, 1, 300, 301, 700, 701, 1023)
BODIES = ("STATUS", "TEMP", "HUM", "LOC", "HELP", "PING")
HORIZON_MS = 6000
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

times = st.integers(0, HORIZON_MS)


def pulse(word):
    """A level raised at t and dropped after a hold of 1 ms to 3 s."""
    return st.tuples(times, st.integers(1, 3000)).map(
        lambda p: [(p[0], f"{word} 1"), (p[0] + p[1], f"{word} 0")]
    )


def single(line):
    return st.tuples(times, line).map(lambda p: [p])


# a fault armed just before a query or a panic press, so the send that
# answers it moves the clock off the tick grid
faults = st.one_of(
    st.just("modem_fault error_once"),
    st.integers(1, 3000).map(lambda ms: f"modem_fault silent_for {ms}"),
)
triggers = st.one_of(
    st.sampled_from(BODIES).map(lambda body: [(0, f"sms +15550100 {body}")]),
    st.just([(0, "panic 1"), (100, "panic 0")]),
)


def faulty_send(at):
    return st.tuples(at, faults, triggers).map(
        lambda p: [(p[0], p[1])] + [(p[0] + dt, text) for dt, text in p[2]]
    )


events = st.one_of(
    pulse("impact"),
    pulse("panic"),
    single(st.one_of(st.sampled_from(ALCOHOL_LEVELS), st.integers(0, 1023)).map(
        lambda v: f"alcohol {v}"
    )),
    single(st.tuples(st.integers(0, 1), st.one_of(st.sampled_from(RAIN_LEVELS), st.integers(0, 1023))).map(
        lambda r: f"rain {r[0]} {r[1]}"
    )),
    single(st.sampled_from(GPS_LINES).map(lambda line: f"gps {line}")),
    single(st.sampled_from(BODIES).map(lambda body: f"sms +15550100 {body}")),
    single(faults),
    faulty_send(times),
)

configs = st.builds(
    Config,
    tick_ms=st.sampled_from((1, 7, 10, 25)),
    impact_window_ms=st.integers(1, 200),
    impact_min_high=st.integers(1, 6),
    impact_refractory_ms=st.integers(1, 2000),
    panic_refractory_ms=st.integers(1, 2000),
    gps_stale_ms=st.integers(1, 3000),
    gps_wait_ms=st.integers(1, 3000),
    sms_retry_max=st.integers(0, 2),
    sms_retry_backoff_ms=st.integers(1, 2500),
    sms_ok_timeout_ms=st.integers(1, 2000),
)


def run_skipping_and_every_tick(events, config, until_ms):
    """The report of the events as run, and as run visiting every tick."""
    skipping = run(events, config, until_ms).serialize()
    with every_tick():
        reference = run(events, config, until_ms).serialize()
    return skipping, reference


def assert_skipping_matches_every_tick(groups, config, tail_ms):
    scenario = "\n".join(f"t={t} {text}" for group in groups for t, text in group)
    until_ms = max((t for group in groups for t, _ in group), default=0) + tail_ms
    skipping, reference = run_skipping_and_every_tick(load_scenario(scenario), config, until_ms)
    assert skipping == reference


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    groups=st.lists(events, max_size=12),
    config=configs,
    tail_ms=st.integers(0, 4000),
)
def test_skipping_ticks_matches_visiting_every_tick(groups, config, tail_ms):
    assert_skipping_matches_every_tick(groups, config, tail_ms)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rain_ms=times,
    level=st.integers(0, 300),
    sends=st.lists(faulty_send(st.integers(0, WIPER_PERIOD_MS[WiperMode.INTERMITTENT])), min_size=1, max_size=3),
    config=configs,
    tail_ms=st.integers(0, 4000),
)
def test_intermittent_wiper_across_off_grid_sends(rain_ms, level, sends, config, tail_ms):
    # a send that blocks from the sweep into the rest phase leaves the
    # servo up: the first rest tick must still bring it down to 0. The
    # sends are timed from the start of the first intermittent cycle.
    shifted = [[(rain_ms + t, text) for t, text in group] for group in sends]
    assert_skipping_matches_every_tick([[(rain_ms, f"rain 1 {level}")], *shifted], config, tail_ms)


# a send or read that blocks on the silent modem from 1,500 into the
# intermittent wiper's rest phase (2,000-4,000), and the tick after it:
# a query's read times out at 2,734; a panic alert's first attempt times
# out at 2,734 and its retry, after the 777 ms backoff, is answered at 3,511
BLOCKED_FROM_MID_SWEEP = {
    "read": ("t=1500 modem_fault silent_for 1000\nt=1500 sms +15550100 STATUS", 2744),
    "alert": (
        f"t=0 gps {GPS_LINES[0]}\nt=1500 modem_fault silent_for 1000\nt=1500 panic 1",
        3521,
    ),
}


@pytest.mark.parametrize("name", sorted(BLOCKED_FROM_MID_SWEEP))
def test_tick_after_a_blocking_send_is_a_visit(name):
    # the frame at 1500 sets the servo to 85 degrees (the alert's send
    # blocks before that step is written); the tick after the block is
    # a visit, whose frame brings the servo down to 0, and the sweep
    # that follows starts on the tick after that frame
    block, after = BLOCKED_FROM_MID_SWEEP[name]
    scenario = f"t=0 rain 1 100\n{block}"
    config = Config(sms_ok_timeout_ms=1234, sms_retry_backoff_ms=777)
    skipping, reference = run_skipping_and_every_tick(load_scenario(scenario), config, 6000)
    assert skipping == reference
    executor = _Executor(load_scenario(scenario), config, 6000)
    sample, sampled = executor.board.sample, []
    executor.board.sample = lambda: sampled.append(executor.clock.now_ms) or sample()
    assert executor.run().serialize() == skipping
    assert " wiper mode=INTERMITTENT angle=85.0\n" in skipping
    assert f"\nA t={after} wiper mode=INTERMITTENT angle=0.0\n" in skipping
    assert after in sampled


@st.composite
def gps_scenarios(draw):
    """A GPS stream at 1-10 Hz from an off-grid start, with a fix that
    goes stale between two lines; impacts and panic presses before its
    first line, so their alerts wait for a fix or for gps_wait_ms; LOC
    queries and panic presses just around the tick a line's fix goes
    stale; and faulted sends anywhere. Returns the groups and a config."""
    start = draw(st.integers(1, HORIZON_MS))
    period = draw(st.integers(100, 1000))
    stale_ms = draw(st.integers(1, period))
    texts = draw(st.lists(st.sampled_from(GPS_LINES), min_size=1, max_size=HORIZON_MS // period + 1))
    stream = [(start + k * period, f"gps {text}") for k, text in enumerate(texts)]
    early = st.integers(0, start - 1)
    # a line's time, plus its stale window and up to 30 ms
    going_stale = st.tuples(st.integers(0, len(texts) - 1), st.integers(0, 30)).map(
        lambda p: start + p[0] * period + stale_ms + p[1]
    )
    groups = draw(st.lists(st.one_of(
        st.tuples(early, st.integers(1, 300)).map(lambda p: [(p[0], "impact 1"), (p[0] + p[1], "impact 0")]),
        st.tuples(early, st.integers(1, 300)).map(lambda p: [(p[0], "panic 1"), (p[0] + p[1], "panic 0")]),
        going_stale.map(lambda t: [(t, "sms +15550100 LOC")]),
        going_stale.map(lambda t: [(t, "panic 1"), (t + 1, "panic 0")]),
        faulty_send(times),
    ), max_size=6))
    config = draw(configs)._replace(gps_stale_ms=stale_ms)
    return [stream, *groups], config


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=gps_scenarios(), tail_ms=st.integers(0, 2000))
def test_folding_gps_lines_matches_visiting_every_tick(scenario, tail_ms):
    # a fix stepped a tick late goes stale a tick late, and a line folded
    # while an alert waits for it releases the alert late
    groups, config = scenario
    assert_skipping_matches_every_tick(groups, config, tail_ms)


@pytest.mark.parametrize("label", [label for label, drive in PINNED.items() if drive.every_tick])
def test_pinned_drive_matches_visiting_every_tick(label):
    skipping, reference = run_skipping_and_every_tick(*PINNED[label].build())
    # name the first lines that differ: a diff of two whole reports of
    # ~2 MB takes pytest minutes
    lines = zip(skipping.split("\n"), reference.split("\n"))
    assert next((pair for pair in lines if pair[0] != pair[1]), None) is None
    assert skipping == reference


def test_send_that_blocks_past_the_end_leaves_no_gap():
    # the reply's send waits out the silent modem past until_ms=0, so
    # the clock stands beyond the run's last tick: the gap after that
    # visit is empty, and no wiper line follows the run's end
    groups = [[(0, "rain 1 0"), (0, "modem_fault silent_for 1"), (0, "sms +15550100 STATUS")]]
    assert_skipping_matches_every_tick(groups, Config(tick_ms=1, sms_ok_timeout_ms=1), 0)


def test_gps_lines_alone_are_not_sampled():
    # no alert waits for a fix, so each line is folded into the
    # controller between visits, on the tick a visit would have had
    scenario = "\n".join(f"t={t} gps {GPS_LINES[1]}" for t in range(0, 60_000, 100))
    counted = mock.patch.object(SensorBoard, "sample", autospec=True, side_effect=SensorBoard.sample)
    with counted as sample:
        report = run(load_scenario(scenario), Config(), 60_000)
    assert sample.call_count <= 3
    assert report.counters.sentences_parsed == 600


def test_only_consumed_gps_lines_are_counted():
    # the STATUS reply's read and send wait on the silent modem until
    # past until_ms, so neither line is stepped or folded, and neither is
    # counted; counting every scripted line would give 1 and 1
    scenario = "\n".join([
        "t=0 modem_fault silent_for 100000",
        "t=0 sms +15550100 STATUS",
        f"t=500 gps {GPS_LINES[1]}",
        f"t=600 gps {GPS_LINES[2]}",
    ])
    text = run(load_scenario(scenario), Config(), 1000).serialize()
    assert "\nC sentences_parsed=0\nC checksum_failures=0\n" in text


def test_fold_walks_past_a_rejected_newest_line_to_the_fix():
    # both lines are folded before the query's visit, newest first: the
    # void RMC passes its checksum but sets no fix, so the fold must step
    # on to the older line rather than stop at the first valid checksum
    scenario = "\n".join([
        f"t=1000 gps {GPS_LINES[0]}",
        f"t=1500 gps {GPS_LINES[3]}",
        "t=2000 sms +15550100 LOC",
    ])
    report = run(load_scenario(scenario), Config(), 3000)
    text = report.serialize()
    assert "A t=2000 reply dest=+15550100 body=LOC=48.117300,11.516667 " in text
    assert "\nC sentences_parsed=2\n" in text


def test_gps_line_due_during_a_blocked_send_waits_for_the_next_tick():
    # the accident alert waits for the 2 s fix, and its send blocks on a
    # silent modem until t=28000, past the 3 s line; that line is due
    # during the block, so it is stepped on the next tick, 28010, and its
    # fix is still fresh for the LOC query at 33005 (gps_stale_ms=5000).
    # Stepped at 28000, inside the visit whose send blocked, the fix
    # would be 5005 ms old and the reply LOC=UNKNOWN.
    scenario = "\n".join([
        "t=0 impact 1",
        "t=100 impact 0",
        "t=1000 modem_fault silent_for 30000",
        f"t=2000 gps {GPS_LINES[0]}",
        f"t=3000 gps {GPS_LINES[0]}",
        "t=33005 sms +15550100 LOC",
    ])
    config = load_config_file(str(SCENARIOS / "default.cfg"))
    records = printed_records(run(load_scenario(scenario), config, 40_000))
    assert ("S", 28000) in [(r.tag, r.t_ms) for r in records]
    replies = [r for r in records if r.tag == "A" and r.text.startswith("reply ")]
    assert [(r.t_ms, r.text.split()[2]) for r in replies] == [(33010, "body=LOC=48.117300,11.516667")]


def test_sweeping_wiper_is_not_sampled():
    # the report cannot tell a swept tick from a visited one, so count
    # the visits: a wiper moving alone must not make the executor sample
    # the board on every tick
    config = Config()
    counted = mock.patch.object(SensorBoard, "sample", autospec=True, side_effect=SensorBoard.sample)
    with counted as sample:
        report = run(load_scenario("t=0 rain 1 900"), config, 60_000)
    assert sample.call_count <= 3
    wiper_lines = [r for r in printed_records(report) if r.text.startswith("wiper mode=HIGH ")]
    assert len(wiper_lines) == 60_000 // config.tick_ms + 1  # one step on every tick 0..60,000


def test_settling_alcohol_is_not_sampled():
    # a breath sample over the limit and a sober one: the EMA moves for
    # hundreds of ticks after each, but only its flips of the engine line
    # need a visit; the updates in between are coasted
    config = load_config_file(str(SCENARIOS / "default.cfg"))
    events = load_scenario_file(str(SCENARIOS / "drunk_start.txt"))
    counted = mock.patch.object(SensorBoard, "sample", autospec=True, side_effect=SensorBoard.sample)
    with counted as sample:
        report = run(events, config, events[-1].t_ms + DEFAULT_TAIL_MS)
    assert sample.call_count <= 8
    engine = [r.text for r in printed_records(report) if r.text.startswith("engine ")]
    assert engine == ["engine enabled=no", "engine enabled=yes"]


def test_breath_tests_during_10_hz_gps_evaluate_the_ema_no_more_than_every_tick():
    # a visit every 100 ms while the EMA moves: a visit must not work the
    # stretch out again, so skipping evaluates the EMA no more often than
    # visiting every tick does (the every-tick executor made 8,524 calls)
    gps = [f"t={t} gps {GPS_LINES[1]}" for t in range(0, 60_000, 100)]
    breaths = [f"t={t} alcohol {v}" for t, v in ((1000, 1023), (15000, 5), (30000, 700), (45000, 0))]
    scenario = "\n".join(sorted(gps + breaths, key=lambda line: int(line.split()[0][2:])))
    config = Config()
    smoothed = mock.patch.object(
        AlcoholInterlock, "smoothed", autospec=True, side_effect=AlcoholInterlock.smoothed
    )
    with smoothed as skipping_calls:
        skipping = run(load_scenario(scenario), config, 90_000).serialize()
    with smoothed as every_tick_calls, every_tick():
        reference = run(load_scenario(scenario), config, 90_000).serialize()
    assert skipping == reference
    assert skipping_calls.call_count <= every_tick_calls.call_count


def test_a_settling_stretch_evaluates_each_update_once():
    # 449 settles just short of the threshold, so the coast after the
    # visit at 100 runs to the fixed point and no flip ends it: each
    # update the every-tick reference makes that changes the EMA is
    # evaluated once, and each visit adds its own
    scenario, config = "t=0 alcohol 0\nt=100 alcohol 449", Config()
    smoothed = mock.patch.object(
        AlcoholInterlock, "smoothed", autospec=True, side_effect=AlcoholInterlock.smoothed
    )
    sampled = mock.patch.object(SensorBoard, "sample", autospec=True, side_effect=SensorBoard.sample)
    with smoothed as calls, sampled as visits:
        skipping = run(load_scenario(scenario), config, 60_000).serialize()
    update, changes = AlcoholInterlock.update, []

    def counting_update(self, raw):
        ema = self.ema
        flipped = update(self, raw)
        changes.append(self.ema != ema)
        return flipped

    with mock.patch.object(AlcoholInterlock, "update", counting_update), every_tick():
        reference = run(load_scenario(scenario), config, 60_000).serialize()
    assert skipping == reference
    assert len(changes) == 60_000 // config.tick_ms + 1
    assert calls.call_count <= sum(changes) + visits.call_count
