"""The whole CLI is total: any scenario and config text, and any
`--until-ms`, ends in a documented exit code (run: 0, 1 or 2; check: 0 or
1), never a traceback. An `--until-ms` off the integer grammar or below 0
is an argument error and exits 1.

Scenario lines mix the grammar's words with odd arguments and raw text;
the scenario file is written as UTF-8 with surrogates passed through, so
some files are not UTF-8 at all. Config lines mix real and unknown keys
with odd values. Config numbers stay small: a huge sms_retry_max against
a silent modem loops for a long time without failing.

The default hypothesis profile runs here; `--hypothesis-profile=long`
(tests/conftest.py) runs many more examples.
"""


import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from smartcar.cli import main
from smartcar.config import Config

RMC = "$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A"
WORDS = ("impact", "panic", "alcohol", "rain", "cabin", "gps", "sms", "modem_fault")
# integers off the grammar (a '+', '_' or non-ASCII digits) sit next to the edges
INT_FORMS = ("+1", "+3", "1_0", "+1_0", "1_000", "١", "٣")
# decimals off the grammar: the same forms, an exponent, and a bare '.' on either side
DECIMAL_FORMS = ("2_1", "5_0", "٢١", "+50", "1e1", "21.", ".5")
ODD_TEXT = ("", "x", "-1", "0", "1", "2", "1.0", "1023", "1024", "nan", "inf", "-0.5", "1e999",
            "1e300", "85.1", "-40.1", "+15550100", "STATUS", "error_once", "silent_for", "\xe9",
            "€", RMC) + INT_FORMS + DECIMAL_FORMS

raw = st.text(max_size=30)
times = st.integers(0, 10_000)
valid_line = st.tuples(times, st.one_of(
    st.tuples(st.sampled_from(("impact", "panic")), st.sampled_from(("0", "1"))).map(" ".join),
    st.integers(0, 1023).map(lambda v: f"alcohol {v}"),
    st.tuples(st.integers(0, 1), st.integers(0, 1023)).map(lambda p: f"rain {p[0]} {p[1]}"),
    st.tuples(st.floats(allow_nan=True), st.floats(0, 100)).map(
        lambda p: f"cabin {p[0]:.1f} {p[1]:.1f}"
    ),
    st.just(f"gps {RMC}"),
    st.sampled_from(("STATUS", "TEMP", "HUM", "LOC", "HELP", "ping")).map(
        lambda body: f"sms +15550100 {body}"
    ),
    st.just("modem_fault error_once"),
    st.integers(1, 5000).map(lambda ms: f"modem_fault silent_for {ms}"),
)).map(lambda p: f"t={p[0]} {p[1]}")
# level words with the right number of arguments at and just past their ranges
LEVEL_ARITY = {"impact": 1, "panic": 1, "alcohol": 1, "rain": 2, "cabin": 2}
edge = st.one_of(
    st.integers(-2, 2).map(str),
    st.integers(1021, 1025).map(str),
    st.sampled_from(("nan", "inf", "-0.5", "99.5", "100.5", "1.0", "-40.1", "85.1", "1e300")),
    st.sampled_from(INT_FORMS + DECIMAL_FORMS),
)
edge_line = st.sampled_from(sorted(LEVEL_ARITY)).flatmap(
    lambda w: st.tuples(times, st.lists(edge, min_size=LEVEL_ARITY[w], max_size=LEVEL_ARITY[w]))
    .map(lambda p: f"t={p[0]} {w} " + " ".join(p[1]))
)
arg = st.one_of(st.sampled_from(ODD_TEXT), st.integers(-5, 2000).map(str), raw)
grammar_line = st.tuples(
    st.one_of(st.integers(0, 10_000).map(str), st.sampled_from(("", "-5", "1.5", "x") + INT_FORMS)),
    st.sampled_from(WORDS + ("bogus",)),
    st.lists(arg, max_size=3),
).map(lambda p: " ".join([f"t={p[0]}", p[1], *p[2]]))
# well-formed lines and one odd line, so that many examples get past parsing
scenario_text = st.tuples(
    st.lists(valid_line, max_size=10), st.one_of(edge_line, grammar_line, raw)
).map(lambda p: "\n".join(p[0] + [p[1]]))

KEYS = Config.__slots__ + ("bogus_key", "TICK_MS", "")
value = st.one_of(
    st.integers(-3, 60).map(str),
    st.sampled_from(("100", "450", "1023", "5000", "30000", "", "x", "1e3", " 7 ",
                     "+15550100", "+1555\xe9", "9" * 5000) + INT_FORMS),
    raw,
)
config_line = st.one_of(
    st.tuples(st.sampled_from(KEYS), value).map(lambda p: f"{p[0]} = {p[1]}"),
    raw,
)
config_text = st.lists(config_line, max_size=8).map("\n".join)


@settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    scenario=scenario_text,
    config=config_text,
    until_ms=st.one_of(st.none(), st.integers(-1000, 40_000).map(str), st.sampled_from(INT_FORMS)),
)
def test_cli_exits_with_a_documented_code(tmp_path, scenario, config, until_ms):
    scenario_path = tmp_path / "scenario.txt"
    config_path = tmp_path / "config.cfg"
    report_path = tmp_path / "report.txt"
    scenario_path.write_bytes(scenario.encode("utf-8", "surrogatepass"))
    config_path.write_bytes(config.encode("utf-8", "surrogatepass"))
    argv = ["run", "--scenario", str(scenario_path), "--config", str(config_path),
            "--report", str(report_path)]
    if until_ms in INT_FORMS or until_ms is not None and until_ms.startswith("-"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--until-ms", until_ms])
        assert exc.value.code == 1
    else:
        if until_ms is not None:
            argv += ["--until-ms", until_ms]
        assert main(argv) in (0, 1, 2)
    assert main(["check", "--scenario", str(scenario_path)]) in (0, 1)
