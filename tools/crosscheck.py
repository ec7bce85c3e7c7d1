"""Check the pinned report digests on each given Python, without pytest.

    python3 tools/crosscheck.py
    python3 tools/crosscheck.py python3.10 python3.12 /usr/bin/python3

With no argument it checks the interpreter that runs it. For each
interpreter a `python -I -B` child imports the program from src/ (and
bench/workloads.py by path), so neither the environment, site-packages
nor an installed copy of the program is seen, and no file is written
outside a temporary directory the child removes. The child runs:

- each bundled scenario with scenarios/default.cfg, as `smartcar run`
  does;
- each benchmark drive of bench/workloads.py at each pinned seed;
- nmea.checksums_ok against nmea.split_frame, one line at a time, over
  every GPS line of those drives and the edge lines of CHECKSUM_EDGES;
- the hour of rain at each pinned tick length;
- the drive of short rain spells of tests/helpers.py (imported by path)
  at each pinned tick length, and the same with faulted queries;
- `smartcar check` and `smartcar run` on each malformed scenario of
  MALFORMED, and `smartcar run` on each malformed config;
- the ten minutes of rain of test_report_holds_its_text_about_once
  under `tracemalloc`, as that test does.

It hashes each serialized report. The digests it must give are read
from the tests with `ast.literal_eval`, so each digest has one home:
GOLDEN_SHA256, WORKLOAD_SHA256, SPELLS_SHA256 and BLOCKED_SPELLS_SHA256
(with SPELLS_SEED) in
tests/test_golden_reports.py and HOUR_OF_RAIN_SHA256 (with the drive,
HOUR_OF_RAIN) in tests/test_controller.py. Each malformed input
must exit 1. The memory held after the drive and its peak, as multiples
of the report's size, must not exceed HELD_PER_REPORT and
PEAK_PER_REPORT, read with the drive from tests/test_scenario.py. The
result is one table, a row per report, command, ratio or the checksum
comparison and a column per interpreter; the exit status is 1 if any
digest or exit code differs, any ratio exceeds its bound, checksums_ok
disagrees with split_frame or any child fails, else 0.
Stdlib only.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMORY_HELD, MEMORY_PEAK = "memory held / report size", "memory peak / report size"
CHECKSUMS = "checksums_ok = split_frame"
# lines on each edge of split_frame's rule: too short, no '$', one or three
# digits, '*' in the body, either case, a run of CR/LF, an inner newline,
# NUL, latin-1 and astral characters, trailing text, past 255 characters
CHECKSUM_EDGES = (
    "", "$", "$*", "*00", "$*0", "$*00", "$*000", "$A*B*29", "$A*B*2G", "$J*4a", "$J*4A", "$J*4b",
    "$*00\r\n\r\n", "$\n*0A", "\0$*00", "$\0*00", "$\xe9*E9", "$\U0001f600*00", "$A*41 ",
    "$" + "A" * 301 + "*41", "$" + "A" * 301 + "*40",
)
# (file kind, its bytes): inputs that tests/test_scenario.py's TestCli and
# tests/test_config.py pin as rejected with a named line or key
MALFORMED = (
    ("scenario", b"t=10 impact 5\n"),
    ("scenario", b"t=+3 panic 1\n"),
    ("scenario", b"t=100 alcohol 1_000\n"),
    ("scenario", "t=1000 sms +1555\u20ac STATUS\n".encode()),
    ("scenario", b"t=1000 impact 1\n# caf\xe9\n"),
    ("config", b"impact_min_high = many\n"),
    ("config", b"alcohol_threshold = 5000\nalcohol_release = 4000\n"),
    ("config", b"tick_ms = +1_0\n"),
    ("config", b"tick_ms = 10\n\xff\n"),
)


def _child() -> None:
    """Print each job's report digest; the jobs come as JSON on stdin."""
    import hashlib
    import importlib.util

    job = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    from smartcar.cli import DEFAULT_TAIL_MS
    from smartcar.config import Config, load_config, load_config_file
    from smartcar.nmea import checksums_ok, split_frame
    from smartcar.sim.runner import run
    from smartcar.sim.scenario import GpsLine, load_scenario, load_scenario_file

    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    spec = importlib.util.spec_from_file_location("test_helpers", ROOT / "tests" / "helpers.py")
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)

    def digest(events, config, until_ms) -> str:
        return hashlib.sha256(run(events, config, until_ms).serialize().encode("utf-8")).hexdigest()

    out = {}
    default = load_config_file(ROOT / "scenarios" / "default.cfg")
    for name in job["bundled"]:
        events = load_scenario_file(ROOT / "scenarios" / f"{name}.txt")
        out[f"bundled {name}"] = digest(events, default, events[-1].t_ms + DEFAULT_TAIL_MS)
    lines = list(CHECKSUM_EDGES)
    for seed, names in job["workloads"].items():
        for name in names:
            w = workloads.GENERATORS[name](int(seed))
            events = load_scenario(w.scenario)
            lines += [ev.text for ev in events if type(ev) is GpsLine]
            out[f"workload {name} seed={seed}"] = digest(events, load_config(w.config), w.until_ms)
    out[CHECKSUMS] = checksums_ok(lines) == bytes(split_frame(line)[1] for line in lines)
    scenario, until_ms = job["hour_of_rain_drive"]
    for tick_ms in job["hour_of_rain"]:
        out[f"hour of rain tick_ms={tick_ms}"] = digest(
            load_scenario(scenario), Config(tick_ms=int(tick_ms)), until_ms
        )
    spells, until_ms = helpers.rain_spells(job["spells_seed"])
    for tick_ms in job["spells"]:
        out[f"rain spells tick_ms={tick_ms}"] = digest(
            load_scenario(spells), Config(tick_ms=int(tick_ms)), until_ms
        )
    blocked, until_ms = helpers.blocked_rain_spells(job["spells_seed"])
    for tick_ms in job["blocked_spells"]:
        config = Config(tick_ms=int(tick_ms), **helpers.BLOCKED_SPELLS_CONFIG)
        out[f"blocked rain spells tick_ms={tick_ms}"] = digest(load_scenario(blocked), config, until_ms)
    out.update(_exit_codes())
    out.update(_report_memory(*job["report_memory"]))
    print(json.dumps({"version": sys.version.split()[0], "results": out}))


def _report_memory(scenario: str, until_ms: int) -> dict[str, float]:
    """The memory held after the drive and its peak under tracemalloc,
    each divided by the report's size; a warm-up drive first builds the
    wiper's cycle tables, which outlive it."""
    import tracemalloc

    from smartcar.config import Config
    from smartcar.sim.runner import run
    from smartcar.sim.scenario import load_scenario

    run(load_scenario(scenario), Config(), until_ms)
    events = load_scenario(scenario)
    tracemalloc.start()
    try:
        report = run(events, Config(), until_ms)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = len(report.serialize())
    return {MEMORY_HELD: held / size, MEMORY_PEAK: peak / size}


def _exit_codes() -> dict[str, int]:
    """The exit code of each command on each MALFORMED input, from
    smartcar.cli.main with its output swallowed."""
    import contextlib
    import io
    import tempfile

    from smartcar.cli import main

    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        good = {"scenario": Path(tmp) / "good.txt", "config": Path(tmp) / "good.cfg"}
        good["scenario"].write_text("t=0 impact 0\n")
        good["config"].write_text("")
        for label, command, kind, data in _exit_cases():
            paths = dict(good, **{kind: Path(tmp) / f"bad.{kind}"})
            paths[kind].write_bytes(data)
            argv = [command, "--scenario", str(paths["scenario"])]
            if command == "run":
                argv += ["--config", str(paths["config"])]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes[label] = main(argv)
    return codes


def _exit_cases():
    """Each row's label, command, file kind and bytes: a malformed
    scenario under check and run, a malformed config under run alone,
    since check reads no config."""
    for kind, data in MALFORMED:
        for command in ("check", "run") if kind == "scenario" else ("run",):
            yield f"exit {command} {kind} {data!r}", command, kind, data


def pinned(path: Path, *names: str) -> list:
    """The literal assigned to each of names in the Python file at path,
    wherever the assignment stands, in the order of names."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                found[target.id] = ast.literal_eval(node.value)
    return [found[name] for name in names]


def expected() -> tuple[dict[str, str | int | float], dict]:
    """Each report's label and the digest the tests pin for it, each
    command's label and the exit code it must give, each memory ratio's
    label and its bound, and the child's jobs."""
    golden, workloads, spells_seed, spells, blocked = pinned(
        ROOT / "tests" / "test_golden_reports.py",
        "GOLDEN_SHA256", "WORKLOAD_SHA256", "SPELLS_SEED", "SPELLS_SHA256", "BLOCKED_SPELLS_SHA256",
    )
    hour_drive, hour_of_rain = pinned(
        ROOT / "tests" / "test_controller.py", "HOUR_OF_RAIN", "HOUR_OF_RAIN_SHA256"
    )
    drive, held, peak = pinned(
        ROOT / "tests" / "test_scenario.py", "TEN_MINUTES_OF_RAIN", "HELD_PER_REPORT", "PEAK_PER_REPORT"
    )
    out = {f"bundled {name}": digest for name, digest in sorted(golden.items())}
    for seed, digests in sorted(workloads.items()):
        out.update({f"workload {name} seed={seed}": d for name, d in sorted(digests.items())})
    out.update({f"hour of rain tick_ms={tick}": d for tick, d in sorted(hour_of_rain.items())})
    out.update({f"rain spells tick_ms={tick}": d for tick, d in sorted(spells.items())})
    out.update({f"blocked rain spells tick_ms={tick}": d for tick, d in sorted(blocked.items())})
    out[CHECKSUMS] = True
    out.update({label: 1 for label, *_ in _exit_cases()})
    out.update({MEMORY_HELD: held, MEMORY_PEAK: peak})
    return out, {
        "bundled": sorted(golden),
        "workloads": {seed: sorted(digests) for seed, digests in workloads.items()},
        "hour_of_rain_drive": hour_drive,
        "hour_of_rain": sorted(hour_of_rain),
        "spells_seed": spells_seed,
        "spells": sorted(spells),
        "blocked_spells": sorted(blocked),
        "report_memory": drive,
    }


def _cell(want: str | int | float, got) -> str:
    """One child's cell in a row: a digest or an exit code must equal
    the pinned one; a memory ratio must not exceed its bound (a float),
    and the cell shows it."""
    if isinstance(want, float) and isinstance(got, float):
        return f"{'ok' if got <= want else 'OVER'} {got:.3f}"
    return "ok" if got == want else "MISMATCH"


def check(python: str, job: dict) -> tuple[str, dict[str, str | int | float]]:
    """Run one child; returns its version and results, or an error line
    and no results."""
    try:
        proc = subprocess.run(
            [python, "-I", "-B", __file__, "--child"],
            input=json.dumps(job), capture_output=True, text=True,
        )
    except OSError as exc:
        return f"error: {exc}", {}
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
        return f"error: {last}", {}
    result = json.loads(proc.stdout)
    return result["version"], result["results"]


def main(argv: list[str]) -> int:
    pythons = argv or [sys.executable]
    want, job = expected()
    columns = [check(python, job) for python in pythons]
    ok = True
    rows = [["report", *(version if results else "error" for version, results in columns)]]
    for label, result in want.items():
        cells = [_cell(result, results.get(label)) if results else "-" for _, results in columns]
        ok = ok and all(cell.startswith("ok") for cell in cells)
        rows.append([label, *cells])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    for python, (version, _) in zip(pythons, columns):
        print(f"{python}: {version}")
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        _child()
    else:
        sys.exit(main(sys.argv[1:]))
