"""Check the pinned report digests on each given Python, without pytest.

    python3 tools/crosscheck.py
    python3 tools/crosscheck.py python3.10 python3.12 /usr/bin/python3

With no argument it checks the interpreter that runs it. For each
interpreter a `python -I -B` child imports the program from src/ and
tests/helpers.py from tests/, both put on sys.path as the tests do, so
neither the environment, site-packages nor an installed copy of the
program is seen, and no file is written outside a temporary directory
the child removes. The child runs:

- every drive of helpers.PINNED, the registry of pinned drives, and
  hashes its serialized report;
- nmea.checksums_ok against nmea.split_frame, one line at a time, over
  every GPS line of those drives and the edge lines of CHECKSUM_EDGES;
- `smartcar check` and `smartcar run` on each malformed scenario of
  MALFORMED, and `smartcar run` on each malformed config;
- helpers.report_memory(), the tracemalloc measurement that
  test_report_holds_its_text_about_once makes.

Each report must give the digest the registry pins for it, so a drive
pinned there is checked here with no edit to this file. Each malformed
input must exit 1. The memory held after the drive and its peak, as
multiples of the report's size, must not exceed HELD_PER_REPORT and
PEAK_PER_REPORT, the bounds that test holds them to. The result
is one table, a row per report, command, ratio or the checksum
comparison and a column per interpreter; the exit status is 1 if any
digest or exit code differs, any ratio exceeds its bound, checksums_ok
disagrees with split_frame or any child fails, else 0.
Stdlib only.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from helpers import HELD_PER_REPORT, PEAK_PER_REPORT, PINNED, report_memory

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
    """Print each row's result as JSON."""
    import hashlib

    sys.path.insert(0, str(ROOT / "src"))
    from smartcar.nmea import checksums_ok, split_frame
    from smartcar.sim.runner import run
    from smartcar.sim.scenario import GpsLine

    out, lines = {}, list(CHECKSUM_EDGES)
    for label, drive in PINNED.items():
        events, config, until_ms = drive.build()
        lines += [ev.text for ev in events if type(ev) is GpsLine]
        out[label] = hashlib.sha256(run(events, config, until_ms).serialize().encode("utf-8")).hexdigest()
    out[CHECKSUMS] = checksums_ok(lines) == bytes(split_frame(line)[1] for line in lines)
    out.update(_exit_codes())
    out[MEMORY_HELD], out[MEMORY_PEAK] = report_memory()
    print(json.dumps({"version": sys.version.split()[0], "results": out}))


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


def expected() -> dict[str, str | int | float]:
    """Each report's label and the digest the registry pins for it, each
    command's label and the exit code it must give, and each memory
    ratio's label and its bound."""
    out: dict[str, str | int | float] = {label: drive.sha256 for label, drive in PINNED.items()}
    out[CHECKSUMS] = True
    out.update({label: 1 for label, *_ in _exit_cases()})
    out.update({MEMORY_HELD: HELD_PER_REPORT, MEMORY_PEAK: PEAK_PER_REPORT})
    return out


def _cell(want: str | int | float, got) -> str:
    """One child's cell in a row: a digest or an exit code must equal
    the pinned one; a memory ratio must not exceed its bound (a float),
    and the cell shows it."""
    if isinstance(want, float) and isinstance(got, float):
        return f"{'ok' if got <= want else 'OVER'} {got:.3f}"
    return "ok" if got == want else "MISMATCH"


def check(python: str) -> tuple[str, dict[str, str | int | float]]:
    """Run one child; returns its version and results, or an error line
    and no results."""
    try:
        proc = subprocess.run([python, "-I", "-B", __file__, "--child"], capture_output=True, text=True)
    except OSError as exc:
        return f"error: {exc}", {}
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
        return f"error: {last}", {}
    result = json.loads(proc.stdout)
    return result["version"], result["results"]


def main(argv: list[str]) -> int:
    pythons = argv or [sys.executable]
    want = expected()
    columns = [check(python) for python in pythons]
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
