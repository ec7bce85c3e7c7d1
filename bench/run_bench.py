"""smartcar benchmark: simulated seconds per host second on generated drives.

    python3 bench/run_bench.py --workload rain_drive --seed 1 --seconds 30 --trace 0

--workload all runs each workload in turn, each printing its own lines.

Generates the workload's scenario and config text from the seed, writes
them under .bench_out/, and runs `smartcar run`'s steps (scenario and
config load, simulation, report serialization) on them in a fresh child
interpreter, one child after another for --seconds. Every child's report
must be free of invariant violations and byte-identical to the first
child's; the first report is also checked against what the generator
knows it must contain, and the three bundled scenarios are run through
the CLI once as a smoke check.

--trace 0 reports the end-to-end metrics (medians over the children):
  sim_speed    simulated s per host s of run() + serialize()
  setup_s      child start through import, scenario parse, config load
  peak_rss_mb  peak resident set of the child
--trace 1 alternates untraced children with traced ones and reports the
per-layer metrics of the traced ones (see tracing.py), the tracing
overhead, and the two layer replays.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. The lines before it give each metric's median, quartiles
and sample count, the report digest, and run_fail_ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 120
MIN_CHILDREN = 3
# Set-up-only children after each timed drive: set-up is short, so it
# needs more samples than the drive for a steady median.
SETUP_CHILDREN = 2
# A reference for the seconds child.calibrate() takes before + after the
# drive; on a 2-vCPU Intel Xeon VM with Python 3.11 it took 0.13 to 0.25.
# Host times are reported as if every child had run at the reference
# speed: t * CAL_REF_S / cal_s.
CAL_REF_S = 0.16
TIME_UNITS = ("s", "us", "us/sim_s")
RATE_UNITS = ("MB/s", "sim_s/s")


class BenchError(Exception):
    """The benchmark cannot run here at all (no program to measure)."""


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spawn(args: list[str]) -> tuple[float, dict | None, str]:
    """Run one child; returns (spawn clock, parsed result or None, error)."""
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(BENCH / "child.py"), str(ROOT), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return t_spawn, None, f"child timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-1:]
        return t_spawn, None, f"child exited {proc.returncode}: {' '.join(tail)}"
    return t_spawn, json.loads(out.decode("utf-8").strip().splitlines()[-1]), ""


def check_report(text: str, w: workloads.Workload) -> list[str]:
    """What a v1 report of this workload must show, from the generator's
    own bookkeeping rather than from the program."""
    problems = []
    lines = text.splitlines()
    if lines[:3] != ["smartcar-report v1", "tick_ms=10", f"until_ms={w.until_ms}"]:
        problems.append(f"unexpected header {lines[:3]}")
    counters = {}
    tags = {}
    replies = read_failures = send_actions = 0
    for line in lines[3:]:
        tag = line[:1]
        tags[tag] = tags.get(tag, 0) + 1
        if tag == "C":
            key, _, value = line[2:].partition("=")
            counters[key] = int(value)
        elif tag == "A":
            words = line.split(" ", 3)
            what = words[2] if len(words) > 2 else ""
            if what == "reply":
                replies += 1
                send_actions += 1
            elif what == "alert":
                send_actions += 1
            elif what == "note" and words[3].startswith("inbound-read-failed"):
                read_failures += 1
        elif tag == "V":
            problems.append(f"invariant violation: {line}")
    expect = {
        "sentences_parsed": w.gps_good,
        "checksum_failures": w.gps_bad,
        "sms_sent": tags.get("M", 0),
    }
    for key, want in expect.items():
        if counters.get(key) != want:
            problems.append(f"C {key}={counters.get(key)}, expected {want}")
    if counters.get("sms_sent", 0) + counters.get("sms_failed", 0) != tags.get("S", 0):
        problems.append("sms_sent + sms_failed differs from the number of S lines")
    if send_actions != tags.get("S", 0):
        problems.append(f"{send_actions} send actions but {tags.get('S', 0)} S lines")
    if replies + read_failures != w.sms_in:
        problems.append(
            f"{w.sms_in} inbound SMS but {replies} replies and {read_failures} failed reads"
        )
    return problems


def check_bundled() -> list[str]:
    """Run scenarios/*.txt through the CLI: exit 0 and no V lines."""
    problems = []
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for path in sorted((ROOT / "scenarios").glob("*.txt")):
        proc = subprocess.run(
            [sys.executable, "-m", "smartcar", "run", "--scenario", str(path),
             "--config", str(ROOT / "scenarios" / "default.cfg")],
            capture_output=True, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or b"\nV " in proc.stdout:
            problems.append(f"bundled {path.name}: exit {proc.returncode}")
    return problems


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list[str], list[str]]:
    if not (ROOT / "src" / "smartcar" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'smartcar'} is missing")
    if not (ROOT / "scenarios" / "default.cfg").is_file():
        raise BenchError(f"no bundled scenarios under {ROOT / 'scenarios'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    w = workloads.GENERATORS[workload](seed)
    OUT.mkdir(exist_ok=True)
    scenario = OUT / f"{workload}.txt"
    config = OUT / f"{workload}.cfg"
    scenario.write_text(w.scenario, encoding="utf-8")
    config.write_text(w.config, encoding="utf-8")
    report = OUT / f"{workload}.report.txt"
    spans = OUT / f"spans-{workload}.tsv"
    base_args = [str(scenario), str(config), str(w.until_ms)]
    sim_s = w.until_ms / 1000.0

    problems = check_bundled()
    notes = [f"workload {workload} seed={seed}: {w.until_ms / 60000:.1f} sim min, events {w.counts}"]
    attempted = failed = 0
    digest = None
    samples = {"sim_speed": [], "setup_s": [], "peak_rss_mb": []}
    traced_speed, layer_runs, raw_speed = [], [], []

    def one(extra: list[str]) -> dict | None:
        nonlocal attempted, failed, digest
        attempted += 1
        t_spawn, res, error = _spawn(base_args + extra)
        if res is not None and not res["smartcar"].startswith(str(ROOT / "src")):
            error = f"measured {res['smartcar']}, not the program under {ROOT}"
        elif res is not None and res["violations"]:
            error = f"{res['violations']} invariant violation(s)"
        elif res is not None and digest is not None and res["digest"] != digest:
            error = f"report digest {res['digest']} differs from {digest}"
        elif res is not None and res.get("replay_errors"):
            error = "; ".join(res["replay_errors"])
        if error:
            failed += 1
            problems.append(error)
            return None
        digest = digest or res["digest"]
        scale = res["scale"] = CAL_REF_S / res["cal_s"]
        res["setup_s"] = (res["setup_end"] - t_spawn) * scale
        res["sim_speed"] = sim_s / (res["run_s"] * scale)
        for name, value in res.get("layers", {}).items():
            if units.get(name) in TIME_UNITS:
                res["layers"][name] = value * scale
            elif units.get(name) in RATE_UNITS:
                res["layers"][name] = value / scale
        return res

    # warm-up: fills the file cache and gives the reference report
    if one(["--report", str(report)]) is not None:
        problems.extend(check_report(report.read_text(encoding="utf-8"), w))
    start = time.perf_counter()
    timed = 0
    while timed < MIN_CHILDREN or time.perf_counter() - start < seconds:
        timed += 1
        res = one([])
        if res is not None:
            samples["sim_speed"].append(res["sim_speed"])
            raw_speed.append(sim_s / res["run_s"])
            samples["setup_s"].append(res["setup_s"])
            samples["peak_rss_mb"].append(res["rss_kb"] / 1024.0)
        if traced:
            res = one(["--trace", str(spans), str(seed)])
            if res is not None:
                traced_speed.append(res["sim_speed"])
                layer_runs.append(res["layers"])
            continue
        if res is None:
            continue
        for _ in range(SETUP_CHILDREN):
            t_spawn, setup, error = _spawn(base_args + ["--setup-only"])
            if setup is None:
                problems.append(error)
            else:  # scaled by the calibration of the drive just before
                samples["setup_s"].append((setup["setup_end"] - t_spawn) * res["scale"])
    notes.append(f"report sha256 {workload} seed={seed} {digest}")
    notes.append(f"run_fail_ratio value={failed / attempted:.4f} ({failed}/{attempted} children) ratio")
    if raw_speed:
        notes.append(f"unscaled sim_speed median={statistics.median(raw_speed):.6g} sim_s/s")

    values = {}
    if not traced:
        values = {name: v for name, v in samples.items() if v}
    elif layer_runs and samples["sim_speed"]:
        values = {name: [float(r[name]) for r in layer_runs] for name in layer_runs[0]}
        for name, runs in values.items():
            if isinstance(layer_runs[0][name], int) and len(set(runs)) > 1:
                problems.append(f"count {name} differs between traced runs: {runs}")
        speed_u = statistics.median(samples["sim_speed"])
        speed_t = statistics.median(traced_speed)
        values["trace.sim_speed_untraced"] = samples["sim_speed"]
        values["trace.sim_speed_traced"] = traced_speed
        values["trace.overhead_ratio"] = [speed_u / speed_t]
        if workload == "comms_storm":
            layers = layer_runs[0]
            if layers["modem.send_sms.attempts_per_call"] <= 1.0:
                problems.append("comms_storm made no send_sms retry")
            if layers["modem.fetch_inbound.failures"] == 0:
                problems.append("comms_storm had no failed inbound read")
    if sorted(values) != sorted(wanted):
        problems.append(f"measured {sorted(values)}, BENCHMARK.json lists {sorted(wanted)}")
    metrics = {}
    for name in wanted:
        if name in values:
            q1, med, q3 = _quartiles(values[name])
            metrics[name] = {"value": med, "unit": units[name]}
            notes.append(f"{name} median={med:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values[name])} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(workloads.GENERATORS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result, notes, problems = run(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for line in notes:
            print(line)
        for line in problems:
            print(f"FAIL {line}")
        print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
