"""One drive in a fresh interpreter, as `smartcar run` does it.

    python3 -I bench/child.py ROOT SCENARIO CONFIG UNTIL_MS [--setup-only]
                              [--report OUT] [--trace SPANS SEED]

Loads the scenario and config files, runs the simulation and serializes
the report, then prints one JSON object on stdout. `setup_end` is the
monotonic clock at the end of set-up (interpreter start, import, parse,
config load); the parent subtracts its own clock reading from before
the spawn. Only `sys` and `time` are imported ahead of the program, so
set-up time is the program's. --setup-only stops there.

The host's speed drifts by a quarter and more within minutes on a
shared machine, so the child also times a fixed pure-Python loop that
does not touch the program, once before and once after the drive
(`cal_s`, the sum). The parent scales the drive's host times by it.

With --trace the layer functions are wrapped first (see tracing.py) and
the result also carries the per-layer metrics; the span table is
written to SPANS.
"""

import sys
import time


def calibrate(n: int = 15000) -> float:
    """Host seconds for a fixed mix of the operations the simulator is
    made of: frozen dataclass construction, attribute and dict access,
    float arithmetic, f-string formatting, and the field splitting, number
    parsing, byte buffering and regex matching of the wire codecs."""
    import re
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class _Sample:
        key: int
        value: float

    reply = re.compile(r'^\+CMGR:\s*"[^"]*"\s*,\s*"([^"]*)"')
    t0 = time.perf_counter()
    counts, total, buf = {}, 0.0, b""
    for i in range(n):
        sample = _Sample(i & 255, i * 0.5)
        counts[sample.key] = counts.get(sample.key, 0) + 1
        line = f"$GPRMC,{i:06d},A,4807.038,N,01131.000,E,{sample.value:.1f}*{sample.key:02X}"
        fields = line[1:line.index("*")].split(",")
        total += float(fields[3]) + int(line[-2:], 16)
        buf += f'+CMGR: "REC UNREAD","+1555{i:07d}"\r\n'.encode("ascii")
        cut = buf.find(b"\r\n")
        match = reply.match(buf[:cut].decode("ascii"))
        buf = buf[cut + 2:]
        total += len(match.group(1))
    return time.perf_counter() - t0


def peak_rss_kb() -> int:
    """This process's resident-set high-water mark. Not getrusage's
    ru_maxrss: that keeps the high-water mark of the process image exec
    replaced, which for a vfork-spawned child is the parent's."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    root, scenario_path, config_path, until_ms = argv[1], argv[2], argv[3], int(argv[4])
    opts = argv[5:]
    report_path = opts[opts.index("--report") + 1] if "--report" in opts else None
    traced = "--trace" in opts
    sys.path.insert(0, root + "/src")

    import smartcar
    import smartcar.sim.runner as runner
    from smartcar.config import load_config_file
    from smartcar.sim.scenario import load_scenario_file

    tracer = None
    if traced:
        sys.path.insert(1, root + "/bench")
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    events = load_scenario_file(scenario_path)
    config = load_config_file(config_path)
    setup_end = time.perf_counter()
    if "--setup-only" in opts:
        print(f'{{"setup_end": {setup_end!r}}}')
        return 0
    cal_s = calibrate()
    t0 = time.perf_counter()
    report = runner.run(events, config, until_ms)
    text = report.serialize()
    run_s = time.perf_counter() - t0
    cal_s += calibrate()

    import hashlib
    import json

    result = {
        "smartcar": smartcar.__file__,
        "setup_end": setup_end,
        "run_s": run_s,
        "cal_s": cal_s,
        "rss_kb": peak_rss_kb(),
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "violations": len(report.violations),
    }
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    if tracer is not None:
        spans_path, seed = opts[opts.index("--trace") + 1], int(opts[opts.index("--trace") + 2])
        layers = tracer.metrics(report, until_ms / 1000.0)
        replayed, errors = tracer.replay(seed)
        layers.update(replayed)
        tracer.write_spans(spans_path)
        result["layers"] = layers
        result["replay_errors"] = errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
