"""The benchmark's tracer still fits the program.

bench/tracing.py wraps program functions by name and reads program
attributes (ActionKind members, ModemSession.clock, SendRecord.attempts)
from outside. A rename or deletion there would otherwise surface only
when the benchmark runs. This test runs one traced drive of the crash
demo in a fresh interpreter, as the benchmark does, and requires it to
succeed, to replay cleanly, and to report exactly the per-layer metrics
BENCHMARK.json names.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# added by bench/run_bench.py from the untraced and traced runs, not by the child
RUN_BENCH_METRICS = {"trace.sim_speed_untraced", "trace.sim_speed_traced", "trace.overhead_ratio"}


def test_traced_drive_reports_the_declared_layer_metrics(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-I", str(ROOT / "bench" / "child.py"), str(ROOT),
            str(ROOT / "scenarios" / "crash_demo.txt"), str(ROOT / "scenarios" / "default.cfg"),
            "40000", "--trace", str(tmp_path / "spans.tsv"), "1",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["replay_errors"] == []
    assert result["violations"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["layers"]) | RUN_BENCH_METRICS == {m["name"] for m in declared["per_layer"]}
