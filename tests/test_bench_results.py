"""Committed benchmark results: every BENCH_<n>.json at the repository
root gives, for each workload it measured, the end-to-end metrics of
both the parent and the change, and both sides produced the same
report. A speedup counts only with byte-identical reports.

A file may hold more than one set of workloads (say, a second seed); a
top-level object with its own "workloads" key is checked the same way.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULTS = sorted(p for p in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", p.name))
METRICS = ("sim_speed", "setup_s", "peak_rss_mb")


def workload_sets(data):
    yield data["workloads"]
    for value in data.values():
        if isinstance(value, dict) and "workloads" in value:
            yield value["workloads"]


def test_results_are_committed():
    assert RESULTS


@pytest.mark.parametrize("path", RESULTS, ids=lambda p: p.name)
def test_both_sides_carry_the_metrics_and_the_same_report(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    for workloads in workload_sets(data):
        assert workloads
        for name, sides in workloads.items():
            for side in ("parent", "change"):
                missing = [m for m in METRICS if "median" not in sides[side].get(m, {})]
                assert missing == [], (name, side)
            digests = [sides[side].get("report_sha256") for side in ("parent", "change")]
            assert digests[0] is not None and digests[0] == digests[1], name
