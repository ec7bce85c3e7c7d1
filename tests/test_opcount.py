"""tools/opcount.py: a bytecode count repeats exactly, and the counted
drive is the benchmark's, giving its pinned report."""

import json
import subprocess
import sys
from pathlib import Path

from test_golden_reports import WORKLOAD_SHA256

TOOL = Path(__file__).resolve().parent.parent / "tools" / "opcount.py"


def test_two_counts_of_idle_park_agree():
    args = [sys.executable, str(TOOL), "--workload", "idle_park", "--seed", "201"]
    first, second = (json.loads(subprocess.run(args, capture_output=True, text=True, check=True).stdout)
                     for _ in range(2))
    assert first["total"] == second["total"] == sum(first["functions"].values()) > 0
    assert first["digest"] == second["digest"] == WORKLOAD_SHA256[201]["idle_park"]
