"""What importing the program costs: `smartcar run` imports the runner,
the scenario and config loaders and the CLI before it can do anything,
so none of them may pull in `dataclasses`, whose import loads `inspect`,
`ast`, `dis` and `tokenize`. Checked in a fresh isolated interpreter,
since this process has long imported both."""

import subprocess
import sys
from pathlib import Path

import smartcar

SRC = str(Path(smartcar.__file__).resolve().parents[1])
MODULES = ("smartcar.sim.runner", "smartcar.sim.scenario", "smartcar.config", "smartcar.cli")


def test_the_program_imports_neither_dataclasses_nor_inspect():
    # only what the program's imports add counts, not what start-up loaded
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); before = set(sys.modules); "
        f"import {', '.join(MODULES)}; "
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
