"""Count the bytecode instructions one pinned drive executes, per function.

    python3 tools/opcount.py --drive "workload idle_park seed=201"
    python3 tools/opcount.py --drive "bundled crash_demo" --against ../parent

The drive is one of tests/helpers.py's PINNED registry, named by its
label; the registry's builder gives its events, config and until_ms,
and the program runs it as `smartcar run` does (`run()`, then
`serialize()`). A fresh interpreter loads the program, runs one warm-up
drive, which builds what the program caches (the wiper cycle tables),
and then runs one drive counting each executed instruction against the
function that ran it: on Python 3.12 and later through
`sys.monitoring`'s INSTRUCTION events, before 3.12 under `sys.settrace`
with `f_trace_opcodes` (3.12 fires no opcode event for it on some patch
releases).

The result is JSON: `total`, `functions` (`<file>:<qualified name>` to
its count, largest first) and `digest`, the report's SHA-256. With
`--against DIR` the same drive is counted in the program under DIR too
(another checkout of this repository): this checkout's registry builds
the drive and each side's own src/ runs it. The JSON then holds both
sides and `delta`, change minus parent, for each function whose count
differs.

A count repeats exactly on one Python version; it differs between
minor versions. Time spent in C (string formatting, joins, regex, dict
and list work) is not counted, so a count backs up a timing and does not
replace it. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from helpers import PINNED


def _child(root: str, label: str) -> None:
    """Count one drive in the program under root, in this interpreter."""
    import hashlib
    from collections import Counter

    sys.path.insert(0, str(Path(root) / "src"))
    from smartcar.sim.runner import run

    build = PINNED[label].build
    run(*build()).serialize()  # warm-up
    events, config, until_ms = build()
    counts: Counter = Counter()
    text = _counted(lambda: run(events, config, until_ms).serialize(), counts)
    functions: Counter = Counter()
    for code, n in counts.items():
        name = getattr(code, "co_qualname", code.co_name)  # co_qualname is new in 3.11
        functions[f"{Path(code.co_filename).name}:{name}"] += n
    print(json.dumps({
        "total": sum(functions.values()),
        "functions": dict(functions.most_common()),
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }))


def _counted(call, counts) -> str:
    """call(), with each instruction it executes counted in counts
    against its code object."""
    if sys.version_info >= (3, 12):
        monitoring = sys.monitoring
        tool, instruction = monitoring.PROFILER_ID, monitoring.events.INSTRUCTION

        def on_instruction(code, offset):
            counts[code] += 1

        monitoring.use_tool_id(tool, "opcount")
        monitoring.register_callback(tool, instruction, on_instruction)
        monitoring.set_events(tool, instruction)
        try:
            return call()
        finally:
            monitoring.set_events(tool, monitoring.events.NO_EVENTS)
            monitoring.free_tool_id(tool)

    def on_opcode(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return on_opcode

    sys.settrace(on_call)
    try:
        return call()
    finally:
        sys.settrace(None)


def count(root: Path, label: str) -> dict:
    """Count the pinned drive label in the program under root, in a
    fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(root), label], capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--drive", required=True, choices=PINNED, metavar="LABEL",
                        help="a label of tests/helpers.py's PINNED registry")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="also count the program of the checkout at DIR, as the parent")
    args = parser.parse_args(argv)
    change = count(ROOT, args.drive)
    if args.against is None:
        print(json.dumps(change, indent=1))
        return 0
    parent = count(args.against.resolve(), args.drive)
    names = parent["functions"].keys() | change["functions"].keys()
    delta = {
        name: change["functions"].get(name, 0) - parent["functions"].get(name, 0) for name in names
    }
    print(json.dumps({
        "drive": args.drive,
        "parent": {"total": parent["total"], "digest": parent["digest"]},
        "change": {"total": change["total"], "digest": change["digest"]},
        "delta": dict(sorted(((k, v) for k, v in delta.items() if v), key=lambda kv: kv[1])),
    }, indent=1))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(*sys.argv[2:])
    else:
        sys.exit(main())
