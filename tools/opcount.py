"""Count the bytecode instructions one benchmark drive executes, per function.

    python3 tools/opcount.py --workload idle_park --seed 201
    python3 tools/opcount.py --workload rain_drive --seed 201 --against ../parent

The drive is the benchmark's: `bench/workloads.py` of this checkout
generates the scenario and config for (workload, seed), and the program
runs it as `smartcar run` does (`run()`, then `serialize()`). A fresh
interpreter loads the program, runs one warm-up drive, which builds
what the program caches (the wiper cycle tables), and then runs one
drive counting each executed instruction against the function that ran
it: on Python 3.12 and later through `sys.monitoring`'s INSTRUCTION
events, before 3.12 under `sys.settrace` with `f_trace_opcodes` (3.12
fires no opcode event for it on some patch releases).

The result is JSON: `total`, `functions` (`<file>:<qualified name>` to
its count, largest first) and `digest`, the report's SHA-256. With
`--against DIR` the same drive is counted in the program under DIR too
(another checkout of this repository), and the JSON holds both sides
and `delta`, change minus parent, for each function whose count differs.

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


def _child() -> None:
    """Count one drive in this interpreter; the job comes as JSON on stdin."""
    import hashlib
    from collections import Counter

    job = json.load(sys.stdin)
    sys.path.insert(0, str(Path(job["root"]) / "src"))
    from smartcar.config import load_config
    from smartcar.sim.runner import run
    from smartcar.sim.scenario import load_scenario

    config = load_config(job["config"])

    def drive() -> str:
        return run(load_scenario(job["scenario"]), config, job["until_ms"]).serialize()

    drive()  # warm-up
    events = load_scenario(job["scenario"])
    counts: Counter = Counter()
    text = _counted(lambda: run(events, config, job["until_ms"]).serialize(), counts)
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


def count(root: Path, w) -> dict:
    """Count one drive of the generated workload w in the program under
    root, in a fresh interpreter."""
    job = {"root": str(root), "scenario": w.scenario, "config": w.config, "until_ms": w.until_ms}
    proc = subprocess.run(
        [sys.executable, __file__, "--child"],
        input=json.dumps(job), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import GENERATORS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="also count the program of the checkout at DIR, as the parent")
    args = parser.parse_args(argv)
    w = GENERATORS[args.workload](args.seed)
    change = count(ROOT, w)
    if args.against is None:
        print(json.dumps(change, indent=1))
        return 0
    parent = count(args.against.resolve(), w)
    names = parent["functions"].keys() | change["functions"].keys()
    delta = {
        name: change["functions"].get(name, 0) - parent["functions"].get(name, 0) for name in names
    }
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "parent": {"total": parent["total"], "digest": parent["digest"]},
        "change": {"total": change["total"], "digest": change["digest"]},
        "delta": dict(sorted(((k, v) for k, v in delta.items() if v), key=lambda kv: kv[1])),
    }, indent=1))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        _child()
    else:
        sys.exit(main())
