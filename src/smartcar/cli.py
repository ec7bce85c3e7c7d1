"""Command line front end.

    smartcar run --scenario crash.txt --config default.cfg [--until-ms N] [--report out.txt]
    smartcar check --scenario crash.txt

Exit codes: 0 clean, 1 bad scenario, config or report path, 2 invariant
violation detected during the run (the violations are also in the report).
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config_file
from .sim.runner import run
from .sim.scenario import load_scenario_file
from .types import ConfigError, ScenarioError

DEFAULT_TAIL_MS = 30000  # run-on after the last event so waits and retries flush


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smartcar")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and emit the report")
    run_p.add_argument("--scenario", required=True, help="scenario script path")
    run_p.add_argument("--config", required=True, help="config file path")
    run_p.add_argument("--until-ms", type=int, default=None,
                       help="simulation end time (default: last event + %d)" % DEFAULT_TAIL_MS)
    run_p.add_argument("--report", default=None, help="write the report here instead of stdout")

    check_p = sub.add_parser("check", help="parse a scenario without running it")
    check_p.add_argument("--scenario", required=True, help="scenario script path")
    return parser


def _cmd_check(args) -> int:
    try:
        events = load_scenario_file(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 1
    print(f"ok: {len(events)} events")
    return 0


def _cmd_run(args) -> int:
    try:
        events = load_scenario_file(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 1
    try:
        config = load_config_file(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return 1

    until_ms = args.until_ms
    if until_ms is None:
        until_ms = (events[-1].t_ms if events else 0) + DEFAULT_TAIL_MS
    try:
        report = run(events, config, until_ms)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    text = report.serialize()
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {args.report}: {exc}", file=sys.stderr)
            return 1
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:  # reader (head, less) hung up; not an error
            pass
    if report.violations:
        print(f"error: {len(report.violations)} invariant violation(s), see report",
              file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        return _cmd_check(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
