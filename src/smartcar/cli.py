"""Command line front end.

    smartcar run --scenario crash.txt --config default.cfg [--until-ms N] [--report out.txt]
    smartcar check --scenario crash.txt

Exit codes: 0 clean, 1 bad arguments, scenario, config or report path,
2 invariant violation detected during the run (the violations are also in
the report).
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config_file
from .sim.runner import run
from .sim.scenario import load_scenario_file
from .types import ConfigError, ScenarioError, parse_int

DEFAULT_TAIL_MS = 30000  # run-on after the last event so waits and retries flush


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's 2: here 2 means an invariant violation
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ms(text: str) -> int:
    try:
        ms = parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if ms < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {ms}")
    return ms


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="smartcar")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and emit the report")
    run_p.add_argument("--scenario", required=True, help="scenario script path")
    run_p.add_argument("--config", required=True, help="config file path")
    run_p.add_argument("--until-ms", type=_ms, default=None,
                       help="simulation end time (default: last event + %d)" % DEFAULT_TAIL_MS)
    run_p.add_argument("--report", default=None, help="write the report here instead of stdout")

    check_p = sub.add_parser("check", help="parse a scenario without running it")
    check_p.add_argument("--scenario", required=True, help="scenario script path")
    return parser


def _cmd_run(args, events) -> int:
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
    try:
        events = load_scenario_file(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 1
    if args.command == "check":
        print(f"ok: {len(events)} events")
        return 0
    return _cmd_run(args, events)


if __name__ == "__main__":
    sys.exit(main())
