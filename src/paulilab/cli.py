"""Command-line entry point.

    paulilab run <scenario.json> [--output-dir DIR] [--seed N]
    paulilab verify-all [--fast] [--output-dir DIR]
    paulilab schema <kind>

Exit codes: 0 success, 1 check failure, 2 usage or configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__, scenarios

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulilab",
        description="Scenario-driven numerical laboratory for detection-event "
        "statistics, information functionals, and spinor dynamics.",
    )
    parser.add_argument("--version", action="version", version=f"paulilab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a JSON scenario document")
    run_p.add_argument("scenario", help="path to the scenario JSON file")
    run_p.add_argument("--output-dir", default=None, help="override the output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    verify_p = sub.add_parser("verify-all", help="run the full acceptance battery")
    verify_p.add_argument("--fast", action="store_true", help="reduced resolution")
    verify_p.add_argument("--output-dir", default=".", help="where to write the report")

    schema_p = sub.add_parser("schema", help="print the parameter schema of a kind")
    schema_p.add_argument("kind", help="scenario kind")
    return parser


def _print_report(report: scenarios.RunReport) -> None:
    for check in report.checks:
        print(check.line())
    status = "PASSED" if report.passed else "FAILED"
    print(f"{status}: {sum(c.passed for c in report.checks)}/{len(report.checks)} checks "
          f"in {report.wall_time_s:.1f} s")
    for path in report.outputs:
        print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)

    try:
        if args.command == "schema":
            print(scenarios.schema_text(args.kind))
            return EXIT_OK

        if args.command == "run":
            try:
                with open(args.scenario, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as err:
                print(f"cannot read scenario: {err}", file=sys.stderr)
                return EXIT_USAGE
            scenario = scenarios.parse_scenario(text)
        else:  # verify-all
            scenario = scenarios.Scenario(
                "verify_all", {"fast": bool(args.fast)}, output_dir=args.output_dir
            )

        if getattr(args, "output_dir", None) is not None:
            scenario = replace(scenario, output_dir=args.output_dir)
        if getattr(args, "seed", None) is not None:
            scenario = replace(scenario, seed=args.seed)

        report = scenarios.run(scenario)
        _print_report(report)
        return EXIT_OK if report.passed else EXIT_CHECK_FAILURE
    except scenarios.ScenarioError as err:
        for violation in err.violations:
            print(f"scenario error: {violation}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
