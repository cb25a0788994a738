"""Command-line front end: run experiments, re-analyze samples, print bounds.

Exit codes separate the outcomes a caller scripts against: 0 all good,
1 an experiment's tail check found a bound violation, 2 bad configuration
or malformed input, 3 an I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from driftlab.bounds import BoundSpec, tail_probability_upper
from driftlab.errors import FormatError
from driftlab.experiment import (
    AnalysisBlock,
    BoundTable,
    ExperimentConfig,
    analyze_files,
    from_json,
    run_experiment,
)
from driftlab.trajectory import read_file

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def bounds_csv(spec: BoundSpec, tau_grid) -> str:
    """CSV text tau,bound over the grid, five decimals per cell."""
    lines = ["tau,bound"]
    lines.extend(
        f"{float(tau):.5f},{tail_probability_upper(spec, float(tau)):.5f}"
        for tau in tau_grid
    )
    return "\n".join(lines) + "\n"


def _load_json(path: str):
    text = read_file(path, str)  # a file that does not decode is named, like a CSV
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}", line=exc.lineno) from exc
    except RecursionError:  # else it would escape main as exit 1, a violation
        raise FormatError("JSON nested too deeply to read", path=path) from None


def _bound_check(violated: bool, block: AnalysisBlock) -> int:
    if violated:
        print("bound check: VIOLATED")
        return EXIT_VIOLATION
    if block.tau_grid:  # AnalysisBlock.check guarantees a bound alongside
        print("bound check: ok")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_dict(_load_json(args.config))
    artifacts = run_experiment(config)
    print(f"samples: {artifacts.samples_path}")
    print(f"report: {artifacts.report_path}")
    if artifacts.histogram_path:
        print(f"histogram: {artifacts.histogram_path}")
    if artifacts.trajectory_dir:
        print(f"trajectories: {artifacts.trajectory_dir}")
    return _bound_check(artifacts.violated, config.analysis)


def _cmd_analyze(args) -> int:
    block = AnalysisBlock.from_dict(_load_json(args.analysis))
    artifacts = analyze_files(
        args.samples, block, trajectory_dir=args.trajectories, report_path=args.out
    )
    print(f"report: {artifacts.report_path}")
    return _bound_check(artifacts.violated, block)


def _cmd_bounds(args) -> int:
    table = from_json(BoundTable, _load_json(args.spec), "bounds spec")
    sys.stdout.write(bounds_csv(table.bound, table.tau_grid))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="Drift-analysis simulation laboratory: randomized local search "
        "processes, their hitting-time experiments, and closed-form tail bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config JSON")

    p_an = sub.add_parser("analyze", help="recompute the analysis for stored samples")
    p_an.add_argument("samples", help="path to a samples CSV")
    p_an.add_argument("analysis", help="path to an analysis-block JSON")
    p_an.add_argument(
        "--trajectories",
        default=None,
        metavar="DIR",
        help="directory of per-run trajectory CSVs to include drift estimates",
    )
    p_an.add_argument(
        "--out", default=None, metavar="PATH", help="report path (default: next to samples)"
    )

    p_b = sub.add_parser("bounds", help="print a tail-bound table as CSV")
    p_b.add_argument("spec", help='JSON file with "bound" object and "tau_grid" list')
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "analyze": _cmd_analyze, "bounds": _cmd_bounds}[
        args.command
    ]
    try:
        return handler(args)
    except ValueError as exc:  # ConfigError and FormatError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
