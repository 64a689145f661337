"""Command-line entry point.

Subcommands map to stage bundles (see runner.COMMANDS); all of them share
the same flags.  Exit codes: 0 all checks passed, 1 at least one check
failed (or warnings with --strict), 2 configuration problem, 3 runtime
failure inside a stage or while writing the output.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config
from .errors import ConfigError, RobustCtlError
from .runner import COMMANDS, run_experiment, write_result

__all__ = ["main", "build_parser"]

_THREADS_ENV = "ROBUSTCTL_THREADS"

_DESCRIPTIONS = {
    "run": "run every experiment stage enabled in the config",
    "validate": "check the config and the model's regularity declarations",
    "solve-pde": "solve the dynamic-programming equations only",
    "simulate": "solve, then estimate the robust value by simulation",
    "compare": "simulate, then compare base and enlarged adversary families",
    "dpp-check": "solve, then test the restart identity at stopping rules",
    "hamiltonian-report": "sample Hamiltonian queries and check their ordering",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustctl",
        description="Numerical laboratory for robust control as a dynamic game.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=_DESCRIPTIONS[name])
        p.add_argument("--config", required=True, help="path to a JSON config "
                       "(or a summary.json from an earlier run)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
        p.add_argument("--out", default=None,
                       help="output directory (default: config output_dir, "
                       "else ./robustctl_out)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes (fork) that march chunks side by side; "
                       "results are bitwise the same for any count "
                       f"(default: ${_THREADS_ENV} or config)")
        p.add_argument("--strict", action="store_true",
                       help="treat warnings as failures")
    return parser


def _threads_from_env() -> int | None:
    raw = os.environ.get(_THREADS_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"${_THREADS_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise ConfigError(f"${_THREADS_ENV} must be >= 1, got {value}")
    return value


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        out_dir = args.out or raw.get("output_dir") \
            or os.path.join(os.getcwd(), "robustctl_out")
        if not isinstance(out_dir, str):
            raise ConfigError(f"output_dir must be a string, got {out_dir!r}")
        # checked before any stage runs, so a bad path does not waste the run
        if os.path.exists(out_dir) and not os.path.isdir(out_dir):
            raise ConfigError(f"output directory {out_dir} exists and is not a directory")
        threads = args.threads if args.threads is not None else _threads_from_env()
        result = run_experiment(raw, command=args.command, seed=args.seed,
                                threads=threads, strict=args.strict)
        for check in result.summary["checks"]:
            mark = "PASS" if check["passed"] else "FAIL"
            print(f"[{mark}] {check['id']}: {check['detail']}")
        for warning in result.summary["warnings"]:
            print(f"[warn] {warning}")
        paths = write_result(result, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RobustCtlError, OSError) as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(paths)} files under {out_dir}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
