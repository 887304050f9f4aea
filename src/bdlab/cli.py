"""Command-line entry point.

Subcommands map one-to-one onto the harness run functions; every one
reads a JSON config, optionally overridden by flags, and writes a table
to --out or stdout.  Exit codes: 0 success, 2 bad config, 3 violated
operation precondition, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError, PreconditionError
from .harness import (
    ExperimentConfig,
    emit_results,
    load_profile,
    run_consistency_check,
    run_level_cross_scan,
    run_marginal_ldp_scan,
    run_poisson_check,
    run_rate_eval,
    run_simulate,
    write_results,
)

__all__ = ["main"]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="JSON experiment config")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), help="output format")
    sub.add_argument("--threads", type=int, help="worker processes (0 = serial)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdlab",
        description="Birth-death chain scaling experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="sample trajectories on the time grid")
    _add_common(p)
    p.add_argument(
        "--process",
        choices=("xi", "zeta"),
        default="xi",
        help="chain (xi) or reference walk (zeta)",
    )

    _add_common(subs.add_parser(
        "poisson-check", help="empirical terminal law vs the closed form"
    ))
    _add_common(subs.add_parser(
        "marginal-scan", help="exact normalized window probabilities over the grid"
    ))
    _add_common(subs.add_parser(
        "consistency-check", help="direct vs importance estimators on one event"
    ))
    _add_common(subs.add_parser(
        "level-cross-scan", help="exact tail anchors for the crossing event"
    ))

    p = subs.add_parser("rate-eval", help="evaluate the regime's rate functional")
    _add_common(p)
    p.add_argument("--profile", required=True, help="JSON profile file")

    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.load(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    if args.format is not None:
        overrides["format"] = args.format
    if args.threads is not None:
        overrides["threads"] = args.threads
    if overrides:
        try:
            config = dataclasses.replace(config, **overrides)
        except PreconditionError as exc:
            raise ConfigError(str(exc)) from exc
    return config


def _run(args: argparse.Namespace):
    config = _load_config(args)
    if args.command == "simulate":
        return config, run_simulate(config, process=args.process)
    if args.command == "poisson-check":
        return config, run_poisson_check(config)
    if args.command == "marginal-scan":
        return config, run_marginal_ldp_scan(config)
    if args.command == "consistency-check":
        return config, run_consistency_check(config)
    if args.command == "level-cross-scan":
        return config, run_level_cross_scan(config)
    if args.command == "rate-eval":
        return config, run_rate_eval(config, load_profile(args.profile))
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config, table = _run(args)
        if config.out is not None:
            write_results(table, config.out, config.format)
        else:
            sys.stdout.write(emit_results(table, config.format))
        return 0
    except ConfigError as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
