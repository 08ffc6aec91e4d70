"""Command-line entry point.

Subcommands map one-to-one onto the experiment modes; every run is described
by a config file, with --seed and --out as overrides.  Exit codes: 0 success,
2 configuration problem, 3 numerical failure (rank stall, non-PSD matrix),
each with a single machine-parsable line on standard error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import harness
from .errors import ConfigError, NumericalError
from .kernels import SpinGlassMixture, alg_barrier, validate_partials

_REPORTS = {"simulate": harness.run_simulate, "verify": harness.run_verify,
            "two-init": harness.run_two_init, "halting": harness.run_halting}
_COMMANDS = ("predict", *_REPORTS, "barrier", "check-kernel")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grfspan",
        description=("Deterministic limit prediction and exact dimension-free "
                     "simulation of first-order optimizers on isotropic "
                     "Gaussian random fields."),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", required=True, metavar="PATH",
                         help="experiment config file")
        sub.add_argument("--out", metavar="PATH",
                         help="output CSV path (default: config [run] out, "
                              "else stdout)")
        sub.add_argument("--seed", type=int, metavar="INT",
                         help="override the config master seed")
    return parser


def _run(command: str, config: harness.ExperimentConfig) -> None:
    if command == "predict":
        curve = harness.run_predict(config)
        if not config.out:
            harness.write_limit_curve(curve, sys.stdout)
    elif command in _REPORTS:
        report = _REPORTS[command](config)
        if not config.out:
            report.write(sys.stdout)
    elif command == "barrier":
        if config.kernel["type"] != "spin_glass":
            raise ConfigError("barrier mode needs a spin_glass kernel")
        value = alg_barrier(SpinGlassMixture(coeffs=config.kernel["coeffs"]))
        print(f"{value:.6f}")
        if config.out:
            with open(config.out, "w", encoding="utf-8", newline="") as handle:
                harness._write_table(handle, "", [("barrier", value)])
    elif command == "check-kernel":
        report = validate_partials(harness.build_kernel(config.kernel))
        print(report)
        if config.out:
            with open(config.out, "w", encoding="utf-8", newline="") as handle:
                harness._write_table(handle, "", list(report.max_rel_err.items()))
        if not report.passed:
            raise NumericalError(
                "kernel partials fail finite-difference validation: "
                + "; ".join(f"{k}={v:.3e}" for k, v in report.max_rel_err.items()
                            if v > report.tol))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = harness.load_config(args.config)
        if args.seed is not None:
            config = replace(config, master_seed=args.seed)
        if args.out is not None:
            config = replace(config, out=args.out)
        _run(args.command, config)
    except ConfigError as exc:
        print(f"grfspan: config-error: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"grfspan: numerical-error: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
