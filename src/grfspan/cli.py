"""Command-line entry point.

Subcommands map one-to-one onto the experiment modes; every run is described
by a config file, with --seed and --out as overrides.  Exit codes: 0 success,
1 standard output closed before the run wrote all of it (as by ``| head``),
with nothing on standard error, 2 configuration problem, 3 numerical failure
(rank stall, non-positive-definite covariance, degenerate kernel, a
floating-point overflow, invalid operation or division by zero inside a
step, a non-finite covariance or mean), each of the last two with a single
machine-parsable line on standard error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import harness
from .errors import ConfigError, NumericalError
from .kernels import PARTIALS_TOL, SpinGlassMixture, alg_barrier, validate_partials

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
                            if not v <= PARTIALS_TOL))


def _writable(path) -> bool:
    """Whether ``path`` names a writable directory's entry that, if it
    exists, is writable and no directory (a device such as /dev/null is
    fine)."""
    parent = os.path.dirname(os.path.abspath(path))
    return (os.path.isdir(parent) and os.access(parent, os.W_OK) and not os.path.isdir(path)
            and (not os.path.exists(path) or os.access(path, os.W_OK)))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = harness.load_config(args.config)
        if args.seed is not None:
            config = replace(config, master_seed=args.seed)
        if args.out is not None:
            config = replace(config, out=args.out)
        if config.out and not _writable(config.out):
            raise ConfigError(f"cannot write {config.out}: not a file in a writable directory")
        _run(args.command, config)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at interpreter exit does not raise again (Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
