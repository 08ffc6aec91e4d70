"""Count the function calls per step of the two recursions.

Runs one ``predict`` curve on ``bench/configs/predict-t30.cfg``, one
``simulate_info_path`` record on ``bench/configs/simulate-t20.cfg``, one
``harness._batch_task`` on ``bench/configs/verify-t8.cfg``, the first
task of verify's fan-out (``harness._BATCH`` streams, 100, at N = 64, so
the line follows the fan-out's task size), and one ``predict`` curve of
nesterov(0.3, 0.5) on the same SE kernel to
T = 30, under cProfile, after one untimed warm-up call each, and prints the
calls cProfile counts (Python functions and the C functions they call)
divided by the number of steps, T + 1.  On arrays of a few dozen entries a step's time
is mostly call overhead, so this number tracks it.

Usage: PYTHONPATH=src python tests/step_calls.py
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from pathlib import Path

from grfspan import algorithms, harness, kernels, limits, trajectories

CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


def calls_per_step(run, steps) -> float:
    """cProfile's call count of one run() over its steps + 1 steps."""
    run()
    profile = cProfile.Profile()
    profile.runcall(run)
    return pstats.Stats(profile).total_calls / (steps + 1)


def main() -> int:
    c = harness.load_config(CONFIGS / "predict-t30.cfg")
    kernel, gsa = harness.build_kernel(c.kernel), harness.build_gsa(c.algorithm)
    per_step = calls_per_step(lambda: limits.predict(kernel, gsa, c.lam, c.steps), c.steps)
    print(f"{'predict-t30':14s} {per_step:7.1f} calls/step")
    c = harness.load_config(CONFIGS / "simulate-t20.cfg")
    kernel, gsa = harness.build_kernel(c.kernel), harness.build_gsa(c.algorithm)
    (N,) = c.N_list
    per_step = calls_per_step(lambda: trajectories.simulate_info_path(
        kernel, gsa, c.lam, N, c.steps, stream_id=0, master_seed=1), c.steps)
    print(f"{'simulate-t20':14s} {per_step:7.1f} calls/step")
    c = harness.load_config(CONFIGS / "verify-t8.cfg")
    kernel, gsa = harness.build_kernel(c.kernel), harness.build_gsa(c.algorithm)
    streams = range(min(harness._BATCH, c.replications))
    per_step = calls_per_step(lambda: harness._batch_task(
        kernel, gsa, c, c.N_list[0], streams), c.steps)
    print(f"{'verify-t8':14s} {per_step:7.1f} calls/step")
    kernel = kernels.lift_stationary(kernels.SchoenbergMixture(atoms=((1.0, 1.0),)))
    gsa = algorithms.nesterov(0.3, 0.5)
    per_step = calls_per_step(lambda: limits.predict(kernel, gsa, 1.0, 30), 30)
    print(f"{'nesterov-t30':14s} {per_step:7.1f} calls/step")
    return 0


if __name__ == "__main__":
    sys.exit(main())
