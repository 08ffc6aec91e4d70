"""The benchmark's three workloads and the checks on their outputs.

Each workload is built from its config file under ``configs/`` and the run's
seed.  ``call(i)`` is one timed operation; ``check`` and ``final_check``
return a list of problems (empty when the outputs are right); ``same``
compares two outputs bit for bit, which the traced run uses to show that
tracing changes nothing.  Every grfspan function a call reaches is looked up
on its module at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from grfspan import harness, kernels, limits, trajectories
from grfspan.harness import ConvergenceReport, build_gsa, build_kernel, load_config

CONFIGS = Path(__file__).resolve().parent / "configs"

#: report arrays that ``ConvergenceReport.from_csv`` must give back exactly
_REPORT_FIELDS = ("mean_f", "sd_f", "se_f", "mean_grad", "sd_grad", "se_grad",
                  "f_limit", "grad_limit")


def _nonfinite(label, **arrays):
    return [f"{label}: non-finite {name}" for name, a in arrays.items()
            if not np.all(np.isfinite(a))]


class Workload:
    """Shared set-up: the config, the kernel and optimizer it names."""

    name = ""
    #: trajectories or limit curves one call produces
    items_per_call = 1

    def __init__(self, seed: int, workdir: Path, traced: bool):
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.config = load_config(self.config_path())
        self.kernel = build_kernel(self.config.kernel)
        self.gsa = build_gsa(self.config.algorithm)

    @classmethod
    def config_path(cls) -> Path:
        return CONFIGS / f"{cls.name}.cfg"

    def warmup(self):
        """Untimed work before the first timed call."""

    def final_check(self) -> list[str]:
        return []

    def lift_direct_error(self) -> float:
        """max |Δ| over f_limit and grad_gram_limit between the lifted and the
        direct stationary kernel, at this workload's optimizer and horizon."""
        spec = self.config.kernel
        direct = kernels.stationary_direct(kernels.SchoenbergMixture(atoms=spec["atoms"]),
                                           spec["mean_level"])
        a = self.lifted_curve()
        b = limits.predict(direct, self.gsa, self.config.lam, self.config.steps)
        return float(max(np.max(np.abs(a.f_limit - b.f_limit)),
                         np.max(np.abs(a.grad_gram_limit - b.grad_gram_limit))))

    def lifted_curve(self):
        return limits.predict(self.kernel, self.gsa, self.config.lam, self.config.steps)


class VerifyT8(Workload):
    """``run_verify`` on the acceptance config with the report CSV written.

    Untraced calls use 2 workers.  Traced calls use 1 worker so every span is
    in this process; their CSV must equal, byte for byte, that of an untraced
    2-worker call made in ``warmup``.
    """

    name = "verify-t8"

    def __init__(self, seed, workdir, traced):
        super().__init__(seed, workdir, traced)
        self.config = replace(self.config, master_seed=seed)
        self.items_per_call = len(self.config.N_list) * self.config.replications
        self.workers = 1 if traced else 2
        self.reference = None
        self.runs = 0

    def _run(self, workers):
        self.runs += 1
        path = self.workdir / f"{self.name}-{self.runs}.csv"
        os.environ[harness.WORKERS_ENV] = str(workers)
        report = harness.run_verify(replace(self.config, out=str(path)))
        return report, path

    def warmup(self):
        if self.traced:
            _, path = self._run(2)
            self.reference = path.read_bytes()

    def call(self, i):
        return self._run(self.workers)

    def check(self, i, out) -> list[str]:
        report, path = out
        label = f"verify call {i}"
        cells = (len(self.config.N_list), self.config.steps + 1)
        problems = []
        if report.gap_f.shape != cells:
            problems.append(f"{label}: {report.gap_f.shape} cells, expected {cells}")
        elif not np.all(report.gap_f <= report.gap_bound()):
            worst = float(np.max(report.gap_f / report.gap_bound()))
            problems.append(f"{label}: |mean - limit| exceeds 3*SE + 2/sqrt(N) "
                            f"(worst ratio {worst:.3f})")
        back = ConvergenceReport.from_csv(path)
        if back.N_list != report.N_list or back.steps != report.steps or not all(
                np.array_equal(getattr(back, f), getattr(report, f)) for f in _REPORT_FIELDS):
            problems.append(f"{label}: ConvergenceReport.from_csv does not round-trip")
        data = path.read_bytes()
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            problems.append(f"{label}: CSV bytes differ from the reference call's")
        return problems

    def same(self, a, b) -> bool:
        return a[1].read_bytes() == b[1].read_bytes()


class PredictT30(Workload):
    """``predict`` at horizon 30, repeated; no sampling and no harness."""

    name = "predict-t30"

    def __init__(self, seed, workdir, traced):
        super().__init__(seed, workdir, traced)
        self.first = None

    def warmup(self):
        self.first = self.call(0)

    def call(self, i):
        return limits.predict(self.kernel, self.gsa, self.config.lam, self.config.steps)

    def check(self, i, out) -> list[str]:
        label = f"predict call {i}"
        problems = _nonfinite(label, f_limit=out.f_limit, gamma=out.gamma,
                              grad_gram_limit=out.grad_gram_limit, sigma_w=out.sigma_w)
        if out.steps != self.config.steps:
            problems.append(f"{label}: {out.steps} steps, expected {self.config.steps}")
        if not self.same(out, self.first):
            problems.append(f"{label}: output differs from the first call's")
        return problems

    def same(self, a, b) -> bool:
        return all(np.array_equal(getattr(a, f), getattr(b, f))
                   for f in ("f_limit", "gamma", "y_reps", "sigma_w", "dims",
                             "grad_gram_limit", "rho"))

    def lifted_curve(self):
        return self.first


class SimulateT20(Workload):
    """``simulate_info_path`` at N = 10⁹ over consecutive streams."""

    name = "simulate-t20"

    def __init__(self, seed, workdir, traced):
        super().__init__(seed, workdir, traced)
        (self.N,) = self.config.N_list
        self.first = None

    def warmup(self):
        self.call(0)

    def call(self, i):
        return trajectories.simulate_info_path(
            self.kernel, self.gsa, self.config.lam, self.N, self.config.steps,
            stream_id=i, master_seed=self.seed)

    def check(self, i, out) -> list[str]:
        label = f"trajectory {i}"
        problems = _nonfinite(label, f_values=out.f_values, G=out.G,
                              grad_gram=out.grad_gram)
        for n, d in enumerate(out.dims):
            if np.any(out.G[n, d + 1:] != 0.0):
                problems.append(f"{label}: G[{n}, {d + 1}:] is not exactly zero")
        if i == 0:
            self.first = out
        return problems

    def final_check(self) -> list[str]:
        if self.first is None:
            return ["stream 0 was never run"]
        if not self.same(self.call(0), self.first):
            return ["stream 0 re-run is not bitwise equal to its first run"]
        return []

    def same(self, a, b) -> bool:
        return all(np.array_equal(getattr(a, f), getattr(b, f))
                   for f in ("f_values", "grad_gram", "x0_grad", "G", "x_coords", "dims"))


WORKLOADS = {w.name: w for w in (VerifyT8, PredictT30, SimulateT20)}

