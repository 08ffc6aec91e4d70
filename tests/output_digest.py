"""Print sha256 digests of grfspan's outputs on the benchmark configs.

A refactor that claims to leave every output byte unchanged shows it by
printing the same digests before and after.  The digests cover:

* the ``predict`` curve of each config under ``bench/configs``, with the
  lifted and the direct stationary kernel;
* the ``predict`` curve of nesterov(0.3, 0.5) on the lifted SE kernel from
  λ = 1 to T = 30, the Nesterov row the configs do not run;
* the ``simulate_info_path`` records of streams 0–7 of ``simulate-t20`` at
  master seed 1, with the lifted and the direct stationary kernel, so that
  a change to either route's pair block shows here;
* the records of streams 0–7 of heavy-ball(0.4, 0.5) on the SE kernel at
  N = 64, T = 20 and master seed 3, a batch whose members climb the jitter
  ladder at different steps, so that a change to escalation shows here;
* the records of streams 0–7 of gd(0.3/70²) on the quadratic kernel with
  σ_A = 70 at N = 64, T = 8 and master seed 1 under ``pseudo_inverse``, a
  batch whose members climb the whole ladder at step 0 and most switch to
  the pseudo-inverse later, so that a change to that route shows here;
* the records of streams 0–7 of heavy-ball(0.3, 0.5) on the 1+2-spin
  ``SpinGlassMixture((0, √0.5, 1))``, ξ(s) = 0.5·s + s², at λ = 1, N = 16,
  T = 8 and master seed 1, a batch whose members escalate at steps 1, 6, 7
  and 8 on the kernel whose exact finite-N means the tests check, so that
  a change to the ladder there shows here;
* the report CSV of ``run_verify`` on ``verify-t8`` at master seed 1, under
  1, 2 and 3 workers; with 3 its 16 tasks split into stripes of 6, 5 and 5.

The digests depend on the BLAS kernel numpy runs on, so they are compared
between two trees on one machine, not with stored values.  The BLAS thread
count is pinned to 1 before numpy loads.  Exits 1 unless the three
``verify`` CSVs are equal, since report bytes must not depend on the worker
count.

Usage: PYTHONPATH=src python tests/output_digest.py
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from grfspan import algorithms, harness, kernels, limits, trajectories

CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"
CURVE_FIELDS = ("f_limit", "gamma", "y_reps", "sigma_w", "dims", "grad_gram_limit", "rho")
RECORD_FIELDS = ("f_values", "grad_gram", "x0_grad", "G", "x_coords", "dims")
SEED = 1
STREAMS = range(8)


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def routes(spec):
    """(route, kernel) of a config's kernel: lifted as built, and direct."""
    direct = kernels.stationary_direct(kernels.SchoenbergMixture(atoms=spec["atoms"]),
                                       spec.get("mean_level", 0.0))
    return (("lifted", harness.build_kernel(spec)), ("direct", direct))


def curve_digests(config):
    """{route: digest} of the predict curve under the lifted and direct kernel."""
    gsa = harness.build_gsa(config.algorithm)
    out = {}
    for route, kernel in routes(config.kernel):
        curve = limits.predict(kernel, gsa, config.lam, config.steps)
        out[route] = digest(getattr(curve, f) for f in CURVE_FIELDS)
    return out


def nesterov_digest() -> str:
    kernel = kernels.lift_stationary(kernels.SchoenbergMixture(atoms=((1.0, 1.0),)))
    curve = limits.predict(kernel, algorithms.nesterov(0.3, 0.5), 1.0, 30)
    return digest(getattr(curve, f) for f in CURVE_FIELDS)


def simulate_digests(config):
    """{route: digest} of the sampled records under the lifted and direct kernel."""
    gsa = harness.build_gsa(config.algorithm)
    (N,) = config.N_list
    out = {}
    for route, kernel in routes(config.kernel):
        records = [trajectories.simulate_info_path(kernel, gsa, config.lam, N, config.steps,
                                                   stream_id=sid, master_seed=SEED)
                   for sid in STREAMS]
        out[route] = digest(getattr(r, f) for r in records for f in RECORD_FIELDS)
    return out


def escalating_digest() -> str:
    kernel = kernels.lift_stationary(kernels.SchoenbergMixture(atoms=((1.0, 1.0),)))
    records = trajectories.simulate_info_paths(kernel, algorithms.heavy_ball(0.4, 0.5), 1.0, 64,
                                               20, STREAMS, master_seed=3)
    return digest(getattr(r, f) for r in records for f in RECORD_FIELDS)


def pseudo_digest() -> str:
    records = trajectories.simulate_info_paths(
        kernels.quadratic_kernel(70.0, 0.5, 1.0), algorithms.gd(0.3 / 70 ** 2), 1.0, 64, 8,
        STREAMS, master_seed=SEED, pseudo_inverse=True)
    return digest(getattr(r, f) for r in records for f in RECORD_FIELDS)


def spin_digest() -> str:
    kernel = kernels.spin_glass_kernel(kernels.SpinGlassMixture((0.0, math.sqrt(0.5), 1.0)))
    records = trajectories.simulate_info_paths(kernel, algorithms.heavy_ball(0.3, 0.5), 1.0, 16,
                                               8, STREAMS, master_seed=SEED)
    return digest(getattr(r, f) for r in records for f in RECORD_FIELDS)


def verify_csv(config, workers, directory) -> bytes:
    path = Path(directory) / f"verify-{workers}.csv"
    os.environ[harness.WORKERS_ENV] = str(workers)
    harness.run_verify(replace(config, master_seed=SEED, out=str(path)))
    return path.read_bytes()


def main() -> int:
    status = 0
    for path in sorted(CONFIGS.glob("*.cfg")):
        for route, value in curve_digests(harness.load_config(path)).items():
            print(f"predict {path.stem:13s} {route:6s} {value}")
    print(f"predict {'nesterov-t30':13s} {'lifted':6s} {nesterov_digest()}")
    config = harness.load_config(CONFIGS / "simulate-t20.cfg")
    for route, value in simulate_digests(config).items():
        label = "s0-7" if route == "lifted" else route
        print(f"simulate {'simulate-t20':12s} {label:6s} {value}")
    print(f"simulate {'hb-N64-t20':12s} {'s0-7':6s} {escalating_digest()}")
    print(f"simulate {'quad70-pinv':12s} {'s0-7':6s} {pseudo_digest()}")
    print(f"simulate {'spin12-hb-t8':12s} {'s0-7':6s} {spin_digest()}")
    config = harness.load_config(CONFIGS / "verify-t8.cfg")
    with tempfile.TemporaryDirectory() as directory:
        csvs = {w: verify_csv(config, w, directory) for w in (1, 2, 3)}
    for workers, data in csvs.items():
        print(f"verify {'verify-t8':14s} {f'w{workers}':6s} {hashlib.sha256(data).hexdigest()}")
    if len(set(csvs.values())) > 1:
        print("verify CSV bytes differ between 1, 2 and 3 workers", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
