"""End-to-end checks of the package's headline guarantees.

Each test exercises one observable promise — exact limiting values, agreement
between independent computational routes, convergence of finite-N Monte
Carlo runs to the predicted curves, and bit-level reproducibility — at fixed
seeds and with explicit runtime budgets.  Statistical thresholds are chosen
so an honest implementation passes with comfortable margin.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from grfspan.algorithms import gd, heavy_ball
from grfspan.harness import (
    ExperimentConfig,
    run_halting,
    run_two_init,
    run_verify,
)
from grfspan.kernels import (
    SchoenbergMixture,
    SpinGlassMixture,
    alg_barrier,
    lift_stationary,
    quadratic_kernel,
    spin_glass_kernel,
    stationary_direct,
    validate_partials,
)
from grfspan.limits import predict
from grfspan.trajectories import brute_force_path, simulate_info_path, simulate_info_paths
from test_limits import quadratic_gd_oracle

MASTER_SEED = 20240817

SE_MIX = SchoenbergMixture(atoms=((1.0, 1.0),))      # C(r) = e^{-r}
SE = lift_stationary(SE_MIX)
KERNEL_SPEC = {"type": "stationary_schoenberg", "atoms": ((1.0, 1.0),),
               "mean_level": 0.0}
GD_SPEC = {"type": "gd", "alpha": 0.4, "projection": "none"}
HB_SPEC = {"type": "heavy_ball", "alpha": 0.4, "beta": 0.5,
           "projection": "none"}

VERIFY_CONFIG = ExperimentConfig(
    kernel=KERNEL_SPEC, algorithm=GD_SPEC, lam=1.0,
    N_list=(64, 256, 1024, 4096), steps=8, replications=200,
    master_seed=MASTER_SEED)


@pytest.fixture(scope="module")
def verify_runs(tmp_path_factory):
    """The large convergence runs, shared between the mean-tracking and
    byte-reproducibility tests."""
    out = tmp_path_factory.mktemp("verify") / "gd.csv"
    start = time.monotonic()
    report_gd = run_verify(replace(VERIFY_CONFIG, out=str(out)))
    report_hb = run_verify(replace(VERIFY_CONFIG, algorithm=HB_SPEC))
    elapsed = time.monotonic() - start
    return {"gd": report_gd, "hb": report_hb, "elapsed": elapsed,
            "gd_csv": out.read_bytes()}


def test_initial_gradient_norm_slope_law():
    """At the start point the limiting squared gradient norm is exactly
    -C'(0) = 1, and finite-N samples average to it."""
    start = time.monotonic()
    curve = predict(SE, gd(0.4), 1.0, 0)
    assert abs(curve.grad_gram_limit[0, 0] - 1.0) <= 1e-12

    M = 400
    samples = np.array([
        simulate_info_path(SE, gd(0.4), 1.0, 1024, 0, i, 101).grad_gram[0, 0]
        for i in range(M)
    ])
    se = samples.std(ddof=1) / math.sqrt(M)
    assert abs(samples.mean() - 1.0) <= 3 * se
    assert time.monotonic() - start < 10.0


def test_quadratic_model_matches_closed_form():
    """Twenty predicted steps on the infinite-data quadratic model against
    the two-component recursion, to 1e-8."""
    start = time.monotonic()
    kernel = quadratic_kernel(1.0, 0.0, 1.0)
    curve = predict(kernel, gd(0.3), 1.0, 20, on_rank_stall="freeze")
    oracle = quadratic_gd_oracle(0.3, 20)
    np.testing.assert_allclose(curve.f_limit, oracle, rtol=0, atol=1e-8)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("atoms", [
    ((1.0, 1.0),),
    ((0.7, 0.5), (0.3, 2.0)),
    ((0.5, 0.7), (0.3, 1.4), (0.2, 2.2)),
])
def test_stationary_direct_and_lifted_forms_agree(atoms):
    """Ten predicted steps through the generic lifted kernel and through the
    squared-distance stationary formulas agree to 1e-10."""
    mixture = SchoenbergMixture(atoms=atoms)
    lifted = predict(lift_stationary(mixture), gd(0.4), 1.0, 10)
    direct = predict(stationary_direct(mixture, 0.0), gd(0.4), 1.0, 10)
    for name in ("f_limit", "grad_gram_limit", "sigma_w", "gamma"):
        np.testing.assert_allclose(getattr(lifted, name), getattr(direct, name),
                                   rtol=0, atol=1e-10)


def test_trajectory_means_track_limit_curve(verify_runs):
    """Monte Carlo means stay within 3 SE + 2/sqrt(N) of the predicted curve
    at every (N, step), and the cross-run spread decays at the 1/sqrt(N)
    rate, for plain and momentum gradient descent."""
    for name in ("gd", "hb"):
        report = verify_runs[name]
        assert np.all(report.gap_f <= report.gap_bound()), name
        assert np.all(report.slope_f >= -0.65) and np.all(report.slope_f <= -0.35), name
    assert verify_runs["elapsed"] < 300.0


def test_dimension_free_sampler_matches_brute_force():
    """The coordinate-free sampler and the explicit R^N oracle produce the
    same law: KS tests on the final value and gradient norm do not reject at
    1e-3, and means agree within 4 pooled SE."""
    start = time.monotonic()
    M, N, steps = 4000, 16, 3
    alg = gd(0.4)
    x0 = np.zeros(N)
    x0[0] = 1.0
    sim = simulate_info_paths(SE, alg, 1.0, N, steps, range(M), 501)
    f_sim = np.array([rec.f_values[steps] for rec in sim])
    g_sim = np.array([rec.grad_gram[steps, steps] for rec in sim])
    f_ora = np.empty(M)
    g_ora = np.empty(M)
    for i in range(M):
        ora = brute_force_path(SE, alg, x0, steps, i, 502)
        f_ora[i], g_ora[i] = ora.f_values[steps], ora.grad_gram[steps, steps]

    assert stats.ks_2samp(f_sim, f_ora).pvalue > 1e-3
    assert stats.ks_2samp(g_sim, g_ora).pvalue > 1e-3
    for a, b in ((f_sim, f_ora), (g_sim, g_ora)):
        pooled = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / M)
        assert abs(a.mean() - b.mean()) <= 4 * pooled
    assert time.monotonic() - start < 120.0


def test_halting_times_become_deterministic():
    """With the threshold midway between consecutive limiting diagonal
    values, the finite-N halting step matches the predicted one with
    frequency >= 0.9 at the largest N, non-decreasing along the ladder."""
    curve = predict(SE, gd(0.4), 1.0, 8)
    diag = np.diagonal(curve.grad_gram_limit)
    eps = 0.5 * (diag[3] + diag[4])
    report = run_halting(replace(VERIFY_CONFIG, epsilons=(eps,)))
    freqs = report.frequencies[:, 0]
    assert report.tau_limit == (4.0,)
    assert freqs[-1] >= 0.9
    assert np.all(np.diff(freqs) >= 0)


def test_independent_starts_converge_to_same_curve():
    """Paired runs from independent noise: the median of the largest value
    gap along the trajectory shrinks strictly with N."""
    report = run_two_init(replace(VERIFY_CONFIG, replications=100))
    assert all(b < a for a, b in zip(report.medians, report.medians[1:]))


def test_spherical_spin_glass_reachability_barrier():
    """Integral barrier values for the pure 2-spin and 3-spin models."""
    two_spin = alg_barrier(SpinGlassMixture(coeffs=(0.0, 0.0, 1.0)))
    three_spin = alg_barrier(SpinGlassMixture(coeffs=(0.0, 0.0, 0.0, 1.0)))
    assert abs(two_spin - math.sqrt(2.0)) <= 1e-6
    assert abs(three_spin - (2.0 / 3.0) * math.sqrt(6.0)) <= 1e-6


@pytest.mark.parametrize("kernel", [
    lift_stationary(SchoenbergMixture(atoms=((0.6, 0.8), (0.4, 1.7)))),
    stationary_direct(SchoenbergMixture(atoms=((0.6, 0.8), (0.4, 1.7))), 0.3),
    spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 0.5, 1.0, 0.25))),
    quadratic_kernel(1.0, 0.5, 2.0),
], ids=["lifted", "direct", "spin-glass", "quadratic"])
def test_kernel_partials_match_finite_differences(kernel):
    """Analytic partials agree with central differences to relative 1e-6 on
    the interior validation grid."""
    report = validate_partials(kernel)
    assert report.passed, report.max_rel_err


def test_limit_curve_independent_of_starting_norm():
    """A stationary field plus an optimizer that never reads the start point
    gives the same limit curve for any starting norm."""
    reference = predict(SE, gd(0.4), 1.0, 8)
    for lam in (0.5, 5.0):
        other = predict(SE, gd(0.4), lam, 8)
        for name in ("f_limit", "grad_gram_limit", "sigma_w"):
            np.testing.assert_allclose(getattr(other, name),
                                       getattr(reference, name),
                                       rtol=0, atol=1e-10)
        np.testing.assert_array_equal(other.dims, reference.dims)


def test_gradient_coordinates_structurally_zero():
    """Sampled gradient coordinates along directions introduced later are
    exactly zero — identically, not approximately — over 100 trajectories."""
    algorithms = (gd(0.4), heavy_ball(0.4, 0.5))
    for stream in range(100):
        alg = algorithms[stream % 2]
        rec = simulate_info_path(SE, alg, 1.0, 64, 5, stream, MASTER_SEED)
        for k in range(rec.steps + 1):
            assert np.all(rec.G[k, int(rec.dims[k]) + 1:] == 0.0)


def test_repeated_runs_byte_identical(verify_runs, tmp_path):
    """Re-running the large convergence config with the same master seed
    reproduces the report CSV byte for byte."""
    out = tmp_path / "again.csv"
    run_verify(replace(VERIFY_CONFIG, out=str(out)))
    assert out.read_bytes() == verify_runs["gd_csv"]
