"""Limit recursion: frozen start values, oracles, and structural invariants."""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grfspan
from grfspan import assembly, gaussianops, limits, trajectories
from grfspan.algorithms import (
    GsaSpec,
    InfoView,
    PrefactorRow,
    fr_cg,
    gd,
    heavy_ball,
    nesterov,
    with_ball_projection,
    with_sphere_projection,
)
from grfspan.assembly import (
    PIVOT_FLOOR,
    RANK_STALL_TOL,
    LimitState,
    SpanState,
    coordinate_inner_products,
    cov_block,
    flatten_history,
    joint_blocks,
    k3_matrix,
    mean_block,
    residual_variance,
)
from grfspan.errors import (
    CoincidentPointsError,
    DegenerateKernelError,
    KernelDomainError,
    NotPsdError,
    RankStallError,
)
from grfspan.gaussianops import condition, make_rng
from grfspan.harness import build_gsa, build_kernel, load_config
from grfspan.kernels import (
    KernelModel,
    SchoenbergMixture,
    SpinGlassMixture,
    lift_stationary,
    quadratic_kernel,
    spin_glass_kernel,
    stationary_direct,
)
from grfspan.limits import (
    first_halting_step,
    SpanWalk,
    halting_times,
    limit_step,
    predict,
)
from grfspan.trajectories import simulate_info_paths

SE_MIX = SchoenbergMixture(atoms=((1.0, 1.0),))


def quadratic_gd_oracle(alpha, steps):
    """Closed-form progress of gradient descent on the infinite-data
    quadratic model: track the x₀- and noise-direction components."""
    c, b = 1.0, 0.0
    values = [0.5 * (1 + c * c + b * b) + b]
    for _ in range(steps):
        c = (1 - alpha) * c
        b = (1 - alpha) * b - alpha
        values.append(0.5 * (1 + c * c + b * b) + b)
    return np.array(values)


# ---------------------------------------------------------------------------
# induction start
# ---------------------------------------------------------------------------

def test_init_stationary_se():
    curve = predict(lift_stationary(SE_MIX), gd(0.4), 1.0, steps=0)
    assert curve.f_limit[0] == 0.0
    np.testing.assert_allclose(curve.gamma[0], [0.0, 1.0], atol=1e-15)
    assert curve.grad_gram_limit[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert curve.dims[0] == 1
    assert curve.sigma_w[0] == pytest.approx(1.0)
    np.testing.assert_allclose(curve.y_reps[0], [1.0, 0.0])


def test_init_quadratic():
    curve = predict(quadratic_kernel(1.0, 0.0, 1.0), gd(0.4), 1.0, steps=0)
    assert curve.f_limit[0] == pytest.approx(1.0, abs=1e-15)
    assert curve.gamma[0, 0] == pytest.approx(1.0)   # μ′(0.5)·λ
    assert curve.gamma[0, 1] == pytest.approx(1.0)   # √κ₃
    assert curve.grad_gram_limit[0, 0] == pytest.approx(2.0)


def test_init_at_origin():
    curve = predict(lift_stationary(SE_MIX), gd(0.4), 0.0, steps=0)
    assert curve.dims[0] == 0
    assert curve.gamma.shape == (1, 1)
    assert curve.gamma[0, 0] == pytest.approx(1.0)


def test_init_degenerate_two_spin_at_origin():
    kernel = spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 0.0, 1.0)))
    with pytest.raises(DegenerateKernelError):
        predict(kernel, gd(0.4), 0.0, steps=0)


def test_degenerate_kernel_at_a_later_step_on_both_paths():
    # step 1 jumps to the origin, where ξ'(0) = 0 leaves no gradient mass
    # outside the span; the limit and the sampler raise the same error
    kernel = spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 0.0, 1.0)))
    origin = GsaSpec(name="origin", prefactors=lambda n, info: PrefactorRow(
        0.0, np.zeros(info.f_values.shape[:-1] + (n,))))
    with pytest.raises(DegenerateKernelError, match=r"^step 1: κ₃ = 0 at the new point"):
        predict(kernel, origin, 1.0, 2)
    with pytest.raises(DegenerateKernelError, match=r"^stream 5: step 1: κ₃ = 0"):
        simulate_info_paths(kernel, origin, 1.0, 64, 2, [5, 6], 0)


def test_init_rejects_negative_lambda():
    with pytest.raises(ValueError):
        predict(lift_stationary(SE_MIX), gd(0.4), -1.0, steps=0)


# ---------------------------------------------------------------------------
# quadratic closed-form oracle
# ---------------------------------------------------------------------------

def test_quadratic_oracle_spot_values():
    oracle = quadratic_gd_oracle(0.3, 2)
    assert oracle[1] == pytest.approx(0.49, abs=1e-15)
    assert oracle[2] == pytest.approx(0.2401, abs=1e-15)


def test_predict_matches_quadratic_oracle():
    kernel = quadratic_kernel(1.0, 0.0, 1.0)
    curve = predict(kernel, gd(0.3), 1.0, 20, on_rank_stall="freeze")
    np.testing.assert_allclose(curve.f_limit, quadratic_gd_oracle(0.3, 20),
                               atol=1e-8)
    # the quadratic field is affine: span stops growing immediately
    assert curve.frozen_steps == tuple(range(1, 21))
    assert curve.dims[-1] == 2


def test_quadratic_rank_stall_raises_by_default():
    kernel = quadratic_kernel(1.0, 0.0, 1.0)
    with pytest.raises(RankStallError):
        predict(kernel, gd(0.3), 1.0, 2)


# ---------------------------------------------------------------------------
# pure 2-spin closed-form oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gsa, alpha, c2, lam", [
    (gd(0.3), 0.3, 1.0, 1.0),
    (heavy_ball(0.3, 0.5), 0.3, 1.0, 1.0),
    (gd(0.4), 0.4, 0.7, 1.5),
], ids=["gd", "heavy-ball", "gd-c0.7-lam1.5"])
def test_pure_two_spin_sigma_w_is_geometric(gsa, alpha, c2, lam):
    # ξ(s) = c₂²s² makes κ₃ = 2c₂²⟨x, y⟩, so σ_w²(n) is 2c₂² times the
    # squared distance of x_n from the span of the earlier points: 2c₂²λ²
    # at x₀ = λ·v₀.  x_{n+1} leaves that span only through −α times the
    # gradient's corner √σ_w²(n) (a momentum term stays inside it), so each
    # step multiplies σ_w² by 2c₂²α².  The float64 recursion holds this to
    # 1e-9 through step 4; by step 6 its error reaches about 1e-7
    curve = predict(spin_glass_kernel(SpinGlassMixture((0.0, 0.0, c2))), gsa, lam, 4)
    exact = 2 * c2 ** 2 * lam ** 2 * (2 * c2 ** 2 * alpha ** 2) ** np.arange(5)
    np.testing.assert_allclose(curve.sigma_w ** 2, exact, rtol=1e-9, atol=0)


@pytest.mark.parametrize("c1_sq", [0.0, 0.5], ids=["pure", "mixed"])
@pytest.mark.parametrize("gsa", [gd(0.3), heavy_ball(0.3, 0.5), nesterov(0.3, 0.5)],
                         ids=lambda g: g.name)
def test_predict_matches_the_exact_semicircle_curve(gsa, c1_sq):
    # ξ(s) = c₁²s + s² is a random quadratic, whose limit curve is exact in
    # rational arithmetic from the semicircle law's moments; the float64
    # recursion is within 4e-14 of it through T = 8 on these cases
    from semicircle_reference import exact_curve
    kernel = spin_glass_kernel(SpinGlassMixture((0.0, math.sqrt(c1_sq), 1.0)))
    curve = predict(kernel, gsa, 1.0, 8)
    f, gram = (np.array(a, dtype=float) for a in exact_curve(gsa, c1_sq, 1, 1.0, 8))
    assert np.abs(curve.f_limit - f).max() <= 1e-12 * np.abs(f).max()
    assert np.abs(curve.grad_gram_limit - gram).max() <= 1e-12 * np.abs(gram).max()


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(optimizer=st.sampled_from(["gd", "heavy_ball", "nesterov"]),
       alpha=st.sampled_from([0.125, 0.25, 0.375, 0.5]), beta=st.sampled_from([0.25, 0.5]),
       c1_sq=st.sampled_from([0.0, 0.25, 0.5, 1.0]), c2_sq=st.sampled_from([0.5, 1.0]),
       lam=st.sampled_from([1.0, 1.5]))
def test_predict_matches_the_exact_semicircle_curve_on_drawn_cases(optimizer, alpha, beta,
                                                                   c1_sq, c2_sq, lam):
    # the drawn parameters are dyadic rationals, so the exact curve sees the
    # floats predict steps with; on the whole grid of these draws predict is
    # within 6e-14 of it through T = 6, and no case raises
    from semicircle_reference import exact_curve
    gsa = (gd(alpha) if optimizer == "gd"
           else {"heavy_ball": heavy_ball, "nesterov": nesterov}[optimizer](alpha, beta))
    kernel = spin_glass_kernel(SpinGlassMixture((0.0, math.sqrt(c1_sq), math.sqrt(c2_sq))))
    curve = predict(kernel, gsa, lam, 6)
    f, gram = (np.array(a, dtype=float) for a in exact_curve(gsa, c1_sq, c2_sq, lam, 6))
    assert np.abs(curve.f_limit - f).max() <= 1e-12 * np.abs(f).max()
    assert np.abs(curve.grad_gram_limit - gram).max() <= 1e-12 * np.abs(gram).max()


@pytest.mark.parametrize("gsa", [with_sphere_projection(gd(0.3), 1.0), fr_cg(0.3)],
                         ids=lambda g: g.name)
def test_predict_matches_the_exact_reading_curve(gsa):
    # rows that read the information, on the pure 2-spin with λ = r = 1:
    # the sphere's rescaling takes a square root, so its exact curve is in
    # 50-digit mpmath, and fr_cg's β_n is a ratio of Gram entries, exact in
    # fractions.  Through each step n ≤ 6, relative to the largest exact
    # value through n, predict is within 3e-16 (f) and 9e-16 (Gram) of the
    # sphere's curve and within 4e-15 of fr_cg's, whose f reaches −5e17
    from semicircle_reference import exact_reading_curve, relative_errors
    curve = predict(spin_glass_kernel(SpinGlassMixture((0.0, 0.0, 1.0))), gsa, 1.0, 6)
    errors = relative_errors(curve, exact_reading_curve(gsa, 1, 6))
    assert max(map(max, errors)) <= 1e-12, errors


@pytest.mark.parametrize("gsa", [gd(0.1), gd(0.3), heavy_ball(0.3, 0.5), nesterov(0.3, 0.5)],
                         ids=lambda g: f"{g.name}-{g.parameters['alpha']}")
def test_rank_stall_freeze_stays_near_the_exact_curve(gsa):
    # on the pure 2-spin the exact span never stops growing, but predict's
    # κ₃ pivot runs out of float64 digits first (the README's 2-spin horizon
    # table); under "freeze" it goes on with the span frozen from there.  To
    # T = 16 its worst per-step relative error is 4e-8, in gd(0.1)'s ‖∇f‖²
    # (frozen from step 9); the bounds are the errors measured at T = 24
    from semicircle_reference import exact_curve
    curve = predict(spin_glass_kernel(SpinGlassMixture((0.0, 0.0, 1.0))), gsa, 1.0, 16,
                    on_rank_stall="freeze")
    f, gram = exact_curve(gsa, 0, 1, 1.0, 16)
    f, grad_sq = np.array(f, dtype=float), np.array([gram[n][n] for n in range(17)], dtype=float)
    assert curve.frozen_steps
    assert (np.abs(curve.f_limit - f) <= 1e-6 * np.abs(f)).all()
    assert (np.abs(np.diagonal(curve.grad_gram_limit) - grad_sq) <= 2e-6 * grad_sq).all()


# ---------------------------------------------------------------------------
# two stationary code paths
# ---------------------------------------------------------------------------

def test_lifted_equals_direct_stationary_path():
    mix = SchoenbergMixture(atoms=((0.6, 1.0), (0.4, 0.4)))
    a = predict(lift_stationary(mix), gd(0.4), 1.0, 10)
    b = predict(stationary_direct(mix), gd(0.4), 1.0, 10)
    np.testing.assert_allclose(a.f_limit, b.f_limit, atol=1e-10)
    np.testing.assert_allclose(a.gamma, b.gamma, atol=1e-10)
    np.testing.assert_allclose(a.sigma_w, b.sigma_w, atol=1e-10)


# ---------------------------------------------------------------------------
# independence of the starting norm
# ---------------------------------------------------------------------------

def test_lambda_independence_on_stationary_kernel():
    kernel = lift_stationary(SE_MIX)
    base = predict(kernel, gd(0.4), 1.0, 6)
    other = predict(kernel, gd(0.4), 7.0, 6)
    np.testing.assert_allclose(base.f_limit, other.f_limit, atol=1e-10)
    np.testing.assert_allclose(base.gamma, other.gamma, atol=1e-10)
    np.testing.assert_allclose(base.sigma_w, other.sigma_w, atol=1e-10)
    np.testing.assert_allclose(base.grad_gram_limit, other.grad_gram_limit, atol=1e-10)
    np.testing.assert_allclose(base.rho, other.rho, atol=1e-10)
    np.testing.assert_array_equal(base.dims, other.dims)


def test_origin_start_gives_same_information():
    kernel = lift_stationary(SE_MIX)
    base = predict(kernel, gd(0.4), 1.0, 6)
    origin = predict(kernel, gd(0.4), 0.0, 6)
    np.testing.assert_allclose(origin.f_limit, base.f_limit, atol=1e-10)
    np.testing.assert_allclose(origin.grad_gram_limit, base.grad_gram_limit,
                               atol=1e-10)
    np.testing.assert_array_equal(origin.dims, base.dims - 1)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_gsa", [
    lambda: gd(0.4), lambda: heavy_ball(0.4, 0.5),
    lambda: nesterov(0.3, 0.5), lambda: fr_cg(0.2),
])
def test_curve_invariants(make_gsa):
    curve = predict(lift_stationary(SE_MIX), make_gsa(), 1.0, 6)
    assert np.all(curve.sigma_w > 0)
    # exact zeros beyond each row's span width
    for k in range(curve.steps + 1):
        assert np.all(curve.gamma[k, curve.gamma_width(k):] == 0.0)
        assert np.all(curve.y_reps[k, curve.dims[k]:] == 0.0)
    off = curve.rho[np.triu_indices(curve.steps + 1, k=1)]
    assert np.all(off > 1e-10)
    eigs = np.linalg.eigvalsh(curve.grad_gram_limit)
    assert eigs.min() >= -1e-10
    np.testing.assert_array_equal(curve.dims, np.arange(1, curve.steps + 2))


def test_predict_is_deterministic():
    a = predict(lift_stationary(SE_MIX), heavy_ball(0.4, 0.5), 1.0, 5)
    b = predict(lift_stationary(SE_MIX), heavy_ball(0.4, 0.5), 1.0, 5)
    assert np.array_equal(a.f_limit, b.f_limit)
    assert np.array_equal(a.gamma, b.gamma)
    assert np.array_equal(a.grad_gram_limit, b.grad_gram_limit)


def test_predict_zero_steps():
    curve = predict(lift_stationary(SE_MIX), gd(0.4), 1.0, 0)
    assert curve.steps == 0
    assert len(curve.f_limit) == 1


def test_predict_rejects_an_unknown_rank_stall_rule():
    with pytest.raises(ValueError, match=r"'error' or 'freeze'"):
        predict(lift_stationary(SE_MIX), gd(0.4), 1.0, 2, on_rank_stall="panic")


def test_coincident_points_detected():
    # an "algorithm" that re-emits x₀ forever: the second step revisits y₀
    stay = GsaSpec(name="stay",
                   prefactors=lambda n, info: PrefactorRow(1.0, np.zeros(n)))
    with pytest.raises((CoincidentPointsError, RankStallError)):
        predict(lift_stationary(SE_MIX), stay, 1.0, 2)
    with pytest.raises(CoincidentPointsError):
        predict(lift_stationary(SE_MIX), stay, 1.0, 2, on_rank_stall="freeze")


def test_sphere_projected_spin_glass_runs():
    kernel = spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 0.0, 1.0)))
    curve = predict(kernel, with_sphere_projection(gd(0.4), 1.0), 1.0, 8)
    assert np.all(np.isfinite(curve.f_limit))
    assert np.all(curve.sigma_w > 0)
    # projected iterates stay on the unit sphere
    norms = np.linalg.norm(curve.y_reps, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# limiting information and halting
# ---------------------------------------------------------------------------

def walk_to(kernel, gsa, lam, steps):
    """A limit walk after steps 0..steps."""
    walk = SpanWalk(LimitState(kernel), lam, steps)
    for _ in range(steps + 1):
        limit_step(walk, gsa)
    return walk


def test_limiting_info_contents():
    kernel = lift_stationary(SE_MIX)
    info = walk_to(kernel, gd(0.4), 1.0, 0).info()
    assert info.grad_gram[0, 0, 0] == pytest.approx(1.0)
    walk = walk_to(kernel, gd(0.4), 1.0, 4)
    curve, info4 = walk.curve(), walk.info()
    assert info4.f_values.shape == (1, 5)
    np.testing.assert_array_equal(info4.f_values[0], curve.f_limit)
    np.testing.assert_array_equal(info4.grad_gram[0], curve.grad_gram_limit)
    np.testing.assert_allclose(info4.x0_grad[0], curve.lam * curve.gamma[:5, 0])
    assert info4.x0_norm_sq == curve.lam ** 2
    origin = walk_to(kernel, gd(0.4), 0.0, 3)
    assert np.all(origin.info().x0_grad == 0.0)
    with pytest.raises(ValueError):
        limit_step(walk, gd(0.4))


def _count_info_views(monkeypatch):
    """Spy on ``InfoView.__init__``; returns the list each built view is
    appended to."""
    built, init = [], InfoView.__init__

    def spied(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(InfoView, "__init__", spied)
    return built


@pytest.mark.parametrize("gsa, reads", [
    (gd(0.4), False), (heavy_ball(0.4, 0.5), False), (nesterov(0.3, 0.5), False),
    (fr_cg(0.3), True), (with_sphere_projection(gd(0.1), 1.0), True),
], ids=["gd", "heavy-ball", "nesterov", "fr_cg", "sphere-gd"])
@pytest.mark.parametrize("route", ["predict", "sampled"])
def test_step_builds_the_information_only_when_the_row_reads_it(monkeypatch, gsa, reads, route):
    # fixed-coefficient schedules never read the information, so no step
    # builds it; a reading row gets it built once per step n >= 1, for the
    # whole batch
    built = _count_info_views(monkeypatch)
    kernel, steps = lift_stationary(SE_MIX), 8
    if route == "predict":
        assert predict(kernel, gsa, 1.0, steps).steps == steps
    else:
        records = simulate_info_paths(kernel, gsa, 1.0, 64, steps, range(5), 1)
        assert [r.steps for r in records] == [steps] * 5
    assert len(built) == (steps if reads else 0)


def test_a_reading_row_gives_the_fixed_row_curve():
    inner, shapes = gd(0.4), []

    def prefactors(n, info):
        shapes.append(info.f_values.shape)
        return inner.row(n, info)

    kernel = lift_stationary(SE_MIX)
    reading = predict(kernel, GsaSpec("gd-reading", inner.parameters, prefactors), 1.0, 8)
    fixed = predict(kernel, inner, 1.0, 8)
    assert shapes == [(1, n) for n in range(1, 9)]
    for name in ("f_limit", "gamma", "y_reps", "sigma_w", "dims", "grad_gram_limit", "rho"):
        assert np.array_equal(getattr(reading, name), getattr(fixed, name)), name


def test_a_reading_row_still_validates_the_information():
    # a NaN in a gradient's coordinates leaves the Gram's row and column of
    # that gradient unequal to each other: the view built inside the step
    # runs InfoView's checks, as walk.info() does
    walk = SpanWalk(LimitState(lift_stationary(SE_MIX)), 1.0, 4)
    for _ in range(3):
        limit_step(walk, gd(0.4))
    walk.G[0, 1, 1] = np.nan
    for build in (walk.info, lambda: limit_step(walk, fr_cg(0.3))):
        with pytest.raises(ValueError, match="gradient Gram matrix must be symmetric"):
            build()


def test_information_kept_past_its_step_is_unchanged():
    # every step's view is kept; the odd steps' are read inside the step, the
    # even steps' only after the walk has gone on, and both read what the
    # walk's information was at their step
    inner, kept, expected = gd(0.4), [], []
    walk = SpanWalk(LimitState(lift_stationary(SE_MIX)), 1.0, 6)

    def fields(info):
        return [info.f_values.copy(), info.grad_gram.copy(), info.x0_grad.copy(),
                info.x0_norm_sq, info.steps]

    def prefactors(n, info):
        kept.append(info)
        expected.append(fields(walk.info()))
        if n % 2:
            assert all(np.array_equal(a, b) for a, b in zip(fields(info), expected[-1]))
        return inner.row(n, info)

    spec = GsaSpec("gd-keeping", inner.parameters, prefactors)
    for _ in range(7):
        limit_step(walk, spec)
    assert len(kept) == 6
    for info, want in zip(kept, expected):
        assert all(np.array_equal(a, b) for a, b in zip(fields(info), want))


def test_halting_times_definitions():
    curve = predict(lift_stationary(SE_MIX), gd(0.4), 1.0, 6)
    diag = np.diagonal(curve.grad_gram_limit)

    tau, tau_plus = halting_times(curve, (diag[2] + diag[3]) / 2.0)
    assert tau == 3 and tau_plus == 3

    tau, tau_plus = halting_times(curve, diag.min() / 2.0)
    assert tau == math.inf and tau_plus == math.inf

    # threshold exactly on a diagonal value: ≤ hits it, < does not
    tau, tau_plus = halting_times(curve, float(diag[2]))
    assert tau == 2
    assert tau_plus == 3


def test_halting_on_synthetic_diagonal():
    from grfspan.limits import LimitCurve
    gram = np.diag([1.0, 0.5, 0.2])
    curve = LimitCurve(f_limit=np.zeros(3), gamma=np.zeros((3, 1)),
                       y_reps=np.zeros((3, 1)), sigma_w=np.ones(3),
                       dims=np.arange(1, 4), grad_gram_limit=gram,
                       rho=np.zeros((3, 3)), lam=1.0)
    tau, tau_plus = halting_times(curve, 0.6)
    assert tau == 1 and tau_plus == 1


def test_first_halting_step_over_the_last_axis():
    diag = np.array([[[0.1, 0.9, 0.4, 0.2], [0.8, 0.7, 0.6, 0.5]],
                     [[0.3, 0.3, 0.9, 0.1], [0.1, 0.9, 0.9, 0.9]]])
    steps = first_halting_step(diag, 0.3)
    assert steps.shape == (2, 2)
    np.testing.assert_array_equal(steps, [[3, math.inf], [1, math.inf]])
    for index in np.ndindex(steps.shape):
        lone = first_halting_step(diag[index], 0.3)
        assert lone == steps[index] and isinstance(lone, (int, float))
    assert first_halting_step(diag[0, 0], 0.3) == 3
    assert first_halting_step(np.zeros((3, 1)), 1.0).tolist() == [math.inf] * 3


# ---------------------------------------------------------------------------
# the incremental conditioning state against from-scratch conditioning
# ---------------------------------------------------------------------------

def scratch_predict(kernel, gsa, lam, steps):
    """The recursion with the whole history re-assembled and re-conditioned
    at every step; returns (f_limit, gamma, sigma_w)."""
    start = predict(kernel, gsa, lam, 0)
    d = start.gamma.shape[1]
    width = d + steps
    f = np.zeros(steps + 1)
    G = np.zeros((steps + 1, width))
    Y = np.zeros((steps + 1, width))
    sigma = np.zeros(steps + 1)
    f[0], sigma[0] = start.f_limit[0], start.sigma_w[0]
    G[0, :d] = start.gamma[0]
    Y[0, :start.y_reps.shape[1]] = start.y_reps[0]
    for n in range(1, steps + 1):
        info = InfoView(f_values=f[:n], grad_gram=G[:n] @ G[:n].T,
                        x0_grad=lam * G[:n, 0], x0_norm_sq=lam * lam)
        row = gsa.row(n, info)
        Y[n, :d] = G[:n, :d].T @ row.h_g
        Y[n, 0] += row.h_x * lam
        blocks = joint_blocks(kernel, Y[:n, :d], Y[n, :d])
        res = condition(blocks.mean_hist, blocks.mean_new, blocks.S_hh, blocks.S_hn,
                        blocks.S_nn, flatten_history(f[:n], G[:n, :d]))
        f[n], G[n, :d] = res.cond_mean[0], res.cond_mean[1:]
        K = k3_matrix(kernel, *coordinate_inner_products(Y[:n + 1, :d]))
        sigma[n] = math.sqrt(K[n, n] - K[n, :n] @ np.linalg.solve(K[:n, :n], K[:n, n]))
        G[n, d] = sigma[n]
        d += 1
    return f, G, sigma


def drive(kernel, gsa, lam, steps, **kw):
    """Yield (curve, state) after every limit_step, step 0 included."""
    walk = SpanWalk(LimitState(kernel, **kw), lam, steps)
    for _ in range(steps + 1):
        limit_step(walk, gsa)
        yield walk.curve(), walk.state


@pytest.mark.parametrize("gsa", [gd(0.4), heavy_ball(0.4, 0.5), fr_cg(0.3)],
                         ids=lambda g: g.name)
@pytest.mark.parametrize("atoms", [((1.0, 1.0),), ((0.7, 0.5), (0.3, 2.0))])
def test_predict_matches_from_scratch_conditioning(gsa, atoms):
    kernel = lift_stationary(SchoenbergMixture(atoms=atoms))
    curve = predict(kernel, gsa, 1.0, 10)
    f, G, sigma = scratch_predict(kernel, gsa, 1.0, 10)
    np.testing.assert_allclose(curve.f_limit, f, rtol=0, atol=1e-9)
    np.testing.assert_allclose(curve.gamma, G, rtol=0, atol=1e-9)
    np.testing.assert_allclose(curve.sigma_w, sigma, rtol=0, atol=1e-9)


STATE_CASES = {
    "se-gd": (lift_stationary(SE_MIX), gd(0.4), {}),
    "se-heavy-ball": (lift_stationary(SE_MIX), heavy_ball(0.4, 0.5), {}),
    "spin-glass-sphere": (spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 0.3, 0.7))),
                          with_sphere_projection(gd(0.4), 1.0), {}),
    "quadratic": (quadratic_kernel(1.0, 0.5, 1.0), gd(0.3), {"on_rank_stall": "freeze"}),
}


@pytest.mark.parametrize("lam", [1.0, 0.0])
@pytest.mark.parametrize("case", STATE_CASES)
def test_state_is_permuted_history_block(case, lam):
    # the limit weights the direction rows of the row-major history block of
    # the next step: D_{v_D} at the factor's points 0..k for each step k that
    # opened v_D, and no other row; old weights never change, and each such
    # block, over the points that opened a direction, is a leading block of
    # the κ₃ factor's product
    kernel, gsa, kw = STATE_CASES[case]
    before = np.empty((0, 0))
    for curve, state in drive(kernel, gsa, lam, 6, **kw):
        n = curve.steps + 1
        d = curve.gamma_width(n - 1)
        S_hh = joint_blocks(kernel, curve.y_reps[:n, :d], np.zeros(d)).S_hh
        (w,) = state.weights
        opened = [k for k in range(n) if k not in curve.frozen_steps]
        np.testing.assert_array_equal(state.k3_points, opened)
        support = np.zeros((n, d), dtype=bool)
        for k in opened:
            support[state.k3_points[state.k3_points <= k], curve.dims[k]] = True
        np.testing.assert_array_equal(w != 0, support)
        np.testing.assert_array_equal(w[:len(before), :before.shape[1]], before)
        before = w
        (L,) = state.k3_factor
        for k in opened:
            rows = (curve.dims[k] + 1) * n + state.k3_points[state.k3_points <= k]
            p = len(rows)
            np.testing.assert_allclose((L @ L.T)[:p, :p], S_hh[np.ix_(rows, rows)],
                                       rtol=0, atol=1e-13)


def _point_rows(walk, types, at):
    """Whether each row (type t, point a) is one of point a's own rows,
    t ≤ dims[a], rather than a direction opened at or after step a."""
    return types <= walk.dims[at]


def _replayed_draws(kernel, walk, jitters, N, rng):
    """Largest deviation of a sampled run of one from its draws replayed from
    scratch: at each step, one Cholesky factor of the arrival-order joint
    block of all points plus the step's jitter on the point rows, and the
    run's own normals."""
    types, at = walk.state.labels
    X, f, G = walk.X[0], walk.f[0], walk.G[0]
    worst = 0.0
    for n in range(walk.n):
        d = walk.dims[n]
        before = (at < n) & (types <= d)     # the rows stored before step n
        order = np.concatenate([types[before] * (n + 1) + at[before],
                                np.arange(d + 1) * (n + 1) + n])
        points = np.concatenate([_point_rows(walk, types[before], at[before]),
                                 np.ones(d + 1, dtype=bool)])
        Y = X[:n + 1, :d]
        s, ip = coordinate_inner_products(Y)
        grid = kernel.derivatives(s[:, None], s[None, :], ip)
        S = cov_block(kernel, Y, Y, grid)[np.ix_(order, order)]
        resid = (flatten_history(f[:n + 1], G[:n + 1, :d]) - mean_block(kernel, Y, s))[order]
        L = np.linalg.cholesky(S + jitters[n] * np.diag(points.astype(float)))
        h = len(S) - d - 1
        xi = rng.standard_normal(d + 1)
        noise = L[h:, :h] @ np.linalg.solve(L[:h, :h], resid[:h]) + L[h:, h:] @ xi / math.sqrt(N)
        rng.gamma((N - d) / 2.0, 2.0)       # the corner's chi-square
        worst = max(worst, np.max(np.abs(resid[h:] - noise)))
    return worst


def test_state_escalates_once_and_matches_refactored_conditioning():
    # a sampled run keeps the history factor: at N = 1e9 its heavy-ball
    # history escalates once, to the ladder's first rung
    kernel, gsa, N = lift_stationary(SE_MIX), heavy_ball(0.4, 0.5), 10 ** 9
    walk = SpanWalk(SpanState(kernel, [make_rng(3, 0)], N), 1.0, 20)
    state, extend, jitters, factors = walk.state, walk.state.extend, [], []

    def recorded(*args):            # the jitter each step's rows were drawn at
        out = extend(*args)
        jitters.append(state.jitter[0])
        factors.append(state.k3_factor.copy())
        return out

    state.extend = recorded
    for _ in range(21):
        limit_step(walk, gsa)
    assert jitters[0] == 0.0 and jitters[-1] == 1e-12
    assert sum(a != b for a, b in zip(jitters, jitters[1:])) == 1
    # the history covariance, assembled from scratch in arrival order
    types, at = state.labels
    Y = walk.X[0, :state.points, :types.max()]
    s, ip = coordinate_inner_products(Y)
    order = types * state.points + at
    grid = kernel.derivatives(s[:, None], s[None, :], ip)
    S = cov_block(kernel, Y, Y, grid)[np.ix_(order, order)]
    (L,) = state.factor()
    assert np.all(L == np.tril(L))
    # the jitter sits on the point rows only: L·Lᵀ = S + j·P
    P = np.diag(_point_rows(walk, *state.labels).astype(float))
    np.testing.assert_allclose(L @ L.T, S + 1e-12 * P, rtol=0, atol=1e-13)
    # the same regularised matrices, factored from scratch at each step
    assert _replayed_draws(kernel, walk, jitters, N, make_rng(3, 0)) < 1e-6
    # the sampler's κ₃ factor over all 21 points, no pivot of it floored; a
    # step, the escalating one too, only borders the factor it found
    K = k3_matrix(kernel, s, ip)
    (L,) = state.k3_factor
    assert (np.diagonal(L) ** 2 / np.diagonal(K)).min() > PIVOT_FLOOR
    np.testing.assert_allclose(L @ L.T, K, rtol=0, atol=1e-13)
    for n, (before, after) in enumerate(zip(factors, factors[1:])):
        assert np.array_equal(after[:, :n + 1, :n + 1], before), n

    # the limit factors its κ₃ matrix only, and that never needs the ladder
    limit = walk_to(kernel, gsa, 1.0, 20)
    (L,) = limit.state.k3_factor
    Y = limit.curve().y_reps[limit.state.k3_points]
    np.testing.assert_allclose(L @ L.T, k3_matrix(kernel, *coordinate_inner_products(Y)),
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("gsa", [gd(0.4), heavy_ball(0.4, 0.5), nesterov(0.3, 0.5), fr_cg(0.3)],
                         ids=lambda g: g.name)
def test_sampler_approaches_the_limit_as_n_grows(gsa):
    # every sampled run concentrates on the limit curve at the 1/√N rate of
    # its draws, down to a float64 floor, also after its point rows escalate
    # their jitter: the jitter never touches the direction rows, whose part
    # of the conditional mean is not damped by 1/√N
    kernel = lift_stationary(SE_MIX)
    curve = predict(kernel, gsa, 1.0, 20)
    for N in (10 ** 12, 10 ** 15, 10 ** 18):
        bound = 10 / math.sqrt(N) + 1e-10
        for run in simulate_info_paths(kernel, gsa, 1.0, N, 20, range(8), 1):
            assert np.abs(run.f_values - curve.f_limit).max() <= bound, N
            assert np.abs(run.grad_gram - curve.grad_gram_limit).max() <= bound, N


SIGMA_CASES = {
    "heavy-ball": (lift_stationary(SE_MIX), heavy_ball(0.4, 0.5), 25, {}),
    "fr_cg": (lift_stationary(SE_MIX), fr_cg(0.3), 15, {}),
    "spin-glass-sphere": (spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 0.3, 0.7))),
                          with_sphere_projection(gd(0.4), 1.0), 6, {}),
    "quadratic-freeze": (quadratic_kernel(1.0, 0.0, 1.0), gd(0.3), 5,
                         {"on_rank_stall": "freeze"}),
}


def _recorded_sigma_sq(walk):
    """The σ_w² of member 0 after each ``extend`` of the walk's state."""
    extend, out = walk.state.extend, []

    def recorded(*args):
        step = extend(*args)
        out.append(step[1][0])
        return step

    walk.state.extend = recorded
    return out


@pytest.mark.parametrize("case", SIGMA_CASES)
def test_sigma_w_is_the_module_residual_variance(case):
    # the states' σ_w², the squared pivot of a grown κ₃ factor, against the
    # stand-alone residual variance, which conditions the whole κ₃ matrix K
    # of the same points from scratch: on a step that opens a direction the
    # two agree to (n+1)·ε·cond(K)·κ₃(new, new), and on a limit's frozen
    # step (every quadratic step after step 0) both are at the stall level.
    # A sampled member's jitter sits on its point rows only, so its σ_w² is
    # the pivot of K as well.
    kernel, gsa, steps, kw = SIGMA_CASES[case]
    eps = np.finfo(float).eps
    walks = [(SpanWalk(LimitState(kernel, **kw), 1.0, steps), None)]
    walks += [(SpanWalk(SpanState(kernel, [make_rng(5, 0)], N), 1.0, steps), N) for N in (64, 10 ** 9)]
    for walk, N in walks:
        record = _recorded_sigma_sq(walk)
        for _ in range(steps + 1):
            limit_step(walk, gsa)
        frozen = walk.state.frozen if N is None else []
        for n, sigma_sq in enumerate(record):
            Y = walk.X[0, :n + 1, :walk.dims[n]]
            other = residual_variance(kernel, Y)
            if n in frozen:
                assert sigma_sq <= RANK_STALL_TOL and other <= RANK_STALL_TOL, n
                continue
            K = k3_matrix(kernel, *coordinate_inner_products(Y))
            bound = (n + 1) * eps * np.linalg.cond(K) * K[n, n]
            assert abs(sigma_sq - other) <= bound, (N, n)


def test_frozen_steps_append_no_direction():
    kernel = quadratic_kernel(1.0, 0.0, 1.0)
    for curve, state in drive(kernel, gd(0.3), 1.0, 5, on_rank_stall="freeze"):
        pass
    assert curve.frozen_steps == (1, 2, 3, 4, 5)
    (w,) = state.weights
    # the limit weights no point rows: step 0 opens v_1, weighted at point 0
    # alone, and no later step opens anything
    assert w.shape == (6, 2)
    np.testing.assert_array_equal(np.argwhere(w), [[0, 1]])
    np.testing.assert_allclose(curve.f_limit, quadratic_gd_oracle(0.3, 5), atol=1e-8)


def test_rung_failing_during_replay_is_skipped(monkeypatch):
    # heavy-ball on SE at N = 64: stream 6 climbs from j = 0 at step 17, with
    # 17 point blocks to replay.  Forcing the first rung above j to fail at
    # one of them sends the member to the next rung, and where the failure
    # hits does not matter: that rung rewrites every point block, also those
    # the failed rung rewrote before it failed
    kernel, gsa = lift_stationary(SE_MIX), heavy_ball(0.4, 0.5)
    point_block, escalate = SpanState._point_block, SpanState._escalate
    ladder = list(gaussianops.JITTER_LADDER)

    def run(fail_at):
        replay, failed = {}, []

        def spied_escalate(self, b, block):
            replay.update(rung=next(j for j in ladder if j > self.jitter[b]), seen=0)
            try:
                escalate(self, b, block)
            finally:
                replay.clear()

        def spied_point_block(self, S_hn, S_nn, jitter, members=slice(None)):
            if replay and jitter[0] == replay["rung"]:
                replay["seen"] += 1
                if replay["seen"] == fail_at:
                    failed.append((self.points, replay["rung"]))
                    raise np.linalg.LinAlgError("forced")
            return point_block(self, S_hn, S_nn, jitter, members)

        monkeypatch.setattr(SpanState, "_escalate", spied_escalate)
        monkeypatch.setattr(SpanState, "_point_block", spied_point_block)
        walk = SpanWalk(SpanState(kernel, [make_rng(3, 6)], 64), 1.0, 17)
        for _ in range(18):
            limit_step(walk, gsa)
        assert failed == [(17, ladder[1])]
        return walk

    third, first = run(3), run(1)
    assert third.state.jitter[0] == first.state.jitter[0] == ladder[2]
    assert third.state.factor().tobytes() == first.state.factor().tobytes()
    for name in ("f", "G", "X", "sigma_w"):
        assert getattr(third, name).tobytes() == getattr(first, name).tobytes()


def test_exhausted_ladder_switches_to_pseudo_inverse(monkeypatch):
    # the quadratic field's (f, D_{v_0}) rows are singular: a sampled run
    # without jitter switches to the pseudo-inverse, or raises without it
    monkeypatch.setattr(gaussianops, "JITTER_LADDER", (0.0,))
    kernel, N = quadratic_kernel(1.0, 0.0, 1.0), 10 ** 9
    walk = SpanWalk(SpanState(kernel, [make_rng(3, 0)], N, pseudo_inverse=True), 1.0, 20)
    for _ in range(21):
        limit_step(walk, gd(0.3))
    assert walk.state.jitter[0] == math.inf
    # within ten times the 1/√N scale of the draws
    np.testing.assert_allclose(walk.f[0], quadratic_gd_oracle(0.3, 20), atol=10 / math.sqrt(N))
    with pytest.raises(NotPsdError):
        simulate_info_paths(kernel, gd(0.3), 1.0, N, 2, [0], 3)
    # the limit factors no point rows, so it needs neither
    curve = predict(kernel, gd(0.3), 1.0, 20, on_rank_stall="freeze")
    np.testing.assert_allclose(curve.f_limit, quadratic_gd_oracle(0.3, 20), atol=1e-8)


def test_exhausted_ladder_error_names_the_failing_block(monkeypatch):
    # the new point's rows fail to factor at step 0, where the history it
    # is conditioned on is still empty
    monkeypatch.setattr(gaussianops, "JITTER_LADDER", (0.0,))
    with pytest.raises(NotPsdError, match=r"^stream 0: step 0: the new point's rows \(2×2\) "
                                          r"not positive definite within jitter ladder"):
        simulate_info_paths(quadratic_kernel(1.0, 0.0, 1.0), gd(0.3), 1.0, 64, 2, [0], 3)
    curve = predict(quadratic_kernel(1.0, 0.0, 1.0), gd(0.3), 1.0, 2, on_rank_stall="freeze")
    np.testing.assert_allclose(curve.f_limit, quadratic_gd_oracle(0.3, 2), atol=1e-8)


def test_limit_step_rejects_state_of_another_curve():
    kernel = lift_stationary(SE_MIX)
    walk, other = SpanWalk(LimitState(kernel), 1.0, 3), SpanWalk(LimitState(kernel), 1.0, 3)
    limit_step(walk, gd(0.4))
    limit_step(other, gd(0.4))
    limit_step(other, gd(0.4))
    walk.state = other.state        # two points against the walk's one
    with pytest.raises(ValueError):
        limit_step(walk, gd(0.4))


def _spy_calls(monkeypatch, targets):
    """Spy on the attribute ``name`` of each (owner, name) in targets;
    returns the names called, filled as the run goes."""
    calls = []

    def spy(name, original):
        def spied(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return spied

    for owner, name in targets:
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    return calls


def _count_pairs(kernel):
    """Wrap ``kernel.derivatives`` to count its calls; returns the list of
    the number of point pairs of each call, filled as the run goes."""
    evaluated, derivatives = [], kernel.derivatives

    def counted(*args):
        out = derivatives(*args)
        evaluated.append(np.size(out[0]))
        return out

    kernel.derivatives = counted
    return evaluated


def test_limit_factors_no_point_block(monkeypatch):
    # predict-t30: the limit grows one κ₃ factor by a row per step, so step n
    # evaluates the kernel's partials once, on the new point's n + 1 pairs:
    # its κ₃ column comes from them, and its conditional mean is one weighted
    # contraction of the n history pairs' partials; no step builds a
    # covariance block, conditions one, factors one or climbs the jitter
    # ladder, and the sampler's state, whose extend factors a point block,
    # never steps
    config = load_config(Path(__file__).parents[1] / "bench" / "configs" / "predict-t30.cfg")
    calls = _spy_calls(monkeypatch, [
        *((module, "condition") for module in (gaussianops, assembly, limits)),
        (gaussianops, "cholesky_psd"), (assembly, "cov_block"),
        (KernelModel, "cov_pair_block"), (SpanState, "extend")])
    kernel = build_kernel(config.kernel)
    evaluated = _count_pairs(kernel)
    curve = predict(kernel, build_gsa(config.algorithm), config.lam, config.steps)
    assert curve.steps == 30 and curve.frozen_steps == ()
    assert calls == []
    assert evaluated == [n + 1 for n in range(31)]
    assert sum(evaluated) == 496


def test_sampler_borders_one_k3_row_per_step(monkeypatch):
    # simulate-t20: each sampled step borders the last direction block's κ₃
    # factor with the new point's n + 1 pairs, so no step builds a κ₃ matrix
    # or conditions one.  Step n evaluates the kernel's partials once over
    # those pairs, when the state opens the point: its κ₃ column and its
    # cov_block column both read them.  The same holds on the direct
    # stationary route, whose pair block holds no mixture of its own, so
    # each step evaluates the mixture once, inside the kernel's partials
    config = load_config(Path(__file__).parents[1] / "bench" / "configs" / "simulate-t20.cfg")
    spec = config.kernel
    routes = (build_kernel(spec),
              stationary_direct(SchoenbergMixture(atoms=spec["atoms"]), spec.get("mean_level", 0.0)))
    calls = _spy_calls(monkeypatch, [
        *((module, "condition") for module in (gaussianops, assembly, limits, trajectories)),
        (assembly, "k3_matrix"), (SchoenbergMixture, "derivatives")])
    (N,) = config.N_list
    for kernel in routes:
        evaluated = _count_pairs(kernel)
        calls.clear()
        (record,) = simulate_info_paths(kernel, build_gsa(config.algorithm),
                                        config.lam, N, config.steps, [0], 1)
        assert record.steps == 20 and np.isfinite(record.f_values).all()
        assert calls == ["derivatives"] * 21
        assert evaluated == [n + 1 for n in range(21)]
        assert (len(evaluated), sum(evaluated)) == (21, 231)


def test_non_finite_k3_raises_a_domain_error():
    # a κ₃ column of NaN passes the κ₃ > 0 check and raises no floating-point
    # exception; each state's finite check stops the step, and the sampler's
    # error names the stream
    lifted = lift_stationary(SE_MIX)

    def derivatives(l1, l2, l3):
        k, k1, k2, k3, *rest = lifted.derivatives(l1, l2, l3)
        return (k, k1, k2, np.full_like(k3, np.nan), *rest)

    kernel = KernelModel(lifted.mean, derivatives)
    with pytest.raises(KernelDomainError, match=r"^step 0: non-finite entries in the new "
                                                r"point's κ₃ column, mean or conditional mean"):
        predict(kernel, gd(0.4), 1.0, 4)
    with pytest.raises(KernelDomainError, match=r"^stream 0: step 0: non-finite entries in the "
                                                r"new point's covariance or mean"):
        simulate_info_paths(kernel, gd(0.4), 1.0, 64, 4, [0], 1)


#: numpy's Python-level wrappers that a step of either recursion replaces by
#: the ndarray method or ufunc running the same C loop
_NUMPY_WRAPPERS = [(np, name) for name in (
    "any", "all", "sum", "swapaxes", "diagonal", "moveaxis", "flatnonzero",
    "broadcast_arrays", "atleast_2d", "append", "eye", "clip")] + [(np.linalg, "norm")]


def test_steps_call_no_numpy_python_wrapper(monkeypatch):
    # on arrays of a few dozen entries a step's time is call overhead, so
    # the step path of predict-t30, of a simulate-t20 batch (neither
    # escalates) and of every built-in schedule calls none of these wrappers
    # from a grfspan module
    called = []

    def spy(name, original):
        def spied(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("grfspan"):
                called.append(name)
            return original(*args, **kwargs)
        return spied

    for owner, name in [*_NUMPY_WRAPPERS, (SpanState, "_escalate")]:
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    configs = Path(__file__).parents[1] / "bench" / "configs"
    config = load_config(configs / "predict-t30.cfg")
    curve = predict(build_kernel(config.kernel), build_gsa(config.algorithm), config.lam,
                    config.steps)
    config = load_config(configs / "simulate-t20.cfg")
    (N,) = config.N_list
    records = simulate_info_paths(build_kernel(config.kernel), build_gsa(config.algorithm),
                                  config.lam, N, config.steps, range(4), 1)
    assert curve.steps == 30 and [r.steps for r in records] == [20] * 4
    # and every other built-in schedule's row, on the SE kernel to T = 8
    for gsa in (gd(0.4), nesterov(0.3, 0.5), with_sphere_projection(gd(0.1), 1.0),
                with_ball_projection(gd(0.1), 1.0)):
        assert predict(lift_stationary(SE_MIX), gsa, 1.0, 8).steps == 8
    assert called == []
    # the spies are live: each counts a call made from a grfspan module
    probe = eval("lambda f, args: f(*args)", {"__name__": "grfspan._probe"})
    a = np.ones((2, 2))
    args = {"swapaxes": (a, 0, 1), "moveaxis": (a, 0, 1), "append": (a, a), "eye": (2,),
            "clip": (a, 0.0, 1.0)}
    for owner, name in _NUMPY_WRAPPERS:
        probe(getattr(owner, name), args.get(name, (a,)))
    assert called == [name for _, name in _NUMPY_WRAPPERS]


def test_negative_sigma_w_reports_lost_digits():
    # gd(0.4) on SE: σ_w² halves every step, and before it reaches
    # RANK_STALL_TOL (at step 34 in 50-digit arithmetic) the float64 κ₃ pivot
    # has no correct digit left and reads negative
    with pytest.raises(RankStallError, match=r"^step \d+: residual variance σ²_w = -\d\.\d{3}e-\d+ < 0; "
                                             r"the κ₃ pivot has run out of float64 digits"):
        predict(lift_stationary(SE_MIX), gd(0.4), 1.0, 40)
    # under "freeze" the same step opens no direction
    curve = predict(lift_stationary(SE_MIX), gd(0.4), 1.0, 40, on_rank_stall="freeze")
    assert curve.frozen_steps


# ---------------------------------------------------------------------------
# a custom mean profile
# ---------------------------------------------------------------------------

def test_constant_mean_slope_is_broadcast():
    # a mean may return μ′ (or μ) as a Python float
    lifted = lift_stationary(SE_MIX)
    zero = KernelModel(lambda s: (0.0, 0.0), lifted.derivatives)
    a = predict(zero, heavy_ball(0.4, 0.5), 1.0, 8)
    b = predict(lifted, heavy_ball(0.4, 0.5), 1.0, 8)
    assert a.f_limit.tobytes() == b.f_limit.tobytes()
    assert a.grad_gram_limit.tobytes() == b.grad_gram_limit.tobytes()
    quadratic = quadratic_kernel(1.0, 0.5, 1.0)        # μ(s) = 0.625 + s
    affine = KernelModel(lambda s: (0.625 + s, 1.0), quadratic.derivatives)
    a = predict(affine, gd(0.3), 1.0, 6, on_rank_stall="freeze")
    b = predict(quadratic, gd(0.3), 1.0, 6, on_rank_stall="freeze")
    assert a.f_limit.tobytes() == b.f_limit.tobytes()
    assert a.grad_gram_limit.tobytes() == b.grad_gram_limit.tobytes()


def test_constant_partials_are_broadcast():
    # derivatives may return a partial as a Python float; the limit slices
    # the partials it evaluates once per step, and leaves such a one as is
    quadratic = quadratic_kernel(1.0, 0.5, 1.0)

    def derivatives(l1, l2, l3):
        k, _, _, k3, *_ = quadratic.derivatives(l1, l2, l3)
        return k, 0.0, 0.0, k3, 0.0, 0.0, 0.0, 0.0

    def constants(l1, l2, l3):
        # κ₃ = σ_A⁴R² = 1 too: each state's opening broadcasts it over the pairs
        return quadratic.derivatives(l1, l2, l3)[0], 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0

    b = predict(quadratic, gd(0.3), 1.0, 6, on_rank_stall="freeze")
    sampled = simulate_info_paths(quadratic, gd(0.3), 1.0, 64, 6, range(4), 1,
                                  pseudo_inverse=True)
    for scalars in (derivatives, constants):
        kernel = KernelModel(quadratic.mean, scalars)
        a = predict(kernel, gd(0.3), 1.0, 6, on_rank_stall="freeze")
        assert a.f_limit.tobytes() == b.f_limit.tobytes()
        assert a.grad_gram_limit.tobytes() == b.grad_gram_limit.tobytes()
        records = simulate_info_paths(kernel, gd(0.3), 1.0, 64, 6, range(4), 1,
                                      pseudo_inverse=True)
        for r, s in zip(records, sampled, strict=True):
            for name in ("f_values", "grad_gram", "x0_grad", "G", "x_coords", "dims"):
                assert getattr(r, name).tobytes() == getattr(s, name).tobytes()


# ---------------------------------------------------------------------------
# the 50-digit reference and the BLAS thread count
# ---------------------------------------------------------------------------

@functools.cache
def _reference(alpha, beta, steps):
    """The 50-digit (f_limit, grad_gram_limit, sigma_w) of heavy-ball(alpha,
    beta) on SE from λ = 1, computed once per session."""
    from limit_reference import reference_curve
    return reference_curve(alpha, beta, 1.0, steps)


@pytest.mark.parametrize("make", [lift_stationary, stationary_direct], ids=["lifted", "direct"])
@pytest.mark.parametrize("alpha, beta, steps, tol", [
    (0.4, 0.5, 20, 1e-12), (0.4, 0.0, 16, 1e-12), (0.4, 0.5, 30, 5e-12), (0.4, 0.0, 20, 1e-11),
], ids=["heavy-ball-t20", "gd-t16", "heavy-ball-t30", "gd-t20"])
def test_predict_matches_the_50_digit_reference(make, alpha, beta, steps, tol):
    pytest.importorskip("mpmath")
    from limit_reference import max_deviation
    gsa = heavy_ball(alpha, beta) if beta else gd(alpha)
    curve = predict(make(SE_MIX), gsa, 1.0, steps)
    assert max_deviation(curve, _reference(alpha, beta, steps)) <= tol


@pytest.mark.parametrize("make", [lift_stationary, stationary_direct], ids=["lifted", "direct"])
@pytest.mark.parametrize("alpha, beta, steps", [(0.4, 0.5, 20), (0.4, 0.0, 16)],
                         ids=["heavy-ball-t20", "gd-t16"])
def test_sigma_w_matches_the_50_digit_reference(make, alpha, beta, steps):
    # σ_w is the pivot √σ_w², so an error δ in σ_w² moves it by δ/(2σ_w),
    # and σ_w falls to 4.9e-4 by gd step 16
    pytest.importorskip("mpmath")
    gsa = heavy_ball(alpha, beta) if beta else gd(alpha)
    curve = predict(make(SE_MIX), gsa, 1.0, steps)
    pivots = [float(sigma) for sigma in _reference(alpha, beta, steps)[2]]
    np.testing.assert_allclose(curve.sigma_w, pivots, rtol=0, atol=5e-9)


def _under_one_and_two_blas_threads(script):
    """The standard output of ``script``, run in a fresh interpreter under
    1 and then 2 OpenBLAS threads."""
    src = str(Path(grfspan.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                      check=True, capture_output=True, text=True).stdout)
    return outputs


_THREADED_PREDICT = """
from grfspan import SchoenbergMixture, heavy_ball, lift_stationary, predict
c = predict(lift_stationary(SchoenbergMixture(atoms=((1.0, 1.0),))), heavy_ball(0.4, 0.5), 1, 30)
print((c.f_limit.tobytes() + c.grad_gram_limit.tobytes() + c.sigma_w.tobytes()).hex())
"""


def test_predict_bits_do_not_depend_on_the_blas_thread_count():
    outputs = _under_one_and_two_blas_threads(_THREADED_PREDICT)
    assert outputs[0] and outputs[0] == outputs[1]


_THREADED_SIMULATE = f"""
from grfspan import (SchoenbergMixture, gd, heavy_ball, lift_stationary, load_config,
                     simulate_info_paths)
from grfspan.harness import build_gsa, build_kernel
c = load_config({str(Path(__file__).parents[1] / "bench" / "configs" / "simulate-t20.cfg")!r})
se = lift_stationary(SchoenbergMixture(atoms=((1.0, 1.0),)))
runs = simulate_info_paths(build_kernel(c.kernel), build_gsa(c.algorithm), c.lam, c.N_list[0],
                           c.steps, [0], 3)
runs += simulate_info_paths(se, gd(0.4), 1.0, 64, 8, range(50), 3)
runs += simulate_info_paths(se, heavy_ball(0.4, 0.5), 1.0, 64, 20, range(8), 3)
print(b"".join(a.tobytes() for r in runs for a in (r.f_values, r.G, r.x_coords)).hex())
"""


def test_sampler_bits_do_not_depend_on_the_blas_thread_count():
    # the heavy-ball batch climbs the jitter ladder at different steps, and
    # an escalation re-runs the member's point blocks through the same small
    # forward substitutions and factors as its steps, not a dense factor of
    # the whole history, whose bits would move with the thread count
    outputs = _under_one_and_two_blas_threads(_THREADED_SIMULATE)
    assert outputs[0] and outputs[0] == outputs[1]
