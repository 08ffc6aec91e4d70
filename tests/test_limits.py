"""Limit recursion: frozen start values, oracles, and structural invariants."""

import math

import numpy as np
import pytest

from grfspan.algorithms import (
    GsaSpec,
    InfoView,
    PrefactorRow,
    fr_cg,
    gd,
    heavy_ball,
    nesterov,
    with_sphere_projection,
)
from grfspan.assembly import flatten_history, joint_blocks, k3_matrix
from grfspan.errors import CoincidentPointsError, DegenerateKernelError, NotPsdError, RankStallError
from grfspan.gaussianops import DEFAULT_POLICY, ConditionPolicy, condition
from grfspan.kernels import (
    SchoenbergMixture,
    SpinGlassMixture,
    lift_stationary,
    quadratic_kernel,
    spin_glass_kernel,
    stationary_direct,
)
from grfspan.limits import (
    first_halting_step,
    halting_times,
    limit_init,
    limit_state,
    limit_step,
    limiting_info,
    predict,
)

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
    curve = limit_init(lift_stationary(SE_MIX), 1.0)
    assert curve.f_limit[0] == 0.0
    np.testing.assert_allclose(curve.gamma[0], [0.0, 1.0], atol=1e-15)
    assert curve.grad_gram_limit[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert curve.dims[0] == 1
    assert curve.sigma_w[0] == pytest.approx(1.0)
    np.testing.assert_allclose(curve.y_reps[0], [1.0, 0.0])


def test_init_quadratic():
    curve = limit_init(quadratic_kernel(1.0, 0.0, 1.0), 1.0)
    assert curve.f_limit[0] == pytest.approx(1.0, abs=1e-15)
    assert curve.gamma[0, 0] == pytest.approx(1.0)   # μ′(0.5)·λ
    assert curve.gamma[0, 1] == pytest.approx(1.0)   # √κ₃
    assert curve.grad_gram_limit[0, 0] == pytest.approx(2.0)


def test_init_at_origin():
    curve = limit_init(lift_stationary(SE_MIX), 0.0)
    assert curve.dims[0] == 0
    assert curve.gamma.shape == (1, 1)
    assert curve.gamma[0, 0] == pytest.approx(1.0)


def test_init_degenerate_two_spin_at_origin():
    kernel = spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 0.0, 1.0)))
    with pytest.raises(DegenerateKernelError):
        limit_init(kernel, 0.0)


def test_init_rejects_negative_lambda():
    with pytest.raises(ValueError):
        limit_init(lift_stationary(SE_MIX), -1.0)


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

def test_limiting_info_contents():
    curve = predict(lift_stationary(SE_MIX), gd(0.4), 1.0, 4)
    info = limiting_info(curve, 0)
    assert info.grad_gram[0, 0] == pytest.approx(1.0)
    info4 = limiting_info(curve, 4)
    assert info4.f_values.shape == (5,)
    np.testing.assert_allclose(info4.x0_grad, curve.lam * curve.gamma[:5, 0])
    origin = predict(lift_stationary(SE_MIX), gd(0.4), 0.0, 3)
    assert np.all(limiting_info(origin, 3).x0_grad == 0.0)
    with pytest.raises(ValueError):
        limiting_info(curve, 9)


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

def scratch_predict(kernel, gsa, lam, steps, policy=DEFAULT_POLICY):
    """The recursion with the whole history re-assembled and re-conditioned
    at every step; returns (f_limit, gamma, sigma_w)."""
    start = limit_init(kernel, lam)
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
                        blocks.S_nn, flatten_history(f[:n], G[:n, :d]), policy=policy)
        f[n], G[n, :d] = res.cond_mean[0], res.cond_mean[1:]
        K = k3_matrix(kernel, Y[:n + 1, :d])
        sigma[n] = math.sqrt(K[n, n] - K[n, :n] @ np.linalg.solve(K[:n, :n], K[:n, n]))
        G[n, d] = sigma[n]
        d += 1
    return f, G, sigma


def drive(kernel, gsa, lam, steps, policy=DEFAULT_POLICY, **kw):
    """Yield (curve, state) after limit_init and after every limit_step."""
    curve = limit_init(kernel, lam)
    state = limit_state(curve, kernel, policy)
    yield curve, state
    for _ in range(steps):
        curve = limit_step(curve, state, gsa, **kw)
        yield curve, state


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
    # the stored arrival-order S is the row-major history block of the next
    # step, rows and columns permuted: old entries never change
    kernel, gsa, kw = STATE_CASES[case]
    for curve, state in drive(kernel, gsa, lam, 6, **kw):
        n = curve.steps + 1
        d = curve.gamma_width(n - 1)
        S_hh = joint_blocks(kernel, curve.y_reps[:n, :d], np.zeros(d)).S_hh
        types, at = state.labels
        order = types * n + at
        np.testing.assert_array_equal(np.sort(order), np.arange(len(S_hh)))
        np.testing.assert_allclose(state.covariance()[0], S_hh[np.ix_(order, order)],
                                   rtol=0, atol=1e-13)


def test_state_escalates_once_and_matches_refactored_conditioning():
    kernel, gsa = lift_stationary(SE_MIX), heavy_ball(0.4, 0.5)
    jitters = []
    for curve, state in drive(kernel, gsa, 1.0, 20):
        jitters.append(state.jitter[0])
    assert jitters[0] == 0.0 and jitters[-1] == 1e-12
    assert sum(a != b for a, b in zip(jitters, jitters[1:])) == 1
    (S,) = state.covariance()
    (L,) = state.factor()
    assert np.all(L == np.tril(L))
    np.testing.assert_allclose(L @ L.T, S + 1e-12 * np.eye(len(S)), rtol=0, atol=1e-13)
    # the same regularised matrices, solved from scratch each step; at T = 20
    # that route's lifted and direct kernels already disagree by about 1e-7
    f, G, sigma = scratch_predict(kernel, gsa, 1.0, 20,
                                  ConditionPolicy(jitter_start=1e-12, jitter_max=1e-12))
    np.testing.assert_allclose(curve.f_limit, f, rtol=0, atol=1e-6)
    np.testing.assert_allclose(curve.gamma, G, rtol=0, atol=1e-6)


def test_frozen_steps_append_no_direction():
    kernel = quadratic_kernel(1.0, 0.0, 1.0)
    for curve, state in drive(kernel, gd(0.3), 1.0, 5, on_rank_stall="freeze"):
        pass
    assert curve.frozen_steps == (1, 2, 3, 4, 5)
    types, at = state.labels
    # step 0: (f, D_{v_0}) then D_{v_1}; every later step only (f, D_{v_0}, D_{v_1})
    np.testing.assert_array_equal(types, [0, 1, 2] + [0, 1, 2] * 5)
    np.testing.assert_array_equal(at, [0, 0, 0] + [k for k in range(1, 6) for _ in range(3)])
    np.testing.assert_allclose(curve.f_limit, quadratic_gd_oracle(0.3, 5), atol=1e-8)


def test_exhausted_ladder_switches_to_pseudo_inverse():
    kernel = quadratic_kernel(1.0, 0.0, 1.0)
    policy = ConditionPolicy(jitter_start=None, pseudo_fallback=True)
    for curve, state in drive(kernel, gd(0.3), 1.0, 20, policy=policy,
                              on_rank_stall="freeze"):
        pass
    assert state.pseudo[0] and state.jitter[0] == math.inf
    with pytest.raises(ValueError):
        state.factor()
    np.testing.assert_allclose(curve.f_limit, quadratic_gd_oracle(0.3, 20), atol=1e-8)
    with pytest.raises(NotPsdError):
        predict(kernel, gd(0.3), 1.0, 2, on_rank_stall="freeze",
                policy=ConditionPolicy(jitter_start=None))


def test_limit_step_rejects_state_of_another_curve():
    kernel = lift_stationary(SE_MIX)
    curve = limit_init(kernel, 1.0)
    state = limit_state(curve, kernel)
    limit_step(curve, state, gd(0.4))
    with pytest.raises(ValueError):
        limit_step(curve, state, gd(0.4))
