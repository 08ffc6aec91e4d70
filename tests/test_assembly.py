"""Block assembly against naive entrywise construction."""

import numpy as np
import pytest

from grfspan.assembly import (
    SpanState,
    coordinate_inner_products,
    cov_block,
    flatten_history,
    joint_blocks,
    k3_matrix,
    mean_block,
    residual_variance,
)
from grfspan.errors import KernelDomainError
from grfspan.gaussianops import ConditionPolicy, condition, make_rng, sample_mvn
from grfspan.kernels import (
    SchoenbergMixture,
    SpinGlassMixture,
    lift_stationary,
    quadratic_kernel,
    spin_glass_kernel,
    stationary_direct,
)


def naive_blocks(kernel, Y, A, B):
    """Entrywise reference: loop over (row type, point) pairs."""
    D = Y.shape[1]
    s = 0.5 * np.einsum("ij,ij->i", Y, Y)
    ip = Y @ Y.T
    M = np.empty(((D + 1) * len(A), (D + 1) * len(B)))
    for r1 in range(D + 1):
        for ai, a in enumerate(A):
            for r2 in range(D + 1):
                for bi, b in enumerate(B):
                    if r1 == 0 and r2 == 0:
                        val = kernel.cov_ff(s[a], s[b], ip[a, b])
                    elif r2 == 0:
                        i = r1 - 1
                        val = kernel.cov_df_f(s[a], s[b], ip[a, b], Y[a, i], Y[b, i])
                    elif r1 == 0:
                        j = r2 - 1
                        val = kernel.cov_df_f(s[b], s[a], ip[b, a], Y[b, j], Y[a, j])
                    else:
                        i, j = r1 - 1, r2 - 1
                        val = kernel.cov_df_df(s[a], s[b], ip[a, b],
                                               Y[a, i], Y[b, i], Y[a, j], Y[b, j],
                                               1.0 if i == j else 0.0)
                    M[r1 * len(A) + ai, r2 * len(B) + bi] = val
    return M


KERNELS = [
    lift_stationary(SchoenbergMixture(atoms=((0.6, 1.0), (0.4, 0.3)))),
    stationary_direct(SchoenbergMixture(atoms=((0.6, 1.0), (0.4, 0.3)))),
    spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 0.3, 0.7))),
    quadratic_kernel(1.0, 0.5, 1.0),
]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.label)
def test_cov_block_matches_naive(kernel):
    rng = np.random.default_rng(23)
    Y = rng.standard_normal((4, 3)) * 0.6
    s, ip = coordinate_inner_products(Y)
    A, B = [0, 1, 2], [0, 1, 2, 3]
    fast = cov_block(kernel, Y, s, ip, A, B)
    np.testing.assert_allclose(fast, naive_blocks(kernel, Y, A, B),
                               rtol=1e-13, atol=1e-14)


def test_cov_block_no_directions():
    kernel = KERNELS[0]
    Y = np.zeros((2, 0))
    s, ip = coordinate_inner_products(Y)
    M = cov_block(kernel, Y, s, ip, [0, 1], [0, 1])
    assert M.shape == (2, 2)
    assert M[0, 0] == pytest.approx(1.0)   # C(0) with unit total weight


def test_mean_block_quadratic():
    kernel = quadratic_kernel(1.0, 0.0, 1.0)
    Y = np.array([[1.0, 0.0], [0.5, 0.5]])
    s, _ = coordinate_inner_products(Y)
    m = mean_block(kernel, Y, s, [0, 1])
    # layout: f at both points, then D_{v_0} rows, then D_{v_1} rows
    assert m[0] == pytest.approx(1.0)                  # mu(0.5) = 1
    np.testing.assert_allclose(m[2:4], [1.0, 0.5])     # mu' = 1 times ⟨y, v_0⟩
    np.testing.assert_allclose(m[4:6], [0.0, 0.5])


def test_joint_blocks_shapes_and_symmetry():
    kernel = KERNELS[0]
    rng = np.random.default_rng(5)
    reps = rng.standard_normal((3, 4)) * 0.5
    new = rng.standard_normal(4) * 0.5
    blocks = joint_blocks(kernel, reps, new)
    assert blocks.S_hh.shape == (15, 15)
    assert blocks.S_hn.shape == (15, 5)
    assert blocks.S_nn.shape == (5, 5)
    assert blocks.mean_hist.shape == (15,)
    assert blocks.mean_new.shape == (5,)
    np.testing.assert_allclose(blocks.S_hh, blocks.S_hh.T, atol=1e-13)
    np.testing.assert_allclose(blocks.S_nn, blocks.S_nn.T, atol=1e-13)


def test_joint_blocks_rejects_non_finite_geometry():
    kernel = KERNELS[0]
    with pytest.raises(KernelDomainError):
        k3_matrix(kernel, np.array([[1.0, float("nan")]]))


def test_flatten_history_layout():
    obs = flatten_history([10.0, 20.0], [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(obs, [10.0, 20.0, 1.0, 3.0, 2.0, 4.0])


def test_k3_matrix_and_residual_variance():
    mix = SchoenbergMixture(atoms=((1.0, 1.0),))
    kernel = lift_stationary(mix)
    rng = np.random.default_rng(3)
    reps = rng.standard_normal((3, 2)) * 0.7
    W = k3_matrix(kernel, reps)
    s, ip = coordinate_inner_products(reps)
    for k in range(3):
        for l in range(3):
            r = s[k] + s[l] - ip[k, l]
            assert W[k, l] == pytest.approx(-float(mix.derivatives(r)[1]), rel=1e-14)
    sigma_sq = residual_variance(kernel, reps)
    direct = W[2, 2] - W[2, :2] @ np.linalg.solve(W[:2, :2], W[:2, 2])
    assert sigma_sq == pytest.approx(direct, rel=1e-10)
    assert sigma_sq > 0


def test_residual_variance_single_point():
    kernel = KERNELS[0]
    val = residual_variance(kernel, np.array([[1.0, 0.0]]))
    assert val == pytest.approx(float(kernel.k3(0.5, 0.5, 1.0)))


def test_span_state_pseudo_inverse_conditions_and_draws():
    # revisiting point 0 makes the history singular; with no jitter ladder
    # every later solve goes through the pseudo-inverse of the stored S
    kernel = KERNELS[0]
    policy = ConditionPolicy(jitter_start=None, pseudo_fallback=True)
    state = SpanState(kernel, policy)
    state.extend([[[0.8]]])
    state.open_direction([0.9])
    Y = np.array([[0.8, 0.0], [0.8, 0.0], [0.3, 0.5]])
    np.testing.assert_allclose(state.extend(Y[None, :2])[0], [0.0, 0.0, 0.9], atol=1e-12)
    assert state.pseudo[0]

    (draw,) = state.extend(Y[None], [make_rng(4, 0)], 64)
    blocks = joint_blocks(kernel, Y[:2], Y[2])
    res = condition(blocks.mean_hist, blocks.mean_new, blocks.S_hh, blocks.S_hn, blocks.S_nn,
                    flatten_history([0.0, 0.0], [[0.0, 0.9], [0.0, 0.9]]), policy=policy)
    assert res.rank_deficient
    reference = sample_mvn(res.cond_mean, res.cond_cov / 64, make_rng(4, 0), policy)
    np.testing.assert_allclose(draw, reference, rtol=0, atol=1e-10)


def _stepped_state():
    """A state that has taken step 0 and opened its direction."""
    state = SpanState(KERNELS[0])
    state.extend([[[0.8]]])
    state.open_direction([0.9])
    return state


@pytest.mark.parametrize("calls", [
    pytest.param(lambda s: s.open_direction([0.9]), id="open-before-extend"),
    pytest.param(lambda s: s.residual_variance(), id="residual-before-extend"),
])
def test_span_state_call_order_on_a_fresh_state(calls):
    with pytest.raises(ValueError):
        calls(SpanState(KERNELS[0]))


@pytest.mark.parametrize("calls", [
    pytest.param(lambda s: s.open_direction([0.5]), id="second-open"),
    pytest.param(lambda s: s.residual_variance(), id="residual-after-open"),
])
def test_span_state_call_order_after_open_direction(calls):
    state = _stepped_state()
    with pytest.raises(ValueError):
        calls(state)
    # the rejected call leaves the state able to take its next step
    state.extend(np.array([[[0.8, 0.0], [0.3, 0.5]]]))
    assert state.residual_variance().shape == (1,)
