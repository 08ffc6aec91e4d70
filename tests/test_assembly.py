"""Block assembly against naive entrywise construction."""

import numpy as np
import pytest

from grfspan import gaussianops
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
from grfspan.gaussianops import condition, make_rng
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
    fast = cov_block(kernel, Y[A], Y[B],
                     kernel.derivatives(s[A][:, None], s[B][None, :], ip[np.ix_(A, B)]))
    np.testing.assert_allclose(fast, naive_blocks(kernel, Y, A, B),
                               rtol=1e-13, atol=1e-14)


def test_cov_block_no_directions():
    kernel = KERNELS[0]
    Y = np.zeros((2, 0))
    s, ip = coordinate_inner_products(Y)
    M = cov_block(kernel, Y, Y, kernel.derivatives(s[:, None], s[None, :], ip))
    assert M.shape == (2, 2)
    assert M[0, 0] == pytest.approx(1.0)   # C(0) with unit total weight


def test_mean_block_quadratic():
    kernel = quadratic_kernel(1.0, 0.0, 1.0)
    Y = np.array([[1.0, 0.0], [0.5, 0.5]])
    s, _ = coordinate_inner_products(Y)
    m = mean_block(kernel, Y, s)
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
        joint_blocks(kernel, np.array([[1.0, 0.0]]), np.array([1.0, float("nan")]))
    with pytest.raises(KernelDomainError):
        residual_variance(kernel, np.array([[1.0, float("nan")]]))


def test_flatten_history_layout():
    obs = flatten_history([10.0, 20.0], [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(obs, [10.0, 20.0, 1.0, 3.0, 2.0, 4.0])


def test_k3_matrix_and_residual_variance():
    mix = SchoenbergMixture(atoms=((1.0, 1.0),))
    kernel = lift_stationary(mix)
    rng = np.random.default_rng(3)
    reps = rng.standard_normal((3, 2)) * 0.7
    s, ip = coordinate_inner_products(reps)
    W = k3_matrix(kernel, s, ip)
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
    assert val == pytest.approx(float(kernel.derivatives(0.5, 0.5, 1.0)[3]))


class _ZeroNormal:
    """A generator whose standard normals and gamma draws all read 0, so a
    draw is ξ = 0 and a χ² corner is 0."""

    def standard_normal(self, out):
        out[...] = 0.0
        return out

    def gamma(self, shape, scale):
        return 0.0


def test_span_state_pseudo_inverse_conditions_and_draws(monkeypatch):
    # revisiting point 0 makes the history singular; with no jitter ladder
    # the member switches to the pseudo-inverse, block by block, and its
    # conditional law is that of the pseudo-inverse of the whole history
    monkeypatch.setattr(gaussianops, "JITTER_LADDER", (0.0,))
    kernel = KERNELS[0]
    state = SpanState(kernel, [make_rng(4, 0)], 64, pseudo_inverse=True)
    (first,), _, (corner,) = state.extend([[[0.8]]])
    # from step 1 on nothing is drawn, so step 1's corner is exactly 0: a
    # drawn one would be whitened by the floored κ₃ pivot, a direction that
    # the pseudo-inverse below drops
    state.rngs = [_ZeroNormal()]
    Y = np.array([[0.8, 0.0, 0.0], [0.8, 0.0, 0.0], [0.3, 0.5, 0.2]])
    (again,), (sigma_sq,), (zero,) = state.extend(Y[None, :2, :2])
    assert np.isinf(state.jitter[0])
    np.testing.assert_allclose(again, [*first, corner], rtol=0, atol=1e-8)
    # the revisited point's κ₃ row is that of point 0: nothing outside the
    # span, so the direction it opens reads 0
    assert abs(sigma_sq) <= 1e-12 and zero == 0.0

    m = len(state.labels[0])
    (mean,), _, _ = state.extend(Y[None])
    (L,) = state.factor()
    L_nn = L[m:m + 4, m:m + 4]
    blocks = joint_blocks(kernel, Y[:2], Y[2])
    observed = flatten_history([first[0], again[0]], [[first[1], corner, 0.0], [*again[1:], 0.0]])
    res = condition(blocks.mean_hist, blocks.mean_new, blocks.S_hh, blocks.S_hn, blocks.S_nn,
                    observed, pseudo_inverse=True)
    assert res.rank_deficient
    np.testing.assert_allclose(mean, res.cond_mean, rtol=0, atol=1e-14)
    np.testing.assert_allclose(L_nn @ L_nn.T, res.cond_cov, rtol=0, atol=1e-14)
