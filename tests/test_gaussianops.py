"""Conditioning, jittered Cholesky, and the sampling primitives."""

import math
import pickle
from unittest.mock import patch

import numpy as np
import pytest

from grfspan import gaussianops
from grfspan.errors import NotPsdError
from grfspan.gaussianops import (
    cholesky_psd,
    condition,
    make_rng,
    sample_chi_square,
    sample_mvn,
)


# ---------------------------------------------------------------------------
# cholesky_psd
# ---------------------------------------------------------------------------

def test_cholesky_identity_no_jitter():
    L, j = cholesky_psd(np.eye(3))
    np.testing.assert_allclose(L, np.eye(3))
    assert j == 0.0


def test_cholesky_rank_one_needs_jitter():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    L, j = cholesky_psd(A)
    assert 0.0 < j <= 1e-6
    np.testing.assert_allclose(L @ L.T, A + j * np.eye(2), atol=1e-12)


def test_cholesky_indefinite_raises():
    with pytest.raises(NotPsdError):
        cholesky_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_no_jitter_policy(monkeypatch):
    monkeypatch.setattr(gaussianops, "JITTER_LADDER", (0.0,))
    with pytest.raises(NotPsdError):
        cholesky_psd(np.array([[1.0, 1.0], [1.0, 1.0]]))


# ---------------------------------------------------------------------------
# condition
# ---------------------------------------------------------------------------

def test_condition_bivariate_frozen():
    """Unit-variance pair with correlation 0.6, observe x1 = 2."""
    res = condition(mu1=[0.0], mu2=[0.0],
                    S11=[[1.0]], S12=[[0.6]], S22=[[1.0]],
                    observed=[2.0])
    assert res.cond_mean[0] == pytest.approx(1.2, abs=1e-14)
    assert res.cond_cov[0, 0] == pytest.approx(0.64, abs=1e-14)
    assert res.log_jitter_used == -math.inf
    assert not res.rank_deficient


def test_condition_independent_blocks():
    S22 = np.array([[2.0, 0.3], [0.3, 1.0]])
    res = condition(mu1=[5.0], mu2=[1.0, -1.0],
                    S11=[[4.0]], S12=np.zeros((1, 2)), S22=S22,
                    observed=[9.0])
    np.testing.assert_allclose(res.cond_mean, [1.0, -1.0])
    np.testing.assert_allclose(res.cond_cov, S22)


def test_condition_solve_residual():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6))
    S11 = A @ A.T + 0.5 * np.eye(6)
    b = rng.standard_normal(6)
    res = condition(mu1=np.zeros(6), mu2=np.zeros(1),
                    S11=S11, S12=rng.standard_normal((6, 1)),
                    S22=np.eye(1), observed=b)
    # recover the solve from the conditional mean of a unit S12 column
    x = np.linalg.solve(S11, b)
    assert np.linalg.norm(S11 @ x - b) <= 1e-9 * np.linalg.norm(b)
    assert np.all(np.isfinite(res.cond_mean))


def test_condition_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        condition([np.nan], [0.0], [[1.0]], [[0.0]], [[1.0]], [0.0])


def test_condition_pseudo_inverse_path(monkeypatch):
    monkeypatch.setattr(gaussianops, "JITTER_LADDER", (0.0,))
    res = condition(mu1=[0.0, 0.0], mu2=[0.0],
                    S11=[[1.0, 1.0], [1.0, 1.0]],
                    S12=[[0.5], [0.5]], S22=[[1.0]],
                    observed=[1.0, 1.0], pseudo_inverse=True)
    assert res.rank_deficient
    assert res.log_jitter_used == math.inf
    assert np.all(np.isfinite(res.cond_mean))
    assert np.all(np.isfinite(res.cond_cov))
    # S11 has eigenpair (2, (1,1)/√2); pseudo-solve keeps that direction:
    # cond_mean = S12ᵀ·pinv(S11)·obs = (0.5+0.5)·(1/2)·(1+1)/... = 0.5
    assert res.cond_mean[0] == pytest.approx(0.5, abs=1e-12)


def test_condition_steps_past_a_singular_matrix_that_factors():
    # an exactly singular S11 whose Cholesky factor exists in floating point:
    # the solve fails at j = 0, so the ladder goes on to the next rung
    S11 = np.full((2, 2), 1.375)
    np.linalg.cholesky(S11)
    args = ([0.0, 0.0], [0.0], S11, [[0.5], [0.5]], [[1.0]], [0.1, 0.1])
    assert condition(*args).log_jitter_used == -12.0
    with patch.object(gaussianops, "JITTER_LADDER", (0.0,)):
        pseudo = condition(*args, pseudo_inverse=True)
        with pytest.raises(NotPsdError):
            condition(*args)
    assert pseudo.rank_deficient
    np.testing.assert_allclose(pseudo.cond_mean, [0.5 * 0.2 / 2.75], rtol=1e-12)


def test_condition_tower_property():
    """Conditioning in two stages equals conditioning jointly."""
    rng = np.random.default_rng(17)
    A = rng.standard_normal((3, 3))
    S = A @ A.T + 0.3 * np.eye(3)          # joint covariance of (z0, z1, z2)
    mu = rng.standard_normal(3)
    obs = rng.standard_normal(2)           # observed z0, z1

    joint = condition(mu1=mu[:2], mu2=mu[2:], S11=S[:2, :2], S12=S[:2, 2:],
                      S22=S[2:, 2:], observed=obs)

    # stage 1: z1 | z0 — update mean of (z1, z2) given z0
    stage1 = condition(mu1=mu[:1], mu2=mu[1:], S11=S[:1, :1], S12=S[:1, 1:],
                       S22=S[1:, 1:], observed=obs[:1])
    # stage 2: z2 | (z1 residual) under the stage-1 law
    C = stage1.cond_cov
    stage2 = condition(mu1=stage1.cond_mean[:1], mu2=stage1.cond_mean[1:],
                       S11=C[:1, :1], S12=C[:1, 1:], S22=C[1:, 1:],
                       observed=obs[1:])
    np.testing.assert_allclose(stage2.cond_mean, joint.cond_mean, atol=1e-10)
    np.testing.assert_allclose(stage2.cond_cov, joint.cond_cov, atol=1e-10)


def test_cond_cov_diagonal_clamped():
    # perfectly correlated pair: conditional variance is 0 up to rounding
    res = condition(mu1=[0.0], mu2=[0.0], S11=[[1.0]], S12=[[1.0]], S22=[[1.0]],
                    observed=[0.7])
    assert res.cond_cov[0, 0] >= 0.0
    assert res.cond_cov[0, 0] <= 1e-12


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_sample_mvn_zero_cov_is_exact():
    rng = make_rng(0, 0)
    mean = np.array([1.5, -2.0])
    out = sample_mvn(mean, np.zeros((2, 2)), rng)
    np.testing.assert_array_equal(out, mean)


def test_sample_mvn_identity_moments():
    rng = make_rng(123, 0)
    draws = np.array([sample_mvn(np.zeros(2), np.eye(2), rng) for _ in range(100_000)])
    emp_cov = np.cov(draws.T)
    se = 4.0 / math.sqrt(100_000)
    assert abs(emp_cov[0, 0] - 1.0) < se * math.sqrt(2.0)
    assert abs(emp_cov[1, 1] - 1.0) < se * math.sqrt(2.0)
    assert abs(emp_cov[0, 1]) < se


def test_sample_mvn_rank_deficient_draws_along_the_range(monkeypatch):
    monkeypatch.setattr(gaussianops, "JITTER_LADDER", (0.0,))
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    rng = make_rng(5, 0)
    draws = np.array([sample_mvn(np.zeros(2), cov, rng, pseudo_inverse=True) for _ in range(20_000)])
    np.testing.assert_allclose(draws[:, 0], draws[:, 1], rtol=0.0, atol=1e-12)
    se = 4.0 * math.sqrt(2.0 / 20_000)
    assert abs(np.var(draws[:, 0]) - 1.0) < se
    with pytest.raises(NotPsdError):
        sample_mvn(np.zeros(2), cov, rng)


def test_one_pseudo_inverse_rule_drops_eigenvalues_below_the_diagonal_scale(monkeypatch):
    # cov = Q·diag(2, 5e-11, −1e-13)·Qᵀ fails the ladder; its largest
    # diagonal entry is at least trace/3 ≈ 2/3, so PSEUDO_RTOL times it is
    # above 5e-11: sample_mvn draws nothing along that eigenvector, and
    # condition, on the same rule, reports the pseudo-inverse
    monkeypatch.setattr(gaussianops, "JITTER_LADDER", (0.0,))
    Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    cov = (Q * [2.0, 5e-11, -1e-13]) @ Q.T
    rng = make_rng(9, 0)
    draws = np.array([sample_mvn(np.zeros(3), cov, rng, pseudo_inverse=True)
                      for _ in range(500)])
    assert np.std(draws @ Q[:, 1]) <= 1e-12
    assert condition(np.zeros(3), [0.0], cov, np.ones((3, 1)), [[1.0]], np.zeros(3),
                     pseudo_inverse=True).rank_deficient


@pytest.mark.parametrize("dof", [3.0, 997.5, 1e9])
def test_chi_square_moments(dof):
    rng = make_rng(7, 42)
    n = 100_000 if dof < 1e6 else 2_000
    draws = np.array([sample_chi_square(dof, rng) for _ in range(n)])
    tol = 4.0 * math.sqrt(2.0 * dof / n)
    assert abs(draws.mean() - dof) < tol


def test_chi_square_rejects_bad_dof():
    with pytest.raises(ValueError):
        sample_chi_square(0.0, make_rng(0, 0))


# ---------------------------------------------------------------------------
# rng streams
# ---------------------------------------------------------------------------

def test_streams_reproducible_and_distinct():
    a1 = make_rng(99, 1).standard_normal(8)
    a2 = make_rng(99, 1).standard_normal(8)
    b = make_rng(99, 2).standard_normal(8)
    c = make_rng(100, 1).standard_normal(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)
    assert not np.allclose(a1, c)


@pytest.mark.parametrize("master_seed", [0, 7, 2 ** 64 + 5])
@pytest.mark.parametrize("stream_id", [0, 1, 2 ** 63, 2 ** 64 - 1, -1])
def test_stream_is_philox_keyed_by_the_pair_mod_2_64(master_seed, stream_id):
    key = np.array([master_seed % 2 ** 64, stream_id % 2 ** 64], dtype=np.uint64)
    expected = np.random.Generator(np.random.Philox(key=key))
    rng = make_rng(master_seed, stream_id)
    state = rng.bit_generator.state["state"]
    np.testing.assert_array_equal(state["key"], key)
    np.testing.assert_array_equal(state["counter"], np.zeros(4, dtype=np.uint64))
    np.testing.assert_array_equal(rng.standard_normal(16), expected.standard_normal(16))
    np.testing.assert_array_equal(rng.gamma(3.5, 2.0, size=8), expected.gamma(3.5, 2.0, size=8))


def test_pickled_stream_resumes_where_it_stopped():
    rng = make_rng(11, 2 ** 64 - 1)
    rng.standard_normal(5)
    copy = pickle.loads(pickle.dumps(rng))
    np.testing.assert_array_equal(copy.standard_normal(7), rng.standard_normal(7))
    np.testing.assert_array_equal(copy.gamma(0.5, size=3), rng.gamma(0.5, size=3))
