"""Exact finite-N simulation of an optimizer run on the random field.

The field is never materialized.  A run of a gradient span algorithm only
ever observes scalars — function values and inner products — and those can be
sampled exactly by conditioning: each new evaluation point's (value,
directional derivatives) block is Gaussian given everything observed so far,
and the gradient component pointing out of the visited span is an independent
chi-square of N − d degrees of freedom.  All coordinates are taken in the
orthonormal basis built step by step from x₀ and the observed gradients, so
the cost is polynomial in the number of steps and free of N; an N = 10⁹ run
is as cheap (and as exact) as N = 100.

``brute_force_path`` is the independent oracle: it maintains explicit
coordinates in ℝ^N and samples the full (N+1)-dimensional blocks, feasible
only for small N.  The two must agree in distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import GsaSpec, InfoView
from .assembly import (
    SpanState,
    cov_block,
    coordinate_inner_products,
    flatten_history,
    joint_blocks,
    mean_block,
    residual_variance,
)
from .errors import ConsistencyError, DegenerateKernelError
from .gaussianops import (
    DEFAULT_POLICY,
    ConditionPolicy,
    condition,
    make_rng,
    sample_chi_square,
    sample_mvn,
)
from .kernels import KernelModel
from .limits import first_halting_step

#: plug-in residual variance below this is a numerical inconsistency
NEGATIVE_RESIDUAL_TOL = -1e-10


@dataclass(frozen=True)
class TrajectoryRecord:
    """Dimension-free outcome of one simulated run.

    grad_gram is the reconstructed matrix of ⟨∇f(X_k), ∇f(X_l)⟩; G holds the
    per-step gradient coordinates in the previsible basis (None for the
    brute-force oracle, which has no such basis); x_coords likewise for the
    iterates."""

    N: int
    lam: float
    f_values: np.ndarray
    grad_gram: np.ndarray
    x0_grad: np.ndarray
    x0_norm_sq: float
    master_seed: int
    stream_id: int
    G: np.ndarray | None = None
    x_coords: np.ndarray | None = None
    dims: np.ndarray | None = None

    @property
    def steps(self) -> int:
        return len(self.f_values) - 1


def _realized_info(lam, f_values, G):
    G = np.asarray(G)
    return InfoView(
        f_values=np.asarray(f_values, dtype=float),
        grad_gram=G @ G.T,
        x0_grad=lam * G[:, 0] if lam > 0 else np.zeros(len(G)),
        x0_norm_sq=lam * lam,
    )


def simulate_info_path(kernel: KernelModel, gsa: GsaSpec, lam: float, N: int,
                       steps: int, stream_id: int, master_seed: int, *,
                       policy: ConditionPolicy = DEFAULT_POLICY) -> TrajectoryRecord:
    """Sample one exact finite-N trajectory in previsible coordinates.

    Identical (master_seed, stream_id) and arguments reproduce the record
    bit for bit.
    """
    lam = float(lam)
    if lam < 0:
        raise ValueError(f"starting norm must be nonnegative, got {lam}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if N <= steps + 2:
        raise ValueError(f"need N > steps + 2, got N={N}, steps={steps}")
    rng = make_rng(master_seed, stream_id)

    d = 1 if lam > 0 else 0
    width = steps + 1 + d           # final span dimension d_{T+1}
    f_values = np.empty(steps + 1)
    G = np.zeros((steps + 1, width))
    x_coords = np.zeros((steps + 1, width))
    dims = np.empty(steps + 1, dtype=int)
    x_coords[0, 0] = lam            # x₀ = λ·v₀; step 0 conditions on nothing
    state = SpanState(kernel, policy)

    for n in range(steps + 1):
        if n > 0:
            info = _realized_info(lam, f_values[:n], G[:n, :d])
            row = gsa.row(n, info)
            x_new = G[:n, :d].T @ row.h_g
            x_new[0] += row.h_x * lam
            x_coords[n, :d] = x_new
        Y = x_coords[:n + 1, :d]

        s_new = float(x_coords[n] @ x_coords[n]) / 2.0
        k3_here = float(kernel.k3(s_new, s_new, 2.0 * s_new))
        if k3_here <= 0:
            raise DegenerateKernelError(
                f"step {n}: κ₃ = {k3_here:g} at the new point; no gradient mass "
                "outside the span")
        v_block = state.extend(Y, rng, N)
        f_values[n] = v_block[0]
        G[n, :d] = v_block[1:]

        sigma_sq = residual_variance(kernel, Y, policy=policy)
        if sigma_sq < NEGATIVE_RESIDUAL_TOL:
            raise ConsistencyError(
                f"step {n}: plug-in residual variance {sigma_sq:.3e} < "
                f"{NEGATIVE_RESIDUAL_TOL:g}")
        sigma_sq = max(sigma_sq, 0.0)
        G[n, d] = math.sqrt((sigma_sq / N) * sample_chi_square(N - d, rng))
        state.open_direction(G[n, d])
        dims[n] = d
        d += 1

    return TrajectoryRecord(
        N=N, lam=lam, f_values=f_values, grad_gram=G @ G.T,
        x0_grad=lam * G[:, 0] if lam > 0 else np.zeros(steps + 1),
        x0_norm_sq=lam * lam, master_seed=master_seed, stream_id=stream_id,
        G=G, x_coords=x_coords, dims=dims)


def brute_force_path(kernel: KernelModel, gsa: GsaSpec, x0, steps: int,
                     stream_id: int, master_seed: int, *,
                     policy: ConditionPolicy = DEFAULT_POLICY) -> TrajectoryRecord:
    """Oracle run with explicit ℝ^N coordinates and full (N+1)-blocks.

    Samples (f(X_n), ∂₁f(X_n), …, ∂_N f(X_n)) sequentially from its exact
    conditional law given all previous blocks, then steps the optimizer in
    ambient coordinates.  Only viable for small N; used to validate the
    dimension-free sampler distributionally.
    """
    x0 = np.asarray(x0, dtype=float)
    N = len(x0)
    if N > 64:
        raise ValueError(f"brute force supports N ≤ 64, got {N}")
    if steps > 6:
        raise ValueError(f"brute force supports steps ≤ 6, got {steps}")
    if N <= steps + 2:
        raise ValueError(f"need N > steps + 2, got N={N}, steps={steps}")
    rng = make_rng(master_seed, stream_id)
    lam = float(np.linalg.norm(x0))

    X = np.empty((steps + 1, N))
    grads = np.empty((steps + 1, N))
    f_values = np.empty(steps + 1)
    X[0] = x0

    for n in range(steps + 1):
        if n == 0:
            Y = X[0:1]
            s_vec, ip = coordinate_inner_products(Y)
            mu = mean_block(kernel, Y, s_vec, [0])
            M = cov_block(kernel, Y, s_vec, ip, [0], [0])
            z = sample_mvn(mu, M / N, rng, policy)
        else:
            blocks = joint_blocks(kernel, X[:n], X[n])
            observed = flatten_history(f_values[:n], grads[:n])
            res = condition(blocks.mean_hist, blocks.mean_new, blocks.S_hh,
                            blocks.S_hn, blocks.S_nn, observed, policy=policy)
            z = sample_mvn(res.cond_mean, res.cond_cov / N, rng, policy)
        f_values[n] = z[0]
        grads[n] = z[1:]
        if n < steps:
            info = InfoView(f_values=f_values[:n + 1],
                            grad_gram=grads[:n + 1] @ grads[:n + 1].T,
                            x0_grad=grads[:n + 1] @ x0,
                            x0_norm_sq=lam * lam)
            row = gsa.row(n + 1, info)
            X[n + 1] = row.h_x * x0 + grads[:n + 1].T @ row.h_g

    return TrajectoryRecord(
        N=N, lam=lam, f_values=f_values, grad_gram=grads @ grads.T,
        x0_grad=grads @ x0, x0_norm_sq=lam * lam,
        master_seed=master_seed, stream_id=stream_id)


def empirical_halting_time(record: TrajectoryRecord, epsilon: float):
    """First step n > 0 with ‖∇f(X_n)‖² ≤ epsilon, or math.inf."""
    return first_halting_step(np.diagonal(record.grad_gram), epsilon)
