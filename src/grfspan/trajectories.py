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

``simulate_info_paths`` steps a batch of runs that share (N, λ, steps)
together through ``limits.limit_step``, the one span recursion, whose N→∞
member without draws is ``predict``; each run keeps its own random stream,
drawn in the order a lone run draws it, so its record is bitwise the same in
every batch.  ``simulate_info_path`` is its batch of one.

``brute_force_path`` is the independent oracle: it maintains explicit
coordinates in ℝ^N and samples the full (N+1)-dimensional blocks, feasible
only for small N.  The two must agree in distribution.
"""

from __future__ import annotations

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
)
from .assembly import residual_variance  # not called here: bench/layers.py wraps this name
from .errors import NumericalError
from .gaussianops import condition, make_rng, sample_mvn
from .gaussianops import sample_chi_square  # not called here: bench/layers.py wraps this name
from .kernels import KernelModel
from .limits import SpanWalk, first_halting_step, limit_step


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


def simulate_info_path(kernel: KernelModel, gsa: GsaSpec, lam: float, N: int,
                       steps: int, stream_id: int, master_seed: int, *,
                       pseudo_inverse: bool = False) -> TrajectoryRecord:
    """Sample one exact finite-N trajectory in previsible coordinates.

    Identical (master_seed, stream_id) and arguments reproduce the record
    bit for bit.
    """
    return simulate_info_paths(kernel, gsa, lam, N, steps, [stream_id], master_seed,
                               pseudo_inverse=pseudo_inverse)[0]


def simulate_info_paths(kernel: KernelModel, gsa: GsaSpec, lam: float, N: int,
                        steps: int, stream_ids, master_seed: int, *,
                        pseudo_inverse: bool = False) -> list[TrajectoryRecord]:
    """Sample one exact finite-N trajectory per stream, stepped as a batch.

    Run b draws from make_rng(master_seed, stream_ids[b]) — the normals of
    its new block, then the chi-square of its new direction, step by step —
    and its record is bitwise that of ``simulate_info_path`` on the same
    stream, whatever else is in the batch.  A numerical failure names the
    stream it happened on.
    """
    stream_ids = [int(sid) for sid in stream_ids]
    rngs = [make_rng(master_seed, sid) for sid in stream_ids]
    walk = SpanWalk(SpanState(kernel, rngs, N, pseudo_inverse), lam, steps)
    if N <= steps + 2:
        raise ValueError(f"need N > steps + 2, got N={N}, steps={steps}")
    try:
        for n in range(steps + 1):
            limit_step(walk, gsa)
    except (NumericalError, ValueError) as exc:
        raise _blame(exc, kernel, gsa, walk.lam, N, n, stream_ids, master_seed,
                     pseudo_inverse) from exc

    lam, G = walk.lam, walk.G
    grad_gram = G @ G.swapaxes(1, 2)
    return [TrajectoryRecord(
        N=N, lam=lam, f_values=walk.f[b], grad_gram=grad_gram[b],
        x0_grad=lam * G[b, :, 0] if lam > 0 else np.zeros(steps + 1),
        x0_norm_sq=lam * lam, master_seed=master_seed, stream_id=sid,
        G=G[b], x_coords=walk.X[b], dims=walk.dims.copy())
        for b, sid in enumerate(stream_ids)]


def _blame(exc, kernel, gsa, lam, N, step, stream_ids, master_seed, pseudo_inverse):
    """The error of a batch that failed at ``step``, naming its stream.

    Runs do not interact, so the stream that broke the batch fails at that
    step when run alone; the first such stream is rerun to name it.
    """
    if len(stream_ids) == 1:
        return type(exc)(f"stream {stream_ids[0]}: {exc}")
    for sid in stream_ids:
        try:
            simulate_info_paths(kernel, gsa, lam, N, step, [sid], master_seed,
                                pseudo_inverse=pseudo_inverse)
        except (NumericalError, ValueError) as alone:
            return alone
    return exc


def brute_force_path(kernel: KernelModel, gsa: GsaSpec, x0, steps: int,
                     stream_id: int, master_seed: int, *,
                     pseudo_inverse: bool = False) -> TrajectoryRecord:
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
            s, ip = coordinate_inner_products(Y)
            mu = mean_block(kernel, Y, s)
            M = cov_block(kernel, Y, Y, kernel.derivatives(s, s, ip))
            z = sample_mvn(mu, M / N, rng, pseudo_inverse)
        else:
            blocks = joint_blocks(kernel, X[:n], X[n])
            observed = flatten_history(f_values[:n], grads[:n])
            res = condition(blocks.mean_hist, blocks.mean_new, blocks.S_hh,
                            blocks.S_hn, blocks.S_nn, observed, pseudo_inverse)
            z = sample_mvn(res.cond_mean, res.cond_cov / N, rng, pseudo_inverse)
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
