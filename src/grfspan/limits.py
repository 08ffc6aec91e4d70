"""The span recursion of a gradient span algorithm and its N→∞ limit.

A run only ever observes scalars — function values and gradient inner
products — so it is stepped in an orthonormal coordinate system built from x₀
and the gradients, not in ℝ^N: the algorithm places the next point, its
(value, derivative) block is conditioned on everything observed, and its
gradient's component outside the span opens a new direction whose coordinate
is the corner.  ``limit_step`` takes one such step of a ``SpanWalk`` batch,
through the conditioning state the walk was given.  On a ``SpanState``,
given a generator per run and N, it is the exact finite-N sampler of
``trajectories``: the block is drawn with its conditional covariance over N
and the corner is √(σ²_w·χ²_{N−d}/N).  On a ``LimitState``, without them, it
is the N→∞ member of the same recursion: the covariance vanishes, the block
is observed at its conditional mean, and χ²_{N−d}/N → 1 leaves σ_w as the
corner.  Such a block carries no innovation, so the limit's state keeps the
direction rows alone, weighted through one Cholesky factor of the points' κ₃
matrix that grows by a row per opened direction; σ²_w is that row's pivot
squared.  ``predict`` steps a batch of one that way, from step 0, and reads
off the limit curve."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gaussianops
from .algorithms import GsaSpec, InfoView
from .assembly import LimitState, SpanState
from .assembly import joint_blocks, residual_variance  # not called here: bench/layers.py wraps these names
from .errors import CoincidentPointsError, ConsistencyError, KernelDomainError, RankStallError
from .gaussianops import condition  # not called here: bench/layers.py wraps this name
from .kernels import KernelModel

#: residual variance at or below this is treated as a span-dimension stall
RANK_STALL_TOL = 1e-12
#: limiting evaluation points closer than this violate the distinctness claim
COINCIDENT_TOL = 1e-10
#: plug-in residual variance below this is a numerical inconsistency
NEGATIVE_RESIDUAL_TOL = -1e-10


@dataclass(frozen=True)
class LimitCurve:
    """Limiting progress data of steps 0..T.

    Arrays are padded to a common coordinate width; entries beyond a row's
    true span dimension are exact zeros.

    Fields:
        f_limit: limiting function values 𝔣_n.
        gamma: gradient coordinates — row n holds γ_n^{(i)}.
        y_reps: evaluation-point coordinates y_n^{(i)}.
        sigma_w: residual standard deviations σ_w(n).
        dims: span dimension d_n before step n's gradient is added.
        grad_gram_limit: limiting gradient Gram matrix 𝔤.
        rho: pairwise distances of the limiting evaluation points.
        lam: starting norm ‖x₀‖.
        frozen_steps: steps where a rank stall was absorbed by freezing the
            span dimension instead of raising (empty in normal operation).
    """

    f_limit: np.ndarray
    gamma: np.ndarray
    y_reps: np.ndarray
    sigma_w: np.ndarray
    dims: np.ndarray
    grad_gram_limit: np.ndarray
    rho: np.ndarray
    lam: float
    frozen_steps: tuple = field(default_factory=tuple)

    @property
    def steps(self) -> int:
        return len(self.f_limit) - 1

    def gamma_width(self, k: int) -> int:
        """Number of meaningful coordinates in gamma row k (= d_{k+1})."""
        return int(self.dims[k]) + (0 if k in self.frozen_steps else 1)


class SpanWalk:
    """B runs of the span recursion through step T; rows 0..n−1 of the
    (B, T+1, …) arrays hold the steps taken: ``f`` the values, ``X`` and
    ``G`` the iterates' and gradients' coordinates along v_0..v_{W−1},
    W = T + 1 + d_0, ``sigma_w`` the residual standard deviations.  ``d`` is
    the span dimension now, ``dims[k]`` the one before step k's gradient,
    ``state`` the conditioning state it was given, whose batch size is B;
    ``rho`` and ``frozen`` hold the limit's point distances and frozen
    steps."""

    def __init__(self, state: LimitState | SpanState, lam: float, steps: int):
        lam = float(lam)
        if lam < 0:
            raise ValueError(f"starting norm must be nonnegative, got {lam}")
        if steps < 0:
            raise ValueError(f"steps must be nonnegative, got {steps}")
        self.lam, self.steps, self.n = lam, steps, 0
        self.d = 1 if lam > 0 else 0
        self.f = np.empty((state.batch, steps + 1))
        self.G = np.zeros((state.batch, steps + 1, steps + 1 + self.d))
        self.X = np.zeros(self.G.shape)
        self.X[:, 0, 0] = lam           # x₀ = λ·v₀
        self.sigma_w = np.empty((state.batch, steps + 1))
        self.dims = np.empty(steps + 1, dtype=int)
        self.rho = np.zeros((steps + 1, steps + 1))
        self.frozen = []
        self.state = state

    def info(self) -> InfoView:
        """Every run's information through the last step taken."""
        G = self.G[:, :self.n, :self.d]
        return InfoView(f_values=self.f[:, :self.n], grad_gram=G @ G.swapaxes(1, 2),
                        x0_grad=self.lam * G[:, :, 0] if self.lam > 0 else np.zeros(G.shape[:2]),
                        x0_norm_sq=self.lam * self.lam)

    def curve(self) -> LimitCurve:
        """Run 0's steps so far as a limit curve."""
        n, d = self.n, self.d
        gamma = self.G[0, :n, :d].copy()
        return LimitCurve(f_limit=self.f[0, :n].copy(), gamma=gamma,
                          y_reps=self.X[0, :n, :d].copy(), sigma_w=self.sigma_w[0, :n].copy(),
                          dims=self.dims[:n].copy(), grad_gram_limit=gamma @ gamma.T,
                          rho=self.rho[:n, :n].copy(), lam=self.lam, frozen_steps=tuple(self.frozen))


def limit_step(walk: SpanWalk, gsa: GsaSpec, rngs=None, N=None, *,
               on_rank_stall: str = "error") -> None:
    """Take the next step n of every run of ``walk``, in place.

    Given a generator per run and N, which a walk on a ``SpanState`` takes,
    the new point's rows are drawn with the conditional covariance over N,
    then the corner √(σ²_w·χ²_{N−d}/N).  Without them, on a ``LimitState``
    (the N→∞ limit, a batch of one), the rows are observed at their
    conditional mean given the direction rows, which are all that state
    stores, and the corner is σ_w; the other pairing fails at the state's
    ``extend`` with TypeError, before the walk or its state advances.  Only the limit rejects
    coincident points and applies the rank-stall rule: σ²_w ≤ RANK_STALL_TOL
    raises RankStallError, or under "freeze" opens no direction.  A negative
    σ²_w is a κ₃ pivot with no float64 digit left, and its error says so.  A
    floating-point overflow, invalid operation or division by zero anywhere
    in the step raises KernelDomainError; underflow is ignored.
    """
    if on_rank_stall not in ("error", "freeze"):
        raise ValueError(f"on_rank_stall must be 'error' or 'freeze', got {on_rank_stall!r}")
    n = walk.n
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            _step(walk, gsa, rngs, N, on_rank_stall)
        except FloatingPointError as exc:
            raise KernelDomainError(f"step {n}: floating-point {exc}") from None


def _step(walk, gsa, rngs, N, on_rank_stall):
    """``limit_step`` without its floating-point error handling."""
    n, d, X = walk.n, walk.d, walk.X
    if n > walk.steps:
        raise ValueError(f"walk has steps 0..{walk.steps}, all taken")
    if n > 0:
        row = gsa.row(n, walk.info())
        # a contiguous copy keeps the product's bits independent of the width W
        G = np.ascontiguousarray(walk.G[:, :n, :d])
        X[:, n, :d] = (G.swapaxes(1, 2) @ row.h_g[..., None])[:, :, 0]
        X[:, n, 0] += row.h_x * walk.lam
    if rngs is None:
        # the reduction np.linalg.norm(·, axis=1) runs on real input
        diff = X[0, :n, :d] - X[0, n, :d]
        dists = np.sqrt(np.add.reduce(diff * diff, axis=1))
        too_close = (dists <= COINCIDENT_TOL).nonzero()[0]
        if too_close.size:
            raise CoincidentPointsError(
                f"step {n} revisits step {too_close[0]}: limiting points coincide "
                f"(distance {dists[too_close[0]]:.3e})")
        walk.rho[n, :n] = walk.rho[:n, n] = dists

    Y = X[:, :n + 1, :d]
    block, sigma_sq = walk.state.extend(Y) if rngs is None else walk.state.extend(Y, rngs, N)
    walk.f[:, n] = block[:, 0]
    walk.G[:, n, :d] = block[:, 1:]
    walk.dims[n] = d
    walk.n += 1
    walk.sigma_w[:, n] = np.sqrt(np.maximum(sigma_sq, 0.0))
    if rngs is None:
        if sigma_sq[0] <= RANK_STALL_TOL:
            if on_rank_stall == "error":
                if sigma_sq[0] < 0:
                    raise RankStallError(
                        f"step {n}: residual variance σ²_w = {sigma_sq[0]:.3e} < 0; the κ₃ "
                        "pivot has run out of float64 digits, so whether the gradient span "
                        "still grows is not resolved")
                raise RankStallError(
                    f"step {n}: residual variance σ²_w = {sigma_sq[0]:.3e} ≤ "
                    f"{RANK_STALL_TOL:g}; gradient span stopped growing")
            walk.frozen.append(n)
            return
        corner = walk.sigma_w[:, n]
    else:
        if (sigma_sq < NEGATIVE_RESIDUAL_TOL).any():
            raise ConsistencyError(
                f"step {n}: plug-in residual variance {sigma_sq.min():.3e} < "
                f"{NEGATIVE_RESIDUAL_TOL:g}")
        chi = np.array([gaussianops.sample_chi_square(N - d, rng) for rng in rngs])
        corner = np.sqrt((np.maximum(sigma_sq, 0.0) / N) * chi)
    walk.G[:, n, d] = corner
    walk.state.open_direction(corner)
    walk.d += 1


def predict(kernel: KernelModel, gsa: GsaSpec, lam: float, steps: int, *,
            on_rank_stall: str = "error") -> LimitCurve:
    """Limit curve of `steps` optimizer steps from a start of norm `lam`.

    The limit conditions each new point on the opened directions' rows
    alone: per step, it evaluates the kernel's partials once over the new
    point's pairs with every point, solves the new point's κ₃ column through
    one growing κ₃ factor, forms the conditional mean as one contraction of
    those partials with fixed weights over the earlier points, and on
    opening a direction makes one more solve for its weights.  It builds no
    covariance block, factors none and takes no jitter.
    """
    walk = SpanWalk(LimitState(kernel), lam, steps)
    for _ in range(steps + 1):
        limit_step(walk, gsa, on_rank_stall=on_rank_stall)
    return walk.curve()


def first_halting_step(diag, epsilon):
    """The halting rule: the first n ≥ 1 with diag[..., n] ≤ epsilon, where
    the last axis of diag holds squared gradient norms of steps 0..T;
    math.inf if there is none.  A 1-D diag gives an int (or math.inf), more
    axes a float array of one step per leading index."""
    hit = np.asarray(diag)[..., 1:] <= epsilon
    steps = np.where(hit, np.arange(1, hit.shape[-1] + 1), math.inf)
    first = steps.min(axis=-1, initial=math.inf)
    if first.ndim:
        return first
    return int(first) if first < math.inf else math.inf


def halting_times(curve: LimitCurve, epsilon: float):
    """First steps where the limiting gradient norm² drops to/below epsilon.

    Returns (tau, tau_plus): tau uses ≤, tau_plus uses strict <; both are
    math.inf when the threshold is never reached on the computed horizon.
    """
    diag = np.diagonal(curve.grad_gram_limit)
    # x < epsilon exactly when x ≤ the largest float below epsilon
    return (first_halting_step(diag, epsilon),
            first_halting_step(diag, math.nextafter(epsilon, -math.inf)))
