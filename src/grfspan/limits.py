"""The span recursion of a gradient span algorithm and its N→∞ limit.

A run only ever observes scalars — function values and gradient inner
products — so it is stepped in an orthonormal coordinate system built from x₀
and the gradients, not in ℝ^N: the algorithm places the next point, its
(value, derivative) block is conditioned on everything observed, and its
gradient's component outside the span opens a new direction whose coordinate
is the corner.  ``limit_step`` takes one such step of a ``SpanWalk`` batch:
it places the points and hands them to the conditioning state the walk was
given, whose one ``extend`` call observes them and opens the direction.  A
``SpanState``, which holds a generator per run and N, is the exact finite-N
sampler of ``trajectories``: the block is drawn with its conditional
covariance over N and the corner is √(σ²_w·χ²_{N−d}/N).  A ``LimitState``
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

from .algorithms import GsaSpec, InfoView
from .assembly import LimitState, SpanState
from .assembly import joint_blocks, residual_variance  # not called here: bench/layers.py wraps these names
from .errors import KernelDomainError
from .gaussianops import condition  # not called here: bench/layers.py wraps this name
from .kernels import KernelModel


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
    ``state`` the conditioning state it was given, whose batch size is B."""

    def __init__(self, state: LimitState | SpanState, lam: float, steps: int):
        lam = float(lam)
        if not 0 <= lam < math.inf:
            raise ValueError(f"starting norm lam must be nonnegative and finite, got {lam}")
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
        self.state = state

    def info(self) -> InfoView:
        """Every run's information through the last step taken."""
        return _info(self.f[:, :self.n], self.G[:, :self.n, :self.d], self.lam)

    def curve(self) -> LimitCurve:
        """The steps so far of a walk on a ``LimitState`` as a limit curve,
        with the point distances and frozen steps its state kept."""
        n, d = self.n, self.d
        gamma = self.G[0, :n, :d].copy()
        rho = np.zeros((n, n))
        for k, dists in enumerate(self.state.dists):
            rho[k, :k] = rho[:k, k] = dists
        return LimitCurve(f_limit=self.f[0, :n].copy(), gamma=gamma,
                          y_reps=self.X[0, :n, :d].copy(), sigma_w=self.sigma_w[0, :n].copy(),
                          dims=self.dims[:n].copy(), grad_gram_limit=gamma @ gamma.T,
                          rho=rho, lam=self.lam, frozen_steps=tuple(self.state.frozen))


def _info(f, G, lam):
    """The InfoView of values f (B, n) and gradient coordinates G (B, n, d)
    from a start of norm lam."""
    return InfoView(f_values=f, grad_gram=G @ G.swapaxes(1, 2),
                    x0_grad=lam * G[:, :, 0] if lam > 0 else np.zeros(G.shape[:2]),
                    x0_norm_sq=lam * lam)


class _StepInfo:
    """One step's information, bound to its slices of the walk's arrays.

    The InfoView is built and validated the first time any field is read,
    then kept, so a schedule with fixed coefficients never pays for it and a
    read after the step gives what a read inside it gave: the slices cover
    rows the walk has taken and never writes again."""

    __slots__ = ("_slices", "_view")

    def __init__(self, f, G, lam):
        self._slices, self._view = (f, G, lam), None

    def __getattr__(self, name):
        if self._view is None:
            self._view = _info(*self._slices)
        return getattr(self._view, name)


def limit_step(walk: SpanWalk, gsa: GsaSpec) -> None:
    """Take the next step n of every run of ``walk``, in place.

    The optimizer places each run's point from its information so far,
    which the step assembles and validates only if the optimizer's row
    reads it, and the walk's state takes the step in one ``extend`` call: it
    observes the point's rows, returns σ²_w and opens the new direction at
    the corner it returns (see ``LimitState.extend`` and
    ``SpanState.extend``).  A corner of None, a limit's frozen rank stall,
    opens no direction.  A floating-point overflow, invalid operation or
    division by zero anywhere in the step raises KernelDomainError;
    underflow is ignored.
    """
    n, d, X = walk.n, walk.d, walk.X
    if n > walk.steps:
        raise ValueError(f"walk has steps 0..{walk.steps}, all taken")
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            if n > 0:
                G = walk.G[:, :n, :d]
                row = gsa.row(n, _StepInfo(walk.f[:, :n], G, walk.lam))
                # a contiguous copy keeps the product's bits independent of the width W
                G = np.ascontiguousarray(G)
                X[:, n, :d] = (G.swapaxes(1, 2) @ row.h_g[..., None])[:, :, 0]
                X[:, n, 0] += row.h_x * walk.lam
            block, sigma_sq, corner = walk.state.extend(X[:, :n + 1, :d])
        except FloatingPointError as exc:
            raise KernelDomainError(f"step {n}: floating-point {exc}") from None
    walk.f[:, n] = block[:, 0]
    walk.G[:, n, :d] = block[:, 1:]
    walk.dims[n] = d
    walk.n += 1
    walk.sigma_w[:, n] = np.sqrt(np.maximum(sigma_sq, 0.0))
    if corner is not None:
        walk.G[:, n, d] = corner
        walk.d += 1


def predict(kernel: KernelModel, gsa: GsaSpec, lam: float, steps: int, *,
            on_rank_stall: str = "error") -> LimitCurve:
    """Limit curve of `steps` optimizer steps from a start of finite norm `lam` ≥ 0.

    The limit conditions each new point on the opened directions' rows
    alone: per step, it evaluates the kernel's partials once over the new
    point's pairs with every point, solves the new point's κ₃ column through
    one growing κ₃ factor, forms the conditional mean as one contraction of
    those partials with fixed weights over the earlier points, and on
    opening a direction makes one more solve for its weights.  It builds no
    covariance block, factors none and takes no jitter, and builds the
    optimizer's information only for a row that reads it (``fr_cg`` and the
    projections do; ``gd``, ``heavy_ball`` and ``nesterov`` do not).
    ``on_rank_stall`` is the limit state's rank-stall rule, "error" or
    "freeze".
    """
    walk = SpanWalk(LimitState(kernel, on_rank_stall), lam, steps)
    for _ in range(steps + 1):
        limit_step(walk, gsa)
    return walk.curve()


def first_halting_step(diag, epsilon):
    """The halting rule: the first n ≥ 1 with diag[..., n] ≤ epsilon, where
    the last axis of diag holds squared gradient norms of steps 0..T;
    math.inf if there is none.  A 1-D diag gives an int (or math.inf), more
    axes a float array of one step per leading index.  A NaN epsilon raises
    ValueError."""
    if math.isnan(epsilon):
        raise ValueError(f"epsilon must be a number, got {epsilon}")
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
