"""Deterministic N→∞ limit of a gradient span algorithm's progress.

As the ambient dimension grows, the scalar information a span-based optimizer
sees — function values, gradient inner products — stops being random.  This
module computes those limits by the constructive recursion: represent each
visited point and gradient in a growing orthonormal coordinate system, get
the next step's span coefficients from the algorithm, condition the new
point's (value, derivative) block on everything already pinned down, and take
the conditional mean.  The conditional covariance carries a 1/N factor and
vanishes in the limit, so the recursion is fully deterministic; the only
genuinely new randomness per step collapses to the residual standard
deviation σ_w, which becomes the corner coordinate of the new gradient.

Everything here is exact linear algebra on small matrices — no sampling, no
ambient dimension."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algorithms import GsaSpec, InfoView
from .assembly import SpanState
from .assembly import joint_blocks, residual_variance  # not called here: bench/layers.py wraps these names
from .errors import CoincidentPointsError, DegenerateKernelError, RankStallError
from .gaussianops import DEFAULT_POLICY, ConditionPolicy
from .gaussianops import condition  # not called here: bench/layers.py wraps this name
from .kernels import KernelModel

#: residual variance at or below this is treated as a span-dimension stall
RANK_STALL_TOL = 1e-12
#: limiting evaluation points closer than this violate the distinctness claim
COINCIDENT_TOL = 1e-10


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


def limit_init(kernel: KernelModel, lam: float) -> LimitCurve:
    """Step-0 limit: the start point's value, gradient coordinates, corner."""
    lam = float(lam)
    if lam < 0:
        raise ValueError(f"starting norm must be nonnegative, got {lam}")
    s0 = lam * lam / 2.0
    f0 = float(kernel.mean(s0))
    k3_start = float(kernel.k3(s0, s0, lam * lam))
    if k3_start <= 0:
        raise DegenerateKernelError(
            f"κ₃ = {k3_start:g} at the start point; gradient has no "
            "span-orthogonal component there")
    corner = math.sqrt(k3_start)
    if lam > 0:
        d0 = 1
        gamma0 = [float(kernel.mean_prime(s0)) * lam, corner]
        y0 = [lam, 0.0]
    else:
        d0 = 0
        gamma0 = [corner]
        y0 = [0.0]
    gamma = np.array([gamma0])
    return LimitCurve(
        f_limit=np.array([f0]),
        gamma=gamma,
        y_reps=np.array([y0]),
        sigma_w=np.array([corner]),
        dims=np.array([d0]),
        grad_gram_limit=gamma @ gamma.T,
        rho=np.zeros((1, 1)),
        lam=lam,
    )


def limiting_info(curve: LimitCurve, n: int) -> InfoView:
    """The deterministic information vector after limiting step n."""
    if n > curve.steps:
        raise ValueError(f"curve has steps 0..{curve.steps}, requested {n}")
    m = n + 1
    return InfoView(
        f_values=curve.f_limit[:m],
        grad_gram=curve.grad_gram_limit[:m, :m],
        x0_grad=curve.lam * curve.gamma[:m, 0] if curve.lam > 0 else np.zeros(m),
        x0_norm_sq=curve.lam ** 2,
    )


def limit_step(curve: LimitCurve, state: SpanState, gsa: GsaSpec, *,
               on_rank_stall: str = "error") -> LimitCurve:
    """Extend the limit curve by one step of the span recursion.

    ``state`` holds the conditioning history of ``curve``'s points, as a
    batch of one, and is extended in place.
    """
    if on_rank_stall not in ("error", "freeze"):
        raise ValueError(f"on_rank_stall must be 'error' or 'freeze', got {on_rank_stall!r}")
    n = curve.steps + 1
    if state.points != n:
        raise ValueError(f"state holds {state.points} points, curve has {n}")
    d_n = curve.gamma_width(n - 1)

    row = gsa.row(n, limiting_info(curve, n - 1))
    gam_hist = curve.gamma[:n, :d_n]
    y_new = gam_hist.T @ row.h_g
    y_new[0] += row.h_x * curve.lam

    dists = np.linalg.norm(curve.y_reps[:n, :d_n] - y_new, axis=1)
    too_close = np.nonzero(dists <= COINCIDENT_TOL)[0]
    if too_close.size:
        raise CoincidentPointsError(
            f"step {n} revisits step {too_close[0]}: limiting points coincide "
            f"(distance {dists[too_close[0]]:.3e})")

    Y = np.vstack([curve.y_reps[:n, :d_n], y_new])
    block = state.extend(Y[None])[0]
    f_n = float(block[0])
    gamma_body = block[1:]

    sigma_sq = float(state.residual_variance()[0])
    frozen = curve.frozen_steps
    if sigma_sq <= RANK_STALL_TOL:
        if on_rank_stall == "error":
            raise RankStallError(
                f"step {n}: residual variance σ²_w = {sigma_sq:.3e} ≤ "
                f"{RANK_STALL_TOL:g}; gradient span stopped growing")
        sigma_val = math.sqrt(max(sigma_sq, 0.0))
        gamma_new = gamma_body
        frozen = frozen + (n,)
    else:
        sigma_val = math.sqrt(sigma_sq)
        gamma_new = np.append(gamma_body, sigma_val)
        state.open_direction([sigma_val])

    width = max(curve.gamma.shape[1], len(gamma_new), len(y_new))
    gamma = np.zeros((n + 1, width))
    gamma[:n, :curve.gamma.shape[1]] = curve.gamma
    gamma[n, :len(gamma_new)] = gamma_new
    y_reps = np.zeros((n + 1, width))
    y_reps[:n, :curve.y_reps.shape[1]] = curve.y_reps
    y_reps[n, :len(y_new)] = y_new

    rho = np.zeros((n + 1, n + 1))
    rho[:n, :n] = curve.rho
    rho[n, :n] = rho[:n, n] = dists

    return LimitCurve(
        f_limit=np.append(curve.f_limit, f_n),
        gamma=gamma,
        y_reps=y_reps,
        sigma_w=np.append(curve.sigma_w, sigma_val),
        dims=np.append(curve.dims, d_n),
        grad_gram_limit=gamma @ gamma.T,
        rho=rho,
        lam=curve.lam,
        frozen_steps=frozen,
    )


def limit_state(curve: LimitCurve, kernel: KernelModel,
                policy: ConditionPolicy = DEFAULT_POLICY) -> SpanState:
    """Conditioning state (a batch of one) of a step-0 curve from ``limit_init``.

    Step 0 conditions on nothing, so its rows are observed at their mean,
    which is where ``limit_init`` put f_0 and the body of γ_0.
    """
    state = SpanState(kernel, policy)
    state.extend(curve.y_reps[None, :1, :curve.dims[0]])
    state.open_direction(curve.sigma_w[:1])
    return state


def predict(kernel: KernelModel, gsa: GsaSpec, lam: float, steps: int, *,
            on_rank_stall: str = "error",
            policy: ConditionPolicy = DEFAULT_POLICY) -> LimitCurve:
    """Limit curve of `steps` optimizer steps from a start of norm `lam`."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    curve = limit_init(kernel, lam)
    state = limit_state(curve, kernel, policy)
    for _ in range(steps):
        curve = limit_step(curve, state, gsa, on_rank_stall=on_rank_stall)
    return curve


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
