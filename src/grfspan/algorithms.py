"""Gradient span algorithms as dimension-free prefactor schedules.

An optimizer is represented by the coefficients of its next iterate in the
span of the starting point and all queried gradients:

    x_n = h_x·x₀ + Σ_{k<n} h_g[k]·∇f(x_k)

where the coefficients may depend on the scalar information gathered so far
(function values, gradient Gram matrix, and the ⟨x₀, ∇f⟩ products).  Running
an algorithm therefore never needs ambient coordinates — which is what makes
both the N→∞ limit recursion and the dimension-free sampler possible.

Built-ins: plain gradient descent, heavy-ball momentum, Nesterov momentum in
its look-ahead form, and Fletcher–Reeves conjugate gradient with a fixed step
size, plus sphere/ball projection wrappers.  The first three have fixed
coefficients and read none of the information; the stepping core builds an
``InfoView`` only when a row reads one of its fields.

Every constructor raises ValueError, naming the parameter, unless the step
size α is finite and nonzero, the momentum β has |β| < 1 and the radius is
positive and finite: a NaN or ±inf parameter fails where it is given, not
later in the kernel.

The information and the rows may carry a leading batch axis, one entry per
run of a batch stepped together: an ``InfoView`` of f_values (B, n+1),
grad_gram (B, n+1, n+1) and x0_grad (B, n+1) gives rows whose h_x is a float
or (B,) and whose h_g is (n,) — an information-free row shared by every run —
or (B, n).  Each run's row is computed with the same arithmetic as a lone
run's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateProjectionError

#: guard below which fr_cg treats the previous gradient norm as zero (restart)
CG_RESTART_TOL = 1e-14


@dataclass(frozen=True)
class InfoView:
    """Scalar information available to the algorithm after step n.

    Args:
        f_values: f(x₀), …, f(x_n).
        grad_gram: matrix of ⟨∇f(x_k), ∇f(x_l)⟩ for k, l ≤ n.
        x0_grad: ⟨x₀, ∇f(x_k)⟩ for k ≤ n.
        x0_norm_sq: ‖x₀‖², shared by every run of a batch.

    The arrays may carry a leading batch axis; every check then holds for
    every run.
    """

    f_values: np.ndarray
    grad_gram: np.ndarray
    x0_grad: np.ndarray
    x0_norm_sq: float

    def __post_init__(self):
        object.__setattr__(self, "f_values", np.asarray(self.f_values, dtype=float))
        object.__setattr__(self, "grad_gram", np.asarray(self.grad_gram, dtype=float))
        object.__setattr__(self, "x0_grad", np.asarray(self.x0_grad, dtype=float))
        object.__setattr__(self, "x0_norm_sq", float(self.x0_norm_sq))
        g = self.grad_gram
        if g.shape[-1] != g.shape[-2] or g.shape[:-1] != self.x0_grad.shape:
            raise ValueError("inconsistent information sizes")
        gt = g.swapaxes(-1, -2)
        # np.allclose(g, gt, atol=1e-9) on finite Grams, without its overhead; NaN fails
        if not (np.abs(g - gt) <= 1e-9 + 1e-5 * np.abs(gt)).all():
            raise ValueError("gradient Gram matrix must be symmetric")
        diag = g.diagonal(axis1=-2, axis2=-1)
        if (diag < -1e-12).any():
            raise ValueError("gradient Gram diagonal must be nonnegative")
        # Cauchy–Schwarz with slack for rounding
        bound = self.x0_norm_sq * np.maximum(diag, 0.0)
        if (self.x0_grad ** 2 > bound + 1e-9 * np.maximum(1.0, bound)).any():
            raise ValueError("⟨x₀,∇f⟩ violates Cauchy–Schwarz against ‖x₀‖·‖∇f‖")

    @property
    def steps(self) -> int:
        """Largest step index n recorded in this view."""
        return self.x0_grad.shape[-1] - 1


@dataclass(frozen=True)
class PrefactorRow:
    """Span coefficients of one iterate: x_n = h_x·x₀ + Σ h_g[k]·∇f(x_k).

    For a batch, h_x is a float or one per run and h_g is (n,) or (B, n).
    """

    h_x: float | np.ndarray
    h_g: np.ndarray

    def __post_init__(self):
        h_x = np.asarray(self.h_x, dtype=float)
        object.__setattr__(self, "h_x", h_x if h_x.ndim else float(h_x))
        object.__setattr__(self, "h_g", np.asarray(self.h_g, dtype=float))


@dataclass(frozen=True)
class GsaSpec:
    """An optimizer: a name, its parameters and a pure prefactor function.

    ``prefactors(n, info)`` must return the PrefactorRow for iterate n ≥ 1
    given the information through step n−1, for a single run or a batch.
    Inside ``limits.limit_step``, ``info`` reads like an ``InfoView`` but is
    built and validated on its first field read, so a schedule that never
    reads it costs the step nothing; it may be kept past the step.
    """

    name: str
    parameters: dict = field(default_factory=dict)
    prefactors: object = None

    def row(self, n: int, info: InfoView) -> PrefactorRow:
        if n < 1:
            raise ValueError(f"prefactors are defined for steps n >= 1, got {n}")
        row = self.prefactors(n, info)
        if row.h_g.shape[-1:] != (n,):
            raise ValueError(
                f"{self.name}: step {n} emitted gradient coefficients of shape "
                f"{row.h_g.shape}, expected one per past gradient")
        return row


# ---------------------------------------------------------------------------
# built-in optimizers
# ---------------------------------------------------------------------------

def _step_size(alpha) -> float:
    """α as a float; every constructor takes a finite, nonzero one."""
    a = float(alpha)
    if a == 0 or not math.isfinite(a):
        raise ValueError(f"alpha must be nonzero and finite, got {alpha}")
    return a


def gd(alpha: float) -> GsaSpec:
    """Gradient descent x_n = x_{n−1} − α∇f(x_{n−1}), unrolled."""
    a = _step_size(alpha)

    def prefactors(n, info):
        return PrefactorRow(1.0, np.full(n, -a))

    return GsaSpec(name="gd", parameters={"alpha": a}, prefactors=prefactors)


def heavy_ball(alpha: float, beta: float) -> GsaSpec:
    """Heavy-ball momentum m_n = βm_{n−1} − α∇f(x_{n−1}), x_n = x_{n−1} + m_n.

    Unrolling gives h_g[k] = −α·(1 − β^{n−k})/(1 − β) (partial geometric
    sums); β = 0 recovers gradient descent.
    """
    return _geometric("heavy_ball", alpha, beta, 0)


def nesterov(alpha: float, beta: float) -> GsaSpec:
    """Nesterov momentum with gradients queried at the look-ahead points.

    Two sequences, z the gradient-step iterates and y the emitted
    look-ahead points, where gradients are evaluated, which keeps the
    scheme inside the gradient-span form:

        z_{j+1} = y_j − α∇f(y_j),   y_{j+1} = z_{j+1} + β(z_{j+1} − z_j),

    both started at x₀.  The x₀-coefficient of every y_n is 1, and
    unrolling gives the gradient coefficients in closed form,
    h_g[k] = −α·(1 − β^{n−k+1})/(1 − β): heavy-ball's partial geometric
    sums with one more term.  β = 0 recovers gradient descent.
    """
    return _geometric("nesterov", alpha, beta, 1)


def _geometric(name, alpha, beta, extra):
    """The momentum schedule ``name``: h_x = 1 and the partial geometric
    sums h_g[k] = −α·(1 − β^{n−k+extra})/(1 − β)."""
    a = _step_size(alpha)
    if not abs(beta) < 1:
        raise ValueError(f"need |beta| < 1, got {beta}")
    b = float(beta)

    def prefactors(n, info):
        powers = b ** (n + extra - np.arange(n))
        return PrefactorRow(1.0, -a * (1.0 - powers) / (1.0 - b))

    return GsaSpec(name=name, parameters={"alpha": a, "beta": b}, prefactors=prefactors)


def fr_cg(alpha: float) -> GsaSpec:
    """Fletcher–Reeves conjugate gradient with a fixed step size α.

    d_n = −∇f(x_n) + β_n d_{n−1} with β_n the ratio of consecutive gradient
    norms read off the Gram diagonal; x_n = x_{n−1} + α d_{n−1}.  The search
    directions are kept as running linear combinations of past gradients and
    recomputed from the InfoView on every call, so the schedule is stateless.
    A vanishing previous gradient norm (< 1e−14) restarts with β_n = 0.
    """
    a = _step_size(alpha)

    def prefactors(n, info):
        diag = info.grad_gram.diagonal(axis1=-2, axis2=-1)
        prev = diag[..., :n - 1]
        restart = prev < CG_RESTART_TOL
        beta = np.where(restart, 0.0, diag[..., 1:n] / np.where(restart, 1.0, prev))
        # d_j = β_j·d_{j−1} − ∇f(x_j): row j of D holds d_j as gradient
        # coefficients, D[j, k] = −β_{k+1}·…·β_j for k ≤ j and 0 above the
        # diagonal; the running product and sum accumulate in step order
        j, k = np.arange(n)[:, None], np.arange(n)
        beta_j = np.concatenate([np.ones(beta.shape[:-1] + (1,)), beta], axis=-1)[..., None]
        D = np.where(j >= k, -np.cumprod(np.where(j > k, beta_j, 1.0), axis=-2), 0.0)
        return PrefactorRow(1.0, a * np.cumsum(D, axis=-2)[..., -1, :])

    return GsaSpec(name="fr_cg", parameters={"alpha": a}, prefactors=prefactors)


# ---------------------------------------------------------------------------
# projection wrappers
# ---------------------------------------------------------------------------

def _projected(inner: GsaSpec, radius: float, mode: str) -> GsaSpec:
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    r = float(radius)

    def prefactors(n, info):
        row = inner.row(n, info)
        h_x, h_g = row.h_x, row.h_g
        gram = info.grad_gram[..., :n, :n]
        h_row = h_g[..., None, :]
        norm_sq = (h_x * h_x * info.x0_norm_sq
                   + 2.0 * h_x * (h_row @ info.x0_grad[..., :n, None])[..., 0, 0]
                   + (h_row @ gram @ h_row.swapaxes(-1, -2))[..., 0, 0])
        if mode == "sphere":
            if (norm_sq < 1e-20).any():
                raise DegenerateProjectionError(
                    f"step {n}: iterate norm² = {norm_sq.min():.3e}, cannot project to sphere")
            scale = r / np.sqrt(norm_sq)
        else:
            scale = r / np.maximum(np.sqrt(np.maximum(norm_sq, 0.0)), r)
        return PrefactorRow(h_x * scale, h_g * scale[..., None])

    return GsaSpec(name=f"{inner.name}+{mode}",
                   parameters={**inner.parameters, "radius": r},
                   prefactors=prefactors)


def with_sphere_projection(inner: GsaSpec, radius: float) -> GsaSpec:
    """Rescale every iterate onto the sphere of the given radius."""
    return _projected(inner, radius, "sphere")


def with_ball_projection(inner: GsaSpec, radius: float) -> GsaSpec:
    """Rescale iterates that leave the ball back onto its boundary."""
    return _projected(inner, radius, "ball")
