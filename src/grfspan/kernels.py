"""Mean and covariance models of isotropic Gaussian random fields.

A field on R^N is described here entirely through dimensionless quantities:
the mean is μ(s) with s = ‖x‖²/2, and N·Cov(f(x), f(y)) = κ(λ₁, λ₂, λ₃)
with λ₁ = ‖x‖²/2, λ₂ = ‖y‖²/2, λ₃ = ⟨x, y⟩.  The kernel domain is

    D = {λ₁, λ₂ ≥ 0, |λ₃| ≤ 2√(λ₁λ₂)}   (Cauchy–Schwarz).

Derivative covariances reduce to bilinear forms in inner products:

    N·E[D_v f(x)]              = μ′(λ₁)⟨x,v⟩ · N        (μ′ of mean, without N)
    N·Cov(D_v f(x), f(y))      = κ₁⟨x,v⟩ + κ₃⟨y,v⟩
    N·Cov(D_v f(x), D_w f(y))  = κ₁₂⟨x,v⟩⟨y,w⟩ + κ₁₃⟨x,v⟩⟨x,w⟩
                               + κ₂₃⟨y,v⟩⟨y,w⟩ + κ₃₃⟨y,v⟩⟨x,w⟩ + κ₃⟨v,w⟩

where κ_i are partial derivatives of κ evaluated at (λ₁, λ₂, λ₃).  All
callables are numpy-vectorized; the 1/N scaling is applied by callers.

Built-in families:

* ``lift_stationary``   — stationary kernels κ = C(λ₁+λ₂−λ₃) with C a finite
  mixture of Gaussians C(r) = Σ wⱼ exp(−tⱼ² r) (complete monotonicity for
  free).
* ``stationary_direct`` — the same law, but covariances computed through the
  squared-distance form C(‖x−y‖²/2); kept as an independent evaluation route
  for cross-validation of the lifted path.
* ``spin_glass_kernel`` — mixed p-spin: κ = ξ(λ₃), ξ(s) = Σ c_p² s^p, μ ≡ 0.
* ``quadratic_kernel``  — infinite-data random least squares: κ = σ_A⁴R²λ₃
  with an affine mean profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import KernelDomainError

#: relative slack on the |λ₃| ≤ 2√(λ₁λ₂) check, absorbing rounding in inner
#: products assembled from coordinates
DOMAIN_RTOL = 1e-9

PARTIAL_NAMES = ("k1", "k2", "k3", "k12", "k13", "k23", "k33")


# ---------------------------------------------------------------------------
# mixture families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchoenbergMixture:
    """Finite atomic mixing measure ν = Σ wⱼ δ_{tⱼ} for C(r) = Σ wⱼ e^{−tⱼ²r}.

    Every stationary isotropic covariance valid in all dimensions has this
    form for some ν; finite mixtures keep C, C′, C″ closed-form.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(w), float(t)) for w, t in self.atoms)
        if not atoms:
            raise ValueError("mixture needs at least one atom")
        # written so that NaN fails too: every comparison with NaN is False
        for w, t in atoms:
            if not 0 < w < math.inf:
                raise ValueError(f"atom weight must be positive and finite, got {w}")
            if not 0 <= t < math.inf:
                raise ValueError(f"atom scale must be nonnegative and finite, got {t}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def c0(self) -> float:
        """C(0) = Σ wⱼ, the stationary variance scale."""
        return sum(w for w, _ in self.atoms)

    def derivatives(self, r):
        """C(r), C′(r) and C″(r), from one exponential per atom."""
        r = np.asarray(r, dtype=float)
        c = dc = ddc = 0
        for w, t in self.atoms:
            e = np.exp(-t * t * r)
            c = c + w * e
            dc = dc + -w * t * t * e
            ddc = ddc + w * t ** 4 * e
        return c, dc, ddc


@dataclass(frozen=True)
class SpinGlassMixture:
    """Mixed p-spin coefficients c_p ≥ 0, defining ξ(s) = Σ c_p² s^p."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        if not all(0 <= c < math.inf for c in coeffs):
            raise ValueError(f"spin coefficients must be nonnegative and finite, got {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    def derivatives(self, s):
        """ξ(s), ξ′(s) and ξ″(s), from one pass over the coefficients."""
        s = np.asarray(s, dtype=float)
        xi, d1, d2 = np.zeros_like(s), np.zeros_like(s), np.zeros_like(s)
        for p, c in enumerate(self.coeffs):
            if c == 0.0:
                continue
            w = c * c
            xi = xi + w * s ** p
            if p >= 1:
                d1 = d1 + w * p * s ** (p - 1)
            if p >= 2:
                d2 = d2 + w * p * (p - 1) * s ** (p - 2)
        return xi, d1, d2


# ---------------------------------------------------------------------------
# kernel model
# ---------------------------------------------------------------------------

class KernelModel:
    """Mean profile and kernel with its seven partials, plus covariance rules.

    ``mean(s)`` returns (μ, μ′) and ``derivatives(λ₁, λ₂, λ₃)`` returns
    (κ, κ₁, κ₂, κ₃, κ₁₂, κ₁₃, κ₂₃, κ₃₃) — κ, then the ``PARTIAL_NAMES`` order
    — each from one call, so a family shares the work its values have in
    common.  Both accept scalars or numpy arrays.  The per-entry covariance
    rules (``cov_ff``, ``cov_df_f``, ``cov_df_df``) make one ``derivatives``
    call each.  The block rules make none and take only coordinate rows:
    the pair block of each point pair (``cov_pair_block``) and the limit's
    weighted sum of the direction rows of n pair blocks (``weighted_rows``)
    read the partials of their pairs from ``parts``, which their caller
    evaluates once per step, with the new point's κ₃ column.  Instances are
    immutable by convention and safe to share across threads/trajectories.
    """

    def __init__(self, mean, derivatives, *, label=""):
        # a one-array mean would be split along its point axis by callers
        # that unpack (μ, μ′), so both arities are probed here
        _require_values("mean", mean(np.array([0.0, 0.5, 1.0])), ("mu", "mu'"))
        _require_values("derivatives", derivatives(1.0, 1.0, 0.0), ("k",) + PARTIAL_NAMES)
        self.mean = mean
        self.derivatives = derivatives
        self.label = label

    def __repr__(self):
        return f"<KernelModel {self.label or 'custom'}>"

    # -- covariance rules in inner-product form (no domain checks here) -----

    def cov_ff(self, s_x, s_y, ip_xy):
        return self.derivatives(s_x, s_y, ip_xy)[0]

    def cov_df_f(self, s_x, s_y, ip_xy, ip_xv, ip_yv):
        _, k1, _, k3, *_ = self.derivatives(s_x, s_y, ip_xy)
        return k1 * ip_xv + k3 * ip_yv

    def cov_df_df(self, s_x, s_y, ip_xy, ip_xv, ip_yv, ip_xw, ip_yw, ip_vw):
        _, _, _, k3, k12, k13, k23, k33 = self.derivatives(s_x, s_y, ip_xy)
        return (k12 * ip_xv * ip_yw
                + k13 * ip_xv * ip_xw
                + k23 * ip_yv * ip_yw
                + k33 * ip_yv * ip_xw
                + k3 * ip_vw)

    def cov_pair_block(self, x, y, parts):
        """Covariance of the (f, D_{v_0..D−1}) rows at x with the same rows
        at y, for an orthonormal system v and the coordinate rows x, y (…, D)
        of the two points; (…, D+1, D+1), from ``parts``, the values of
        ``derivatives(‖x‖²/2, ‖y‖²/2, ⟨x, y⟩)`` over the pairs.

        Entry [0, 0] is κ, column 0 below it κ₁x + κ₃y (``cov_df_f``), row 0
        right of it κ₂y + κ₃x (``cov_df_f`` with x and y swapped), and the
        D_v–D_w part the rank-2 product [x y]·[κ₁₂y + κ₁₃x, κ₂₃y + κ₃₃x]ᵀ plus
        κ₃·I (``cov_df_df``).
        """
        ff, *ks = parts
        k1, k2, k3, k12, k13, k23, k33 = (np.asarray(k)[..., None] for k in ks)
        u, w = k12 * y + k13 * x, k23 * y + k33 * x
        out = _pair_block(u.shape, ff, k1 * x + k3 * y, k2 * y + k3 * x)
        # filled in place, which broadcasts x and y without np.stack's copies
        xy = np.empty(u.shape + (2,))
        xy[..., 0], xy[..., 1] = x, y
        uw = np.empty(u.shape[:-1] + (2,) + u.shape[-1:])
        uw[..., 0, :], uw[..., 1, :] = u, w
        out[..., 1:, 1:] = xy @ uw
        _diagonal(out)[..., 1:] += k3
        return out

    def weighted_rows(self, y, x, w, parts):
        """Σ_a Σ_j w[a, j]·Cov(D_{v_j} f(y_a), (f, D_{v_0..D−1}) f(x)) over
        the points y (…, n, D) against one point x (…, D), with weights
        w (…, n, D); (…, D+1), from ``parts``, the values of
        ``derivatives(‖y_a‖²/2, ‖x‖²/2, ⟨y_a, x⟩)`` over the n pairs (…, n).

        With U_a = w_a·y_a and V_a = w_a·x the f entry is Σ(κ₁U + κ₃V), and
        the D_v part x·Σ(κ₁₂U + κ₂₃V) + Σ(κ₁₃U + κ₃₃V)·y_a + Σκ₃·w_a: the
        rows of ``cov_pair_block(y, x, parts)`` contracted with w.
        """
        _, k1, _, k3, k12, k13, k23, k33 = parts
        U, V = (w * y).sum(axis=-1), (w @ x[..., None])[..., 0]
        out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
        out[..., 0] = (k1 * U + k3 * V).sum(axis=-1)
        out[..., 1:] = (x * (k12 * U + k23 * V).sum(axis=-1)[..., None]
                        + ((k13 * U + k33 * V)[..., None] * y
                           + np.asarray(k3)[..., None] * w).sum(axis=-2))
        return out


class _DirectStationaryModel(KernelModel):
    """Stationary covariances evaluated through the squared distance.

    ``cov_pair_block`` and ``weighted_rows`` use C(‖Δ‖²/2) with Δ = x − y
    and the distance-form derivative rules

        Cov(D_v f(x), f(y))     ∝  C′(r)⟨Δ, v⟩
        Cov(D_v f(x), D_w f(y)) ∝ −[C″(r)⟨Δ, v⟩⟨Δ, w⟩ + C′(r)⟨v, w⟩]

    rather than the generic κ-partial bilinear form.  Both take C, C′ and
    C″ from the lifted partials handed to them as ``parts``: κ, κ₁ and κ₁₂
    are C, C′ and C″ at the same r = λ₁ + λ₂ − λ₃, bit for bit.
    Numerically equivalent to ``lift_stationary`` on the same mixture; kept
    as a genuinely separate code path so the two can be compared.  The
    per-entry rules are the generic ones on the lifted model's
    ``derivatives``.
    """

    def __init__(self, mixture: SchoenbergMixture, mean_level: float):
        model = lift_stationary(mixture, mean_level)
        super().__init__(model.mean, model.derivatives, label="stationary-direct")

    def cov_pair_block(self, x, y, parts):
        c, dc, ddc = parts[0], parts[1], parts[4]
        dc = np.asarray(dc)[..., None]
        delta = x - y
        out = _pair_block(delta.shape, c, dc * delta, dc * (y - x))
        dd = out[..., 1:, 1:]
        dd[...] = (delta[..., :, None] @ delta[..., None, :]) * np.asarray(ddc)[..., None, None]
        _diagonal(out)[..., 1:] += dc
        np.negative(dd, out=dd)
        return out

    def weighted_rows(self, y, x, w, parts):
        # with Δ_a = y_a − x and P_a = w_a·Δ_a: f entry Σ C′P, D_v part
        # −Σ(C″·P·Δ_a + C′·w_a)
        dc, ddc = parts[1], parts[4]
        delta = y - x[..., None, :]
        P = (w * delta).sum(axis=-1)
        out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
        out[..., 0] = (dc * P).sum(axis=-1)
        out[..., 1:] = -((ddc * P)[..., None] * delta + dc[..., None] * w).sum(axis=-2)
        return out


def _require_values(name, values, names):
    """Raise ValueError unless a kernel callable returned one value per name;
    a bare array counts as one value."""
    count = len(values) if isinstance(values, (tuple, list)) else 1
    if count != len(names):
        raise ValueError(f"{name} must return the {len(names)} values "
                         f"({', '.join(names)}), got {count}")


def _pair_block(shape, ff, df_f, f_df):
    """A (…, D+1, D+1) pair block, shape = (…, D), with its [0, 0] entry,
    column 0 and row 0 filled in."""
    out = np.empty(shape[:-1] + (shape[-1] + 1,) * 2)
    out[..., 0, 0], out[..., 1:, 0], out[..., 0, 1:] = ff, df_f, f_df
    return out


def _diagonal(M):
    """Writable view of the diagonals of a contiguous stack M (…, D, D)."""
    D = M.shape[-1]
    return M.reshape(M.shape[:-2] + (D * D,))[..., ::D + 1]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def lift_stationary(mixture: SchoenbergMixture, mean_level: float = 0.0) -> KernelModel:
    """Stationary kernel C(r) lifted to κ(λ₁,λ₂,λ₃) = C(λ₁+λ₂−λ₃).

    Partials follow by the chain rule: κ₁ = κ₂ = C′, κ₃ = −C′,
    κ₁₂ = κ₃₃ = C″, κ₁₃ = κ₂₃ = −C″, all at r = λ₁+λ₂−λ₃.  κ₃ = Σ wⱼtⱼ²e^{−tⱼ²r}
    is identically 0 unless some atom has tⱼ > 0, and such a mixture, a
    constant field with no gradient, raises ValueError.
    """
    level = float(mean_level)
    if not math.isfinite(level):
        raise ValueError(f"mean_level must be finite, got {level}")
    if not any(t > 0 for _, t in mixture.atoms):
        raise ValueError("mixture needs an atom with scale t > 0: with every t = 0, "
                         "κ₃ = −C′ is identically 0 and the field has no gradient")

    def mean(s):
        s = np.asarray(s, dtype=float)
        return np.full_like(s, level), np.zeros_like(s)

    def derivatives(l1, l2, l3):
        c, dc, ddc = mixture.derivatives(l1 + l2 - l3)
        return c, dc, dc, -dc, ddc, -ddc, -ddc, ddc

    return KernelModel(mean, derivatives, label="stationary-lift")


def stationary_direct(mixture: SchoenbergMixture, mean_level: float = 0.0) -> KernelModel:
    """Same law as ``lift_stationary`` but evaluated via squared distances;
    it refuses the same mixtures."""
    return _DirectStationaryModel(mixture, mean_level)


def spin_glass_kernel(mix: SpinGlassMixture) -> KernelModel:
    """Mixed p-spin kernel κ(λ₁,λ₂,λ₃) = ξ(λ₃) with zero mean.

    κ₃ = ξ′ is identically 0 unless some c_p with p ≥ 1 is nonzero, and such
    a mixture, a constant field with no gradient, raises ValueError.
    """
    if not any(mix.coeffs[1:]):
        raise ValueError(f"spin mixture needs a coefficient c_p > 0 at p ≥ 1, got "
                         f"{mix.coeffs}: κ₃ = ξ′ is identically 0 and the field has "
                         "no gradient")

    def mean(s):
        zero = np.zeros_like(np.asarray(s, dtype=float))
        return zero, zero

    def derivatives(l1, l2, l3):
        xi, d1, d2 = mix.derivatives(l3)
        zero = np.zeros_like(np.asarray(l3, dtype=float))
        return xi, zero, zero, d1, zero, zero, zero, d2

    return KernelModel(mean, derivatives, label="spin-glass")


def quadratic_kernel(sigma_A: float, sigma_eta: float, R: float) -> KernelModel:
    """Infinite-data limit of random least squares.

    κ(λ₁,λ₂,λ₃) = σ_A⁴R²·λ₃ and μ(s) = σ_η²/2 + σ_A²R²/2 + σ_A²·s.
    """
    if not 0 < sigma_A < math.inf:
        raise ValueError(f"sigma_A must be positive and finite, got {sigma_A}")
    if not 0 <= sigma_eta < math.inf:
        raise ValueError(f"sigma_eta must be nonnegative and finite, got {sigma_eta}")
    if not 0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    sa2 = float(sigma_A) ** 2
    k3_const = sa2 * sa2 * float(R) ** 2
    offset = float(sigma_eta) ** 2 / 2.0 + sa2 * float(R) ** 2 / 2.0

    def mean(s):
        s = np.asarray(s, dtype=float)
        return offset + sa2 * s, np.full_like(s, sa2)

    def derivatives(l1, l2, l3):
        l3 = np.asarray(l3, dtype=float)
        zero = np.zeros_like(l3)
        return k3_const * l3, zero, zero, np.full_like(l3, k3_const), zero, zero, zero, zero

    return KernelModel(mean, derivatives, label="quadratic")


# ---------------------------------------------------------------------------
# kernel domain
# ---------------------------------------------------------------------------

def check_domain(s_x, s_y, ip_xy):
    """Raise KernelDomainError unless |λ₃| ≤ 2√(λ₁λ₂)·(1 + 1e−9) elementwise."""
    s_x = np.asarray(s_x, dtype=float)
    s_y = np.asarray(s_y, dtype=float)
    ip_xy = np.asarray(ip_xy, dtype=float)
    if not (np.isfinite(s_x).all() and np.isfinite(s_y).all() and np.isfinite(ip_xy).all()):
        raise KernelDomainError("non-finite kernel arguments")
    if (s_x < 0).any() or (s_y < 0).any():
        raise KernelDomainError("norm arguments λ₁, λ₂ must be nonnegative")
    bound = 2.0 * np.sqrt(s_x * s_y) * (1.0 + DOMAIN_RTOL)
    if (np.abs(ip_xy) > bound).any():
        worst = float((np.abs(ip_xy) - bound).max())
        raise KernelDomainError(
            f"inner product outside kernel domain by {worst:.3e} "
            "(|λ₃| ≤ 2√(λ₁λ₂) violated)")


# ---------------------------------------------------------------------------
# barrier integral
# ---------------------------------------------------------------------------

def alg_barrier(mix: SpinGlassMixture) -> float:
    """∫₀¹ √(ξ″(s)) ds — the algorithmic reach on the sphere for this mixture.

    After s = u² the integral is ∫₀¹ 2u·√ξ″(u²) du.  ξ″ has non-negative
    coefficients, so √ξ″(u²) is u^k times the root of a positive polynomial
    and the integrand is smooth; one 128-node Gauss–Legendre rule on [0, 1]
    integrates it.
    """
    probe = mix.derivatives(np.linspace(0.0, 1.0, 257))[2]
    if np.any(probe < -1e-12):
        raise ValueError("mixture has negative curvature ξ″ on [0,1]; not a valid mix")
    # looked up here: numpy loads numpy.polynomial lazily, and `import grfspan`
    # should not pay for it
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(128)
    u = 0.5 * (nodes + 1.0)
    curvature = mix.derivatives(u * u)[2]
    # the ½ that maps [−1, 1] onto [0, 1] cancels the 2 of 2u
    return float(np.sum(weights * u * np.sqrt(np.maximum(curvature, 0.0))))


# ---------------------------------------------------------------------------
# finite-difference validation of the partials
# ---------------------------------------------------------------------------

#: largest relative finite-difference error a partial may show
PARTIALS_TOL = 1e-6


@dataclass
class PartialsReport:
    """Max relative finite-difference error per partial over a grid."""

    max_rel_err: dict

    @property
    def passed(self) -> bool:
        return all(e <= PARTIALS_TOL for e in self.max_rel_err.values())

    def __str__(self):
        lines = [f"{name}: max rel err {err:.3e}" for name, err in self.max_rel_err.items()]
        lines.append(f"tolerance {PARTIALS_TOL:g}: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def default_validation_grid() -> np.ndarray:
    """The 5³ points (λ₁, λ₂, λ₃) strictly interior to the kernel domain D,
    as rows of a (125, 3) array, λ₁ outermost."""
    s_vals = np.linspace(0.35, 1.4, 5)
    l1, l2, frac = np.meshgrid(s_vals, s_vals, np.linspace(-0.8, 0.8, 5), indexing="ij")
    return np.stack([l1, l2, frac * (2.0 * np.sqrt(l1 * l2))], axis=-1).reshape(-1, 3)


def validate_partials(kernel: KernelModel) -> PartialsReport:
    """Check analytic partials against central finite differences on the
    default validation grid: seven ``derivatives`` calls, each over all points,
    at the grid and at its six shifted copies.

    First-order partials are differenced from κ directly; second-order ones
    from the analytic first partials (differencing κ twice at this step size
    would drown in rounding error).  Step h = 1e−5 scaled by coordinate
    magnitude.  Relative error uses a unit floor: |Δ| / max(1, |analytic|).
    """
    l1, l2, l3 = default_validation_grid().T
    h1, h2, h3 = (1e-5 * np.maximum(1.0, np.abs(l)) for l in (l1, l2, l3))
    d = kernel.derivatives
    up1, dn1 = d(l1 + h1, l2, l3), d(l1 - h1, l2, l3)
    up2, dn2 = d(l1, l2 + h2, l3), d(l1, l2 - h2, l3)
    up3, dn3 = d(l1, l2, l3 + h3), d(l1, l2, l3 - h3)
    fd = (
        (up1[0] - dn1[0]) / (2 * h1),
        (up2[0] - dn2[0]) / (2 * h2),
        (up3[0] - dn3[0]) / (2 * h3),
        (up2[1] - dn2[1]) / (2 * h2),   # κ₁₂ = ∂₂κ₁
        (up3[1] - dn3[1]) / (2 * h3),   # κ₁₃ = ∂₃κ₁
        (up3[2] - dn3[2]) / (2 * h3),   # κ₂₃ = ∂₃κ₂
        (up3[3] - dn3[3]) / (2 * h3),   # κ₃₃ = ∂₃κ₃
    )
    return PartialsReport(max_rel_err={
        name: float(np.max(np.abs(analytic - diff) / np.maximum(1.0, np.abs(analytic))))
        for name, analytic, diff in zip(PARTIAL_NAMES, d(l1, l2, l3)[1:], fd)})
