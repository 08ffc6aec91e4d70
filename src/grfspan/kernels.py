"""Mean and covariance models of isotropic Gaussian random fields.

A field on R^N is described here entirely through dimensionless quantities:
the mean is μ(s) with s = ‖x‖²/2, and N·Cov(f(x), f(y)) = κ(λ₁, λ₂, λ₃)
with λ₁ = ‖x‖²/2, λ₂ = ‖y‖²/2, λ₃ = ⟨x, y⟩.  The kernel domain is

    D = {λ₁, λ₂ ≥ 0, |λ₃| ≤ 2√(λ₁λ₂)}   (Cauchy–Schwarz).

Derivative covariances reduce to bilinear forms in inner products:

    N·E[D_v f(x)]              = μ′(λ₁)⟨x,v⟩ · N        (mean_prime, without N)
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
        for w, t in atoms:
            if w <= 0:
                raise ValueError(f"atom weight must be positive, got {w}")
            if t < 0:
                raise ValueError(f"atom scale must be nonnegative, got {t}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def c0(self) -> float:
        """C(0) = Σ wⱼ, the stationary variance scale."""
        return sum(w for w, _ in self.atoms)

    def value(self, r):
        return sum(w * np.exp(-t * t * np.asarray(r, dtype=float)) for w, t in self.atoms)

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        return sum(-w * t * t * np.exp(-t * t * r) for w, t in self.atoms)

    def deriv2(self, r):
        r = np.asarray(r, dtype=float)
        return sum(w * t ** 4 * np.exp(-t * t * r) for w, t in self.atoms)


@dataclass(frozen=True)
class SpinGlassMixture:
    """Mixed p-spin coefficients c_p ≥ 0, defining ξ(s) = Σ c_p² s^p."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        if any(c < 0 for c in coeffs):
            raise ValueError("spin coefficients must be nonnegative")
        object.__setattr__(self, "coeffs", coeffs)

    def xi(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for p, c in enumerate(self.coeffs):
            if c != 0.0:
                out = out + c * c * s ** p
        return out

    def xi_prime(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for p, c in enumerate(self.coeffs):
            if c != 0.0 and p >= 1:
                out = out + c * c * p * s ** (p - 1)
        return out

    def xi_double_prime(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for p, c in enumerate(self.coeffs):
            if c != 0.0 and p >= 2:
                out = out + c * c * p * (p - 1) * s ** (p - 2)
        return out


# ---------------------------------------------------------------------------
# kernel model
# ---------------------------------------------------------------------------

class KernelModel:
    """Mean profile, kernel and its seven partials, plus covariance rules.

    All callables accept scalars or numpy arrays.  Instances are immutable by
    convention and safe to share across threads/trajectories.
    """

    def __init__(self, mean, mean_prime, kappa, partials, *, label=""):
        if set(partials) != set(PARTIAL_NAMES):
            missing = set(PARTIAL_NAMES) - set(partials)
            raise ValueError(f"partials must supply exactly {PARTIAL_NAMES}, missing {sorted(missing)}")
        self.mean = mean
        self.mean_prime = mean_prime
        self.kappa = kappa
        self.k1 = partials["k1"]
        self.k2 = partials["k2"]
        self.k3 = partials["k3"]
        self.k12 = partials["k12"]
        self.k13 = partials["k13"]
        self.k23 = partials["k23"]
        self.k33 = partials["k33"]
        self.label = label

    def __repr__(self):
        return f"<KernelModel {self.label or 'custom'}>"

    # -- covariance rules in inner-product form (no domain checks here) -----

    def cov_ff(self, s_x, s_y, ip_xy):
        return self.kappa(s_x, s_y, ip_xy)

    def cov_df_f(self, s_x, s_y, ip_xy, ip_xv, ip_yv):
        return (self.k1(s_x, s_y, ip_xy) * ip_xv
                + self.k3(s_x, s_y, ip_xy) * ip_yv)

    def cov_df_df(self, s_x, s_y, ip_xy, ip_xv, ip_yv, ip_xw, ip_yw, ip_vw):
        a = (s_x, s_y, ip_xy)
        return (self.k12(*a) * ip_xv * ip_yw
                + self.k13(*a) * ip_xv * ip_xw
                + self.k23(*a) * ip_yv * ip_yw
                + self.k33(*a) * ip_yv * ip_xw
                + self.k3(*a) * ip_vw)


class _DirectStationaryModel(KernelModel):
    """Stationary covariances evaluated through the squared distance.

    Uses C(‖Δ‖²/2) with Δ = x − y and the distance-form derivative rules

        Cov(D_v f(x), f(y))     ∝  C′(r)⟨Δ, v⟩
        Cov(D_v f(x), D_w f(y)) ∝ −[C″(r)⟨Δ, v⟩⟨Δ, w⟩ + C′(r)⟨v, w⟩]

    rather than the generic κ-partial bilinear form.  Numerically equivalent
    to ``lift_stationary`` on the same mixture; kept as a genuinely separate
    code path so the two can be compared.
    """

    def __init__(self, mixture: SchoenbergMixture, mean_level: float):
        self._mixture = mixture
        model = lift_stationary(mixture, mean_level)
        super().__init__(model.mean, model.mean_prime, model.kappa,
                         {name: getattr(model, name) for name in PARTIAL_NAMES},
                         label="stationary-direct")

    def cov_ff(self, s_x, s_y, ip_xy):
        return self._mixture.value(s_x + s_y - ip_xy)

    def cov_df_f(self, s_x, s_y, ip_xy, ip_xv, ip_yv):
        r = s_x + s_y - ip_xy
        return self._mixture.deriv(r) * (ip_xv - ip_yv)

    def cov_df_df(self, s_x, s_y, ip_xy, ip_xv, ip_yv, ip_xw, ip_yw, ip_vw):
        r = s_x + s_y - ip_xy
        dv = ip_xv - ip_yv
        dw = ip_xw - ip_yw
        return -(self._mixture.deriv2(r) * dv * dw + self._mixture.deriv(r) * ip_vw)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def lift_stationary(mixture: SchoenbergMixture, mean_level: float = 0.0) -> KernelModel:
    """Stationary kernel C(r) lifted to κ(λ₁,λ₂,λ₃) = C(λ₁+λ₂−λ₃).

    Partials follow by the chain rule: κ₁ = κ₂ = C′, κ₃ = −C′,
    κ₁₂ = κ₃₃ = C″, κ₁₃ = κ₂₃ = −C″, all at r = λ₁+λ₂−λ₃.
    """
    C, Cp, Cpp = mixture.value, mixture.deriv, mixture.deriv2
    level = float(mean_level)
    zero_like = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    return KernelModel(
        mean=lambda s: np.full_like(np.asarray(s, dtype=float), level),
        mean_prime=zero_like,
        kappa=lambda l1, l2, l3: C(l1 + l2 - l3),
        partials={
            "k1": lambda l1, l2, l3: Cp(l1 + l2 - l3),
            "k2": lambda l1, l2, l3: Cp(l1 + l2 - l3),
            "k3": lambda l1, l2, l3: -Cp(l1 + l2 - l3),
            "k12": lambda l1, l2, l3: Cpp(l1 + l2 - l3),
            "k13": lambda l1, l2, l3: -Cpp(l1 + l2 - l3),
            "k23": lambda l1, l2, l3: -Cpp(l1 + l2 - l3),
            "k33": lambda l1, l2, l3: Cpp(l1 + l2 - l3),
        },
        label="stationary-lift",
    )


def stationary_direct(mixture: SchoenbergMixture, mean_level: float = 0.0) -> KernelModel:
    """Same law as ``lift_stationary`` but evaluated via squared distances."""
    return _DirectStationaryModel(mixture, mean_level)


def spin_glass_kernel(mix: SpinGlassMixture) -> KernelModel:
    """Mixed p-spin kernel κ(λ₁,λ₂,λ₃) = ξ(λ₃) with zero mean."""
    zero3 = lambda l1, l2, l3: np.zeros_like(np.asarray(l3, dtype=float))
    return KernelModel(
        mean=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        mean_prime=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        kappa=lambda l1, l2, l3: mix.xi(l3),
        partials={
            "k1": zero3,
            "k2": zero3,
            "k3": lambda l1, l2, l3: mix.xi_prime(l3),
            "k12": zero3,
            "k13": zero3,
            "k23": zero3,
            "k33": lambda l1, l2, l3: mix.xi_double_prime(l3),
        },
        label="spin-glass",
    )


def quadratic_kernel(sigma_A: float, sigma_eta: float, R: float) -> KernelModel:
    """Infinite-data limit of random least squares.

    κ(λ₁,λ₂,λ₃) = σ_A⁴R²·λ₃ and μ(s) = σ_η²/2 + σ_A²R²/2 + σ_A²·s.
    """
    if sigma_A <= 0:
        raise ValueError(f"sigma_A must be positive, got {sigma_A}")
    if sigma_eta < 0:
        raise ValueError(f"sigma_eta must be nonnegative, got {sigma_eta}")
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    sa2 = float(sigma_A) ** 2
    k3_const = sa2 * sa2 * float(R) ** 2
    offset = float(sigma_eta) ** 2 / 2.0 + sa2 * float(R) ** 2 / 2.0
    zero3 = lambda l1, l2, l3: np.zeros_like(np.asarray(l3, dtype=float))
    return KernelModel(
        mean=lambda s: offset + sa2 * np.asarray(s, dtype=float),
        mean_prime=lambda s: np.full_like(np.asarray(s, dtype=float), sa2),
        kappa=lambda l1, l2, l3: k3_const * np.asarray(l3, dtype=float),
        partials={
            "k1": zero3,
            "k2": zero3,
            "k3": lambda l1, l2, l3: np.full_like(np.asarray(l3, dtype=float), k3_const),
            "k12": zero3,
            "k13": zero3,
            "k23": zero3,
            "k33": zero3,
        },
        label="quadratic",
    )


# ---------------------------------------------------------------------------
# kernel domain
# ---------------------------------------------------------------------------

def check_domain(s_x, s_y, ip_xy):
    """Raise KernelDomainError unless |λ₃| ≤ 2√(λ₁λ₂)·(1 + 1e−9) elementwise."""
    s_x = np.asarray(s_x, dtype=float)
    s_y = np.asarray(s_y, dtype=float)
    ip_xy = np.asarray(ip_xy, dtype=float)
    if not (np.all(np.isfinite(s_x)) and np.all(np.isfinite(s_y))
            and np.all(np.isfinite(ip_xy))):
        raise KernelDomainError("non-finite kernel arguments")
    if np.any(s_x < 0) or np.any(s_y < 0):
        raise KernelDomainError("norm arguments λ₁, λ₂ must be nonnegative")
    bound = 2.0 * np.sqrt(s_x * s_y) * (1.0 + DOMAIN_RTOL)
    if np.any(np.abs(ip_xy) > bound):
        worst = float(np.max(np.abs(ip_xy) - bound))
        raise KernelDomainError(
            f"inner product outside kernel domain by {worst:.3e} "
            "(|λ₃| ≤ 2√(λ₁λ₂) violated)")


# ---------------------------------------------------------------------------
# barrier integral
# ---------------------------------------------------------------------------

def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0:
        return left + right
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _adaptive_simpson(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))


def alg_barrier(mix: SpinGlassMixture, quadrature_points: int = 32, tol: float = 1e-8) -> float:
    """∫₀¹ √(ξ″(s)) ds — the algorithmic reach on the sphere for this mixture.

    Adaptive composite Simpson: ``quadrature_points`` initial panels, each
    refined by bisection until the local error estimate meets its share of
    the absolute tolerance ``tol``.
    """
    if quadrature_points < 1:
        raise ValueError("quadrature_points must be >= 1")
    probe = mix.xi_double_prime(np.linspace(0.0, 1.0, 257))
    if np.any(probe < -1e-12):
        raise ValueError("mixture has negative curvature ξ″ on [0,1]; not a valid mix")

    def f(s):
        return math.sqrt(max(float(mix.xi_double_prime(s)), 0.0))

    edges = np.linspace(0.0, 1.0, quadrature_points + 1)
    total = 0.0
    panel_tol = tol / quadrature_points
    for a, b in zip(edges[:-1], edges[1:]):
        fa, fb = f(a), f(b)
        m = 0.5 * (a + b)
        fm = f(m)
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        total += _adaptive_simpson(f, a, b, fa, fm, fb, whole, panel_tol, depth=48)
    return total


# ---------------------------------------------------------------------------
# finite-difference validation of the partials
# ---------------------------------------------------------------------------

@dataclass
class PartialsReport:
    """Max relative finite-difference error per partial over a grid."""

    max_rel_err: dict
    tol: float

    @property
    def passed(self) -> bool:
        return all(e <= self.tol for e in self.max_rel_err.values())

    def __str__(self):
        lines = [f"{name}: max rel err {err:.3e}" for name, err in self.max_rel_err.items()]
        lines.append(f"tolerance {self.tol:g}: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def default_validation_grid(n: int = 5):
    """A n³ grid of points strictly interior to the kernel domain D."""
    s_vals = np.linspace(0.35, 1.4, n)
    fracs = np.linspace(-0.8, 0.8, n)
    grid = []
    for l1 in s_vals:
        for l2 in s_vals:
            top = 2.0 * math.sqrt(l1 * l2)
            for fr in fracs:
                grid.append((float(l1), float(l2), float(fr * top)))
    return grid


def validate_partials(kernel: KernelModel, grid=None, tol: float = 1e-6) -> PartialsReport:
    """Check analytic partials against central finite differences on a grid.

    First-order partials are differenced from κ directly; second-order ones
    from the analytic first partials (differencing κ twice at this step size
    would drown in rounding error).  Step h = 1e−5 scaled by coordinate
    magnitude.  Relative error uses a unit floor: |Δ| / max(1, |analytic|).
    """
    if grid is None:
        grid = default_validation_grid()
    worst = {name: 0.0 for name in PARTIAL_NAMES}

    def rel(analytic, fd):
        return abs(analytic - fd) / max(1.0, abs(analytic))

    for (l1, l2, l3) in grid:
        h1 = 1e-5 * max(1.0, abs(l1))
        h2 = 1e-5 * max(1.0, abs(l2))
        h3 = 1e-5 * max(1.0, abs(l3))
        k = kernel.kappa
        fd = {
            "k1": (k(l1 + h1, l2, l3) - k(l1 - h1, l2, l3)) / (2 * h1),
            "k2": (k(l1, l2 + h2, l3) - k(l1, l2 - h2, l3)) / (2 * h2),
            "k3": (k(l1, l2, l3 + h3) - k(l1, l2, l3 - h3)) / (2 * h3),
            "k12": (kernel.k1(l1, l2 + h2, l3) - kernel.k1(l1, l2 - h2, l3)) / (2 * h2),
            "k13": (kernel.k1(l1, l2, l3 + h3) - kernel.k1(l1, l2, l3 - h3)) / (2 * h3),
            "k23": (kernel.k2(l1, l2, l3 + h3) - kernel.k2(l1, l2, l3 - h3)) / (2 * h3),
            "k33": (kernel.k3(l1, l2, l3 + h3) - kernel.k3(l1, l2, l3 - h3)) / (2 * h3),
        }
        for name in PARTIAL_NAMES:
            analytic = float(getattr(kernel, name)(l1, l2, l3))
            err = rel(analytic, float(fd[name]))
            if err > worst[name]:
                worst[name] = err
    return PartialsReport(max_rel_err=worst, tol=tol)
