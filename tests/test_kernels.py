"""Kernel models: frozen spot values, symmetries, and consistency checks."""

import math

import numpy as np
import pytest

from grfspan.errors import KernelDomainError
from grfspan.kernels import (
    KernelModel,
    PARTIAL_NAMES,
    SchoenbergMixture,
    SpinGlassMixture,
    alg_barrier,
    check_domain,
    default_validation_grid,
    lift_stationary,
    quadratic_kernel,
    spin_glass_kernel,
    stationary_direct,
    validate_partials,
)

SE = SchoenbergMixture(atoms=((1.0, 1.0),))          # C(r) = e^{-r}
TWO_SPIN = SpinGlassMixture(coeffs=(0.0, 0.0, 1.0))  # xi(s) = s^2
THREE_SPIN = SpinGlassMixture(coeffs=(0.0, 0.0, 0.0, 1.0))


def random_domain_point(rng):
    s1, s2 = rng.uniform(0.2, 2.0, size=2)
    frac = rng.uniform(-1.0, 1.0)
    return s1, s2, frac * 2.0 * math.sqrt(s1 * s2)


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------

def test_schoenberg_validation():
    with pytest.raises(ValueError):
        SchoenbergMixture(atoms=())
    with pytest.raises(ValueError):
        SchoenbergMixture(atoms=((0.0, 1.0),))
    with pytest.raises(ValueError):
        SchoenbergMixture(atoms=((1.0, -2.0),))


def test_schoenberg_derivative_is_negative():
    mix = SchoenbergMixture(atoms=((0.7, 0.5), (0.3, 2.0)))
    r = np.linspace(0.0, 5.0, 41)
    assert np.all(mix.deriv(r) < 0)
    assert np.all(mix.deriv2(r) > 0)
    assert mix.c0 == pytest.approx(1.0)


def test_spin_glass_validation():
    with pytest.raises(ValueError):
        SpinGlassMixture(coeffs=())
    with pytest.raises(ValueError):
        SpinGlassMixture(coeffs=(0.0, -1.0))


# ---------------------------------------------------------------------------
# frozen spot values
# ---------------------------------------------------------------------------

def test_stationary_lift_spot_values():
    k = lift_stationary(SE)
    # C(0) = sum of weights, and kappa_3 = -C'(0)
    assert float(k.kappa(0.5, 0.5, 1.0)) == pytest.approx(1.0, abs=1e-15)
    assert float(k.k3(0.5, 0.5, 1.0)) == pytest.approx(1.0, abs=1e-15)
    assert float(k.mean(0.7)) == 0.0
    assert float(k.mean_prime(0.7)) == 0.0


def test_stationary_lift_exchange_symmetry():
    k = lift_stationary(SchoenbergMixture(atoms=((0.6, 0.8), (0.4, 1.7))))
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c = random_domain_point(rng)
        assert float(k.kappa(a, b, c)) == pytest.approx(float(k.kappa(b, a, c)), rel=1e-14)


def test_spin_glass_spot_values():
    k = spin_glass_kernel(TWO_SPIN)
    assert float(k.k3(0.3, 0.9, 0.5)) == pytest.approx(1.0, abs=1e-15)   # xi'(0.5) = 2*0.5
    assert float(k.k1(0.3, 0.9, 0.5)) == 0.0
    k3spin = spin_glass_kernel(THREE_SPIN)
    assert float(k3spin.k33(0.5, 0.5, 1.0)) == pytest.approx(6.0, abs=1e-14)  # xi''(1) = 6


def test_quadratic_spot_values():
    k = quadratic_kernel(sigma_A=1.0, sigma_eta=0.0, R=1.0)
    assert float(k.mean(0.5)) == pytest.approx(1.0, abs=1e-15)
    assert float(k.k3(0.2, 0.2, 0.1)) == pytest.approx(1.0, abs=1e-15)
    assert float(k.k33(0.2, 0.2, 0.1)) == 0.0
    with pytest.raises(ValueError):
        quadratic_kernel(sigma_A=0.0, sigma_eta=1.0, R=1.0)
    with pytest.raises(ValueError):
        quadratic_kernel(sigma_A=1.0, sigma_eta=1.0, R=-1.0)


# ---------------------------------------------------------------------------
# covariance operations
# ---------------------------------------------------------------------------

def test_cov_f_f_spot_values():
    assert float(lift_stationary(SE).cov_ff(0.5, 0.5, 1.0)) == pytest.approx(1.0)
    assert float(spin_glass_kernel(TWO_SPIN).cov_ff(0.5, 0.5, 0.0)) == pytest.approx(0.0)
    assert float(quadratic_kernel(1.0, 0.0, 1.0).cov_ff(0.5, 0.5, 0.3)) == pytest.approx(0.3)


def test_cov_df_f_spot_values():
    k = lift_stationary(SE)
    # v orthogonal to both points
    assert float(k.cov_df_f(0.5, 0.8, 0.4, 0.0, 0.0)) == 0.0
    # x = y: the two terms cancel for stationary kernels
    assert float(k.cov_df_f(0.5, 0.5, 1.0, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)
    kq = quadratic_kernel(1.0, 0.0, 1.0)
    assert float(kq.cov_df_f(0.5, 0.5, 0.3, 0.2, 0.7)) == pytest.approx(0.7)


def test_cov_df_df_spot_values():
    k = lift_stationary(SE)
    # same point, v = w orthogonal to x: only the kappa_3 <v,w> term survives
    val = k.cov_df_df(0.5, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    assert float(val) == pytest.approx(1.0, abs=1e-15)
    # v ⊥ w, both orthogonal to x
    assert float(k.cov_df_df(0.5, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)) == 0.0


def test_mean_ops():
    # E[D_v f(x)] = μ′(‖x‖²/2)·⟨x,v⟩ and E[f(x)] = μ(‖x‖²/2)
    assert float(lift_stationary(SE).mean_prime(0.5) * 3.0) == 0.0
    kq = quadratic_kernel(1.0, 0.0, 1.0)
    assert float(kq.mean_prime(0.5) * 1.0) == pytest.approx(1.0)
    kq2 = quadratic_kernel(1.0, 1.0, 1.0)
    assert float(kq2.mean(0.0)) == pytest.approx(1.0)


def test_domain_check():
    with pytest.raises(KernelDomainError):
        check_domain(0.5, 0.5, 1.1)
    with pytest.raises(KernelDomainError):
        check_domain(-0.1, 0.5, 0.0)
    # exactly on the Cauchy-Schwarz boundary is fine
    check_domain(0.5, 0.5, 1.0)
    check_domain(0.0, 0.5, 0.0)
    # vectorized check catches a single bad entry
    with pytest.raises(KernelDomainError):
        check_domain(np.full(3, 0.5), np.full(3, 0.5), np.array([0.0, 1.0, 1.01]))


# ---------------------------------------------------------------------------
# stationary reduction: lifted bilinear form vs squared-distance formulas
# ---------------------------------------------------------------------------

def _inner_products(x, y, v, w):
    return dict(s_x=x @ x / 2.0, s_y=y @ y / 2.0, ip_xy=x @ y,
                ip_xv=x @ v, ip_yv=y @ v, ip_xw=x @ w, ip_yw=y @ w, ip_vw=v @ w)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stationary_reduction(seed):
    """Lifted-path covariances must reduce to the C(‖Δ‖²/2) formulas."""
    mix = SchoenbergMixture(atoms=((0.6, 1.0), (0.4, 0.3)))
    k = lift_stationary(mix)
    rng = np.random.default_rng(seed)
    for _ in range(25):
        x, y, v, w = rng.standard_normal((4, 5))
        p = _inner_products(x, y, v, w)
        d = x - y
        r = d @ d / 2.0

        lifted_ff = float(k.cov_ff(p["s_x"], p["s_y"], p["ip_xy"]))
        assert lifted_ff == pytest.approx(float(mix.value(r)), rel=1e-12, abs=1e-12)

        lifted_df = float(k.cov_df_f(p["s_x"], p["s_y"], p["ip_xy"], p["ip_xv"], p["ip_yv"]))
        assert lifted_df == pytest.approx(float(mix.deriv(r)) * (d @ v), rel=1e-12, abs=1e-12)

        lifted_dd = float(k.cov_df_df(**p))
        direct = -(float(mix.deriv2(r)) * (d @ v) * (d @ w) + float(mix.deriv(r)) * (v @ w))
        assert lifted_dd == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_direct_stationary_model_matches_lift():
    mix = SchoenbergMixture(atoms=((0.5, 0.7), (0.5, 1.4)))
    lifted = lift_stationary(mix, mean_level=0.3)
    direct = stationary_direct(mix, mean_level=0.3)
    rng = np.random.default_rng(11)
    for _ in range(25):
        x, y, v, w = rng.standard_normal((4, 4))
        p = _inner_products(x, y, v, w)
        args3 = (p["s_x"], p["s_y"], p["ip_xy"])
        assert float(direct.cov_ff(*args3)) == pytest.approx(float(lifted.cov_ff(*args3)), rel=1e-12)
        a = float(direct.cov_df_f(*args3, p["ip_xv"], p["ip_yv"]))
        b = float(lifted.cov_df_f(*args3, p["ip_xv"], p["ip_yv"]))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-13)
        a = float(direct.cov_df_df(**p))
        b = float(lifted.cov_df_df(**p))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-13)
    assert float(direct.mean(2.0)) == pytest.approx(0.3)


@pytest.mark.parametrize("make", [
    lambda: lift_stationary(SchoenbergMixture(atoms=((0.7, 1.0), (0.3, 2.0)))),
    lambda: spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 0.5, 0.5))),
    lambda: quadratic_kernel(1.0, 0.5, 1.0),
])
def test_swap_symmetry_of_derivative_covariance(make):
    """Cov(D_v f(x), D_w f(y)) = Cov(D_w f(y), D_v f(x))."""
    k = make()
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, y, v, w = rng.standard_normal((4, 3)) * 0.6
        p = _inner_products(x, y, v, w)
        q = _inner_products(y, x, w, v)
        assert float(k.cov_df_df(**p)) == pytest.approx(float(k.cov_df_df(**q)), rel=1e-13, abs=1e-14)


# ---------------------------------------------------------------------------
# positive semi-definiteness of assembled covariance matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: lift_stationary(SchoenbergMixture(atoms=((0.6, 1.0), (0.4, 0.5)))),
    lambda: stationary_direct(SchoenbergMixture(atoms=((1.0, 1.2),))),
    lambda: spin_glass_kernel(SpinGlassMixture(coeffs=(0.1, 0.4, 0.6, 0.2))),
    lambda: quadratic_kernel(0.8, 0.3, 1.5),
])
def test_assembled_covariance_is_psd(make):
    """Joint covariance of values and derivatives at explicit R^3 points."""
    k = make()
    rng = np.random.default_rng(19)
    pts = rng.standard_normal((5, 3)) * 0.7
    dirs = rng.standard_normal((5, 2, 3))
    rows = []
    for a in range(len(pts)):
        rows.append(("f", a, None))
        for j in range(2):
            rows.append(("d", a, dirs[a, j]))
    n = len(rows)
    M = np.empty((n, n))
    for i, (ti, a, va) in enumerate(rows):
        xa = pts[a]
        for j, (tj, b, vb) in enumerate(rows):
            xb = pts[b]
            s_a, s_b, ip = xa @ xa / 2, xb @ xb / 2, xa @ xb
            if ti == "f" and tj == "f":
                M[i, j] = k.cov_ff(s_a, s_b, ip)
            elif ti == "d" and tj == "f":
                M[i, j] = k.cov_df_f(s_a, s_b, ip, xa @ va, xb @ va)
            elif ti == "f" and tj == "d":
                M[i, j] = k.cov_df_f(s_b, s_a, xb @ xa, xb @ vb, xa @ vb)
            else:
                M[i, j] = k.cov_df_df(s_a, s_b, ip, xa @ va, xb @ va,
                                      xa @ vb, xb @ vb, va @ vb)
    np.testing.assert_allclose(M, M.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    assert eigs.min() >= -1e-10


# ---------------------------------------------------------------------------
# barrier integral
# ---------------------------------------------------------------------------

def test_alg_barrier_two_spin():
    assert alg_barrier(TWO_SPIN) == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_alg_barrier_three_spin():
    assert alg_barrier(THREE_SPIN) == pytest.approx(2.0 / 3.0 * math.sqrt(6.0), abs=1e-7)


def test_alg_barrier_constant_mixture():
    assert alg_barrier(SpinGlassMixture(coeffs=(1.0,))) == 0.0


def test_alg_barrier_against_quad():
    scipy = pytest.importorskip("scipy.integrate")
    mix = SpinGlassMixture(coeffs=(0.0, 0.0, 0.5, 0.3))
    expected, _ = scipy.quad(lambda s: math.sqrt(float(mix.xi_double_prime(s))), 0.0, 1.0)
    assert alg_barrier(mix) == pytest.approx(expected, abs=1e-7)


def test_alg_barrier_rejects_negative_curvature():
    class FakeMix:
        def xi_double_prime(self, s):
            return np.asarray(s, dtype=float) - 0.5

    with pytest.raises(ValueError, match="negative curvature"):
        alg_barrier(FakeMix())


# ---------------------------------------------------------------------------
# finite-difference validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: lift_stationary(SchoenbergMixture(atoms=((0.7, 1.0), (0.3, 0.4)))),
    lambda: spin_glass_kernel(SpinGlassMixture(coeffs=(0.2, 0.3, 0.5, 0.4))),
    lambda: quadratic_kernel(1.0, 0.5, 2.0),
])
def test_validate_partials_passes_for_builtins(make):
    report = validate_partials(make(), tol=1e-6)
    assert report.passed, str(report)


def test_validate_partials_catches_corrupted_partial():
    base = lift_stationary(SE)
    partials = {name: getattr(base, name) for name in PARTIAL_NAMES}
    partials["k33"] = lambda l1, l2, l3: base.k33(l1, l2, l3) + 0.1
    bad = KernelModel(base.mean, base.mean_prime, base.kappa, partials)
    report = validate_partials(bad, tol=1e-6)
    assert not report.passed
    assert report.max_rel_err["k33"] > 0.05
    assert report.max_rel_err["k1"] <= 1e-6


def test_second_partial_direct_finite_difference():
    """Cross-check κ₃₃ by differencing ξ′ by hand: ξ(s)=s² gives exactly 2."""
    k = spin_glass_kernel(TWO_SPIN)
    h = 1e-5
    fd = (k.k3(0.5, 0.5, 0.4 + h) - k.k3(0.5, 0.5, 0.4 - h)) / (2 * h)
    assert float(fd) == pytest.approx(2.0, abs=1e-9)


def test_default_validation_grid_is_interior():
    grid = default_validation_grid()
    assert len(grid) == 125
    for l1, l2, l3 in grid:
        assert abs(l3) < 2.0 * math.sqrt(l1 * l2)
