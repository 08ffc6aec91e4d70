"""Kernel models: frozen spot values, symmetries, and consistency checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grfspan.assembly import coordinate_inner_products, cov_block
from grfspan.errors import KernelDomainError
from grfspan.kernels import (
    KernelModel,
    PARTIAL_NAMES,
    PARTIALS_TOL,
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make", [
    lambda v: SchoenbergMixture(atoms=((v, 1.0),)),
    lambda v: SchoenbergMixture(atoms=((1.0, v),)),
    lambda v: SpinGlassMixture(coeffs=(0.0, v)),
    lambda v: quadratic_kernel(v, 0.5, 1.0),
    lambda v: quadratic_kernel(1.0, v, 1.0),
    lambda v: quadratic_kernel(1.0, 0.5, v),
    lambda v: lift_stationary(SE, mean_level=v),
    lambda v: stationary_direct(SE, mean_level=v),
], ids=["atom-weight", "atom-scale", "spin-coeff", "sigma_A", "sigma_eta", "R",
        "lifted-mean", "direct-mean"])
def test_non_finite_kernel_parameters_are_rejected(make, bad):
    # every comparison with NaN is False, so a sign check alone lets it through
    with pytest.raises(ValueError, match="finite"):
        make(bad)


def test_schoenberg_derivative_is_negative():
    mix = SchoenbergMixture(atoms=((0.7, 0.5), (0.3, 2.0)))
    r = np.linspace(0.0, 5.0, 41)
    _, dc, ddc = mix.derivatives(r)
    assert np.all(dc < 0)
    assert np.all(ddc > 0)
    assert mix.c0 == pytest.approx(1.0)


def test_spin_glass_validation():
    with pytest.raises(ValueError):
        SpinGlassMixture(coeffs=())
    with pytest.raises(ValueError):
        SpinGlassMixture(coeffs=(0.0, -1.0))


def test_schoenberg_derivatives_are_the_atom_sums():
    mix = SchoenbergMixture(atoms=((0.7, 0.5), (0.3, 2.0), (0.2, 0.0)))
    r = np.linspace(0.0, 5.0, 41)
    c, dc, ddc = mix.derivatives(r)
    assert np.array_equal(c, sum(w * np.exp(-t * t * r) for w, t in mix.atoms))
    assert np.array_equal(dc, sum(-w * t * t * np.exp(-t * t * r) for w, t in mix.atoms))
    assert np.array_equal(ddc, sum(w * t ** 4 * np.exp(-t * t * r) for w, t in mix.atoms))


def test_schoenberg_derivatives_take_one_exponential_per_atom(monkeypatch):
    mix = SchoenbergMixture(atoms=((0.7, 0.5), (0.3, 2.0)))
    calls = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x: calls.append(1) or exp(x))
    mix.derivatives(np.linspace(0.0, 5.0, 41))
    assert len(calls) == len(mix.atoms)


def test_spin_glass_derivatives_are_the_coefficient_sums():
    mix = SpinGlassMixture(coeffs=(0.2, 0.0, 0.5, 0.4, 0.3))
    s = np.linspace(-1.0, 1.0, 41)
    terms = [(p, c * c) for p, c in enumerate(mix.coeffs) if c != 0.0]
    xi, d1, d2 = mix.derivatives(s)
    assert np.array_equal(xi, sum(w * s ** p for p, w in terms))
    assert np.array_equal(d1, sum(w * p * s ** (p - 1) for p, w in terms if p >= 1))
    assert np.array_equal(d2, sum(w * p * (p - 1) * s ** (p - 2) for p, w in terms if p >= 2))


def test_spin_glass_derivatives_of_a_constant_are_zero():
    xi, d1, d2 = SpinGlassMixture(coeffs=(2.0,)).derivatives(np.array([0.0, 0.5]))
    assert np.array_equal(xi, [4.0, 4.0])
    assert np.array_equal(d1, [0.0, 0.0])
    assert np.array_equal(d2, [0.0, 0.0])


# ---------------------------------------------------------------------------
# the partials contract
# ---------------------------------------------------------------------------

def _domain_points(n=30):
    rng = np.random.default_rng(5)
    return tuple(np.array(col) for col in zip(*(random_domain_point(rng) for _ in range(n))))


def _assert_partials(kernel, expected, l1, l2, l3):
    got = kernel.derivatives(l1, l2, l3)[1:]
    assert len(got) == len(PARTIAL_NAMES)
    for name, a, b in zip(PARTIAL_NAMES, got, expected):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("make", [lift_stationary, stationary_direct])
def test_stationary_partials_closed_form(make):
    mix = SchoenbergMixture(atoms=((0.6, 0.8), (0.4, 1.7)))
    l1, l2, l3 = _domain_points()
    _, dc, ddc = mix.derivatives(l1 + l2 - l3)
    _assert_partials(make(mix), (dc, dc, -dc, ddc, -ddc, -ddc, ddc), l1, l2, l3)


def test_spin_glass_partials_closed_form():
    mix = SpinGlassMixture(coeffs=(0.1, 0.4, 0.6, 0.2))
    l1, l2, l3 = _domain_points()
    _, d1, d2 = mix.derivatives(l3)
    zero = np.zeros_like(l3)
    _assert_partials(spin_glass_kernel(mix), (zero, zero, d1, zero, zero, zero, d2),
                     l1, l2, l3)


def test_quadratic_partials_closed_form():
    l1, l2, l3 = _domain_points()
    zero = np.zeros_like(l3)
    sa2 = 0.8 ** 2
    k3 = np.full_like(l3, sa2 * sa2 * 1.5 ** 2)   # σ_A⁴R²
    _assert_partials(quadratic_kernel(0.8, 0.3, 1.5), (zero, zero, k3, zero, zero, zero, zero),
                     l1, l2, l3)


_BASE = lift_stationary(SE)


@pytest.mark.parametrize("mean, derivatives, error", [
    (_BASE.mean, lambda l1, l2, l3: _BASE.derivatives(l1, l2, l3)[:7], "8 values"),
    (_BASE.mean, lambda l1, l2, l3: (*_BASE.derivatives(l1, l2, l3), 0.0), "8 values"),
    (lambda s: _BASE.mean(s)[0], _BASE.derivatives, "2 values"),
], ids=["derivatives-7", "derivatives-9", "one-array-mean"])
def test_partials_of_the_wrong_length_are_rejected(mean, derivatives, error):
    with pytest.raises(ValueError, match=error):
        KernelModel(mean, derivatives)


# ---------------------------------------------------------------------------
# frozen spot values
# ---------------------------------------------------------------------------

def test_stationary_lift_spot_values():
    k = lift_stationary(SE)
    # C(0) = sum of weights, and kappa_3 = -C'(0)
    assert float(k.derivatives(0.5, 0.5, 1.0)[0]) == pytest.approx(1.0, abs=1e-15)
    assert float(k.derivatives(0.5, 0.5, 1.0)[3]) == pytest.approx(1.0, abs=1e-15)
    assert float(k.mean(0.7)[0]) == 0.0
    assert float(k.mean(0.7)[1]) == 0.0


def test_stationary_lift_exchange_symmetry():
    k = lift_stationary(SchoenbergMixture(atoms=((0.6, 0.8), (0.4, 1.7))))
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c = random_domain_point(rng)
        assert float(k.derivatives(a, b, c)[0]) == pytest.approx(
            float(k.derivatives(b, a, c)[0]), rel=1e-14)


def test_spin_glass_spot_values():
    k = spin_glass_kernel(TWO_SPIN)
    assert float(k.derivatives(0.3, 0.9, 0.5)[3]) == pytest.approx(1.0, abs=1e-15)   # ξ′(0.5)
    assert float(k.derivatives(0.3, 0.9, 0.5)[1]) == 0.0   # κ₁
    k3spin = spin_glass_kernel(THREE_SPIN)
    k33 = k3spin.derivatives(0.5, 0.5, 1.0)[7]
    assert float(k33) == pytest.approx(6.0, abs=1e-14)  # xi''(1) = 6


def test_quadratic_spot_values():
    k = quadratic_kernel(sigma_A=1.0, sigma_eta=0.0, R=1.0)
    assert float(k.mean(0.5)[0]) == pytest.approx(1.0, abs=1e-15)
    assert float(k.derivatives(0.2, 0.2, 0.1)[3]) == pytest.approx(1.0, abs=1e-15)
    assert float(k.derivatives(0.2, 0.2, 0.1)[7]) == 0.0   # κ₃₃
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
    assert float(lift_stationary(SE).mean(0.5)[1] * 3.0) == 0.0
    kq = quadratic_kernel(1.0, 0.0, 1.0)
    assert float(kq.mean(0.5)[1] * 1.0) == pytest.approx(1.0)
    kq2 = quadratic_kernel(1.0, 1.0, 1.0)
    assert float(kq2.mean(0.0)[0]) == pytest.approx(1.0)


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

        c, dc, ddc = (float(val) for val in mix.derivatives(r))

        lifted_ff = float(k.cov_ff(p["s_x"], p["s_y"], p["ip_xy"]))
        assert lifted_ff == pytest.approx(c, rel=1e-12, abs=1e-12)

        lifted_df = float(k.cov_df_f(p["s_x"], p["s_y"], p["ip_xy"], p["ip_xv"], p["ip_yv"]))
        assert lifted_df == pytest.approx(dc * (d @ v), rel=1e-12, abs=1e-12)

        lifted_dd = float(k.cov_df_df(**p))
        direct = -(ddc * (d @ v) * (d @ w) + dc * (v @ w))
        assert lifted_dd == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_direct_stationary_model_matches_lift():
    mix = SchoenbergMixture(atoms=((0.5, 0.7), (0.5, 1.4)))
    lifted = lift_stationary(mix, mean_level=0.3)
    direct = stationary_direct(mix, mean_level=0.3)
    rng = np.random.default_rng(11)
    for _ in range(25):
        x, y = rng.standard_normal((2, 4))
        grid = (x @ x / 2.0, y @ y / 2.0, x @ y)
        np.testing.assert_allclose(direct.cov_pair_block(x, y, direct.derivatives(*grid)),
                                   lifted.cov_pair_block(x, y, lifted.derivatives(*grid)),
                                   rtol=1e-12, atol=1e-13)
    assert float(direct.mean(2.0)[0]) == pytest.approx(0.3)


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


BLOCK_KERNELS = {
    "lifted SE": lift_stationary(SE),
    "direct 2-atom": stationary_direct(SchoenbergMixture(atoms=((0.7, 0.5), (0.3, 2.0)))),
    "spin glass": spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 0.3, 0.7, 0.2))),
    "quadratic": quadratic_kernel(1.0, 0.5, 1.0),
}


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(BLOCK_KERNELS)), D=st.sampled_from([0, 1, 5]),
       batch=st.sampled_from([(), (3,), (2, 4)]), pairs=st.sampled_from(["aligned", "grid"]),
       seed=st.integers(0, 2 ** 16))
def test_block_rule_is_the_per_entry_rule(name, D, batch, pairs, seed):
    # "grid" pairs every point of one axis with every point of another, as
    # cov_block does, so x and y broadcast against each other
    kernel = BLOCK_KERNELS[name]
    rng = np.random.default_rng(seed)
    if pairs == "aligned":
        x, y = rng.standard_normal((2,) + batch + (D,)) * 0.6
    else:
        x = rng.standard_normal(batch + (3, 1, D)) * 0.6
        y = rng.standard_normal(batch + (1, 2, D)) * 0.6
    s_x, s_y = 0.5 * np.sum(x * x, axis=-1), 0.5 * np.sum(y * y, axis=-1)
    ip = np.sum(x * y, axis=-1)
    block = kernel.cov_pair_block(x, y, kernel.derivatives(s_x, s_y, ip))
    shape = np.broadcast_shapes(x.shape, y.shape)[:-1]
    assert block.shape == shape + (D + 1, D + 1)

    def check(got, entry):
        np.testing.assert_allclose(got, np.broadcast_to(entry, shape), rtol=1e-13, atol=1e-13)

    check(block[..., 0, 0], kernel.cov_ff(s_x, s_y, ip))
    for i in range(D):
        check(block[..., i + 1, 0], kernel.cov_df_f(s_x, s_y, ip, x[..., i], y[..., i]))
        check(block[..., 0, i + 1], kernel.cov_df_f(s_y, s_x, ip, y[..., i], x[..., i]))
        for j in range(D):
            check(block[..., i + 1, j + 1],
                  kernel.cov_df_df(s_x, s_y, ip, x[..., i], y[..., i], x[..., j], y[..., j],
                                   float(i == j)))


WEIGHTED_KERNELS = {
    **BLOCK_KERNELS,
    "lifted 2-atom, mean 0.3": lift_stationary(SchoenbergMixture(atoms=((0.7, 0.5), (0.3, 2.0))),
                                               mean_level=0.3),
}


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("D", [0, 1, 4])
@pytest.mark.parametrize("name", sorted(WEIGHTED_KERNELS))
def test_weighted_rows_contract_the_pair_blocks(name, D, batch):
    # the limit's conditional mean: the direction rows of n pair blocks
    # against one point, contracted with a weight matrix, to rounding
    kernel = WEIGHTED_KERNELS[name]
    rng = np.random.default_rng(29)
    for n in (1, 6):
        y = rng.standard_normal((batch, n, D)) * 0.6
        x = rng.standard_normal((batch, D)) * 0.6
        w = rng.standard_normal((batch, n, D))
        s_y, s_x = 0.5 * np.sum(y * y, axis=-1), 0.5 * np.sum(x * x, axis=-1)
        ip = (y @ x[:, :, None])[:, :, 0]
        parts = kernel.derivatives(s_y, s_x[:, None], ip)
        C = kernel.cov_pair_block(y, x[:, None, :], parts)[:, :, 1:, :]
        got = kernel.weighted_rows(y, x, w, parts)
        assert got.shape == (batch, D + 1)
        scale = np.einsum("baj,bajk->bk", np.abs(w), np.abs(C))
        assert np.all(np.abs(got - np.einsum("baj,bajk->bk", w, C)) <= 1e-14 * scale)


# ---------------------------------------------------------------------------
# positive semi-definiteness of assembled covariance matrices
# ---------------------------------------------------------------------------

PSD_KERNELS = [
    lambda: lift_stationary(SchoenbergMixture(atoms=((0.6, 1.0), (0.4, 0.5)))),
    lambda: stationary_direct(SchoenbergMixture(atoms=((1.0, 1.2),))),
    lambda: spin_glass_kernel(SpinGlassMixture(coeffs=(0.1, 0.4, 0.6, 0.2))),
    lambda: quadratic_kernel(0.8, 0.3, 1.5),
]


def _psd_points():
    """Five points in R^3 and two random directions at each."""
    rng = np.random.default_rng(19)
    return rng.standard_normal((5, 3)) * 0.7, rng.standard_normal((5, 2, 3))


def _assert_psd(M):
    np.testing.assert_allclose(M, M.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    assert eigs.min() >= -1e-10


@pytest.mark.parametrize("make", PSD_KERNELS)
def test_assembled_covariance_is_psd(make):
    """Joint covariance of values and derivatives at explicit R^3 points,
    entry by entry through the per-entry rules."""
    k = make()
    pts, dirs = _psd_points()
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
    _assert_psd(M)


@pytest.mark.parametrize("make", PSD_KERNELS)
def test_block_covariance_is_psd(make):
    """The same points through ``cov_block``, the rule the recursion runs
    (the direct model's distance form included): the value and the three
    coordinate derivatives at each point, the axes of R^3 being an
    orthonormal system."""
    k = make()
    pts, _ = _psd_points()
    s, ip = coordinate_inner_products(pts)
    _assert_psd(cov_block(k, pts, pts, k.derivatives(s[:, None], s[None, :], ip)))


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
    expected, _ = scipy.quad(lambda s: math.sqrt(float(mix.derivatives(s)[2])), 0.0, 1.0)
    assert alg_barrier(mix) == pytest.approx(expected, abs=1e-7)


@pytest.mark.parametrize("terms", [{3: 1e-6, 50: 10.0}, {100: 1.0}, {2: 1e-4, 40: 1.0}],
                         ids=["c3-1e-6-c50-10", "pure-100", "c2-1e-4-c40-1"])
def test_alg_barrier_against_mpmath(terms):
    # mixtures where √ξ″ is flat near 0 and steep near 1, or ~ √s near 0
    mpmath = pytest.importorskip("mpmath")
    coeffs = [0.0] * (max(terms) + 1)
    for p, c in terms.items():
        coeffs[p] = c
    with mpmath.workdps(30):
        expected = mpmath.quad(
            lambda s: mpmath.sqrt(sum(mpmath.mpf(c) ** 2 * p * (p - 1) * s ** (p - 2)
                                      for p, c in terms.items())),
            mpmath.linspace(0, 1, 41))
        error = float(alg_barrier(SpinGlassMixture(coeffs=tuple(coeffs))) - expected)
    assert abs(error) <= 1e-11


def test_alg_barrier_rejects_negative_curvature():
    class FakeMix:
        def derivatives(self, s):
            s = np.asarray(s, dtype=float)
            return s, s, s - 0.5

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
    report = validate_partials(make())
    assert report.passed, str(report)


@pytest.mark.parametrize("name, everywhere, error", [
    ("k33", True, 0.1), ("k12", False, 0.1), ("k23", True, math.nan),
], ids=["k33-everywhere", "k12-at-one-point", "k23-nan"])
def test_validate_partials_catches_corrupted_partial(name, everywhere, error):
    base = lift_stationary(SE)
    l1, l2, l3 = default_validation_grid()[62]
    slot = 1 + PARTIAL_NAMES.index(name)

    def derivatives(a, b, c):
        values = list(base.derivatives(a, b, c))
        at = True if everywhere else (a == l1) & (b == l2) & (c == l3)
        values[slot] = values[slot] + np.where(at, error, 0.0)
        return tuple(values)

    bad = KernelModel(base.mean, derivatives)
    report = validate_partials(bad)
    assert not report.passed
    assert not report.max_rel_err[name] <= 0.05
    assert [n for n, e in report.max_rel_err.items() if not e <= PARTIALS_TOL] == [name]


def test_second_partial_direct_finite_difference():
    """Cross-check κ₃₃ by differencing ξ′ by hand: ξ(s)=s² gives exactly 2."""
    k = spin_glass_kernel(TWO_SPIN)
    h = 1e-5
    fd = (k.derivatives(0.5, 0.5, 0.4 + h)[3] - k.derivatives(0.5, 0.5, 0.4 - h)[3]) / (2 * h)
    assert float(fd) == pytest.approx(2.0, abs=1e-9)


def test_default_validation_grid_is_interior():
    grid = default_validation_grid()
    assert len(grid) == 125
    for l1, l2, l3 in grid:
        assert abs(l3) < 2.0 * math.sqrt(l1 * l2)
