"""Prefactor schedules vs textbook optimizer recursions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from grfspan.algorithms import (
    GsaSpec,
    InfoView,
    PrefactorRow,
    fr_cg,
    gd,
    heavy_ball,
    nesterov,
    with_ball_projection,
    with_sphere_projection,
)
from grfspan.errors import DegenerateProjectionError
from grfspan.kernels import SchoenbergMixture, lift_stationary
from grfspan.limits import predict


def make_info(x0, grads, f_values):
    G = np.asarray(grads, dtype=float)
    return InfoView(f_values=np.asarray(f_values, dtype=float),
                    grad_gram=G @ G.T,
                    x0_grad=G @ np.asarray(x0, dtype=float),
                    x0_norm_sq=float(np.dot(x0, x0)))


def run_span(spec, x0, grad_fn, f_fn, steps):
    """Run a spec through its prefactor form on a deterministic function."""
    x0 = np.asarray(x0, dtype=float)
    points = [x0]
    grads = [grad_fn(x0)]
    fvals = [f_fn(x0)]
    for n in range(1, steps + 1):
        info = make_info(x0, np.array(grads), fvals)
        row = spec.row(n, info)
        x = row.h_x * x0 + np.array(grads).T @ row.h_g
        points.append(x)
        grads.append(grad_fn(x))
        fvals.append(f_fn(x))
    return points


# ---------------------------------------------------------------------------
# frozen prefactor literals
# ---------------------------------------------------------------------------

def test_gd_literals():
    spec = gd(0.1)
    info = make_info(np.zeros(2), np.zeros((1, 2)), [0.0])
    row = spec.row(1, info)
    assert row.h_x == 1.0
    np.testing.assert_allclose(row.h_g, [-0.1])
    info3 = make_info(np.zeros(2), np.zeros((3, 2)), [0.0] * 3)
    np.testing.assert_allclose(spec.row(3, info3).h_g, [-0.1, -0.1, -0.1])


def test_heavy_ball_literals():
    spec = heavy_ball(1.0, 0.5)
    info = make_info(np.zeros(2), np.zeros((2, 2)), [0.0] * 2)
    np.testing.assert_allclose(spec.row(2, info).h_g, [-1.5, -1.0], atol=1e-15)
    # newest gradient always enters with plain -alpha
    info5 = make_info(np.zeros(2), np.zeros((5, 2)), [0.0] * 5)
    assert spec.row(5, info5).h_g[-1] == pytest.approx(-1.0)


def test_heavy_ball_beta_zero_is_gd():
    hb, g = heavy_ball(0.3, 0.0), gd(0.3)
    info = make_info(np.zeros(2), np.zeros((4, 2)), [0.0] * 4)
    np.testing.assert_array_equal(hb.row(4, info).h_g, g.row(4, info).h_g)


def test_nesterov_literals():
    a, b = 0.2, 0.7
    spec = nesterov(a, b)
    info1 = make_info(np.zeros(2), np.zeros((1, 2)), [0.0])
    np.testing.assert_allclose(spec.row(1, info1).h_g, [-a * (1 + b)], atol=1e-15)
    info2 = make_info(np.zeros(2), np.zeros((2, 2)), [0.0] * 2)
    np.testing.assert_allclose(spec.row(2, info2).h_g,
                               [-a * (1 + b + b * b), -a * (1 + b)], atol=1e-15)


def test_nesterov_beta_zero_is_gd():
    ns, g = nesterov(0.3, 0.0), gd(0.3)
    info = make_info(np.zeros(2), np.zeros((4, 2)), [0.0] * 4)
    np.testing.assert_allclose(ns.row(4, info).h_g, g.row(4, info).h_g, atol=1e-15)


@pytest.mark.parametrize("alpha, beta", [(0.3, 0.5), (0.1, 0.9), (0.1, 0.99), (0.3, -0.5)])
def test_nesterov_closed_form_matches_the_exact_recursion(alpha, beta):
    """The closed-form row against the two-sequence recursion evaluated in
    exact rationals at the same float α and β, for every n ≤ 60."""
    spec, qa, qb = nesterov(alpha, beta), Fraction(alpha), Fraction(beta)
    zg_prev, yg = [], []        # gradient coefficients of z_j and y_j
    for n in range(1, 61):
        zg = yg + [-qa]
        yg = [(1 + qb) * z - qb * p for z, p in zip(zg, zg_prev + [0])]
        zg_prev = zg
        h_g = spec.row(n, make_info(np.zeros(2), np.zeros((n, 2)), [0.0] * n)).h_g
        exact = np.array([float(y) for y in yg])
        assert np.abs(h_g / exact - 1.0).max() <= 4e-15, n


def test_fr_cg_first_step():
    spec = fr_cg(0.25)
    info = make_info([1.0, 0.0], [[0.5, 0.5]], [0.3])
    np.testing.assert_allclose(spec.row(1, info).h_g, [-0.25])


def test_fr_cg_equal_norms_accumulates_partial_sums():
    # all gradient norms equal ⇒ β ≡ 1 and h_g[k] = −α(n−k)
    G = np.eye(4)
    info = InfoView(f_values=np.zeros(4), grad_gram=G, x0_grad=np.zeros(4),
                    x0_norm_sq=1.0)
    row = fr_cg(0.5).row(4, info)
    np.testing.assert_allclose(row.h_g, [-2.0, -1.5, -1.0, -0.5], atol=1e-15)


def test_fr_cg_restart_on_vanishing_gradient():
    gram = np.diag([0.0, 1.0])
    info = InfoView(f_values=np.zeros(2), grad_gram=gram, x0_grad=np.zeros(2),
                    x0_norm_sq=1.0)
    row = fr_cg(0.5).row(2, info)
    # restart: d₁ = −g₁ alone, so both gradients enter once
    np.testing.assert_allclose(row.h_g, [-0.5, -0.5], atol=1e-15)


def test_parameter_validation():
    with pytest.raises(ValueError):
        gd(0.0)
    with pytest.raises(ValueError):
        heavy_ball(0.1, 1.0)
    with pytest.raises(ValueError):
        nesterov(0.1, -1.0)
    with pytest.raises(ValueError):
        fr_cg(0.0)
    with pytest.raises(ValueError):
        with_sphere_projection(gd(0.1), 0.0)


SE = lift_stationary(SchoenbergMixture(atoms=((1.0, 1.0),)))


@pytest.mark.parametrize("name, build", [
    ("alpha", lambda: predict(SE, gd(math.nan), 1.0, 3)),
    ("alpha", lambda: gd(math.inf)),
    ("alpha", lambda: fr_cg(math.nan)),
    ("alpha", lambda: heavy_ball(-math.inf, 0.5)),
    ("radius", lambda: with_sphere_projection(gd(0.3), math.nan)),
    ("radius", lambda: with_ball_projection(gd(0.3), math.inf)),
    ("lam", lambda: predict(SE, gd(0.4), math.nan, 3)),
    ("lam", lambda: predict(SE, gd(0.4), math.inf, 3)),
], ids=["gd-nan", "gd-inf", "fr_cg-nan", "heavy_ball-inf", "sphere-nan", "ball-inf",
        "lam-nan", "lam-inf"])
def test_non_finite_parameter_is_rejected_where_it_is_given(name, build):
    # unchecked, each reaches the kernel as a non-finite argument
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        build()


def test_row_length_contract():
    bad = GsaSpec(name="bad", prefactors=lambda n, info: PrefactorRow(1.0, [0.0]))
    info = make_info(np.zeros(2), np.zeros((3, 2)), [0.0] * 3)
    with pytest.raises(ValueError, match="coefficient"):
        bad.row(3, info)
    with pytest.raises(ValueError):
        gd(0.1).row(0, info)


# ---------------------------------------------------------------------------
# InfoView validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gram, x0_grad", [([[1.0, 0.0]], [0.0]),          # not square
                                            ([[1.0, 0.0], [0.0, 1.0]], [0.0])])
def test_infoview_rejects_inconsistent_sizes(gram, x0_grad):
    with pytest.raises(ValueError, match="inconsistent information sizes"):
        InfoView(f_values=[0.0], grad_gram=gram, x0_grad=x0_grad, x0_norm_sq=1.0)


def test_infoview_rejects_asymmetric_gram():
    with pytest.raises(ValueError, match="symmetric"):
        InfoView(f_values=[0.0, 0.0], grad_gram=[[1.0, 0.5], [0.2, 1.0]],
                 x0_grad=[0.0, 0.0], x0_norm_sq=1.0)


@pytest.mark.parametrize("b", [0.0, -1e-3, 1.0, 1e6])
@pytest.mark.parametrize("slack", [0.99, 1.01])
def test_infoview_symmetry_tolerance_is_allclose(b, slack):
    # |g − gᵀ| ≤ 1e-9 + 1e-5·|gᵀ| entrywise, as np.allclose(g, gᵀ, atol=1e-9)
    # reads it: an asymmetry just inside passes and one just outside fails,
    # alone or as one run of a batch
    g = np.array([[1.0, b + slack * (1e-9 + 1e-5 * abs(b))], [b, 1.0]])
    inside = slack < 1.0
    assert np.allclose(g, g.T, atol=1e-9) == inside
    for gram in (g, np.stack([np.eye(2), g])):
        zeros = np.zeros(gram.shape[:-1])
        if inside:
            InfoView(f_values=zeros, grad_gram=gram, x0_grad=zeros, x0_norm_sq=1.0)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                InfoView(f_values=zeros, grad_gram=gram, x0_grad=zeros, x0_norm_sq=1.0)


def test_infoview_rejects_nan_gram():
    with pytest.raises(ValueError, match="symmetric"):
        InfoView(f_values=[0.0, 0.0], grad_gram=[[1.0, np.nan], [np.nan, 1.0]],
                 x0_grad=[0.0, 0.0], x0_norm_sq=1.0)


def test_infoview_rejects_cauchy_schwarz_violation():
    with pytest.raises(ValueError, match="Cauchy"):
        InfoView(f_values=[0.0], grad_gram=[[1.0]], x0_grad=[2.0], x0_norm_sq=1.0)


def test_infoview_rejects_negative_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        InfoView(f_values=[0.0], grad_gram=[[-1.0]], x0_grad=[0.0], x0_norm_sq=1.0)


def test_infoview_steps_property():
    info = make_info(np.ones(3), np.zeros((4, 3)), [0.0] * 4)
    assert info.steps == 3


# ---------------------------------------------------------------------------
# textbook recursion equivalence on a deterministic quadratic in R^5
# ---------------------------------------------------------------------------

@pytest.fixture
def quadratic_problem():
    rng = np.random.default_rng(42)
    B = rng.standard_normal((5, 5))
    A = B @ B.T / 5.0 + 0.5 * np.eye(5)
    b = rng.standard_normal(5)
    f = lambda x: 0.5 * x @ A @ x + b @ x
    grad = lambda x: A @ x + b
    x0 = rng.standard_normal(5)
    return f, grad, x0


def test_gd_matches_textbook(quadratic_problem):
    f, grad, x0 = quadratic_problem
    alpha = 0.1
    pts = run_span(gd(alpha), x0, grad, f, 20)
    x = x0.copy()
    for n in range(1, 21):
        x = x - alpha * grad(x)
        np.testing.assert_allclose(pts[n], x, rtol=1e-10, atol=1e-10)


def test_heavy_ball_matches_textbook(quadratic_problem):
    f, grad, x0 = quadratic_problem
    alpha, beta = 0.1, 0.6
    pts = run_span(heavy_ball(alpha, beta), x0, grad, f, 20)
    x, m = x0.copy(), np.zeros(5)
    for n in range(1, 21):
        m = beta * m - alpha * grad(x)
        x = x + m
        np.testing.assert_allclose(pts[n], x, rtol=1e-10, atol=1e-10)


def test_nesterov_matches_textbook(quadratic_problem):
    f, grad, x0 = quadratic_problem
    alpha, beta = 0.1, 0.6
    pts = run_span(nesterov(alpha, beta), x0, grad, f, 20)
    # two-sequence form; the emitted points are the look-ahead points y_n
    z_prev = x0.copy()
    y = x0.copy()
    for n in range(1, 21):
        z = y - alpha * grad(y)
        y = z + beta * (z - z_prev)
        z_prev = z
        np.testing.assert_allclose(pts[n], y, rtol=1e-10, atol=1e-10)


def test_fr_cg_matches_textbook(quadratic_problem):
    f, grad, x0 = quadratic_problem
    alpha = 0.05
    pts = run_span(fr_cg(alpha), x0, grad, f, 20)
    x = x0.copy()
    g = grad(x)
    d = -g
    for n in range(1, 21):
        x = x + alpha * d
        np.testing.assert_allclose(pts[n], x, rtol=1e-10, atol=1e-10)
        g_new = grad(x)
        beta = (g_new @ g_new) / (g @ g)
        d = -g_new + beta * d
        g = g_new


# ---------------------------------------------------------------------------
# x0-agnostic specs never touch the starting-point information
# ---------------------------------------------------------------------------

class SpyInfo:
    def __init__(self, info):
        self._info = info
        self.accessed = set()

    def __getattr__(self, name):
        self.accessed.add(name)
        return getattr(self._info, name)


@pytest.mark.parametrize("spec", [gd(0.2), heavy_ball(0.2, 0.5),
                                  nesterov(0.2, 0.5), fr_cg(0.2)])
def test_x0_agnostic_specs_read_only_reduced_info(spec):
    rng = np.random.default_rng(0)
    grads = rng.standard_normal((4, 5))
    info = make_info(rng.standard_normal(5), grads, rng.standard_normal(4))
    spy = SpyInfo(info)
    row = spec.row(4, spy)
    assert row.h_x == 1.0
    assert spy.accessed <= {"f_values", "grad_gram"}


def test_projection_reads_x0_information():
    spec = with_sphere_projection(gd(0.2), 1.0)
    rng = np.random.default_rng(1)
    info = make_info(rng.standard_normal(5), rng.standard_normal((2, 5)),
                     rng.standard_normal(2))
    spy = SpyInfo(info)
    spec.row(2, spy)
    assert "x0_grad" in spy.accessed


# ---------------------------------------------------------------------------
# projection wrappers
# ---------------------------------------------------------------------------

def test_projection_norm_formula_vs_explicit_coordinates():
    rng = np.random.default_rng(9)
    x0 = rng.standard_normal(5)
    grads = rng.standard_normal((3, 5))
    fvals = rng.standard_normal(3)
    info = make_info(x0, grads, fvals)
    inner = heavy_ball(0.4, 0.3)
    for radius in (0.5, 2.0):
        row = with_sphere_projection(inner, radius).row(3, info)
        x = row.h_x * x0 + grads.T @ row.h_g
        assert np.linalg.norm(x) == pytest.approx(radius, rel=1e-12)
        # direction must agree with explicitly projecting the inner iterate
        raw = inner.row(3, info)
        x_raw = raw.h_x * x0 + grads.T @ raw.h_g
        np.testing.assert_allclose(x, x_raw * radius / np.linalg.norm(x_raw),
                                   rtol=1e-12, atol=1e-12)


def test_ball_projection_identity_inside():
    rng = np.random.default_rng(10)
    x0 = rng.standard_normal(5) * 0.01
    grads = rng.standard_normal((2, 5)) * 0.01
    info = make_info(x0, grads, np.zeros(2))
    inner = gd(0.1)
    row_ball = with_ball_projection(inner, 10.0).row(2, info)
    row_raw = inner.row(2, info)
    assert row_ball.h_x == pytest.approx(row_raw.h_x, rel=1e-14)
    np.testing.assert_allclose(row_ball.h_g, row_raw.h_g, rtol=1e-14)


def test_ball_projection_clips_outside():
    x0 = np.array([4.0, 0.0])
    info = make_info(x0, np.zeros((1, 2)), [0.0])
    inner = GsaSpec(name="hold", prefactors=lambda n, info: PrefactorRow(1.0, np.zeros(n)))
    row = with_ball_projection(inner, 1.0).row(1, info)
    assert row.h_x == pytest.approx(0.25)   # ‖x̃‖ = 4, radius 1


def test_sphere_projection_degenerate():
    info = InfoView(f_values=[0.0], grad_gram=[[0.0]], x0_grad=[0.0], x0_norm_sq=0.0)
    inner = GsaSpec(name="zero", prefactors=lambda n, info: PrefactorRow(0.0, np.zeros(n)))
    with pytest.raises(DegenerateProjectionError):
        with_sphere_projection(inner, 1.0).row(1, info)
