"""Tests for the dimension-free sampler and the brute-force oracle."""

import itertools
import math
from statistics import NormalDist
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grfspan import gaussianops
from grfspan.algorithms import (
    GsaSpec,
    PrefactorRow,
    fr_cg,
    gd,
    heavy_ball,
    nesterov,
    with_sphere_projection,
)
from grfspan.assembly import SpanState
from grfspan.errors import KernelDomainError, NotPsdError
from grfspan.limits import predict
from grfspan.kernels import (
    SchoenbergMixture,
    SpinGlassMixture,
    lift_stationary,
    quadratic_kernel,
    spin_glass_kernel,
    stationary_direct,
)
from grfspan.trajectories import (
    TrajectoryRecord,
    brute_force_path,
    empirical_halting_time,
    simulate_info_path,
    simulate_info_paths,
)

SE = lift_stationary(SchoenbergMixture(atoms=((1.0, 1.0),)))   # C(r) = e^{-r}
GD = gd(0.4)
HB = heavy_ball(0.4, 0.5)


# ---------------------------------------------------------------------------
# record structure and determinism
# ---------------------------------------------------------------------------

def test_determinism_bitwise():
    a = simulate_info_path(SE, GD, 1.0, 128, 5, stream_id=7, master_seed=42)
    b = simulate_info_path(SE, GD, 1.0, 128, 5, stream_id=7, master_seed=42)
    assert np.array_equal(a.f_values, b.f_values)
    assert np.array_equal(a.G, b.G)
    assert np.array_equal(a.x_coords, b.x_coords)
    assert np.array_equal(a.grad_gram, b.grad_gram)


def test_distinct_streams_differ():
    a = simulate_info_path(SE, GD, 1.0, 128, 2, stream_id=0, master_seed=42)
    b = simulate_info_path(SE, GD, 1.0, 128, 2, stream_id=1, master_seed=42)
    c = simulate_info_path(SE, GD, 1.0, 128, 2, stream_id=0, master_seed=43)
    assert not np.array_equal(a.f_values, b.f_values)
    assert not np.array_equal(a.f_values, c.f_values)


@pytest.mark.parametrize("lam", [1.0, 0.0])
@pytest.mark.parametrize("alg", [GD, HB], ids=["gd", "hb"])
def test_structural_zeros_bit_exact(lam, alg):
    # coordinates along directions introduced after step n are exactly zero,
    # not merely small
    for rep in range(10):
        r = simulate_info_path(SE, alg, lam, 64, 4, stream_id=rep, master_seed=3)
        d0 = 1 if lam > 0 else 0
        for n in range(5):
            assert r.dims[n] == d0 + n
            assert np.all(r.G[n, r.dims[n] + 1:] == 0.0)
            assert np.all(r.x_coords[n, r.dims[n]:] == 0.0)
            assert r.G[n, r.dims[n]] >= 0.0


def test_record_consistency():
    r = simulate_info_path(SE, GD, 1.5, 64, 4, stream_id=5, master_seed=9)
    assert r.steps == 4
    assert np.array_equal(r.grad_gram, r.G @ r.G.T)
    assert np.allclose(r.x0_grad, 1.5 * r.G[:, 0], rtol=0, atol=0)
    assert r.x0_norm_sq == 1.5 ** 2
    # the Gram matrix of realized gradients is positive semidefinite
    assert np.linalg.eigvalsh(r.grad_gram).min() > -1e-12


def test_iterates_follow_gradient_descent_update():
    # x_1 = x_0 - alpha * grad f(x_0), checked in previsible coordinates
    alpha = 0.3
    r = simulate_info_path(SE, gd(alpha), 1.0, 64, 3, stream_id=2, master_seed=17)
    x0 = np.zeros_like(r.x_coords[0])
    x0[0] = 1.0
    np.testing.assert_allclose(r.x_coords[1], x0 - alpha * r.G[0], atol=1e-14)
    np.testing.assert_allclose(
        r.x_coords[2], r.x_coords[1] - alpha * r.G[1], atol=1e-14)


def test_lam_zero_start():
    r = simulate_info_path(SE, GD, 0.0, 64, 3, stream_id=0, master_seed=1)
    assert r.dims[0] == 0
    assert np.all(r.x_coords[0] == 0.0)
    assert np.all(r.x0_grad == 0.0)
    assert r.x0_norm_sq == 0.0
    assert np.isfinite(r.f_values).all()


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

RECORD_ARRAYS = ("f_values", "grad_gram", "x0_grad", "G", "x_coords", "dims")
SPIN = spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 0.0, 1.0, 0.6)))


def assert_same_record(a, b):
    assert (a.N, a.lam, a.stream_id, a.master_seed) == (b.N, b.lam, b.stream_id, b.master_seed)
    for name in RECORD_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and np.array_equal(x, y), name
        assert np.array_equal(np.signbit(x), np.signbit(y)), name


@pytest.fixture
def escalations(monkeypatch):
    """(batch size, member, step, jitter afterwards) of every jitter
    escalation; a pseudo-inverse switch reads jitter +inf."""
    seen = []
    escalate = SpanState._escalate

    def spy(self, b, block):
        escalate(self, b, block)
        seen.append((self.batch, int(b), self.points, float(self.jitter[b])))

    monkeypatch.setattr(SpanState, "_escalate", spy)
    return seen


BATCH_CASES = {
    "gd": (SE, gd(0.4), 1.0, 64, 6),
    "heavy-ball": (SE, HB, 1.0, 256, 8),
    "fr_cg": (SE, fr_cg(0.3), 1.0, 10 ** 9, 8),
    "nesterov+sphere": (SPIN, with_sphere_projection(nesterov(0.2, 0.5), 1.0), 1.0, 64, 5),
    "gd-from-origin": (SE, gd(0.4), 0.0, 64, 5),
}


@pytest.mark.parametrize("case", BATCH_CASES)
def test_batch_members_equal_lone_runs(case):
    kernel, gsa, lam, N, steps = BATCH_CASES[case]
    streams = [3, 4, 5, 6, 7, 40, 41]
    batch = simulate_info_paths(kernel, gsa, lam, N, steps, streams, 9)
    assert [r.stream_id for r in batch] == streams
    for record, stream in zip(batch, streams):
        assert_same_record(record, simulate_info_path(kernel, gsa, lam, N, steps, stream, 9))
    assert simulate_info_paths(kernel, gsa, lam, N, steps, [], 9) == []


@pytest.mark.parametrize("case", ["heavy-ball", "nesterov+sphere"])
def test_stream_bits_do_not_depend_on_batch_composition(case):
    kernel, gsa, lam, N, steps = BATCH_CASES[case]
    wide = simulate_info_paths(kernel, gsa, lam, N, steps, range(60), 9)
    other = simulate_info_paths(kernel, gsa, lam, N, steps, [57, 12, 30, 200, 5], 9)
    for record in other[:3] + other[4:]:
        assert_same_record(record, wide[record.stream_id])


def test_members_escalating_at_different_steps_match_lone_runs(escalations):
    streams = range(8)
    batch = simulate_info_paths(SE, HB, 1.0, 64, 20, streams, 3)
    in_batch = [(b, step) for size, b, step, _ in escalations if size == len(streams)]
    # some members escalate, at different steps, and some never do
    assert len({step for _, step in in_batch}) >= 2
    assert {b for b, _ in in_batch} < set(streams)
    for record in batch:
        assert_same_record(record, simulate_info_path(SE, HB, 1.0, 64, 20,
                                                      record.stream_id, 3))


def _stall_at_first_step(n, info):
    """gd(0.4), except that a run whose first value is positive repeats x₀
    at step 1, which makes its history singular."""
    h_g = np.full(info.f_values.shape[:-1] + (n,), -0.4)
    if n == 1:
        h_g[info.f_values[..., 0] > 0] = 0.0
    return PrefactorRow(1.0, h_g)


def test_pseudo_inverse_member_inside_a_batch(escalations, monkeypatch):
    monkeypatch.setattr(gaussianops, "JITTER_LADDER", (0.0,))
    gsa = GsaSpec(name="stall", prefactors=_stall_at_first_step)
    batch = simulate_info_paths(SE, gsa, 1.0, 64, 4, range(8), 3, pseudo_inverse=True)
    stalled = {b for b, record in enumerate(batch) if record.f_values[0] > 0}
    switched = {b for size, b, _, jitter in escalations if size == 8 and math.isinf(jitter)}
    assert switched == stalled and 0 < len(stalled) < 8
    for record in batch:
        assert np.all(np.isfinite(record.f_values)) and np.all(np.isfinite(record.G))
        assert_same_record(record, simulate_info_path(SE, gsa, 1.0, 64, 4, record.stream_id, 3,
                                                      pseudo_inverse=True))


def test_ladder_then_pseudo_inverse_inside_a_batch(escalations):
    # σ_A = 70 scales the quadratic field's rows apart: every member climbs
    # the whole jitter ladder at step 0, and most later pass its top rung
    # and switch to the pseudo-inverse, each at its own step, beside
    # members that are still jittered
    kernel, gsa = quadratic_kernel(70.0, 0.5, 1.0), gd(0.3 / 70 ** 2)
    streams = range(8)
    batch = simulate_info_paths(kernel, gsa, 1.0, 64, 8, streams, 1, pseudo_inverse=True)
    ladder = list(gaussianops.JITTER_LADDER)[1:]
    switched = set()
    for b in streams:
        seen = [(step, j) for size, member, step, j in escalations
                if size == len(streams) and member == b]
        assert seen[:len(ladder)] == [(0, j) for j in ladder]
        later = seen[len(ladder):]
        assert len(later) <= 1 and all(step > 0 and j == math.inf for step, j in later)
        switched |= {(b, step) for step, _ in later}
    assert 0 < len(switched) < len(streams) and len({step for _, step in switched}) >= 2
    for record in batch:
        assert np.all(np.isfinite(record.f_values)) and np.all(np.isfinite(record.G))
        assert_same_record(record, simulate_info_path(kernel, gsa, 1.0, 64, 8, record.stream_id,
                                                      1, pseudo_inverse=True))
    # the pseudo-inverse draws the same law: at large N the runs approach the limit
    N = 10 ** 9
    f_limit = predict(kernel, gsa, 1.0, 8, on_rank_stall="freeze").f_limit
    bound = 3 * np.abs(f_limit).max() / math.sqrt(N)
    for record in simulate_info_paths(kernel, gsa, 1.0, N, 8, streams, 1, pseudo_inverse=True):
        assert np.abs(record.f_values - f_limit).max() <= bound


#: kernel, optimizer, and the number of null rows of the new point block's
#: conditional covariance at steps 0–6, which the field's identities fix.
#: ∇f of a degree-2 field is affine with a symmetric Hessian A: the
#: trapezoid rule f(xₙ) − f(xₙ₋₁) = ½⟨∇f(xₙ) + ∇f(xₙ₋₁), xₙ − xₙ₋₁⟩ and the
#: symmetry of A between the n − 1 earlier increments and the last give n
#: rows.  A pure p-spin satisfies Euler's f(x) = ⟨∇f(x), x⟩/p at each point;
#: on the pure 2-spin, where A's symmetry holds from x₀, that makes n + 1.
#: On the pure 3-spin, Euler's row is the only one, until gd's crowding
#: points add a near-null row at step 3.
NULL_ROW_CASES = {
    "1+2-spin heavy-ball": (SpinGlassMixture((0.0, math.sqrt(0.5), 1.0)), heavy_ball(0.3, 0.5),
                            [0, 1, 2, 3, 4, 5, 6]),
    "2-spin gd": (SpinGlassMixture((0.0, 0.0, 1.0)), gd(0.3), [1, 2, 3, 4, 5, 6, 7]),
    "3-spin gd": (SpinGlassMixture((0.0, 0.0, 0.0, 1.0)), gd(0.1), [1, 1, 1, 2, 2, 2, 2]),
}


@pytest.mark.parametrize("case", NULL_ROW_CASES)
def test_point_blocks_see_exactly_the_fields_null_rows(case, monkeypatch):
    # member 0 of a batch of 4 at N = 16 under the pseudo-inverse.  An
    # eigenvalue of C counts as null at or below 3e-10·max diag S_nn: the
    # null ones read at most 5.7e-11 (the 3-spin's crowded row; the exact
    # ones at most 2.3e-12), the others at least 1.8e-9
    mixture, gsa, expected = NULL_ROW_CASES[case]
    point_block, counts = SpanState._point_block, {}

    def spied(self, S_hn, S_nn, jitter, members=slice(None)):
        out = point_block(self, S_hn, S_nn, jitter, members)
        if members == slice(None):      # the batch's block, not an escalation's replay
            w = np.linalg.eigvalsh(out[1][0]) / S_nn[0].diagonal().max()
            counts[self.points] = int((w <= 3e-10).sum())
        return out

    monkeypatch.setattr(SpanState, "_point_block", spied)
    simulate_info_paths(spin_glass_kernel(mixture), gsa, 1.0, 16, 6, range(4), 1,
                        pseudo_inverse=True)
    assert [counts[n] for n in range(7)] == expected


PROPERTY_OPTIMIZERS = {
    "gd": gd(0.4),
    "heavy-ball": HB,
    "nesterov": nesterov(0.3, 0.5),
    "fr_cg": fr_cg(0.3),
    "stall": GsaSpec(name="stall", prefactors=_stall_at_first_step),
}
#: kernel family -> (kernel, sphere radius or None)
PROPERTY_KERNELS = {
    "lifted SE": (SE, None),
    "direct 2-atom": (stationary_direct(SchoenbergMixture(atoms=((0.7, 0.5), (0.3, 2.0)))), None),
    "spin glass + sphere": (spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 0.3, 0.7))), 1.0),
    "quadratic": (quadratic_kernel(1.0, 0.5, 1.0), None),
}
#: the (kernel family, λ) pairs drawn; a sphere run starts on its sphere
PROPERTY_STARTS = [(name, lam) for name, (_, radius) in sorted(PROPERTY_KERNELS.items())
                   for lam in ([radius] if radius else [1.0, 0.0])]
#: conditioning name -> (pseudo_inverse, jitter ladder)
PROPERTY_CONDITIONINGS = {
    "default": (False, gaussianops.JITTER_LADDER),
    "pseudo_inverse": (True, gaussianops.JITTER_LADDER),
    "no-jitter pseudo": (True, (0.0,)),
}


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(start=st.sampled_from(PROPERTY_STARTS),
       optimizer=st.sampled_from(sorted(PROPERTY_OPTIMIZERS)),
       conditioning=st.sampled_from(sorted(PROPERTY_CONDITIONINGS)),
       N=st.sampled_from([16, 64, 10 ** 9]),
       steps=st.integers(0, 6), seed=st.integers(0, 2 ** 16),
       streams=st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True))
# members escalating their jitter at different steps
@example(start=("lifted SE", 1.0), optimizer="heavy-ball", conditioning="default", N=64,
         steps=20, seed=3, streams=[7, 2, 5, 0, 3, 6, 1, 4])
# members switching to the pseudo-inverse beside members that never do
@example(start=("lifted SE", 1.0), optimizer="stall", conditioning="no-jitter pseudo", N=64,
         steps=4, seed=3, streams=[6, 1, 4, 0, 7])
def test_batch_member_is_bitwise_its_lone_run(start, optimizer, conditioning, N, steps, seed,
                                              streams):
    (kernel, radius), lam = PROPERTY_KERNELS[start[0]], start[1]
    gsa = PROPERTY_OPTIMIZERS[optimizer]
    pseudo_inverse, ladder = PROPERTY_CONDITIONINGS[conditioning]
    if radius is not None:
        gsa = with_sphere_projection(gsa, radius)
    with patch.object(gaussianops, "JITTER_LADDER", ladder):
        batch = simulate_info_paths(kernel, gsa, lam, N, steps, streams, seed,
                                    pseudo_inverse=pseudo_inverse)
        assert [r.stream_id for r in batch] == streams
        for record in batch:
            assert_same_record(record, simulate_info_path(kernel, gsa, lam, N, steps,
                                                          record.stream_id, seed,
                                                          pseudo_inverse=pseudo_inverse))


def test_pseudo_inverse_run_draws_past_a_singular_history(monkeypatch):
    # heavy-ball on the SE kernel drives the unjittered history singular; the
    # draw's conditional covariance is then rank-deficient as well
    monkeypatch.setattr(gaussianops, "JITTER_LADDER", (0.0,))
    record = simulate_info_path(SE, HB, 1.0, 64, 20, 3, 3, pseudo_inverse=True)
    assert np.all(np.isfinite(record.f_values)) and np.all(np.isfinite(record.G))
    assert np.all(np.isfinite(record.x_coords))
    batch = simulate_info_paths(SE, HB, 1.0, 64, 20, [1, 2, 3, 4], 3, pseudo_inverse=True)
    assert_same_record(batch[2], record)


def test_non_finite_covariance_is_a_numerical_error():
    # gd with a large step on a degree-5 spin glass overflows the kernel; the
    # default ladder runs out on a point block one step before that
    kernel = spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 1.0, 0.0, 0.0, 0.0, 3.0)))
    with pytest.raises(KernelDomainError, match=r"^stream 0: step \d+: floating-point overflow"):
        simulate_info_paths(kernel, gd(1.0), 1.0, 64, 12, [0, 1], 0, pseudo_inverse=True)
    with pytest.raises(NotPsdError, match=r"^stream 0: step 3: the new point's rows"):
        simulate_info_paths(kernel, gd(1.0), 1.0, 64, 12, [0, 1], 0)


def test_error_inside_a_batch_names_its_stream():
    # runs whose first value is below the threshold step to a non-finite point
    def prefactors(n, info):
        h_g = np.full(info.f_values.shape[:-1] + (n,), -0.4)
        h_g[info.f_values[..., 0] < -0.05] = np.nan
        return PrefactorRow(1.0, h_g)

    gsa = GsaSpec(name="broken", prefactors=prefactors)
    streams = list(range(20, 40))
    first = [simulate_info_path(SE, gd(0.4), 1.0, 64, 0, s, 3).f_values[0] for s in streams]
    bad = [s for s, f in zip(streams, first) if f < -0.05]
    assert bad and bad[0] != streams[0]
    with pytest.raises(KernelDomainError, match=rf"^stream {bad[0]}: "):
        simulate_info_paths(SE, gsa, 1.0, 64, 3, streams, 3)


def test_batch_error_that_no_lone_run_repeats_names_no_stream():
    # a row that fails only on a batch of more than one run: no stream fails
    # when rerun alone, so the batch raises its own error as it is
    def prefactors(n, info):
        if n == 2 and info.f_values.size > n:
            raise ValueError("fails on a batch")
        return GD.prefactors(n, info)

    gsa = GsaSpec(name="batch-only", prefactors=prefactors)
    with pytest.raises(ValueError, match="^fails on a batch$"):
        simulate_info_paths(SE, gsa, 1.0, 64, 3, [0, 1, 2], 3)
    for s in (0, 1, 2):
        (record,) = simulate_info_paths(SE, gsa, 1.0, 64, 3, [s], 3)
        assert record.f_values.shape == (4,)


# ---------------------------------------------------------------------------
# exact marginals at the start point
# ---------------------------------------------------------------------------

def test_value_marginal_step0():
    # f(x0) ~ N(0, C(0)/N) exactly for the centered stationary field
    M, N = 8000, 100
    records = simulate_info_paths(SE, GD, 1.0, N, 0, range(M), 2024)
    vals = np.array([r.f_values[0] for r in records])
    se_mean = math.sqrt(1.0 / (N * M))
    assert abs(vals.mean()) < 4 * se_mean
    assert abs(vals.var() - 1.0 / N) < 0.05 / N


def test_value_concentration_gaussian_rate():
    # tail frequencies sit under the dimension-scaled Gaussian bound
    # 2 exp(-N t^2 / (2 C(0)))
    M, N = 2000, 256
    records = simulate_info_paths(SE, GD, 1.0, N, 0, range(M), 55)
    vals = np.array([r.f_values[0] for r in records])
    for t in (0.05, 0.1, 0.2):
        freq = np.mean(np.abs(vals) >= t)
        assert freq <= 2.0 * math.exp(-N * t * t / 2.0)


def test_corner_chi_square_moments():
    # out-of-span gradient mass at step 0 is (kappa3/N) * chi2(N-1);
    # for this kernel kappa3 = 1 at the start point
    M, N = 4000, 64
    records = simulate_info_paths(SE, GD, 1.0, N, 0, range(M), 77)
    sq = np.array([r.G[0, 1] ** 2 for r in records])
    want = (N - 1) / N
    se = math.sqrt(2 * (N - 1)) / N / math.sqrt(M)
    assert abs(sq.mean() - want) < 4 * se


# ---------------------------------------------------------------------------
# the limit as the N → ∞ member of the same recursion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gsa", [gd(0.4), HB, fr_cg(0.3)], ids=lambda g: g.name)
def test_paths_converge_to_the_limit_at_rate_root_n(gsa):
    # every sampled path, not only the mean, is within O(N^{-1/2}) of predict:
    # the scaled deviation neither grows (the two recursions agree) nor
    # shrinks (the noise is there) over eight decades of N; f(x₀) carries the
    # block's noise alone, the Gram also the corner's
    curve = predict(SE, gsa, 1.0, 6)
    for N in (10 ** 12, 10 ** 16, 10 ** 20):
        records = simulate_info_paths(SE, gsa, 1.0, N, 6, range(20), 5)
        f0_dev = max(abs(r.f_values[0] - curve.f_limit[0]) for r in records)
        f_dev = max(np.max(np.abs(r.f_values - curve.f_limit)) for r in records)
        gram_dev = max(np.max(np.abs(r.grad_gram - curve.grad_gram_limit)) for r in records)
        for dev in (f0_dev, f_dev, gram_dev):
            assert 1.0 <= math.sqrt(N) * dev <= 10.0


# ---------------------------------------------------------------------------
# exact finite-N means on the 1+2-spin
# ---------------------------------------------------------------------------

def _wick_trace_moment(p):
    """E tr X²ᵖ, p ≥ 1, of the GOE matrix X of ``goe_trace_moments``, as the
    coefficients of N⁰..N^(p+1), by Wick's theorem: E X_ij·X_kl =
    δ_ik·δ_jl + δ_il·δ_jk, so each pairing of the 2p factors X[i_a, i_a+1]
    (indices cyclic), with each pair straight (i_a = i_b, i_a+1 = i_b+1) or
    twisted (i_a = i_b+1, i_a+1 = i_b), adds N to the power of its number of
    free index classes."""
    k, coeffs = 2 * p, [0] * (p + 2)

    def pairings(items):
        if not items:
            yield []
        for i in range(1, len(items)):
            for rest in pairings(items[1:i] + items[i + 1:]):
                yield [(items[0], items[i])] + rest

    def find(root, x):
        while root[x] != x:
            x = root[x]
        return x

    for pairing in pairings(list(range(k))):
        for twists in itertools.product((False, True), repeat=p):
            root = list(range(k))
            for (a, b), twist in zip(pairing, twists):
                a1, b1 = (a + 1) % k, (b + 1) % k
                for x, y in ((a, b1), (a1, b)) if twist else ((a, b), (a1, b1)):
                    root[find(root, x)] = find(root, y)
            coeffs[sum(find(root, x) == x for x in range(k))] += 1
    return coeffs


def test_goe_trace_moments_match_independent_counts():
    # Ledoux's recursion against N = 1, where X is one N(0, 2) entry and
    # E X²ᵖ = 2ᵖ·(2p − 1)!!, and against every Wick term through degree 10
    from semicircle_reference import goe_trace_moments
    assert goe_trace_moments(1, 10) == [2 ** p * math.prod(range(1, 2 * p, 2))
                                        for p in range(11)]
    wick = [_wick_trace_moment(p) for p in range(1, 6)]
    for N in range(1, 8):       # more points than a degree-6 polynomial has coefficients
        assert goe_trace_moments(N, 5)[1:] == [sum(c * N ** j for j, c in enumerate(coeffs))
                                               for coeffs in wick]


def _exact_mean_z(gsa, c1_sq, M, seed):
    """z = (sample mean − exact mean)/standard error of f_n and ‖∇f_n‖²,
    (2, T+1), over streams 0..M−1 of ``gsa`` at master seed ``seed`` on
    ξ(s) = c₁²s + s², λ = 1, N = EXACT_N, T = EXACT_T, default ladder."""
    from semicircle_reference import exact_curve
    kernel = spin_glass_kernel(SpinGlassMixture((0.0, math.sqrt(c1_sq), 1.0)))
    runs = [r for start in range(0, M, 500)
            for r in simulate_info_paths(kernel, gsa, 1.0, EXACT_N, EXACT_T,
                                         range(start, min(start + 500, M)), seed)]
    f, gram = exact_curve(gsa, c1_sq, 1, 1.0, EXACT_T, N=EXACT_N)
    sampled = np.array([[r.f_values for r in runs], [np.diagonal(r.grad_gram) for r in runs]])
    exact = np.array([f, [gram[n][n] for n in range(EXACT_T + 1)]], dtype=float)
    return (sampled.mean(axis=1) - exact) / (sampled.std(axis=1, ddof=1) / math.sqrt(M))


#: the exact-mean cases: (optimizer, c₁², master seed), with M = EXACT_M
#: streams each.  Seeds, M and the threshold were fixed before the first run:
#: a family-wise false alarm rate of 1e-3, Bonferroni over the 2 cases ×
#: (T + 1) steps × 2 statistics, which holds however strongly the steps of
#: a run are correlated
EXACT_N, EXACT_T, EXACT_M = 16, 5, 4000
EXACT_CASES = {"heavy-ball": (heavy_ball(0.3, 0.5), 0.5, 19),
               "nesterov": (nesterov(0.3, 0.5), 0.0, 20)}
EXACT_Z = NormalDist().inv_cdf(1 - 1e-3 / (2 * len(EXACT_CASES) * (EXACT_T + 1) * 2))


@pytest.mark.parametrize("case", EXACT_CASES)
def test_sampler_means_match_the_exact_finite_n_means(case):
    # every member escalates on this kernel, so this gates the ladder and its
    # replay against an oracle that shares no kernel code with the sampler
    gsa, c1_sq, seed = EXACT_CASES[case]
    z = _exact_mean_z(gsa, c1_sq, EXACT_M, seed)
    assert np.abs(z).max() < EXACT_Z, z


def test_exact_finite_n_means_catch_a_chi_square_off_by_one(monkeypatch):
    # the planted defect: each corner drawn with one degree of freedom too
    # many, a 1/N bias in ‖∇f‖², must fail the same threshold at half the M
    draw = gaussianops.sample_chi_square
    monkeypatch.setattr(gaussianops, "sample_chi_square", lambda dof, rng: draw(dof + 1, rng))
    gsa, c1_sq, _ = EXACT_CASES["heavy-ball"]
    assert np.abs(_exact_mean_z(gsa, c1_sq, EXACT_M // 2, 21)).max() > EXACT_Z


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_brute_force_step0_marginal():
    M, N = 3000, 8
    x0 = np.zeros(N)
    x0[0] = 1.0
    vals = np.array([
        brute_force_path(SE, GD, x0, 0, i, 314).f_values[0] for i in range(M)
    ])
    assert abs(vals.mean()) < 4 * math.sqrt(1.0 / (N * M))
    assert abs(vals.var() - 1.0 / N) < 0.08 / N


def test_brute_force_record_fields():
    x0 = np.zeros(16)
    x0[0] = 2.0
    r = brute_force_path(SE, GD, x0, 2, stream_id=1, master_seed=6)
    assert r.G is None and r.x_coords is None and r.dims is None
    assert r.N == 16 and r.lam == 2.0 and r.steps == 2
    assert np.linalg.eigvalsh(r.grad_gram).min() > -1e-10
    assert abs(r.x0_grad[0] ** 2) <= r.x0_norm_sq * r.grad_gram[0, 0] * (1 + 1e-12)


def test_brute_force_determinism():
    x0 = np.zeros(12)
    x0[0] = 1.0
    a = brute_force_path(SE, HB, x0, 3, stream_id=4, master_seed=99)
    b = brute_force_path(SE, HB, x0, 3, stream_id=4, master_seed=99)
    assert np.array_equal(a.f_values, b.f_values)
    assert np.array_equal(a.grad_gram, b.grad_gram)


def test_two_samplers_agree_on_means():
    # same law, different constructions: compare first moments loosely here
    # (full two-sample distribution tests run in the acceptance suite)
    M, N, steps = 600, 16, 2
    x0 = np.zeros(N)
    x0[0] = 1.0
    sim = simulate_info_paths(SE, GD, 1.0, N, steps, range(M), 101)
    f_sim = np.array([r.f_values[steps] for r in sim])
    g_sim = np.array([r.grad_gram[steps, steps] for r in sim])
    f_bf = np.empty(M)
    g_bf = np.empty(M)
    for i in range(M):
        b = brute_force_path(SE, GD, x0, steps, i, 202)
        f_bf[i], g_bf[i] = b.f_values[steps], b.grad_gram[steps, steps]
    for a, b in ((f_sim, f_bf), (g_sim, g_bf)):
        pooled = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / M)
        assert abs(a.mean() - b.mean()) < 5 * pooled


# ---------------------------------------------------------------------------
# other field families
# ---------------------------------------------------------------------------

def test_spin_glass_trajectory_runs():
    kernel = spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 0.0, 1.0, 0.6)))
    alg = with_sphere_projection(gd(0.2), radius=1.0)
    r = simulate_info_path(kernel, alg, 1.0, 64, 3, stream_id=0, master_seed=8)
    assert np.isfinite(r.f_values).all()
    assert np.isfinite(r.G).all()
    # projection keeps every iterate on the unit sphere
    norms = np.linalg.norm(r.x_coords, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)


def test_brute_force_pseudo_inverse_runs_past_the_ladder():
    # of 1 000 streams on this case, 615 is the one whose oracle run fails
    # the whole default ladder, in sample_mvn on a 17×17 block; the one
    # pseudo-inverse rule carries it to finite values
    kernel = spin_glass_kernel(SpinGlassMixture(coeffs=(0.0, 0.0, 1.0, 0.5)))
    x0 = np.eye(16)[0]
    with pytest.raises(NotPsdError, match="size 17"):
        brute_force_path(kernel, gd(0.1), x0, 4, 615, 1)
    r = brute_force_path(kernel, gd(0.1), x0, 4, 615, 1, pseudo_inverse=True)
    assert np.isfinite(r.f_values).all() and np.isfinite(r.grad_gram).all()
    assert r.f_values[4] == pytest.approx(-0.5994, abs=1e-4)


def test_quadratic_kernel_trajectory_runs():
    kernel = quadratic_kernel(sigma_A=1.0, sigma_eta=0.5, R=1.0)
    r = simulate_info_path(kernel, gd(0.1), 1.0, 64, 3, stream_id=0, master_seed=8)
    assert np.isfinite(r.f_values).all()
    # the span saturates: later residual corners carry (almost) no mass
    assert r.G[3, r.dims[3]] < 1e-4


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------

def test_simulate_argument_errors():
    with pytest.raises(ValueError):
        simulate_info_path(SE, GD, -1.0, 64, 2, 0, 0)
    with pytest.raises(ValueError):
        simulate_info_path(SE, GD, 1.0, 64, -1, 0, 0)
    with pytest.raises(ValueError):
        simulate_info_path(SE, GD, 1.0, 4, 2, 0, 0)   # N <= steps + 2


def test_simulate_rejects_a_fractional_dimension():
    # N is a dimension: a float that holds an integer, such as 1e9, is one
    with pytest.raises(ValueError, match=r"integer N .* got N=64\.5"):
        simulate_info_path(SE, GD, 1.0, 64.5, 2, 0, 0)
    assert simulate_info_path(SE, GD, 1.0, 1e9, 2, 0, 0).N == 1e9


def test_brute_force_argument_errors():
    with pytest.raises(ValueError):
        brute_force_path(SE, GD, np.ones(65), 2, 0, 0)     # N too large
    with pytest.raises(ValueError):
        brute_force_path(SE, GD, np.ones(32), 7, 0, 0)     # too many steps
    with pytest.raises(ValueError):
        brute_force_path(SE, GD, np.ones(4), 3, 0, 0)      # N <= steps + 2


# ---------------------------------------------------------------------------
# halting times
# ---------------------------------------------------------------------------

def test_empirical_halting_time_literal():
    rec = TrajectoryRecord(
        N=100, lam=1.0, f_values=np.zeros(3),
        grad_gram=np.diag([2.0, 0.5, 0.1]),
        x0_grad=np.zeros(3), x0_norm_sq=1.0, master_seed=0, stream_id=0)
    assert empirical_halting_time(rec, 0.6) == 1
    assert empirical_halting_time(rec, 0.5) == 1
    assert empirical_halting_time(rec, 0.3) == 2
    assert empirical_halting_time(rec, 0.05) == math.inf
    # step 0 never counts, even when already below threshold
    assert empirical_halting_time(rec, 5.0) == 1
