"""Shared covariance-matrix assembly and the conditioning states of a path.

Both the N→∞ predictor and the finite-N simulator condition the block of
(function value, directional derivatives) at a new point on the same block at
all previous points.  The only difference between them is where the point
coordinates come from — limiting representation vectors versus realized
previsible coordinates — so the matrix assembly lives here once, fed
coordinate rows, next to the conditioning states.

Coordinates are with respect to an orthonormal direction system v_0, …,
v_{D−1}: a point with coordinate row y has ⟨y, v_i⟩ = y[i], ⟨y, y'⟩ = y·y',
and ⟨v_i, v_j⟩ = δ_ij.  ``cov_block``/``mean_block`` lay rows out row-major
over derivative type then point: the flattened vector reads (f at all points,
D_{v_0} at all points, …, D_{v_{D−1}} at all points).  All outputs are on the
dimension-free scale; the 1/N covariance factor is applied by callers.  The
coordinate rows may carry leading batch axes, one entry per path, and every
output then carries them too.

Two conditioning states step a path with these blocks, one per recursion,
and each takes a whole step in one ``extend(Y)``: it observes the new
point's rows, reads σ_w² off a grown κ₃ factor, and opens the direction the
point's gradient opens, returning (rows, σ_w², corner), where the corner is
the gradient's coordinate along that direction.  ``SpanState``, the
finite-N sampler's, keeps the history in arrival order instead: every
visited point has a zero coordinate along each direction opened after it,
so the history block of one step is a leading block of the next one's, and
a step only appends rows — the new point's (f, D_{v_0..D−1}) rows, then the
D_{v_D} rows of the newly opened direction at every point, which are
uncorrelated with all older rows.  Extending the factor by k rows
costs O(m²k) for m history rows, where re-assembling and re-factoring the
history would cost O(m³).  The direction rows' covariance is the κ₃ matrix
of the points so far, so each direction block's factor is the state's
``k3_factor`` bordered by one κ₃ row, whose pivot squared is σ_w², and that
bordered factor is both the new ``k3_factor`` and the new block's factor
rows.  The state keeps only the factor's rows: a run's jitter acts on its
point rows only, and a jitter escalation reads the history covariance back
off the factor it is leaving.
A member past the jitter ladder factors its point blocks by their
eigen-factors and whitens them by their pseudo-inverses, in the same block
recursion (the generalised Schur complement of a positive semi-definite
matrix; Albert, SIAM J. Appl. Math. 1969).  One state steps a batch of B
paths that share this row structure — the same number of points and
directions — as stacked (B, ·, ·) arrays.

``LimitState`` steps the N→∞ limit.  There the new point's rows are observed
at their conditional mean, so their innovation is exactly 0 and they can
never move a later mean.  Only the direction rows do, and each direction's
covariance, the κ₃ matrix of the points so far, is a leading block of the
next one's.  The limit therefore keeps one lower factor L of the κ₃ matrix,
grown by one row per opened direction, and a fixed weight matrix against
the direction rows, one column per direction: a step solves the new κ₃
column through L, reads σ_w² off the new pivot, and forms its conditional
mean as one ``KernelModel.weighted_rows`` contraction over the history
points, with no ``cov_block`` column.  The limit alone checks that its
points stay apart and applies the rank-stall rule, under which a step may
open no direction.
Both states open a step in ``_State._open``, which checks the new point,
evaluates the kernel's partials once over its pairs with every point, reads
its κ₃ column off them, requires κ₃ > 0 at the new point and forms its
mean, and both border their ``k3_factor`` by that column in
``_State._bordered``.
That is the one ``derivatives`` call of a step in either state: the
sampler's ``cov_block`` column of the new point and the limit's
``weighted_rows`` contraction read the same partials.  Callers with no
step, such as ``joint_blocks``, evaluate the partials of their own grid
once and hand them to ``cov_block``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussianops, kernels
from .errors import (
    CoincidentPointsError,
    DegenerateKernelError,
    KernelDomainError,
    RankStallError,
)
from .gaussianops import condition

#: τ, the floor of a sampled κ₃ pivot² relative to κ₃(new, new): below it the
#: new point's κ₃ row is numerically in the span of the earlier ones (Higham,
#: "Analysis of the Cholesky decomposition of a semi-definite matrix", 1990),
#: and the floor keeps the bordered factor nonsingular, so a rank-deficient κ₃
#: matrix such as the quadratic kernel's rank-one one still opens a direction
PIVOT_FLOOR = 1e-12
#: a limit σ_w² at or below this is a span-dimension stall
RANK_STALL_TOL = 1e-12
#: limiting evaluation points closer than this violate the distinctness claim
COINCIDENT_TOL = 1e-10


def coordinate_inner_products(reps):
    """Norm-halves s_k = ‖y_k‖²/2 and the Gram ⟨y_k, y_l⟩ of coordinate rows."""
    Y = np.asarray(reps, dtype=float)
    ip = Y @ Y.swapaxes(-1, -2)
    return 0.5 * ip.diagonal(axis1=-2, axis2=-1), ip


def cov_block(kernel, Ya, Yb, parts):
    """Covariance between the (f, D_{v_0..D−1}) rows at the points of Ya
    and those at the points of Yb.

    Ya (…, a, D) and Yb (…, b, D) are the two points' coordinate rows;
    ``parts`` the kernel's partials over the (a, b) grid, (…, a, b) each, as
    ``KernelModel.cov_pair_block`` reads them.  Returns shape
    ((D+1)·a, (D+1)·b) in the row-major layout, after the leading batch
    axes.
    """
    (a, D), b = Ya.shape[-2:], Yb.shape[-2]
    # one pair block per (a, b): (…, a, b, i, j) laid out as (…, i, a, j, b)
    pairs = kernel.cov_pair_block(Ya[..., :, None, :], Yb[..., None, :, :], parts)
    lead = pairs.ndim - 4
    return pairs.transpose(*range(lead), lead + 2, lead, lead + 3, lead + 1).reshape(
        pairs.shape[:lead] + ((D + 1) * a, (D + 1) * b))


def mean_block(kernel, Y, s):
    """Mean of the flattened (f, D_{v_i}) rows at every point of Y (…, n, D),
    with norm-halves s (…, n)."""
    n, D = Y.shape[-2:]
    m = np.empty(Y.shape[:-2] + (D + 1, n))
    # a mean may return μ or μ′ as a constant scalar, which broadcasts as is
    mu, slope = kernel.mean(s)
    m[..., 0, :] = mu
    m[..., 1:, :] = (np.asarray(slope)[..., None] * Y).swapaxes(-1, -2)
    return m.reshape(Y.shape[:-2] + ((D + 1) * n,))


@dataclass
class AssembledStep:
    """Blocks for conditioning the new point's rows on the history rows."""

    mean_hist: np.ndarray
    mean_new: np.ndarray
    S_hh: np.ndarray
    S_hn: np.ndarray
    S_nn: np.ndarray


def joint_blocks(kernel, reps, new_rep) -> AssembledStep:
    """Assemble history/new covariance blocks from coordinate rows.

    reps: (n, D) rows of the n history points; new_rep: (D,) row of the new
    point.  Domain validity of every pairwise configuration is checked once,
    and the kernel's partials are evaluated once over all point pairs: the
    blocks are slices of one ``cov_block`` over the n + 1 points.
    """
    reps = np.atleast_2d(np.asarray(reps, dtype=float))
    new_rep = np.asarray(new_rep, dtype=float)
    n, D = reps.shape
    Y = np.vstack([reps, new_rep[None, :]])
    s, ip = coordinate_inner_products(Y)
    grid = (s[:, None], s[None, :], ip)
    kernels.check_domain(*grid)
    S = cov_block(kernel, Y, Y, kernel.derivatives(*grid))
    mean = mean_block(kernel, Y, s)
    new = np.arange(D + 1) * (n + 1) + n       # the new point's row of each type
    hist = np.delete(np.arange(len(mean)), new)
    return AssembledStep(mean_hist=mean[hist], mean_new=mean[new], S_hh=S[np.ix_(hist, hist)],
                         S_hn=S[np.ix_(hist, new)], S_nn=S[np.ix_(new, new)])


def flatten_history(values, coord_rows):
    """Lay out observed (f values, derivative coordinates) row-major.

    values: length-n f values; coord_rows: (n, D) derivative coordinates
    (structural zeros included).  Order matches cov_block/mean_block.
    """
    coord_rows = np.atleast_2d(np.asarray(coord_rows, dtype=float))
    return np.concatenate([np.asarray(values, dtype=float), coord_rows.T.ravel()])


def k3_matrix(kernel, s, ip):
    """κ₃(s_k, s_l, ⟨y_k, y_l⟩) over all point pairs, from norm-halves s and Gram ip."""
    return kernel.derivatives(s[..., :, None], s[..., None, :], ip)[3]


def residual_variance(kernel, reps):
    """Variance of the new point's gradient component outside the visited span.

    reps: (n+1, D) coordinate rows with the newest point last.  Returns
    κ₃(new, new) minus the quadratic form of the history κ₃ block — the
    Schur complement of the newest entry in the κ₃ matrix — conditioned
    from scratch.
    """
    s, ip = coordinate_inner_products(reps)
    kernels.check_domain(s[..., :, None], s[..., None, :], ip)
    W, zeros = k3_matrix(kernel, s, ip), np.zeros(len(s))
    return float(condition(zeros[:-1], zeros[-1:], W[:-1, :-1], W[:-1, -1:], W[-1:, -1:],
                           zeros[:-1]).cond_cov[0, 0])


class _Arrival:
    """One block of rows appended to a ``SpanState``, stacked over the batch.

    ``L`` holds the block's rows of the factor, (B, k, left + k), from
    column ``start − left`` through the block's own diagonal columns, up to
    ``stop`` = start + k; a block uncorrelated with every older row stores
    no left part (left = 0).  ``inv`` (B, k, k) inverts the factor's
    diagonal block.  The diagonal block of a pseudo-inverse member's point
    block is the eigen-factor of its conditional covariance, and ``inv`` its
    pseudo-inverse.  An escalation rewrites L and inv in place, so their
    shapes, and ``stop`` and ``left``, stay fixed.
    """

    def __init__(self, start, L, inv):
        self.start, self.L, self.inv = start, L, inv
        self.stop = start + L.shape[1]
        self.left = L.shape[2] - L.shape[1]


class _State:
    """What both conditioning states keep and check for a batch of B paths:
    the part of ``extend`` that does not depend on how the new point's rows
    are observed.  ``_open`` checks the new point and reads what both
    states need of it; ``_bordered`` grows ``k3_factor``, the lower factor
    (B, p, p) of the κ₃ matrix over the points that opened a direction, by
    the new point's row, and each state assigns the result when its
    direction opens."""

    def __init__(self, kernel, batch):
        self.kernel = kernel
        self.batch = batch
        self.points = 0
        self.k3_factor = np.empty((batch, 0, 0))

    def _open(self, Y):
        """(n, D, parts, k, mean) of the points Y, (B, n+1, D), the new
        point last: its index, the width, the kernel's partials over the new
        point's n + 1 pairs, laid out as the (B, n+1, 1) column of the pair
        grid that ``cov_block`` reads, their κ₃ column k (B, n+1), a
        constant κ₃ broadcast over the pairs, and the new point's mean.  The
        points' norm-halves and Gram are formed here and read by nothing
        else.  Checks the batch size, the point count and the new point
        against the kernel's domain, and raises DegenerateKernelError unless
        κ₃ > 0 at the new point."""
        n, D = Y.shape[1] - 1, Y.shape[2]
        if Y.shape[0] != self.batch:
            raise ValueError(f"state steps {self.batch} paths, got {Y.shape[0]}")
        if n != self.points:
            raise ValueError(f"state holds {self.points} points, got {n} history rows")
        s, ip = coordinate_inner_products(Y)
        kernels.check_domain(s[:, n:], s, ip[:, n])
        parts = self.kernel.derivatives(s[:, :n + 1, None], s[:, n:, None], ip[:, :n + 1, n:])
        k = parts[3]
        k = k[..., 0] if getattr(k, "ndim", 0) else np.full((self.batch, n + 1), k)
        if (k[:, n] <= 0).any():
            raise DegenerateKernelError(f"step {n}: κ₃ = {k[:, n].min():g} at the new "
                                        "point; no gradient mass outside the span")
        return n, D, parts, k, mean_block(self.kernel, Y[:, n:], s[:, n:])

    def _bordered(self, k):
        """(F, σ²): ``k3_factor`` L (B, p, p) bordered by the new point's κ₃
        column k (B, p+1), so that F is [[L, 0], [l, √σ²]] with
        l = L⁻¹·k[:p] and σ² = k[p] − l·l, the Schur complement of the new
        entry.  A σ² ≤ 0 has no such row, and its pivot reads 0."""
        L = self.k3_factor
        p = L.shape[1]
        l = np.linalg.solve(L, k[:, :p, None])[:, :, 0]
        sigma_sq = k[:, p] - (l * l).sum(axis=1)
        F = np.zeros((len(L), p + 1, p + 1))
        F[:, :p, :p] = L
        F[:, p, :p] = l
        F[:, p, p] = np.sqrt(np.maximum(sigma_sq, 0.0))
        return F, sigma_sq


class LimitState(_State):
    """Conditioning state of one path in the N→∞ limit.

    There every new point's rows are observed at their conditional mean, so
    their innovation is 0 and they never move a later mean: only the rows
    D_{v_j} f(y_a) of the opened directions do, at the points a up to the
    step that opened v_j.  The state keeps ``k3_factor``, the lower factor
    (1, p, p) of the κ₃ matrix over the p points ``k3_points`` whose step
    opened a direction, grown by one row per opened direction, and
    ``weights`` (1, points, width), where weights[0, a, j] is the entry of
    u = S⁻¹·(observed − mean) at the row D_{v_j} f(y_a), S the covariance
    of the direction rows.  A new point's conditional mean is then its mean
    plus Σ_a Σ_j w[a, j]·Cov(D_{v_j} f(y_a), its rows): one
    ``KernelModel.weighted_rows`` contraction, O(n·D) kernel work for n
    points.  Each direction's weights are fixed when it opens: those of the
    direction opened at point n are L⁻ᵀ·e_n, since its coordinate there,
    the corner, is the new pivot √σ_w², and its column is 0 at every later
    point.  A point whose step opened nothing never enters the factor, and
    its weights are 0.  The limit factors no point block, so it needs no
    jitter.

    The limit also keeps what only it checks: ``dists``, each point's
    distances to the points before it, and ``frozen``, the steps whose
    rank stall ``on_rank_stall="freeze"`` absorbed.
    """

    def __init__(self, kernel, on_rank_stall: str = "error"):
        if on_rank_stall not in ("error", "freeze"):
            raise ValueError(f"on_rank_stall must be 'error' or 'freeze', got {on_rank_stall!r}")
        super().__init__(kernel, 1)
        self.on_rank_stall = on_rank_stall
        self.k3_points = np.empty(0, dtype=int)
        self.weights = np.empty((1, 0, 0))
        self.dists = []
        self.frozen = []

    def extend(self, Y):
        """Take the step of the point Y[:, -1]; Y (1, n+1, D) holds the
        history points' coordinate rows followed by the new point's.

        A point within COINCIDENT_TOL of an earlier one raises
        CoincidentPointsError.  The (f, D_{v_0..D−1}) rows are observed at
        their conditional mean given the direction rows, the mean plus their
        ``weighted_rows``: one ``derivatives`` call over the pairs of the
        new point with every point gives the κ₃ column, read at the factor's
        points and solved through the factor, and the history pairs'
        partials, which ``weighted_rows`` contracts; σ_w² is the squared
        pivot that the κ₃ row would have.  A non-finite κ₃ column, mean or
        conditional mean raises KernelDomainError.

        Returns the rows (1, D+1), σ_w² (1,) and the corner (1,), √σ_w²,
        after opening v_D: the κ₃ factor gains the new point's row and
        ``weights`` the column D.  At σ_w² ≤ RANK_STALL_TOL the span has
        stopped growing: that raises RankStallError, or under "freeze" opens
        nothing and returns the corner None.  Nothing changes on an error.
        """
        Y = np.asarray(Y, dtype=float)
        n = Y.shape[1] - 1
        # the reduction np.linalg.norm(·, axis=1) runs on real input
        diff = Y[0, :n] - Y[0, n]
        dists = np.sqrt(np.add.reduce(diff * diff, axis=1))
        too_close = (dists <= COINCIDENT_TOL).nonzero()[0]
        if too_close.size:
            raise CoincidentPointsError(
                f"step {n} revisits step {too_close[0]}: limiting points coincide "
                f"(distance {dists[too_close[0]]:.3e})")
        n, D, parts, k, mean = self._open(Y)
        k = k[:, np.concatenate((self.k3_points, [n]))]     # at the factor's points, then n
        w = np.zeros((1, n + 1, D + 1))        # column D for the direction v_D opens
        w[:, :n, :self.weights.shape[2]] = self.weights
        # a partial may be a constant scalar, which broadcasts as is
        history = [p[..., :n, 0] if getattr(p, "ndim", 0) else p for p in parts]
        observed = mean + self.kernel.weighted_rows(Y[:, :n], Y[:, n], w[:, :n, :D], history)
        if not (np.isfinite(k).all() and np.isfinite(mean).all() and np.isfinite(observed).all()):
            raise KernelDomainError(f"step {n}: non-finite entries in the new point's "
                                    "κ₃ column, mean or conditional mean")
        F, sigma_sq = self._bordered(k)
        stalled = sigma_sq[0] <= RANK_STALL_TOL
        if stalled and self.on_rank_stall == "error":
            if sigma_sq[0] < 0:
                raise RankStallError(
                    f"step {n}: residual variance σ²_w = {sigma_sq[0]:.3e} < 0; the κ₃ "
                    "pivot has run out of float64 digits, so whether the gradient span "
                    "still grows is not resolved")
            raise RankStallError(
                f"step {n}: residual variance σ²_w = {sigma_sq[0]:.3e} ≤ "
                f"{RANK_STALL_TOL:g}; gradient span stopped growing")
        self.points += 1
        self.dists.append(dists)
        if stalled:
            self.frozen.append(n)
            self.weights = w[:, :, :D]
            return observed, sigma_sq, None
        p = F.shape[1] - 1
        last = np.zeros((1, p + 1, 1))           # e_p
        last[0, p, 0] = 1.0
        self.k3_factor = F
        self.k3_points = np.concatenate((self.k3_points, [n]))
        w[:, self.k3_points, D] = np.linalg.solve(F.swapaxes(1, 2), last)[:, :, 0]
        self.weights = w
        return observed, sigma_sq, F[:, p, p]       # the corner: the new pivot √σ_w²


class SpanState(_State):
    """Conditioning state of a batch of sampled paths at dimension N, one
    per generator in ``rngs``: the lower factor L of S + j·P, where S is the
    history covariance with rows in arrival order and P the diagonal
    indicator of the point rows, and the whitened innovation
    z = L⁻¹·(observed − mean), each stacked over the batch.  Every path of
    a batch has the same rows; only their values differ, and every member is
    stepped in the one stack.

    Each ``extend`` appends the new point's block, then the block of the
    direction its gradient opens: the sampled span always grows.  L is kept
    as the rows of each arrival block (see ``_Arrival``) and extended by
    block forward substitution, one arrival block at a time, inverting only
    the small diagonal blocks.  A direction block's factor rows are
    ``k3_factor``, the κ₃ factor over the points before, bordered by the new
    point's κ₃ row; they carry no jitter, so σ_w² is that row's pivot
    squared, floored at PIVOT_FLOOR·κ₃(new, new), and the floored factor
    becomes ``k3_factor``.  A point block is factored in ``_point_block``
    at each member's jitter j (``jitter``), which climbs the jitter ladder
    only when the member's new point block fails to factor: ``_escalate``
    reads the member's S + j·P off its factor and replays its point blocks
    in arrival order at the first rung above j at which all of them factor,
    leaving its direction blocks as they are.  It never needs to come down,
    because each step's history is a leading block of the next one's.  The
    walk is ``gaussianops.first_rung``: past the last rung the run raises
    NotPsdError, or with ``pseudo_inverse`` takes j = +inf as the last
    rung: from then on the member's point blocks are factored by
    the eigen-factor V·√w of their conditional covariance, dropping the
    eigenvalues w at or below PSEUDO_RTOL times the largest diagonal entry
    of the block's S_nn (``gaussianops.eigen_factor``, the pseudo-inverse
    rule ``condition`` and ``sample_mvn`` share), and whitened by its
    pseudo-inverse, so L·Lᵀ is S with those directions removed and L is
    block lower triangular.  A member's results are bitwise those of the
    same path stepped alone.
    """

    def __init__(self, kernel, rngs, N, pseudo_inverse: bool = False):
        super().__init__(kernel, len(rngs))
        self.rngs, self.N = rngs, N
        self._types = np.empty(0, dtype=int)    # 0 for f, i + 1 for D_{v_i}
        self._at = np.empty(0, dtype=int)       # point of each row
        self.pseudo_inverse = pseudo_inverse
        self.jitter = np.zeros(self.batch)      # +inf after a pseudo switch
        self._blocks: list[_Arrival] = []
        self._resid = np.empty((self.batch, 0))     # observed − mean
        self._z = np.empty((self.batch, 0))

    @property
    def labels(self):
        """(derivative type, point) of each stored row in arrival order;
        type 0 is f and type i + 1 is D_{v_i}."""
        return self._types.copy(), self._at.copy()

    def factor(self, members=slice(None)) -> np.ndarray:
        """The factors L of S + j·P of the given members, (B, m, m), in
        arrival order; block lower triangular for a pseudo-inverse member."""
        m = len(self._types)
        L = np.zeros((len(self.jitter[members]), m, m))
        for blk in self._blocks:
            L[:, blk.start:blk.stop, blk.start - blk.left:blk.stop] = blk.L[members]
        return L

    def extend(self, Y):
        """Take the step of the points Y[:, -1]; Y (B, n+1, D) holds the
        history points' coordinate rows followed by the new point's.

        The kernel's partials are evaluated once, over the pairs of the new
        point with every point: the κ₃ column and the new point's
        ``cov_block`` column both read them.
        The (f, D_{v_0..D−1}) rows are conditioned on the history and
        observed at cond_mean + L_nn·ξ/√N with ξ = rng.standard_normal(D+1)
        from the member's generator and L_nn the new point block's diagonal
        factor; a conditional covariance of exactly zero draws nothing.  A
        member whose new block fails to factor escalates its jitter, and the
        block is factored again.  σ_w² is the Schur complement of the new
        point's entry in the points' κ₃ matrix K, floored at
        PIVOT_FLOOR·κ₃(new, new): the squared pivot of the row that borders
        ``k3_factor``, chol(K) over the points before, with the new point's
        κ₃ column.  The floored factor becomes ``k3_factor``.  Then each
        member draws χ² = sample_chi_square(N − D, rng), and v_D opens with
        the corner √(σ_w²·χ²/N): its rows D_{v_D} at every point, which read
        0 at the older points, are uncorrelated with every older row and have
        ``k3_factor`` as their factor rows.

        Returns the rows (B, D+1), σ_w² (B,) and the corner (B,).
        """
        Y = np.asarray(Y, dtype=float)
        n, D, parts, k, mean = self._open(Y)
        S_hn, S_nn = self._new_point(Y, n, parts, k, mean)
        while True:
            try:
                Wt, C, L_nn, inv = self._point_block(S_hn, S_nn, self.jitter)
                break
            except np.linalg.LinAlgError:
                for b in range(self.batch):
                    try:
                        self._point_block(S_hn[[b]], S_nn[[b]], self.jitter[[b]], [b])
                    except np.linalg.LinAlgError:
                        self._escalate(b, f"step {n}: the new point's rows ({D + 1}×{D + 1})")
        cond_mean = mean + (Wt @ self._z[:, :, None])[:, :, 0]
        drawn = C.any(axis=(1, 2))
        xi = np.zeros(cond_mean.shape)
        for b in drawn.nonzero()[0]:
            self.rngs[b].standard_normal(out=xi[b])
        noise = (L_nn @ xi[:, :, None])[:, :, 0] / math.sqrt(self.N)
        observed = np.where(drawn[:, None], cond_mean + noise, cond_mean)

        F, sigma_sq = self._bordered(k)
        sigma_sq = np.maximum(sigma_sq, PIVOT_FLOOR * k[:, n])
        F[:, n, n] = np.sqrt(sigma_sq)
        self.k3_factor = F          # and the factor rows of the direction block below
        self._append(observed - mean, np.arange(D + 1), np.full(D + 1, n),
                     np.concatenate([Wt, L_nn], axis=2), inv, observed - cond_mean)
        self.points += 1
        chi = np.array([gaussianops.sample_chi_square(self.N - D, rng) for rng in self.rngs])
        corner = np.sqrt((sigma_sq / self.N) * chi)
        values = np.zeros((self.batch, self.points))       # 0 at the older points
        values[:, n] = corner
        self._append(values, np.full(self.points, D + 1), np.arange(self.points),
                     F, np.linalg.inv(F), values)
        return observed, sigma_sq, corner

    def _new_point(self, Y, n, parts, k, mean):
        """(S_hn, S_nn) of the (f, D_{v_0..D−1}) rows of the new point n of
        the points Y (B, n+1, D): their covariances with the stored rows,
        (B, m, D+1), and with themselves, (B, D+1, D+1), read off one
        ``cov_block`` column of every point against the new one, fed the
        partials ``parts`` (B, n+1, 1) that ``_open`` evaluated; a constant
        scalar partial broadcasts as is.  A non-finite entry of the blocks,
        of the κ₃ column k (B, n+1) or of the mean raises
        KernelDomainError."""
        col = cov_block(self.kernel, Y, Y[:, n:], parts)
        S_hn = col[:, self._types * (n + 1) + self._at]
        S_nn = col[:, np.arange(Y.shape[2] + 1) * (n + 1) + n]
        if not all(np.isfinite(a).all() for a in (k, S_hn, S_nn, mean)):
            raise KernelDomainError(
                f"step {n}: non-finite entries in the new point's covariance or mean")
        return S_hn, S_nn

    # -- factor maintenance ---------------------------------------------------

    def _append(self, resid, types, at, L_rows, inv, innovation):
        """Append a block of rows with their factor rows, the inverse of
        its diagonal block and their innovations."""
        z = (inv @ innovation[:, :, None])[:, :, 0]
        self._blocks.append(_Arrival(start=self._resid.shape[1], L=L_rows, inv=inv))
        self._z = np.concatenate([self._z, z], axis=1)
        self._resid = np.concatenate([self._resid, resid], axis=1)
        self._types = np.concatenate([self._types, types])
        self._at = np.concatenate([self._at, at])

    def _forward(self, B, members=slice(None)):
        """L⁻¹·B of the given members by block forward substitution, over
        the blocks of B's rows, a leading set of the stored ones."""
        X = np.empty(B.shape)
        for blk in self._blocks:
            a, b, left = blk.start, blk.stop, blk.left
            if a == B.shape[1]:
                break
            rhs = B[:, a:b]
            if left:
                rhs = rhs - blk.L[members, :, :left] @ X[:, a - left:a]
            X[:, a:b] = blk.inv[members] @ rhs
        return X

    def _point_block(self, S_hn, S_nn, jitter, members=slice(None)):
        """(Wᵀ, C, L_nn, L_nn⁻¹) of a point block of the given members, whose
        rows have covariances S_hn (B, m, k) with the m stored rows before
        it and S_nn (B, k, k) with themselves: W = L⁻¹·S_hn through those
        rows' factor, the conditional covariance C = S_nn − WᵀW, and its
        factor at each member's rung j in ``jitter`` (B,), chol(C + j·I), or
        at j = +inf the eigen-factor of C and its pseudo-inverse,
        ``gaussianops.eigen_factor`` thresholded against max diag S_nn.  The
        block's factor rows are [Wᵀ, L_nn].  Raises LinAlgError when some
        member's C + j·I does not factor."""
        Wt = self._forward(S_hn, members).swapaxes(1, 2)
        C = S_nn - Wt @ Wt.swapaxes(1, 2)
        pseudo = np.isinf(jitter)
        A = C
        if jitter.any():
            eye = np.eye(C.shape[1])
            j = np.where(pseudo, 0.0, jitter)[:, None, None]
            A = np.where(pseudo[:, None, None], eye, np.where(j > 0.0, C + j * eye, C))
        L = np.linalg.cholesky(A)
        inv = np.linalg.inv(L)
        for b in pseudo.nonzero()[0]:
            L[b], inv[b] = gaussianops.eigen_factor(C[b], S_nn[b].diagonal().max())
        return Wt, C, L, inv

    def _escalate(self, b, block):
        """Move member b to the first rung j above its jitter at which all
        of its point blocks factor, and re-whiten its innovations.  The walk
        over the rungs, the jitter ladder's and then +inf with
        ``pseudo_inverse``, is ``gaussianops.first_rung``; ``block`` names
        the failing block in the NotPsdError it raises past the last rung.
        The member's S + j·P is read off its factor once.  At each rung the
        point blocks are re-run from that product through ``_point_block``
        in arrival order, as ``extend`` ran them, with the old j taken off
        the diagonal of each block, its f row and its derivative rows alike,
        so that they read S, also where a κ₃ pivot was floored; this
        rewrites their factor rows.  The direction blocks carry no jitter
        and stay; a rung that fails leaves the blocks before the failing one
        rewritten, for the next rung to replace."""
        (L,) = self.factor([b])
        S, old = L @ L.T, self.jitter[b]
        points = [blk for blk in self._blocks if self._types[blk.start] == 0]

        def replay(j):
            for blk in points:
                a, c = blk.start, blk.stop
                S_nn = S[None, a:c, a:c] - old * np.eye(c - a)
                Wt, _, L_nn, inv = self._point_block(
                    S[None, a:c, :a].swapaxes(1, 2), S_nn, np.array([j]), [b])
                blk.L[b] = np.concatenate([Wt[0], L_nn[0]], axis=1)
                blk.inv[b] = inv[0]

        _, self.jitter[b] = gaussianops.first_rung(replay, block, above=old,
                                                   pseudo_inverse=self.pseudo_inverse)
        self._z[b] = self._forward(self._resid[[b], :, None], [b])[0, :, 0]
