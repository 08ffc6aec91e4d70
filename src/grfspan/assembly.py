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

Two conditioning states step a path with these blocks, one per recursion.
``SpanState``, the finite-N sampler's, keeps the history in arrival order
instead: every visited point has a zero coordinate along each direction
opened after it, so the history block of one step is a leading block of the
next one's, and a step only appends rows — the new point's (f, D_{v_0..D−1})
rows, then the D_{v_D} rows of the newly opened direction at every point,
which are uncorrelated with all older rows.  Extending the factor by k rows
costs O(m²k) for m history rows, where re-assembling and re-factoring the
history would cost O(m³).  The direction rows' covariance is the κ₃ matrix
of the points so far, so each direction block's factor is the last one's
bordered by one κ₃ row, whose pivot squared is σ_w².  The state keeps only
the factor's rows: a run's jitter acts on its point rows only, and a jitter
escalation reads the history covariance back off the factor it is leaving.
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
points, with no ``cov_block`` column; one ``derivatives`` call over the new
point's pairs gives both the κ₃ column and the contraction's partials.
Both states share the checks of a new point and the bordering of a κ₃
factor by the new point's κ₃ column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateKernelError, KernelDomainError, NotPsdError
from .gaussianops import DEFAULT_POLICY, PSEUDO_RTOL, ConditionPolicy, condition

#: τ, the floor of a sampled κ₃ pivot² relative to κ₃(new, new): below it the
#: new point's κ₃ row is numerically in the span of the earlier ones (Higham,
#: "Analysis of the Cholesky decomposition of a semi-definite matrix", 1990),
#: and the floor keeps the bordered factor nonsingular, so a rank-deficient κ₃
#: matrix such as the quadratic kernel's rank-one one still opens a direction
PIVOT_FLOOR = 1e-12


def coordinate_inner_products(reps):
    """Norm-halves s_k = ‖y_k‖²/2 and the Gram ⟨y_k, y_l⟩ of coordinate rows."""
    Y = np.asarray(reps, dtype=float)
    if Y.ndim < 2:
        Y = np.atleast_2d(Y)
    ip = Y @ Y.swapaxes(-1, -2)
    return 0.5 * ip.diagonal(axis1=-2, axis2=-1), ip


def cov_block(kernel, Y, s, ip, A, B):
    """Covariance between the (f, D_{v_0..D−1}) rows at points A and points B.

    Y holds coordinate rows for all points; s, ip their norm-halves and Gram.
    Returns shape ((D+1)·|A|, (D+1)·|B|) in the row-major layout, after the
    leading batch axes of Y.
    """
    A = np.asarray(A, dtype=int)
    B = np.asarray(B, dtype=int)
    D = Y.shape[-1]
    # one kernel call over the (a, b) grid: (…, a, b, i, j) laid out as (…, i, a, j, b)
    pairs = kernel.cov_pair_block(s[..., A][..., :, None], s[..., B][..., None, :],
                                  ip[..., A[:, None], B[None, :]],
                                  Y[..., A, :][..., :, None, :], Y[..., B, :][..., None, :, :])
    lead = pairs.ndim - 4
    return pairs.transpose(*range(lead), lead + 2, lead, lead + 3, lead + 1).reshape(
        Y.shape[:-2] + ((D + 1) * len(A), (D + 1) * len(B)))


def mean_block(kernel, Y, s, A):
    """Mean of the flattened (f, D_{v_i}) rows at points A."""
    A = np.asarray(A, dtype=int)
    D = Y.shape[-1]
    m = np.empty(Y.shape[:-2] + (D + 1, len(A)))
    # a mean may return μ or μ′ as a constant scalar, which broadcasts as is
    mu, slope = kernel.mean(s[..., A])
    m[..., 0, :] = mu
    if D > 0:
        slope = np.asarray(slope)
        if slope.ndim:
            slope = slope[..., None, :]
        m[..., 1:, :] = slope * Y[..., A, :].swapaxes(-1, -2)
    return m.reshape(Y.shape[:-2] + ((D + 1) * len(A),))


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
    point.  Domain validity of every pairwise configuration is checked once.
    """
    reps = np.atleast_2d(np.asarray(reps, dtype=float))
    new_rep = np.asarray(new_rep, dtype=float)
    n, D = reps.shape
    Y = np.vstack([reps, new_rep[None, :]])
    s, ip = coordinate_inner_products(Y)
    kernels.check_domain(s[:, None], s[None, :], ip)
    hist = np.arange(n)
    new = np.array([n])
    return AssembledStep(
        mean_hist=mean_block(kernel, Y, s, hist),
        mean_new=mean_block(kernel, Y, s, new),
        S_hh=cov_block(kernel, Y, s, ip, hist, hist),
        S_hn=cov_block(kernel, Y, s, ip, hist, new),
        S_nn=cov_block(kernel, Y, s, ip, new, new),
    )


def flatten_history(values, coord_rows):
    """Lay out observed (f values, derivative coordinates) row-major.

    values: length-n f values; coord_rows: (n, D) derivative coordinates
    (structural zeros included).  Order matches cov_block/mean_block.
    """
    coord_rows = np.atleast_2d(np.asarray(coord_rows, dtype=float))
    return np.concatenate([np.asarray(values, dtype=float), coord_rows.T.ravel()])


def k3_matrix(kernel, s, ip):
    """κ₃(s_k, s_l, ⟨y_k, y_l⟩) over all point pairs, from norm-halves s and Gram ip."""
    return kernel.k3(s[..., :, None], s[..., None, :], ip)


def residual_variance(kernel, reps, policy=DEFAULT_POLICY):
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
                           zeros[:-1], policy).cond_cov[0, 0])


@dataclass
class _Arrival:
    """One block of rows appended to a ``SpanState``, stacked over the batch.

    ``L`` holds the block's rows of the factor, (B, k, left + k), from
    column ``start − left`` through the block's own diagonal columns; a
    block uncorrelated with every older row stores no left part (left = 0).
    ``inv`` (B, k, k) inverts the factor's diagonal block.  The diagonal
    block of a pseudo-inverse member's point block is the eigen-factor of
    its conditional covariance, and ``inv`` its pseudo-inverse.
    """

    start: int
    L: np.ndarray
    inv: np.ndarray

    @property
    def stop(self) -> int:
        return self.start + self.L.shape[1]

    @property
    def left(self) -> int:
        return self.L.shape[2] - self.L.shape[1]


class _State:
    """What both conditioning states keep and check for a batch of B paths:
    the part of ``extend`` that does not depend on how the new point's rows
    are observed.  ``_checked`` tests the batch size, the point count and
    the new point against the kernel's domain; ``_require_mass`` requires
    κ₃ > 0 at the new point; ``_bordered`` grows a κ₃ factor by the new
    point's row."""

    def __init__(self, kernel, batch):
        self.kernel = kernel
        self.batch = batch
        self.points = 0
        self._opens = None                      # what the last extend's direction would append

    def _checked(self, Y):
        """(n, D, s, ip) of the points Y, (B, n+1, D), the new point last:
        its index, the width, and their norm-halves and Gram, once it passes
        the checks every ``extend`` makes."""
        n, D = Y.shape[1] - 1, Y.shape[2]
        if Y.shape[0] != self.batch:
            raise ValueError(f"state steps {self.batch} paths, got {Y.shape[0]}")
        if n != self.points:
            raise ValueError(f"state holds {self.points} points, got {n} history rows")
        s, ip = coordinate_inner_products(Y)
        kernels.check_domain(s[:, n:], s, ip[:, n])
        return n, D, s, ip

    @staticmethod
    def _require_mass(n, kappa):
        """Raise DegenerateKernelError unless the κ₃ (B,) of the new point n
        is positive."""
        if (kappa <= 0).any():
            raise DegenerateKernelError(f"step {n}: κ₃ = {kappa.min():g} at the new "
                                        "point; no gradient mass outside the span")

    @staticmethod
    def _bordered(L, k):
        """(F, σ²): the lower factor L (B, p, p) of a κ₃ matrix bordered by
        the new point's κ₃ column k (B, p+1), so that F is
        [[L, 0], [l, √σ²]] with l = L⁻¹·k[:p] and σ² = k[p] − l·l, the
        Schur complement of the new entry.  A σ² ≤ 0 has no such row, and
        its pivot reads 0."""
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
    direction opened at point n are L⁻ᵀ·e_n scaled by its observed value
    over the pivot, and its column is 0 at every later point.  A point whose
    step opened nothing never enters the factor, and its weights are 0.
    The limit factors no point block, so it needs no jitter.

    Each step calls ``extend`` with the new point, which returns its σ_w²
    too, then ``open_direction`` unless the span did not grow.
    """

    def __init__(self, kernel):
        super().__init__(kernel, 1)
        self.k3_factor = np.empty((1, 0, 0))
        self.k3_points = np.empty(0, dtype=int)
        self.weights = np.empty((1, 0, 0))

    def extend(self, Y) -> tuple[np.ndarray, np.ndarray]:
        """Observe the (f, D_{v_0..D−1}) rows of the point Y[:, -1] at their
        conditional mean given the direction rows, the mean plus their
        ``weighted_rows``; Y (1, n+1, D) holds the history points'
        coordinate rows followed by the new point's.  Returns those rows,
        (1, D+1), and σ_w², (1,): one ``derivatives`` call over the pairs of
        the new point with every point gives the κ₃ column, read at the
        factor's points and solved through the factor, and the history
        pairs' partials, which ``weighted_rows`` contracts; σ_w² is the
        squared pivot that row would have.  A non-finite κ₃ column, mean or
        conditional mean raises KernelDomainError.  Nothing is appended
        until ``open_direction``; ``weights`` gains the new point's zero row.
        """
        Y = np.asarray(Y, dtype=float)
        n, D, s, ip = self._checked(Y)
        parts = self.kernel.derivatives(s[:, :n + 1], s[:, n:], ip[:, :n + 1, n])
        # κ₃ at the factor's points, then the new point
        k = parts[3][:, np.concatenate((self.k3_points, [n]))]
        self._require_mass(n, k[:, -1])
        w = np.zeros((1, n + 1, D))
        w[:, :n, :self.weights.shape[2]] = self.weights
        mean = mean_block(self.kernel, Y, s, [n])
        # a partial may be a constant scalar, which broadcasts as is
        history = [p[..., :n] if getattr(p, "ndim", 0) else p for p in parts]
        observed = mean + self.kernel.weighted_rows(s[:, :n], s[:, n], ip[:, :n, n],
                                                     Y[:, :n], Y[:, n], w[:, :n], history)
        if not (np.isfinite(k).all() and np.isfinite(mean).all() and np.isfinite(observed).all()):
            raise KernelDomainError(f"step {n}: non-finite entries in the new point's "
                                    "κ₃ column, mean or conditional mean")
        F, sigma_sq = self._bordered(self.k3_factor, k)
        self._opens = (F, sigma_sq, D)
        self.weights = w
        self.points += 1
        return observed, sigma_sq

    def open_direction(self, values):
        """Open v_D, the direction the last extended point's gradient opened,
        where ``values`` (1,) is its coordinate along it.  The κ₃ factor
        gains the new point's row [l, √σ_w²] that ``extend`` bordered it
        with, and ``weights`` the column D, L⁻ᵀ·e_n·values/√σ_w² at the
        factor's points, found by one solve; a σ_w² ≤ 0 has no such row and
        raises ValueError.  A step whose span did not grow skips this.
        """
        if self._opens is None:
            raise ValueError("open_direction needs a preceding extend")
        L, sigma_sq, D = self._opens
        if (sigma_sq <= 0).any():
            raise ValueError(f"no direction to open: σ_w² = {sigma_sq.min():.3e} ≤ 0")
        self._opens = None
        p = L.shape[1] - 1
        last = np.zeros((1, p + 1, 1))           # e_p
        last[0, p, 0] = 1.0
        self.k3_factor = L
        self.k3_points = np.concatenate((self.k3_points, [self.points - 1]))
        w = np.zeros((1, self.points, D + 1))
        w[:, :, :D] = self.weights
        w[:, self.k3_points, D] = (np.linalg.solve(L.swapaxes(1, 2), last)[:, :, 0]
                                   * (np.asarray(values) / L[:, p, p])[:, None])
        self.weights = w


class SpanState(_State):
    """Conditioning state of a batch of B sampled paths: the lower factor L
    of S + j·P, where S is the history covariance with rows in arrival
    order and P the diagonal indicator of the point rows, and the whitened
    innovation z = L⁻¹·(observed − mean), each stacked over the batch.
    Every path of a batch has the same rows; only their values differ, and
    every member is stepped in the one stack.

    Each step calls ``extend`` with the new points, which returns their σ_w²
    too, then ``open_direction``: the sampled span always grows.  L is kept
    as the rows of each arrival block (see ``_Arrival``) and extended by
    block forward substitution, one arrival block at a time, inverting only
    the small diagonal blocks.  A direction block's factor rows are the last
    one's bordered by the new point's κ₃ row and carry no jitter, so σ_w² is
    that row's pivot squared, floored at PIVOT_FLOOR·κ₃(new, new).  Each
    member's jitter j (``jitter``) climbs the policy's ladder only when its
    new point block fails to factor: ``_escalate`` reads the member's
    S + j·P off its factor and replays its point blocks in arrival order at
    the first rung above j at which all of them factor, leaving its
    direction blocks as they are.  It never needs to come down, because each
    step's history is a leading block of the next one's.  Past the last rung
    the run raises NotPsdError, or with ``pseudo_fallback`` takes j = +inf as
    the last rung: from then on the member's point blocks are factored by
    the eigen-factor V·√w of their conditional covariance, dropping the
    eigenvalues w at or below PSEUDO_RTOL times the largest diagonal entry
    of the block's S_nn, and whitened by its pseudo-inverse, so L·Lᵀ is S
    with those directions removed and L is block lower triangular.  A
    member's results are bitwise those of the same path stepped alone.
    """

    def __init__(self, kernel, policy: ConditionPolicy = DEFAULT_POLICY, batch: int = 1):
        super().__init__(kernel, batch)
        self._types = np.empty(0, dtype=int)    # 0 for f, i + 1 for D_{v_i}
        self._at = np.empty(0, dtype=int)       # point of each row
        self.policy = policy
        self.jitter = np.zeros(batch)           # +inf after a pseudo switch
        self._blocks: list[_Arrival] = []
        self._resid = np.empty((batch, 0))      # observed − mean
        self._z = np.empty((batch, 0))

    @property
    def pseudo(self) -> np.ndarray:
        """Whether each member's solves have switched to the pseudo-inverse."""
        return np.isinf(self.jitter)

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

    def extend(self, Y, rngs, N) -> tuple[np.ndarray, np.ndarray]:
        """Condition the (f, D_{v_0..D−1}) rows of the points Y[:, -1] on the
        history; Y (B, n+1, D) holds the history points' coordinate rows
        followed by the new point's.

        The rows are observed at cond_mean + L_nn·ξ/√N with
        ξ = rng.standard_normal(D+1) from the member's generator in ``rngs``
        and L_nn the new diagonal block of the member's factor, and appended
        to the history.  A conditional covariance of exactly zero draws
        nothing.  Returns the observed rows, (B, D+1), and σ_w², (B,): the
        Schur complement of the new point's entry in the points' κ₃ matrix
        K, floored at PIVOT_FLOOR·κ₃(new, new).  It is the squared pivot of
        the row that borders the last direction block's factor, chol(K) over
        the points before, with the new point's κ₃ column, and
        ``open_direction`` appends that bordered factor.  A member whose new
        block fails to factor escalates its jitter, and the step is
        repeated.  The last extend must have opened its direction.
        """
        Y = np.asarray(Y, dtype=float)
        n, D, s, ip = self._checked(Y)
        if n and self._types[self._blocks[-1].start] == 0:     # the last block is a point's
            raise ValueError("a sampled extend needs the last extend's direction opened")
        k = self.kernel.k3(s[:, :n + 1], s[:, n:], ip[:, :n + 1, n])
        S_hn, S_nn, mean = self._new_point(Y, s, ip, n, k)
        while True:
            W = self._forward(S_hn)
            Wt = W.swapaxes(1, 2)
            cond_mean = mean + (Wt @ self._z[:, :, None])[:, :, 0]
            cond_cov = S_nn - Wt @ W
            factored = self._factor(cond_cov, S_nn, f"step {n}: the new point's rows")
            if factored is not None:
                break
        L_nn, inv = factored
        drawn = cond_cov.any(axis=(1, 2))
        xi = np.zeros(cond_mean.shape)
        for b in drawn.nonzero()[0]:
            rngs[b].standard_normal(out=xi[b])
        noise = (L_nn @ xi[:, :, None])[:, :, 0] / math.sqrt(N)
        observed = np.where(drawn[:, None], cond_mean + noise, cond_mean)

        # the last direction block's factor, chol(K), bordered by the new point
        F, sigma_sq = self._bordered(self._blocks[-1].L if n else np.empty((self.batch, 0, 0)), k)
        sigma_sq = np.maximum(sigma_sq, PIVOT_FLOOR * k[:, n])
        F[:, n, n] = np.sqrt(sigma_sq)
        self._append(observed - mean, np.arange(D + 1), np.full(D + 1, n),
                     np.concatenate([Wt, L_nn], axis=2), inv, observed - cond_mean)
        self._opens = (F, D + 1)
        self.points += 1
        return observed, sigma_sq

    def open_direction(self, values):
        """Append D_{v_D} at every point so far, where v_D is the direction
        the last extended points' gradients opened and ``values`` (B,) those
        gradients' coordinates along it (older points read exactly 0).

        These rows are uncorrelated with every older row and have the
        points' κ₃ matrix as covariance; their factor rows are the bordered
        factor that ``extend`` computed.
        """
        if self._opens is None:
            raise ValueError("open_direction needs a preceding extend")
        (F, row_type), self._opens = self._opens, None
        observed = np.zeros((self.batch, self.points))
        observed[:, -1] = values
        self._append(observed, np.full(self.points, row_type), np.arange(self.points),
                     F, np.linalg.inv(F), observed)

    def _new_point(self, Y, s, ip, n, k):
        """(S_hn, S_nn, mean) of the (f, D_{v_0..D−1}) rows of the new point
        n: their covariances with the stored rows, (B, m, D+1), and with
        themselves, (B, D+1, D+1), read off one ``cov_block`` column, and
        their mean.  Given the κ₃ column k (B, n+1) of the new point, a
        κ₃ ≤ 0 at the new point raises DegenerateKernelError before anything
        is assembled, and a non-finite entry of k or of the blocks
        KernelDomainError."""
        self._require_mass(n, k[:, n])
        col = cov_block(self.kernel, Y, s, ip, np.arange(n + 1), [n])
        S_hn = col[:, self._types * (n + 1) + self._at]
        S_nn = col[:, np.arange(Y.shape[2] + 1) * (n + 1) + n]
        mean = mean_block(self.kernel, Y, s, [n])
        if not all(np.isfinite(a).all() for a in (k, S_hn, S_nn, mean)):
            raise KernelDomainError(
                f"step {n}: non-finite entries in the new point's covariance or mean")
        return S_hn, S_nn, mean

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
                rhs = rhs - blk.L[members][:, :, :left] @ X[:, a - left:a]
            X[:, a:b] = blk.inv[members] @ rhs
        return X

    def _factor(self, C, S_nn, block):
        """(L, L⁻¹) of every member's point block: L = chol(C + j·I) at the
        member's own jitter j, or for a pseudo member the eigen-factor of C
        and its pseudo-inverse (see ``_eigen_factor``), thresholded against
        the block's covariance S_nn.

        Returns None when some member fails to factor, after escalating every
        member that failed; the caller then repeats the step.  ``block``
        names C in the NotPsdError raised past the last rung.
        """
        pseudo = self.pseudo
        A = C
        if self.jitter.any():
            eye = np.eye(C.shape[1])
            j = np.where(pseudo, 0.0, self.jitter)[:, None, None]
            A = np.where(pseudo[:, None, None], eye, np.where(j > 0.0, C + j * eye, C))
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            for b, slab in enumerate(A):
                try:
                    np.linalg.cholesky(slab)
                except np.linalg.LinAlgError:
                    self._escalate(b, f"{block} ({len(slab)}×{len(slab)})")
            return None
        inv = np.linalg.inv(L)
        for b in pseudo.nonzero()[0]:
            L[b], inv[b] = _eigen_factor(C[b], S_nn[b])
        return L, inv

    def _escalate(self, b, block):
        """Move member b to the first rung j above its jitter at which all
        of its point blocks factor, and re-whiten its innovations.  The
        rungs are the policy's ladder, then +inf under ``pseudo_fallback``.
        The member's S + j·P is read off its factor once, and its jitter
        taken off the point rows; the point-block rows of that product are S,
        also where a κ₃ pivot was floored.  At each rung the point blocks are
        re-run from it in arrival order, as ``extend`` ran them:
        W = L⁻¹·S_hn through the factor rows before the block, then
        chol(S_nn − WᵀW + j·I), or at +inf the eigen-factor, which rewrites
        the block's factor rows.  The direction blocks carry no jitter and
        stay; a rung that fails leaves the blocks before the failing one
        rewritten, for the next rung to replace."""
        (L,) = self.factor([b])
        S = L @ L.T
        points = (self._types == 0).nonzero()[0]
        S[points, points] -= self.jitter[b]
        rungs = [rung for rung in self.policy.ladder() if rung > self.jitter[b]]
        for j in rungs + [math.inf] * self.policy.pseudo_fallback:
            try:
                for blk in self._blocks:
                    a, c = blk.start, blk.stop
                    if self._types[a]:
                        continue                # a direction block
                    rows = S[a:c, :c]
                    Wt = self._forward(rows[None, :, :a].swapaxes(1, 2), [b])[0].T
                    C = rows[:, a:] - Wt @ Wt.T
                    if j == math.inf:
                        L_nn, inv = _eigen_factor(C, rows[:, a:])
                    else:
                        L_nn = np.linalg.cholesky(C + j * np.eye(len(C)))
                        inv = np.linalg.inv(L_nn)
                    blk.L[b] = np.concatenate([Wt, L_nn], axis=1)
                    blk.inv[b] = inv
            except np.linalg.LinAlgError:
                continue
            self.jitter[b] = j
            self._z[b] = self._forward(self._resid[[b], :, None], [b])[0, :, 0]
            return
        raise NotPsdError(
            f"{block} not positive definite within jitter ladder "
            f"(start={self.policy.jitter_start}, max={self.policy.jitter_max})")


def _eigen_factor(C, S_nn):
    """(F, F⁺): the eigen-factor F = V·√w of one symmetric conditional
    covariance C (k, k), with the eigenpairs (w, V) of w at or below
    PSEUDO_RTOL·max diag S_nn dropped, and its pseudo-inverse."""
    w, V = np.linalg.eigh(C)
    keep = w > PSEUDO_RTOL * S_nn.diagonal().max()
    root = np.sqrt(np.where(keep, w, 1.0))
    return V * (root * keep), (V / root * keep).T
