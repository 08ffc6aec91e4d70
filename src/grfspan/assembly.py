"""Shared covariance-matrix assembly and the conditioning state of a path.

Both the N→∞ predictor and the finite-N simulator condition the block of
(function value, directional derivatives) at a new point on the same block at
all previous points.  The only difference between them is where the point
coordinates come from — limiting representation vectors versus realized
previsible coordinates — so the matrix assembly and the conditioning state
live here once and are fed coordinate rows.

Coordinates are with respect to an orthonormal direction system v_0, …,
v_{D−1}: a point with coordinate row y has ⟨y, v_i⟩ = y[i], ⟨y, y'⟩ = y·y',
and ⟨v_i, v_j⟩ = δ_ij.  ``cov_block``/``mean_block`` lay rows out row-major
over derivative type then point: the flattened vector reads (f at all points,
D_{v_0} at all points, …, D_{v_{D−1}} at all points).  All outputs are on the
dimension-free scale; the 1/N covariance factor is applied by callers.

``SpanState`` keeps the history in arrival order instead: every visited point
has a zero coordinate along each direction opened after it, so the history
block of one step is a leading block of the next one's, and a step only
appends rows — the new point's (f, D_{v_0..D−1}) rows, then the D_{v_D} rows
of the newly opened direction at every point, which are uncorrelated with all
older rows.  Extending the Cholesky factor by k rows costs O(m²k) for m
history rows, where re-assembling and re-factoring the history would cost
O(m³).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import NotPsdError
from .gaussianops import DEFAULT_POLICY, ConditionPolicy, condition, sample_mvn


def coordinate_inner_products(reps):
    """Norm-halves s_k = ‖y_k‖²/2 and the Gram ⟨y_k, y_l⟩ of coordinate rows."""
    Y = np.atleast_2d(np.asarray(reps, dtype=float))
    ip = Y @ Y.T
    return 0.5 * np.diagonal(ip).copy(), ip


def cov_block(kernel, Y, s, ip, A, B):
    """Covariance between the (f, D_{v_0..D−1}) rows at points A and points B.

    Y holds coordinate rows for all points; s, ip their norm-halves and Gram.
    Returns shape ((D+1)·|A|, (D+1)·|B|) in the row-major layout.
    """
    A = np.asarray(A, dtype=int)
    B = np.asarray(B, dtype=int)
    D = Y.shape[1]
    na, nb = len(A), len(B)
    s_a = s[A][:, None]                       # (na, 1)
    s_b = s[B][None, :]                       # (1, nb)
    ip_ab = ip[np.ix_(A, B)]                  # (na, nb)

    T = np.empty((D + 1, na, D + 1, nb))
    T[0, :, 0, :] = kernel.cov_ff(s_a, s_b, ip_ab)

    if D > 0:
        Ya = Y[A]                             # (na, D)
        Yb = Y[B]                             # (nb, D)
        # D_{v_i} at a against f at b: (i, a, b)
        T[1:, :, 0, :] = kernel.cov_df_f(
            s_a[None], s_b[None], ip_ab[None],
            Ya.T[:, :, None], Yb.T[:, None, :])
        # f at a against D_{v_j} at b: differentiate at b — (j, b, a) transposed
        f_df = kernel.cov_df_f(
            s_b.T[None], s_a.T[None], ip_ab.T[None],
            Yb.T[:, :, None], Ya.T[:, None, :])
        T[0, :, 1:, :] = np.moveaxis(f_df, [0, 1, 2], [1, 2, 0])
        # D_{v_i} at a against D_{v_j} at b: axes (i, a, j, b)
        eye = np.eye(D)[:, None, :, None]
        T[1:, :, 1:, :] = kernel.cov_df_df(
            s_a[None, :, None, :], s_b[None, :, None, :], ip_ab[None, :, None, :],
            Ya.T[:, :, None, None], Yb.T[:, None, None, :],
            Ya[None, :, :, None], Yb.T[None, None, :, :],
            eye)
    return T.reshape((D + 1) * na, (D + 1) * nb)


def mean_block(kernel, Y, s, A):
    """Mean of the flattened (f, D_{v_i}) rows at points A."""
    A = np.asarray(A, dtype=int)
    D = Y.shape[1]
    m = np.empty((D + 1, len(A)))
    m[0] = kernel.mean(s[A])
    if D > 0:
        m[1:] = kernel.mean_prime(s[A])[None, :] * Y[A].T
    return m.ravel()


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


def k3_matrix(kernel, reps):
    """Matrix of κ₃(s_k, s_l, ⟨y_k, y_l⟩) over all point pairs."""
    reps = np.atleast_2d(np.asarray(reps, dtype=float))
    s, ip = coordinate_inner_products(reps)
    kernels.check_domain(s[:, None], s[None, :], ip)
    return kernel.k3(s[:, None], s[None, :], ip)


def residual_variance(kernel, reps, policy=DEFAULT_POLICY):
    """Variance of the new point's gradient component outside the visited span.

    reps: (n+1, D) coordinate rows with the newest point last.  Returns
    κ₃(new, new) minus the quadratic form of the history κ₃ block — the
    Schur complement of the newest entry in the κ₃ matrix.
    """
    W = k3_matrix(kernel, reps)
    n = W.shape[0] - 1
    if n == 0:
        return float(W[0, 0])
    res = condition(mu1=np.zeros(n), mu2=np.zeros(1),
                    S11=W[:n, :n], S12=W[:n, n:], S22=W[n:, n:],
                    observed=np.zeros(n), policy=policy)
    return float(res.cond_cov[0, 0])


@dataclass
class _Arrival:
    """One block of rows appended to a ``SpanState``.

    ``S`` and ``L`` hold the block's rows of the history covariance and of
    its factor, from column ``start − left`` through the block's own
    diagonal columns.  A block uncorrelated with every older row stores no
    left part (left = 0).  ``inv`` inverts the factor's diagonal block.
    ``L`` and ``inv`` are None once solves have switched to the pseudo-inverse.
    """

    start: int
    S: np.ndarray
    L: np.ndarray | None = None
    inv: np.ndarray | None = None

    @property
    def stop(self) -> int:
        return self.start + self.S.shape[0]

    @property
    def left(self) -> int:
        return self.S.shape[1] - self.S.shape[0]


class SpanState:
    """Conditioning state of one path: the history covariance S with rows in
    arrival order, its lower factor L = chol(S + j·I), and the whitened
    innovation z = L⁻¹·(observed − mean).

    Each step calls ``extend`` with the new point, then ``open_direction``
    unless the span did not grow.  L is extended by block forward
    substitution, one arrival block at a time, inverting only the small
    diagonal blocks.  The jitter j climbs the policy's ladder only when a
    new diagonal block fails to factor, and S is then re-factored from
    scratch; it never needs to come down, because each step's history is a
    leading block of the next one's.  Past the last rung the run raises
    NotPsdError, or with ``pseudo_fallback`` switches every later solve to
    the eigenvalue-thresholded pseudo-inverse of the stored S.
    """

    def __init__(self, kernel, policy: ConditionPolicy = DEFAULT_POLICY):
        self.kernel = kernel
        self.policy = policy
        self.points = 0
        self.pseudo = False
        self._ladder = list(policy.ladder())
        self._rung = 0
        self._blocks: list[_Arrival] = []
        self._types = np.empty(0, dtype=int)    # 0 for f, i + 1 for D_{v_i}
        self._at = np.empty(0, dtype=int)       # point of each row
        self._resid = np.empty(0)               # observed − mean
        self._z = np.empty(0)
        self._Y = None                          # rows of the last extend

    @property
    def jitter(self) -> float:
        """Diagonal jitter j of the factor; +inf after the pseudo switch."""
        return math.inf if self.pseudo else self._ladder[self._rung]

    @property
    def labels(self):
        """(derivative type, point) of each stored row in arrival order;
        type 0 is f and type i + 1 is D_{v_i}."""
        return self._types.copy(), self._at.copy()

    def covariance(self) -> np.ndarray:
        """The history covariance S, rows and columns in arrival order."""
        S = self._dense("S")
        return np.tril(S) + np.tril(S, -1).T

    def factor(self) -> np.ndarray:
        """The lower factor L of S + j·I in arrival order."""
        if self.pseudo:
            raise ValueError("no factor: solves use the pseudo-inverse")
        return self._dense("L")

    def extend(self, Y, rng=None, N=None) -> np.ndarray:
        """Condition the (f, D_{v_0..D−1}) rows of the point Y[-1] on the
        history and append them; Y holds the history points' coordinate rows
        followed by the new point's.

        The rows are observed at their conditional mean, or, given ``rng``
        and ``N``, at cond_mean + L_nn·ξ/√N with ξ = rng.standard_normal(D+1)
        and L_nn the new diagonal block of the factor.  A conditional
        covariance of exactly zero draws nothing.  Returns the observed rows.
        """
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        n, D = Y.shape[0] - 1, Y.shape[1]
        if n != self.points:
            raise ValueError(f"state holds {self.points} points, got {n} history rows")
        s, ip = coordinate_inner_products(Y)
        kernels.check_domain(s[n], s, ip[n])
        col = cov_block(self.kernel, Y, s, ip, np.arange(n + 1), [n])
        mean = mean_block(self.kernel, Y, s, [n])
        if not (np.all(np.isfinite(col)) and np.all(np.isfinite(mean))):
            raise ValueError("non-finite entries in the new point's covariance or mean")
        S_hn = col[self._types * (n + 1) + self._at]
        S_nn = col[np.arange(D + 1) * (n + 1) + n]
        S_rows = np.hstack([S_hn.T, S_nn])
        types, at = np.arange(D + 1), np.full(D + 1, n)
        self._Y = Y

        while not self.pseudo:
            W = self._forward(S_hn)
            cond_mean = mean + W.T @ self._z
            cond_cov = S_nn - W.T @ W
            L_nn = self._factor(cond_cov)
            if L_nn is None:
                self._escalate()
                continue
            value = cond_mean
            if rng is not None and np.any(cond_cov):
                value = cond_mean + L_nn @ rng.standard_normal(D + 1) / math.sqrt(N)
            self._append(S_rows, value - mean, types, at,
                         np.hstack([W.T, L_nn]), value - cond_mean)
            self.points += 1
            return value

        res = condition(np.zeros(len(self._resid)), mean, self.covariance(), S_hn, S_nn,
                        self._resid, policy=replace(self.policy, jitter_start=None))
        value = res.cond_mean
        if rng is not None:
            value = sample_mvn(res.cond_mean, res.cond_cov / N, rng, self.policy)
        self._append(S_rows, value - mean, types, at)
        self.points += 1
        return value

    def open_direction(self, value: float):
        """Append D_{v_D} at every point so far, where v_D is the direction
        the last extended point's gradient opened and ``value`` that
        gradient's coordinate along it (older points read exactly 0).

        These rows are uncorrelated with every older row and have the κ₃
        matrix as covariance.  A step whose span did not grow skips this.
        """
        if self._Y is None:
            raise ValueError("open_direction needs a preceding extend")
        Y, self._Y = self._Y, None
        K = k3_matrix(self.kernel, Y)
        observed = np.zeros(self.points)
        observed[-1] = value
        types, at = np.full(self.points, Y.shape[1] + 1), np.arange(self.points)
        while not self.pseudo:
            L_k = self._factor(K)
            if L_k is None:
                self._escalate()
                continue
            self._append(K, observed, types, at, L_k, observed)
            return
        self._append(K, observed, types, at)

    # -- factor maintenance ---------------------------------------------------

    def _append(self, S_rows, resid, types, at, L_rows=None, innovation=None):
        block = _Arrival(start=len(self._resid), S=S_rows)
        if L_rows is not None:
            block.L = L_rows
            block.inv = np.linalg.inv(L_rows[:, block.left:])
            self._z = np.concatenate([self._z, block.inv @ innovation])
        self._blocks.append(block)
        self._resid = np.concatenate([self._resid, resid])
        self._types = np.concatenate([self._types, types])
        self._at = np.concatenate([self._at, at])

    def _forward(self, B):
        """L⁻¹·B by block forward substitution."""
        X = np.empty(B.shape)
        for blk in self._blocks:
            a, b, left = blk.start, blk.stop, blk.left
            rhs = B[a:b] if left == 0 else B[a:b] - blk.L[:, :left] @ X[a - left:a]
            X[a:b] = blk.inv @ rhs
        return X

    def _factor(self, C):
        """chol(C + j·I) at the current rung, or None if it fails."""
        j = self._ladder[self._rung]
        try:
            return np.linalg.cholesky(C if j == 0.0 else C + j * np.eye(len(C)))
        except np.linalg.LinAlgError:
            return None

    def _escalate(self):
        """Re-factor the history at the next ladder rung that succeeds."""
        while True:
            self._rung += 1
            if self._rung == len(self._ladder):
                if not self.policy.pseudo_fallback:
                    raise NotPsdError(
                        f"history of {len(self._resid)} rows not positive definite within "
                        f"jitter ladder (start={self.policy.jitter_start}, "
                        f"max={self.policy.jitter_max})")
                self.pseudo = True
                for blk in self._blocks:
                    blk.L = blk.inv = None
                return
            m = len(self._resid)
            try:
                L = np.linalg.cholesky(self.covariance() + self.jitter * np.eye(m))
            except np.linalg.LinAlgError:
                continue
            for blk in self._blocks:
                a, b = blk.start, blk.stop
                blk.L = L[a:b, a - blk.left:b].copy()
                blk.inv = np.linalg.inv(L[a:b, a:b])
            self._z = self._forward(self._resid[:, None])[:, 0]
            return

    def _dense(self, name):
        m = len(self._resid)
        out = np.zeros((m, m))
        for blk in self._blocks:
            out[blk.start:blk.stop, blk.start - blk.left:blk.stop] = getattr(blk, name)
        return out
