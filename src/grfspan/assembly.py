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
dimension-free scale; the 1/N covariance factor is applied by callers.  The
coordinate rows may carry leading batch axes, one entry per path, and every
output then carries them too.

``SpanState`` keeps the history in arrival order instead: every visited point
has a zero coordinate along each direction opened after it, so the history
block of one step is a leading block of the next one's, and a step only
appends rows — the new point's (f, D_{v_0..D−1}) rows, then the D_{v_D} rows
of the newly opened direction at every point, which are uncorrelated with all
older rows.  Extending the Cholesky factor by k rows costs O(m²k) for m
history rows, where re-assembling and re-factoring the history would cost
O(m³).  One state steps a batch of B paths that share this row structure —
the same number of points and directions — as stacked (B, ·, ·) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import DegenerateKernelError, KernelDomainError, NotPsdError
from .gaussianops import DEFAULT_POLICY, ConditionPolicy, cholesky_psd, condition, sample_mvn


def coordinate_inner_products(reps):
    """Norm-halves s_k = ‖y_k‖²/2 and the Gram ⟨y_k, y_l⟩ of coordinate rows."""
    Y = np.atleast_2d(np.asarray(reps, dtype=float))
    ip = Y @ np.swapaxes(Y, -1, -2)
    return 0.5 * np.diagonal(ip, axis1=-2, axis2=-1).copy(), ip


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
    return np.moveaxis(pairs, [-4, -3], [-3, -1]).reshape(
        Y.shape[:-2] + ((D + 1) * len(A), (D + 1) * len(B)))


def mean_block(kernel, Y, s, A):
    """Mean of the flattened (f, D_{v_i}) rows at points A."""
    A = np.asarray(A, dtype=int)
    D = Y.shape[-1]
    m = np.empty(Y.shape[:-2] + (D + 1, len(A)))
    mu, slope = kernel.mean(s[..., A])
    m[..., 0, :] = mu
    if D > 0:
        m[..., 1:, :] = slope[..., None, :] * np.swapaxes(Y[..., A, :], -1, -2)
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
    Schur complement of the newest entry in the κ₃ matrix.
    """
    s, ip = coordinate_inner_products(reps)
    kernels.check_domain(s[..., :, None], s[..., None, :], ip)
    return float(_last_schur(k3_matrix(kernel, s, ip), policy))


def _last_schur(W, policy):
    """Schur complement of the last diagonal entry of each matrix of the stack W."""
    n = W.shape[-1] - 1
    zeros = np.zeros(W.shape[:-2] + (n + 1,))
    return condition(zeros[..., :n], zeros[..., n:], W[..., :n, :n], W[..., :n, n:],
                     W[..., n:, n:], zeros[..., :n], policy).cond_cov[..., 0, 0]


@dataclass
class _Arrival:
    """One block of rows appended to a ``SpanState``, stacked over the batch.

    ``L`` holds the block's rows of the factor, (B, k, left + k), from column
    ``start − left`` through the block's own diagonal columns.  A block
    uncorrelated with every older row stores no left part (left = 0).
    ``inv`` (B, k, k) inverts the factor's diagonal block.  A member whose
    solves have switched to the pseudo-inverse holds placeholders in every
    block appended after the switch: the identity as diagonal block and
    inverse, and zeros left of it.
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


class SpanState:
    """Conditioning state of a batch of B paths: the history covariance S
    with rows in arrival order, its lower factor L = chol(S + j·I), and the
    whitened innovation z = L⁻¹·(observed − mean), each stacked over the
    batch.  Every path of a batch has the same rows; only their values
    differ, and every member is stepped in the one stack.

    Each step calls ``extend`` with the new points, which returns their σ_w²
    too, then ``open_direction`` unless the span did not grow.  L is
    extended by block forward substitution, one arrival block at a time,
    inverting only the small diagonal blocks.  Each member's jitter j
    (``jitter``) climbs the policy's ladder only when one of its new
    diagonal blocks fails to factor, and its S is then re-factored from
    scratch by ``cholesky_psd`` from the first rung above j; it never needs
    to come down, because each step's history is a leading block of the next
    one's.  Past the last rung the run raises NotPsdError, or with
    ``pseudo_fallback`` sets j = +inf and conditions every later step of
    that member through ``condition`` on the eigenvalue-thresholded
    pseudo-inverse of its S.  S itself is not stored: each step keeps its
    points' coordinate rows, norm-halves and Gram, and S is rebuilt from
    them on demand by the calls that step made, so bitwise the rows it
    conditioned on.  Such a member stays in the stack: its
    later factor rows are placeholders (see ``_Arrival``), its rows of
    L⁻¹·S_hn are zeroed, so its z adds nothing, and the factor's draw skips
    it.  A member's results are bitwise those of the same path stepped
    alone.
    """

    def __init__(self, kernel, policy: ConditionPolicy = DEFAULT_POLICY, batch: int = 1):
        self.kernel = kernel
        self.policy = policy
        self.batch = batch
        self.points = 0
        self.jitter = np.zeros(batch)           # +inf after a pseudo switch
        self._blocks: list[_Arrival] = []
        self._types = np.empty(0, dtype=int)    # 0 for f, i + 1 for D_{v_i}
        self._at = np.empty(0, dtype=int)       # point of each row
        self._resid = np.empty((batch, 0))      # observed − mean
        self._z = np.empty((batch, 0))
        self._K = None                          # κ₃ matrix of the last extend
        self._geometry = []                     # (Y, s, ip) of each extend

    @property
    def pseudo(self) -> np.ndarray:
        """Whether each member's solves have switched to the pseudo-inverse."""
        return np.isinf(self.jitter)

    @property
    def labels(self):
        """(derivative type, point) of each stored row in arrival order;
        type 0 is f and type i + 1 is D_{v_i}."""
        return self._types.copy(), self._at.copy()

    def covariance(self) -> np.ndarray:
        """The history covariances S, (B, m, m), rows and columns in arrival order."""
        return self._covariance(np.arange(self.batch))

    def factor(self) -> np.ndarray:
        """The lower factors L of S + j·I, (B, m, m), in arrival order."""
        if self.pseudo.any():
            raise ValueError("no factor: solves use the pseudo-inverse")
        L = np.zeros((self.batch,) + (self._resid.shape[1],) * 2)
        for blk in self._blocks:
            L[:, blk.start:blk.stop, blk.start - blk.left:blk.stop] = blk.L
        return L

    def extend(self, Y, rngs=None, N=None) -> tuple[np.ndarray, np.ndarray]:
        """Condition the (f, D_{v_0..D−1}) rows of the points Y[:, -1] on the
        history and append them; Y (B, n+1, D) holds the history points'
        coordinate rows followed by the new point's.

        The rows are observed at their conditional mean, or, given ``rngs``
        (one generator per member) and ``N``, at cond_mean + L_nn·ξ/√N with
        ξ = rng.standard_normal(D+1) and L_nn the new diagonal block of the
        member's factor.  A conditional covariance of exactly zero draws
        nothing.  Returns the observed rows, (B, D+1), and σ_w², (B,): the
        Schur complement of the new point's entry in the points' κ₃ matrix,
        which ``open_direction`` then appends.  A new κ₃ ≤ 0 raises
        DegenerateKernelError before anything is assembled.
        """
        Y = np.array(Y, dtype=float)    # kept for rebuilding S
        n, D = Y.shape[1] - 1, Y.shape[2]
        if Y.shape[0] != self.batch:
            raise ValueError(f"state steps {self.batch} paths, got {Y.shape[0]}")
        if n != self.points:
            raise ValueError(f"state holds {self.points} points, got {n} history rows")
        s, ip = coordinate_inner_products(Y)
        kernels.check_domain(s[:, n:], s, ip[:, n])
        K = k3_matrix(self.kernel, s, ip)
        if np.any(K[:, n, n] <= 0):
            raise DegenerateKernelError(f"step {n}: κ₃ = {np.min(K[:, n, n]):g} at the new "
                                        "point; no gradient mass outside the span")
        S_hn, S_nn = self._new_point_rows(Y, s, ip, len(self._types))
        mean = mean_block(self.kernel, Y, s, [n])
        if not all(np.all(np.isfinite(a)) for a in (S_hn, S_nn, mean)):
            raise KernelDomainError(
                f"step {n}: non-finite entries in the new point's covariance or mean")

        while True:
            W = self._forward(S_hn)
            W[self.pseudo] = 0.0
            Wt = np.swapaxes(W, 1, 2)
            cond_mean = mean + (Wt @ self._z[:, :, None])[:, :, 0]
            cond_cov = S_nn - Wt @ W
            L_nn = self._factor(cond_cov, f"step {n}: the new point's rows")
            if L_nn is not None:
                break
        observed = cond_mean
        if rngs is not None:
            drawn = np.any(cond_cov, axis=(1, 2)) & ~self.pseudo
            xi = np.zeros(cond_mean.shape)
            for b in np.flatnonzero(drawn):
                rngs[b].standard_normal(out=xi[b])
            noise = (L_nn @ xi[:, :, None])[:, :, 0] / math.sqrt(N)
            observed = np.where(drawn[:, None], cond_mean + noise, cond_mean)

        pseudo = np.flatnonzero(self.pseudo)
        if pseudo.size:
            res = condition(np.zeros(self._resid[pseudo].shape), mean[pseudo],
                            self._covariance(pseudo), S_hn[pseudo], S_nn[pseudo],
                            self._resid[pseudo], policy=replace(self.policy, jitter_start=None))
            observed[pseudo] = res.cond_mean if rngs is None else [
                sample_mvn(mean_b, cov_b / N, rngs[b], self.policy)
                for b, mean_b, cov_b in zip(pseudo, res.cond_mean, res.cond_cov)]

        self._append(observed - mean, np.arange(D + 1), np.full(D + 1, n),
                     np.concatenate([Wt, L_nn], axis=2), observed - cond_mean)
        self._geometry.append((Y, s, ip))
        self._K = K
        self.points += 1
        return observed, _last_schur(K, self.policy)

    def open_direction(self, values):
        """Append D_{v_D} at every point so far, where v_D is the direction
        the last extended points' gradients opened and ``values`` (B,) those
        gradients' coordinates along it (older points read exactly 0).

        These rows are uncorrelated with every older row and have ``extend``'s
        κ₃ matrix as covariance.  A step whose span did not grow skips this.
        """
        if self._K is None:
            raise ValueError("open_direction needs a preceding extend")
        K, self._K = self._K, None
        observed = np.zeros((self.batch, self.points))
        observed[:, -1] = values
        L_k = None
        while L_k is None:
            L_k = self._factor(K, f"step {self.points - 1}: the κ₃ block")
        self._append(observed, np.full(self.points, self._types.max() + 1),
                     np.arange(self.points), L_k, observed)

    # -- factor maintenance ---------------------------------------------------

    def _append(self, resid, types, at, L_rows, innovation):
        """Append a block of rows with their factor rows and innovations."""
        inv = np.linalg.inv(L_rows[:, :, L_rows.shape[2] - L_rows.shape[1]:])
        z = (inv @ innovation[:, :, None])[:, :, 0]
        self._blocks.append(_Arrival(start=self._resid.shape[1], L=L_rows, inv=inv))
        self._z = np.concatenate([self._z, z], axis=1)
        self._resid = np.concatenate([self._resid, resid], axis=1)
        self._types = np.concatenate([self._types, types])
        self._at = np.concatenate([self._at, at])

    def _forward(self, B, members=slice(None)):
        """L⁻¹·B of the given members by block forward substitution."""
        X = np.empty(B.shape)
        for blk in self._blocks:
            a, b, left = blk.start, blk.stop, blk.left
            rhs = B[:, a:b]
            if left:
                rhs = rhs - blk.L[members][:, :, :left] @ X[:, a - left:a]
            X[:, a:b] = blk.inv[members] @ rhs
        return X

    def _factor(self, C, block):
        """chol(C + j·I) of every member at its own jitter j, with the
        identity in place of a pseudo member's block.

        Returns None when some member fails to factor, after escalating every
        member that failed; the caller then repeats the step.  ``block``
        names C in the NotPsdError raised past the last rung.
        """
        A = C
        if self.jitter.any():
            eye = np.eye(C.shape[1])
            j = np.where(self.pseudo, 0.0, self.jitter)[:, None, None]
            A = np.where(self.pseudo[:, None, None], eye, np.where(j > 0.0, C + j * eye, C))
        try:
            return np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            pass
        for b, slab in enumerate(A):
            try:
                np.linalg.cholesky(slab)
            except np.linalg.LinAlgError:
                self._escalate(b, f"{block} ({len(slab)}×{len(slab)})")
        return None

    def _escalate(self, b, block):
        """Re-factor member b's history at the next ladder jitter that succeeds."""
        try:
            L, self.jitter[b] = cholesky_psd(self._covariance([b])[0], self.policy,
                                             above=self.jitter[b])
        except NotPsdError:
            if not self.policy.pseudo_fallback:
                raise NotPsdError(
                    f"{block} not positive definite within jitter ladder "
                    f"(start={self.policy.jitter_start}, max={self.policy.jitter_max})") from None
            self.jitter[b] = math.inf
            return
        for blk in self._blocks:
            lo, hi = blk.start, blk.stop
            blk.L[b] = L[lo:hi, lo - blk.left:hi]
            blk.inv[b] = np.linalg.inv(L[lo:hi, lo:hi])
        self._z[b] = self._forward(self._resid[[b], :, None], [b])[0, :, 0]

    def _new_point_rows(self, Y, s, ip, history):
        """(S_hn, S_nn): covariances of the (f, D_{v_0..D−1}) rows of the
        newest of the points Y with the first ``history`` stored rows,
        (B, history, D+1), and with themselves, (B, D+1, D+1), read off one
        ``cov_block`` column."""
        n, D = Y.shape[1] - 1, Y.shape[2]
        col = cov_block(self.kernel, Y, s, ip, np.arange(n + 1), [n])
        return (col[:, self._types[:history] * (n + 1) + self._at[:history]],
                col[:, np.arange(D + 1) * (n + 1) + n])

    def _covariance(self, members):
        """The history covariances S of the given members, rebuilt block by
        block from the geometry of the step that appended it."""
        m = self._resid.shape[1]
        S = np.zeros((len(members), m, m))
        for blk in self._blocks:
            point = self._at[blk.stop - 1]      # the step that appended the block
            Y, s, ip = (a[members] for a in self._geometry[point])
            if self._types[blk.start] == 0:     # that step's new point
                S_hn, S_nn = self._new_point_rows(Y, s, ip, blk.start)
                rows = np.concatenate([np.swapaxes(S_hn, 1, 2), S_nn], axis=2)
            else:                               # the direction it opened
                rows = k3_matrix(self.kernel, s, ip)
            S[:, blk.start:blk.stop, blk.start - blk.left:blk.stop] = rows
        upper = np.triu_indices(m, 1)
        for slab in S:                          # mirrored in place, one member at a time
            slab[upper] = slab.T[upper]
        return S
