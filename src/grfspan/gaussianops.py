"""Conditional Gaussian linear algebra and sampling primitives.

``JITTER_LADDER``, the diagonal jitters that every conditioning route tries
in turn, and ``PSEUDO_RTOL``, the threshold of the pseudo-inverse that a route
called with ``pseudo_inverse`` takes past its last rung; ``condition``, which
conditions one Gaussian block on one observed block from scratch, solving at
the first rung that works, for the brute-force oracle and
``assembly.residual_variance``; the brute-force oracle's multivariate-normal
draw ``sample_mvn``; chi-square draws; and reproducible per-trajectory random
streams.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPsdError

#: the diagonal jitters tried in turn, from none to 1e-8.  The last three are
#: the floats that repeated ×10 from 1e-12 reaches, not the round literals, so
#: that a run which escalates past 1e-11 keeps its bits.  Readers look it up
#: at call time, so a test can patch it.
JITTER_LADDER = (0.0, 1e-12, 1e-11, 9.999999999999999e-11, 9.999999999999999e-10,
                 9.999999999999999e-09)

#: not read here: bench/layers.py imports this name
DEFAULT_POLICY = False

#: the relative eigenvalue threshold of both pseudo-inverses, the route a
#: conditioning call with ``pseudo_inverse`` takes past the last rung of
#: JITTER_LADDER (without it, it raises NotPsdError): ``condition`` drops the
#: eigenvalues of S11 at or below PSEUDO_RTOL times its largest |eigenvalue|
#: and flags the result ``rank_deficient``; the sampler drops those of a point
#: block's conditional covariance at or below PSEUDO_RTOL times the largest
#: diagonal entry of the block's covariance S_nn
PSEUDO_RTOL = 1e-10


@dataclass
class ConditioningResult:
    """Conditional law N(cond_mean, cond_cov) of the new block given observed.

    ``log_jitter_used`` is log10 of the diagonal jitter that made S11
    factorizable: −inf if none was needed, +inf if escalation failed and the
    pseudo-inverse path was taken.
    """

    cond_mean: np.ndarray
    cond_cov: np.ndarray
    log_jitter_used: float
    rank_deficient: bool


def cholesky_psd(A):
    """Lower-triangular L with LLᵀ = A + jI at the first rung j of
    JITTER_LADDER where A + jI factors.

    Returns (L, j).  Raises NotPsdError past the last rung.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    for j in JITTER_LADDER:
        shifted = A
        if j > 0.0:
            shifted = A.copy()
            shifted.flat[::n + 1] += j
        try:
            return np.linalg.cholesky(shifted), j
        except np.linalg.LinAlgError:
            continue
    raise NotPsdError(f"matrix of size {n} not positive definite within jitter ladder "
                      f"(top rung {JITTER_LADDER[-1]:g})")


def _pseudo_solve(S11, B):
    """Solve S11·X = B through an eigenvalue-thresholded pseudo-inverse."""
    w, V = np.linalg.eigh(S11)
    threshold = PSEUDO_RTOL * np.max(np.abs(w), initial=0.0)
    inv_w = np.where(w > threshold, 1.0 / np.where(w > threshold, w, 1.0), 0.0)
    return V @ (inv_w[:, None] * (V.T @ B))


def _jittered_solve(A, B, pseudo_inverse):
    """(X, j) with (A + jI)·X = B at the first ladder rung j where A + jI
    factors and the solve works as well (a singular A can factor in floating
    point); past the ladder, with ``pseudo_inverse``, the pseudo-inverse
    and +inf."""
    for j in JITTER_LADDER:
        shifted = A + j * np.eye(len(A)) if j > 0.0 else A
        try:
            np.linalg.cholesky(shifted)
            return np.linalg.solve(shifted, B), j
        except np.linalg.LinAlgError:
            continue
    if not pseudo_inverse:
        raise NotPsdError(f"matrix of size {len(A)} not positive definite within jitter ladder "
                          f"(top rung {JITTER_LADDER[-1]:g})")
    return _pseudo_solve(A, B), math.inf


def condition(mu1, mu2, S11, S12, S22, observed,
              pseudo_inverse: bool = False) -> ConditioningResult:
    """Condition the block with mean mu2 on the observed block with mean mu1.

    cond_mean = mu2 + S12ᵀ·S11⁻¹·(observed − mu1)
    cond_cov  = S22 − S12ᵀ·S11⁻¹·S12

    S11 + jI is solved at the first rung j of JITTER_LADDER, from j = 0,
    where it has a Cholesky factor and the solve works; on exhaustion the call
    either raises NotPsdError or (with ``pseudo_inverse``) switches to the
    thresholded pseudo-inverse.  cond_cov is symmetrized and diagonal entries
    in [−1e−12, 0) are clamped to zero.
    """
    names = ("mu1", "mu2", "S11", "S12", "S22", "observed")
    arrays = [np.asarray(a, dtype=float) for a in (mu1, mu2, S11, S12, S22, observed)]
    for name, arr in zip(names, arrays):
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite entries in {name}")
    mu1, mu2, S11, S12, S22, observed = arrays

    # one solve covers both the innovation and S12
    B = np.concatenate([(observed - mu1)[:, None], S12], axis=1)
    X, jitter = _jittered_solve(S11, B, pseudo_inverse)

    cond_mean = mu2 + (S12.T @ X[:, :1])[:, 0]
    cond_cov = S22 - S12.T @ X[:, 1:]
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    d = cond_cov.reshape(-1)[::len(cond_cov) + 1]   # the diagonal, a view
    d[(d < 0.0) & (d >= -1e-12)] = 0.0
    return ConditioningResult(cond_mean=cond_mean, cond_cov=cond_cov,
                              log_jitter_used=math.log10(jitter) if jitter > 0.0 else -math.inf,
                              rank_deficient=jitter == math.inf)


def sample_mvn(mean, cov, rng, pseudo_inverse: bool = False):
    """Draw mean + L·z with LLᵀ = cov; cov = 0 returns the mean exactly.

    L is the jittered Cholesky factor, or with ``pseudo_inverse`` after the
    ladder fails, V·√max(w, 0) from the eigenpairs (w, V) of the symmetrised
    cov, so a rank-deficient cov draws along its range from the same z.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if not np.any(cov):
        return mean.copy()
    try:
        L, _ = cholesky_psd(cov)
    except NotPsdError:
        if not pseudo_inverse:
            raise
        w, V = np.linalg.eigh(0.5 * (cov + cov.T))
        L = V * np.sqrt(np.maximum(w, 0.0))
    return mean + L @ rng.standard_normal(mean.shape[0])


def sample_chi_square(dof, rng):
    """Chi-square draw valid for any real dof > 0 (dof of order 10⁹ included)."""
    if dof <= 0:
        raise ValueError(f"dof must be positive, got {dof}")
    return float(rng.gamma(dof / 2.0, 2.0))


class _StreamKey:
    """The seed sequence of one stream: ``generate_state`` returns the
    stream's Philox key, which Philox asks for as two uint64 words.  Unlike
    ``SeedSequence()``, it reads no OS entropy.  Module-level, so a generator
    that holds it pickles."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


@functools.cache
def _register_stream_key():
    """Register _StreamKey as a numpy seed sequence, on the first draw rather
    than at import: numpy.random.bit_generator loads numpy.random, which
    `import grfspan` does not."""
    np.random.bit_generator.ISeedSequence.register(_StreamKey)


def make_rng(master_seed: int, stream_id: int) -> np.random.Generator:
    """Independent, reproducible stream: counter-based generator keyed by
    (master_seed mod 2⁶⁴, stream_id mod 2⁶⁴), from counter 0.  Same pair ⇒
    same sequence; distinct stream ids ⇒ independent sequences."""
    _register_stream_key()
    key = np.array([master_seed % 2 ** 64, stream_id % 2 ** 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_StreamKey(key)))
