"""Conditional Gaussian linear algebra and sampling primitives.

``JITTER_LADDER``, the diagonal jitters that every conditioning route tries
in turn, and ``PSEUDO_RTOL``, the threshold of the pseudo-inverse that a route
called with ``pseudo_inverse`` takes past its last rung.  ``first_rung`` is
the one walk over the ladder, and the pseudo-inverse rung after it, for
every route: the sampler's point-block replay in ``assembly``, and
``cholesky_psd``, ``condition`` and ``sample_mvn`` here, which pass it an
attempt at a given jitter; ``eigen_factor`` is the one pseudo-inverse rule.
``condition`` conditions one Gaussian block on one observed block from
scratch, for the brute-force oracle and ``assembly.residual_variance``;
``sample_mvn`` is the brute-force oracle's multivariate-normal draw.  Then
chi-square draws and reproducible per-trajectory random streams.
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

#: the relative eigenvalue threshold of the one pseudo-inverse rule,
#: ``eigen_factor``, the rung j = +inf that ``first_rung`` tries past the
#: last rung of JITTER_LADDER for a call with ``pseudo_inverse`` (without
#: it, the walk raises NotPsdError there): it drops the eigenvalues at or
#: below PSEUDO_RTOL times the largest diagonal entry of the covariance the
#: caller thresholds against, S_nn for the sampler's point blocks, S11 for
#: ``condition``, which flags the result ``rank_deficient``, and cov for
#: ``sample_mvn``
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


def first_rung(attempt, what, above=-math.inf, pseudo_inverse: bool = False):
    """(attempt(j), j) at the first rung j where ``attempt`` raises no
    LinAlgError: each rung of JITTER_LADDER above ``above``, then j = +inf
    with ``pseudo_inverse``.  Past the last rung raises NotPsdError, naming
    ``what``.  JITTER_LADDER is read at each call, so a test can patch it."""
    for j in [rung for rung in JITTER_LADDER if rung > above] + [math.inf] * pseudo_inverse:
        try:
            return attempt(j), j
        except np.linalg.LinAlgError:
            continue
    raise NotPsdError(f"{what} not positive definite within jitter ladder "
                      f"(top rung {JITTER_LADDER[-1]:g})")


def _shifted(A, j):
    """A + jI: A itself at j = 0, else a shifted copy."""
    if j == 0.0:
        return A
    A = A.copy()
    A.flat[::len(A) + 1] += j
    return A


def cholesky_psd(A):
    """Lower-triangular L with LLᵀ = A + jI at the first rung j of
    JITTER_LADDER where A + jI factors, through ``first_rung``.

    Returns (L, j).  Raises NotPsdError past the last rung.
    """
    A = np.asarray(A, dtype=float)
    return first_rung(lambda j: np.linalg.cholesky(_shifted(A, j)), f"matrix of size {len(A)}")


def eigen_factor(C, scale):
    """(F, F⁺): the eigen-factor F = V·√w of a symmetric C (k, k), with the
    eigenpairs (w, V) of w at or below PSEUDO_RTOL·scale dropped, and its
    pseudo-inverse, so that F⁺ᵀ·F⁺ is the pseudo-inverse of C."""
    w, V = np.linalg.eigh(C)
    keep = w > PSEUDO_RTOL * scale
    root = np.sqrt(np.where(keep, w, 1.0))
    return V * (root * keep), (V / root * keep).T


def condition(mu1, mu2, S11, S12, S22, observed,
              pseudo_inverse: bool = False) -> ConditioningResult:
    """Condition the block with mean mu2 on the observed block with mean mu1.

    cond_mean = mu2 + S12ᵀ·S11⁻¹·(observed − mu1)
    cond_cov  = S22 − S12ᵀ·S11⁻¹·S12

    ``first_rung`` walks the ladder: S11 + jI is solved at the first rung j
    of JITTER_LADDER, from j = 0, where it has a Cholesky factor and the
    solve works.  Past the last rung the walk raises NotPsdError, or with
    ``pseudo_inverse`` solves at j = +inf through the pseudo-inverse of
    ``eigen_factor``, thresholded against max diag S11, and the result is
    flagged ``rank_deficient``.
    cond_cov is symmetrized and diagonal entries in [−1e−12, 0) are clamped
    to zero.
    """
    names = ("mu1", "mu2", "S11", "S12", "S22", "observed")
    arrays = [np.asarray(a, dtype=float) for a in (mu1, mu2, S11, S12, S22, observed)]
    for name, arr in zip(names, arrays):
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite entries in {name}")
    mu1, mu2, S11, S12, S22, observed = arrays

    # one solve covers both the innovation and S12
    B = np.concatenate([(observed - mu1)[:, None], S12], axis=1)

    def solve(j):
        if j == math.inf:
            _, pinv = eigen_factor(S11, S11.diagonal().max())
            return pinv.T @ (pinv @ B)
        A = _shifted(S11, j)
        np.linalg.cholesky(A)   # a singular A can factor in floating point: then the solve fails
        return np.linalg.solve(A, B)

    X, jitter = first_rung(solve, f"matrix of size {len(S11)}", pseudo_inverse=pseudo_inverse)

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

    ``first_rung`` walks the ladder: L is the Cholesky factor of cov + jI at
    the first rung j where it factors, or with ``pseudo_inverse``, past the
    last rung, the ``eigen_factor`` of the symmetrised cov, thresholded
    against max diag cov, so a rank-deficient cov draws along its range from
    the same z.  Raises NotPsdError past the last rung otherwise.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if not np.any(cov):
        return mean.copy()

    def factor(j):
        if j == math.inf:
            return eigen_factor(0.5 * (cov + cov.T), cov.diagonal().max())[0]
        return np.linalg.cholesky(_shifted(cov, j))

    L, _ = first_rung(factor, f"matrix of size {len(cov)}", pseudo_inverse=pseudo_inverse)
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
