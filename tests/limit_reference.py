"""A 50-digit reference for the N→∞ limit curve on the squared-exponential field.

The field has mean 0 and N·Cov(f(x), f(y)) = C(‖x − y‖²/2) with
C(r) = e^{−r}; gradient descent or heavy-ball starts from x₀ = λ·v₀.  The
recursion is written out here by hand in mpmath, independent of
``grfspan.kernels`` and ``grfspan.assembly``:

* In the limit each new point's (f, ∇f) rows are observed at their
  conditional mean, so only the direction rows move a later mean.  The
  direction v_{j+1} opened at step j has the rows D_{v_{j+1}} f(y_a),
  a = 0..j, observed as (0, …, 0, σ_j), with covariance K_j[a, b] =
  e^{−‖y_a − y_b‖²/2} (κ₃ of C), and uncorrelated with every other direction.
  Their weights u_j = K_j⁻¹·σ_j·e_j = L_j⁻ᵀ·e_j are fixed once v_{j+1} opens.
* A new point y is then conditioned through
  Cov(f(y), D_{v_{j+1}} f(y_a)) = e_a·y[j+1] and
  Cov(D_{v_i} f(y), D_{v_{j+1}} f(y_a)) = e_a·(δ_{i,j+1} − (y[i] − y_a[i])·y[j+1]),
  with e_a = e^{−‖y − y_a‖²/2}.
* σ_w is the new pivot of the Cholesky factor L of the points' κ₃ matrix,
  which grows by one row per step.

Every step costs O(n²) operations, so T = 30 takes well under a second.

Run as a script, it checks ``grfspan.predict`` on a config file against the
reference and exits 1 when f_limit or grad_gram_limit is further away than
``TOL``:

    PYTHONPATH=src python tests/limit_reference.py bench/configs/predict-t30.cfg
"""

from __future__ import annotations

import argparse
import sys

from mpmath import mp, mpf

DIGITS = 50
TOL = 1e-11     # largest |Δ| the script accepts


def reference_curve(alpha, beta, lam, steps):
    """(f_limit, grad_gram_limit, sigma_w) of heavy-ball(alpha, beta) on the
    SE field, steps 0..steps from ‖x₀‖ = lam > 0, as nested lists of mpf;
    sigma_w holds the pivots σ_n, and beta = 0 is gradient descent.  The float
    inputs are taken at their exact binary value."""
    with mp.workdps(DIGITS):
        alpha, beta, lam = mpf(alpha), mpf(beta), mpf(lam)
        width = steps + 2
        Y, G, f, pivots = [], [], [], []   # point and gradient coordinate rows, values, σ_n
        L, U = [], []            # factor rows of the κ₃ matrix; u_j of each direction
        for n in range(steps + 1):
            y = [lam] + [mpf(0)] * (width - 1)
            for k in range(n):
                h = -alpha * (1 - beta ** (n - k)) / (1 - beta)
                for i in range(k + 2):
                    y[i] += h * G[k][i]
            e = [mp.exp(-sum((y[i] - Y[a][i]) ** 2 for i in range(n + 1)) / 2)
                 for a in range(n)]
            c = [e[a] * sum(U[j][a] * y[j + 1] for j in range(a, n)) for a in range(n)]
            f_n = sum(c, mpf(0))
            g = [-y[i] * f_n + sum((c[a] * Y[a][i] for a in range(n)), mpf(0))
                 for i in range(n + 1)] + [mpf(0)] * (width - n - 1)
            for i in range(1, n + 1):
                g[i] += sum(e[a] * U[i - 1][a] for a in range(i))
            # the κ₃ row of the new point: forward substitution, then its pivot
            row = []
            for a in range(n):
                row.append((e[a] - sum(L[a][b] * row[b] for b in range(a))) / L[a][a])
            sigma = mp.sqrt(1 - sum(l * l for l in row))
            L.append(row + [sigma])
            u = [mpf(0)] * (n + 1)
            for a in range(n, -1, -1):
                u[a] = ((1 if a == n else 0) - sum(L[b][a] * u[b] for b in range(a + 1, n + 1))) \
                    / L[a][a]
            g[n + 1] = sigma
            Y.append(y)
            G.append(g)
            f.append(f_n)
            pivots.append(sigma)
            U.append(u)
        gram = [[sum(a * b for a, b in zip(G[k], G[l])) for l in range(steps + 1)]
                for k in range(steps + 1)]
    return f, gram, pivots


def max_deviation(curve, reference):
    """max |Δ| of a LimitCurve's f_limit and grad_gram_limit from a reference."""
    f, gram, _ = reference
    n = len(f)
    return max(max(abs(float(curve.f_limit[k] - f[k])) for k in range(n)),
               max(abs(float(curve.grad_gram_limit[k, l] - gram[k][l]))
                   for k in range(n) for l in range(n)))


def _reference_of(config):
    """The reference of a config, or SystemExit when it is not one this covers."""
    kernel, algorithm = config.kernel, config.algorithm or {}
    if (kernel["type"] != "stationary_schoenberg" or kernel["atoms"] != ((1.0, 1.0),)
            or kernel.get("mean_level", 0.0) != 0.0):
        sys.exit("the reference covers the SE kernel atoms = [[1.0, 1.0]] with mean 0 only")
    if algorithm.get("type") not in ("gd", "heavy_ball") or algorithm.get("projection") not in (
            None, "none"):
        sys.exit("the reference covers unprojected gd and heavy_ball only")
    if not config.lam > 0:
        sys.exit("the reference needs lambda > 0")
    return reference_curve(algorithm["alpha"], algorithm.get("beta", 0.0), config.lam,
                           config.steps)


def main(argv=None):
    # imported here: the reference above needs mpmath alone
    from grfspan.harness import build_gsa, build_kernel, load_config
    from grfspan.limits import predict

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="an experiment config with [kernel], [algorithm], "
                                       "lambda and steps")
    args = parser.parse_args(argv)
    config = load_config(args.config)
    reference = _reference_of(config)
    curve = predict(build_kernel(config.kernel), build_gsa(config.algorithm), config.lam,
                    config.steps, on_rank_stall=config.rank_stall)
    deviation = max_deviation(curve, reference)
    verdict = "PASS" if deviation <= TOL else "FAIL"
    print(f"{args.config}: max |Δ| of f_limit and grad_gram_limit = {deviation:.3e}, "
          f"tolerance {TOL:g}: {verdict}")
    return 0 if verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
