"""Exact N→∞ limit curves and finite-N means of optimizers on the 1+2-spin field.

For ξ(s) = c₁²·s + c₂²·s², the field f(x) = ⟨b, x⟩ + xᵀMx on ℝ^N, with M
GOE of off-diagonal variance c₂²/(2N) and b ~ N(0, c₁²/N·I), has
N·Cov(f(x), f(y)) = ξ(⟨x, y⟩), the law of ``spin_glass_kernel`` on the
coefficients (0, c₁, c₂).  Its Hessian A = 2M has, as N → ∞, the semicircle
law μ of variance 2c₂², whose moments are m₂ₖ = Catₖ·(2c₂²)ᵏ and m₂ₖ₊₁ = 0.

An optimizer whose rows read no information (gd, heavy-ball, Nesterov)
places x_n = P_n(A)·x₀ + Q_n(A)·b.  The gradient at x_k is A·x_k + b, so the
polynomials follow from the optimizer's own rows ``gsa.row(n, None)``:

    P_0 = 1, Q_0 = 0,   P_n = h_x + Σ_k h_g[k]·t·P_k,   Q_n = Σ_k h_g[k]·(1 + t·Q_k).

By rotation invariance, with ‖x₀‖ = λ,

    𝔣_n  = c₁²∫Q_n dμ + ½λ²∫t·P_n² dμ + ½c₁²∫t·Q_n² dμ,
    𝔤_ij = λ²∫t²·P_i·P_j dμ + c₁²∫(1 + t·Q_i)(1 + t·Q_j) dμ.

Everything is computed in exact rational arithmetic (``fractions``), with
each float row coefficient and λ at its exact binary value; no kernel
partial, κ₃ factor or conditioning enters.  References: the average-case
analysis of optimizers on random quadratics through their spectral density
(Pedregosa & Scieur, ICML 2020; Paquette, Lee, Pedregosa & Paquette, COLT
2021).

The same formulas give the exact means at a finite dimension N, the mean of
f_n and of ⟨∇f(x_i), ∇f(x_j)⟩ over the field: rotation invariance gives
E x₀ᵀp(A)x₀ = λ²·E tr p(A)/N and E bᵀp(A)b = c₁²·E tr p(A)/N, and the cross
terms have mean 0, so μ's moments are replaced by m_k(N) = E tr(Aᵏ)/N.
With X = √(N/(2c₂²))·A, a GOE matrix of off-diagonal variance 1 and
diagonal variance 2, m₂ₚ(N) = (2c₂²/N)ᵖ·b_p/N for b_p = E tr X²ᵖ, which
``goe_trace_moments`` computes, and the odd moments are 0.

On the pure 2-spin (c₁ = 0) the information of a run is deterministic in
the limit, so rows that read it have an exact curve too:
``exact_reading_curve`` gives it for ``fr_cg``, in fractions, and for gd
projected on the unit sphere, in DIGITS-digit mpmath, since the projection
takes a square root.

Run as a script, it steps ``predict``'s recursion on one such case until the
recursion raises or reaches --steps, prints the relative error of the curve
through each step, max|Δ| over max|exact| of f and of the gradient Gram, and
exits 1 when the recursion stops before step --checked (default
``CHECKED``) or the curve through that step is further than ``TOL`` from
the exact one:

    PYTHONPATH=src python tests/semicircle_reference.py gd 0.3 --c1-sq 0.5
    PYTHONPATH=src python tests/semicircle_reference.py gd 0.3 --sphere --checked 7
    PYTHONPATH=src python tests/semicircle_reference.py fr_cg 0.3 --checked 6

With --finite-n N it samples RUNS runs of ``simulate_info_paths`` at
dimension N and master seed --seed (default 1) instead, and prints per
step, for f and for ‖∇f‖², N·(mean − exact) against
``exact_curve(..., N=N)`` and N times the standard error of the mean.  The
steps of a run are strongly correlated, so a chance deviation at step 0
carries through the later steps (seed 1 reads about 2 standard errors at
step 0 and 3 from step 1 on the case below):

    PYTHONPATH=src python tests/semicircle_reference.py gd 0.3 --c1-sq 0.5 --finite-n 16 --steps 5
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

TOL = 1e-12     # largest relative error the script accepts through step CHECKED
CHECKED = 8
DIGITS = 50     # mpmath's working digits where a row takes a square root
RUNS = 4000     # runs sampled by --finite-n


def _add(p, q):
    """Sum of two polynomials, coefficient lists from t⁰ up."""
    if len(p) < len(q):
        p, q = q, p
    return [a + b for a, b in zip(p, q)] + p[len(q):]


def _mul(p, q):
    """Product of two polynomials."""
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _gram(polys, m):
    """The matrix of ∫p_i·p_j dμ over a list of polynomials, μ of moments m:
    each p_j is multiplied once by the Hankel matrix (m_{k+l}), and each
    pair takes one dot product with it, by symmetry the upper triangle only."""
    size = max(map(len, polys))
    H = [[sum(c * m[i + k] for k, c in enumerate(p)) for i in range(size)] for p in polys]
    out = [[0] * len(polys) for _ in polys]
    for i, p in enumerate(polys):
        for j in range(i, len(polys)):
            out[i][j] = out[j][i] = sum(c * h for c, h in zip(p, H[j]))
    return out


def semicircle_moments(c2_sq, degree):
    """∫tᵏ dμ for k = 0..degree, μ the semicircle law of variance 2c₂²."""
    var = 2 * Fraction(c2_sq)
    return [Fraction(math.comb(k, k // 2), k // 2 + 1) * var ** (k // 2) if k % 2 == 0
            else Fraction(0) for k in range(degree + 1)]


def goe_trace_moments(N, p_max):
    """b_p = E tr X²ᵖ for p = 0..p_max, X an N×N GOE matrix of off-diagonal
    variance 1 and diagonal variance 2, as Fractions: four seeds, then the
    recursion of M. Ledoux, "A recursion formula for the moments of the
    Gaussian orthogonal ensemble", Ann. Inst. H. Poincaré Probab. Statist.
    45 (2009)."""
    b = [Fraction(v) for v in (N, N ** 2 + N, 2 * N ** 3 + 5 * N ** 2 + 5 * N,
                               5 * N ** 4 + 22 * N ** 3 + 52 * N ** 2 + 41 * N)][:p_max + 1]
    for p in range(4, p_max + 1):
        c = (2 * p - 3) * (2 * p - 4) * (2 * p - 5)
        b.append(((4 * p - 1) * (2 * N - 1) * b[p - 1]
                  + (2 * p - 3) * (10 * p * p - 9 * p - 8 * N * N + 8 * N) * b[p - 2]
                  - 5 * c * (2 * N - 1) * b[p - 3]
                  - 2 * c * (2 * p - 6) * (2 * p - 7) * b[p - 4]) / (p + 1))
    return b


def finite_n_moments(c2_sq, N, degree):
    """E tr(Aᵏ)/N for k = 0..degree, A the Hessian at dimension N."""
    var, b = 2 * Fraction(c2_sq) / N, goe_trace_moments(N, degree // 2)
    return [var ** (k // 2) * b[k // 2] / N if k % 2 == 0 else Fraction(0)
            for k in range(degree + 1)]


def exact_curve(gsa, c1_sq, c2_sq, lam, steps, N=None):
    """(f, gram) of ``gsa`` on ξ = c₁²s + c₂²s² from ‖x₀‖ = lam, steps
    0..steps, as a list and a nested list of Fractions: the N→∞ limit, or
    with an integer N the exact means at dimension N.  ``gsa``'s rows must
    read no information."""
    c1_sq, lam_sq = Fraction(c1_sq), Fraction(lam) ** 2
    P, Q = [[Fraction(1)]], [[]]
    for n in range(1, steps + 1):
        row = gsa.row(n, None)
        p, q = [Fraction(row.h_x)], []
        for k, h in enumerate(row.h_g.tolist()):
            h = Fraction(h)
            p = _add(p, [h * c for c in [0] + P[k]])
            q = _add(q, [h * c for c in _add([1], [0] + Q[k])])
        P.append(p)
        Q.append(q)
    degree = 2 * steps + 2
    m = semicircle_moments(c2_sq, degree) if N is None else finite_n_moments(c2_sq, N, degree)

    def integral(poly):
        return sum((c * mk for c, mk in zip(poly, m)), Fraction(0))

    f = [c1_sq * integral(q) + lam_sq / 2 * integral(_mul([0] + p, p))
         + c1_sq / 2 * integral(_mul([0] + q, q)) for p, q in zip(P, Q)]
    tP = [[0] + p for p in P]               # the x₀ part of each gradient
    R = [_add([1], [0] + q) for q in Q]     # its b part
    x0_part, b_part = _gram(tP, m), _gram(R, m)
    gram = [[lam_sq * x0_part[i][j] + c1_sq * b_part[i][j] for j in range(steps + 1)]
            for i in range(steps + 1)]
    return f, gram


def exact_reading_curve(gsa, c2_sq, steps):
    """(f, gram) of ``gsa`` in the N→∞ limit on the pure 2-spin ξ = c₂²s²
    from ‖x₀‖ = 1, steps 0..steps, as Fractions, for two rows that read the
    information: ``fr_cg``, in exact rational arithmetic, and gd inside
    ``with_sphere_projection`` of radius 1, in DIGITS-digit mpmath, whose
    values are returned as exact Fractions.

    With b = 0, x_n = X_n(A)·x₀ and the information is deterministic:
    f_n = ½∫t·X_n² dμ and 𝔤_ij = ∫t²·X_i·X_j dμ.  The sphere rescales the
    inner row's whole iterate: X_n = Y_n/√∫Y_n² dμ with
    Y_n = 1 − αt·Σ_{k<n} X_k, a square root.  ``fr_cg`` steps
    X_{n+1} = X_n + α·d_n, with d_0 = −t·X_0, d_n = −t·X_n + β_n·d_{n−1}
    and β_n = 𝔤_nn/𝔤_{n−1,n−1}, a ratio of Gram entries.
    """
    sphere = gsa.name == "gd+sphere" and gsa.parameters["radius"] == 1
    if not (sphere or gsa.name == "fr_cg"):
        raise ValueError(f"no exact reading curve for {gsa.name} {gsa.parameters}")
    import mpmath
    m = semicircle_moments(c2_sq, 2 * steps + 2)
    with mpmath.workdps(DIGITS):
        if sphere:
            m = [mpmath.mpf(v.numerator) / v.denominator for v in m]
            alpha = mpmath.mpf(gsa.parameters["alpha"])
        else:
            alpha = Fraction(gsa.parameters["alpha"])

        def integral(poly):
            return sum(c * mk for c, mk in zip(poly, m))

        X, norms = [[1]], []
        for _ in range(steps):
            if sphere:
                y = _add([1], [0] + [-alpha * c for c in functools.reduce(_add, X)])
                X.append([c / mpmath.sqrt(integral(_mul(y, y))) for c in y])
                continue
            grad = [0] + X[-1]
            norms.append(integral(_mul(grad, grad)))
            d = [-c for c in grad] if len(norms) == 1 else _add(
                [-c for c in grad], [norms[-1] / norms[-2] * c for c in d])
            X.append(_add(X[-1], [alpha * c for c in d]))
        tX = [[0] + x for x in X]
        f = [integral(_mul(t, x)) / 2 for t, x in zip(tX, X)]
        gram = _gram(tX, m)
    if sphere:
        f, gram = [_rational(v) for v in f], [[_rational(v) for v in row] for row in gram]
    return f, gram


def _rational(v):
    """The exact value of an mpf as a Fraction."""
    man, exp = v.man_exp        # man is |mantissa|
    return Fraction(-man if v < 0 else man) * Fraction(2) ** exp


def relative_errors(curve, exact):
    """Per step n, (f error, Gram error) of a LimitCurve through step n:
    max|Δ| over max|exact| of f_0..f_n and of the Gram's leading
    (n+1)×(n+1) block; a |Δ| of 0 reads 0."""
    f, gram = exact
    out = []
    for n in range(curve.steps + 1):
        df = max(abs(float(Fraction(curve.f_limit[k]) - f[k])) for k in range(n + 1))
        sf = max(abs(float(f[k])) for k in range(n + 1))
        dg = max(abs(float(Fraction(curve.grad_gram_limit[k, l]) - gram[k][l]))
                 for k in range(n + 1) for l in range(n + 1))
        sg = max(abs(float(gram[k][l])) for k in range(n + 1) for l in range(n + 1))
        out.append((df / sf if df else 0.0, dg / sg if dg else 0.0))
    return out


def main(argv=None):
    # imported here: the exact curves above need no grfspan code
    from grfspan.algorithms import fr_cg, gd, heavy_ball, nesterov, with_sphere_projection
    from grfspan.assembly import LimitState
    from grfspan.errors import NumericalError
    from grfspan.kernels import SpinGlassMixture, spin_glass_kernel
    from grfspan.limits import SpanWalk, limit_step

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("optimizer", choices=("gd", "heavy_ball", "nesterov", "fr_cg"))
    parser.add_argument("alpha", type=float)
    parser.add_argument("--beta", type=float, help="momentum, for heavy_ball and nesterov")
    parser.add_argument("--sphere", action="store_true",
                        help="project gd's iterates on the sphere of radius 1")
    parser.add_argument("--c1-sq", type=Fraction, default=Fraction(0), help="c₁² (default 0)")
    parser.add_argument("--c2-sq", type=Fraction, default=Fraction(1), help="c₂² (default 1)")
    parser.add_argument("--lam", type=float, default=1.0, help="‖x₀‖ (default 1)")
    parser.add_argument("--steps", type=int, default=30, help="largest step taken (default 30)")
    parser.add_argument("--checked", type=int, default=CHECKED,
                        help=f"the step through which the curve must hold (default {CHECKED})")
    parser.add_argument("--finite-n", type=int, metavar="N",
                        help=f"instead print N·(mean − exact) of {RUNS} runs at dimension N")
    parser.add_argument("--seed", type=int, default=1,
                        help="master seed of the runs --finite-n samples (default 1)")
    args = parser.parse_args(argv)
    if args.optimizer in ("heavy_ball", "nesterov"):
        if args.beta is None:
            parser.error(f"{args.optimizer} needs --beta")
        gsa = (heavy_ball if args.optimizer == "heavy_ball" else nesterov)(args.alpha, args.beta)
    else:
        gsa = (gd if args.optimizer == "gd" else fr_cg)(args.alpha)
    if args.sphere:
        if args.optimizer != "gd":
            parser.error("--sphere projects gd only")
        gsa = with_sphere_projection(gsa, 1.0)
    reads = args.sphere or args.optimizer == "fr_cg"
    if reads and (args.c1_sq or args.lam != 1 or args.finite_n):
        parser.error(f"{gsa.name} has an exact curve only in the limit at c1^2 = 0, lambda = 1")
    coeffs = (0.0, math.sqrt(args.c1_sq), math.sqrt(args.c2_sq))
    kernel = spin_glass_kernel(SpinGlassMixture(coeffs))
    print(f"{gsa.name} {gsa.parameters}, c1^2 = {args.c1_sq}, c2^2 = {args.c2_sq}, "
          f"lambda = {args.lam}")
    if args.finite_n:
        return _finite_n_gaps(kernel, gsa, args)

    walk = SpanWalk(LimitState(kernel), args.lam, args.steps)
    stop = f"predict reached step {args.steps}"
    try:
        for _ in range(args.steps + 1):
            limit_step(walk, gsa)
    except NumericalError as exc:
        stop = f"predict raises at step {walk.n}: {type(exc).__name__}: {exc}"
    curve = walk.curve()
    exact = (exact_reading_curve(gsa, args.c2_sq, curve.steps) if reads
             else exact_curve(gsa, args.c1_sq, args.c2_sq, args.lam, curve.steps))
    errors = relative_errors(curve, exact)
    print("step  f rel err  gram rel err")
    for n, (ef, eg) in enumerate(errors):
        print(f"{n:4d}  {ef:9.2e}  {eg:12.2e}")
    print(stop)
    worst = max(max(e) for e in errors[:args.checked + 1])
    passed = curve.steps >= args.checked and worst <= TOL
    print(f"through step {args.checked}: max rel err {worst:.2e}, tolerance {TOL:g}: "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _finite_n_gaps(kernel, gsa, args):
    """Print, per step, N·(mean − exact) of f and of ‖∇f‖² over RUNS sampled
    runs at N = ``args.finite_n`` and master seed ``args.seed``, with N times
    its standard error, where the exact means are ``exact_curve(..., N=N)``."""
    import numpy as np

    from grfspan.trajectories import simulate_info_paths

    N, steps = args.finite_n, args.steps
    runs = [r for start in range(0, RUNS, 500)
            for r in simulate_info_paths(kernel, gsa, args.lam, N, steps,
                                         range(start, start + 500), args.seed)]
    f, gram = exact_curve(gsa, args.c1_sq, args.c2_sq, args.lam, steps, N=N)
    sampled = np.array([[r.f_values for r in runs], [np.diagonal(r.grad_gram) for r in runs]])
    exact = np.array([f, [gram[n][n] for n in range(steps + 1)]], dtype=float)
    gap = N * (sampled.mean(axis=1) - exact)
    se = N * sampled.std(axis=1, ddof=1) / math.sqrt(RUNS)
    print(f"N = {N}, {RUNS} runs, master seed {args.seed}")
    print("step  f: N*(mean-exact)    N*SE  |grad f|^2: N*(mean-exact)    N*SE")
    for n in range(steps + 1):
        print(f"{n:4d}  {gap[0, n]:17.4g}  {se[0, n]:6.3g}  {gap[1, n]:26.4g}  {se[1, n]:6.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
