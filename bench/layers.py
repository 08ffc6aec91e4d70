"""Where the benchmark's tracer hooks into grfspan, and the per-layer metrics.

Each public function is wrapped at every place it is looked up at call
time: ``limits`` and ``trajectories`` import ``condition``, ``joint_blocks``,
``residual_variance`` and friends by name, so those module attributes are
patched as well as the defining module's.  ``KernelModel`` covariance rules,
``GsaSpec.row``, ``InfoView.__init__`` and ``ConvergenceReport.to_csv`` are
patched on their classes.  ``kernel.k3`` is a per-instance lambda, so its
cost lands in the self time of whoever calls it (``assembly.k3_matrix`` and
``trajectories.simulate_info_path``).
"""

from __future__ import annotations

import math
import statistics

from grfspan import algorithms, assembly, gaussianops, harness, kernels, limits, trajectories
from grfspan.gaussianops import DEFAULT_POLICY

from tracer import Target, aggregate

#: span name of the benchmark's own root span around one timed call
OP_SPAN = "bench.op"

#: limit_step calls whose single duration is reported (steps of one predict)
STEP_PROBES = (10, 20, 30)


def _cov_block_counts(args, kwargs, result):
    return {"entries": int(result.size)}


def _condition_counts(args, kwargs, result):
    S11 = kwargs["S11"] if "S11" in kwargs else args[2]
    return {"n3": len(S11) ** 3,
            "jittered": int(math.isfinite(result.log_jitter_used)),
            "rank_deficient": int(result.rank_deficient)}


def _cholesky_counts(args, kwargs, result):
    policy = kwargs.get("policy", args[1] if len(args) > 1 else DEFAULT_POLICY)
    _, jitter = result
    retries = next(i for i, rung in enumerate(policy.ladder()) if rung == jitter)
    return {"n3": len(args[0]) ** 3, "retries": retries}


def targets():
    """Every attribute the traced run wraps, with its span name."""
    K, A, G = kernels.KernelModel, assembly, gaussianops
    out = [
        Target(K, "cov_ff", "kernels.cov_ff"),
        Target(K, "cov_df_f", "kernels.cov_df_f"),
        Target(K, "cov_df_df", "kernels.cov_df_df"),
        Target(kernels, "check_domain", "kernels.check_domain"),
        Target(algorithms.GsaSpec, "row", "algorithms.GsaSpec.row"),
        Target(algorithms.InfoView, "__init__", "algorithms.InfoView"),
        Target(G, "cholesky_psd", "gaussianops.cholesky_psd", _cholesky_counts),
        Target(limits, "limit_step", "limits.limit_step"),
        Target(harness, "run_verify", "harness.run_verify"),
        Target(harness.ConvergenceReport, "to_csv", "harness.ConvergenceReport.to_csv"),
    ]
    lookups = {
        "cov_block": (A, trajectories),
        "mean_block": (A, trajectories),
        "joint_blocks": (A, limits, trajectories),
        "k3_matrix": (A,),
        "residual_variance": (A, limits, trajectories),
    }
    counts = {"cov_block": _cov_block_counts}
    for attr, modules in lookups.items():
        out += [Target(m, attr, f"assembly.{attr}", counts.get(attr)) for m in modules]
    for attr, modules in {"condition": (G, A, limits, trajectories),
                          "sample_mvn": (G, trajectories),
                          "sample_chi_square": (G, trajectories),
                          "make_rng": (G, trajectories)}.items():
        count = _condition_counts if attr == "condition" else None
        out += [Target(m, attr, f"gaussianops.{attr}", count) for m in modules]
    out += [Target(m, "simulate_info_path", "trajectories.simulate_info_path")
            for m in (trajectories, harness)]
    return out


#: per-layer metric -> (span name, field, unit); values are per timed call
PER_OP = {
    "kernels.cov_df_df.self_s": ("kernels.cov_df_df", "self_s", "s/op"),
    "kernels.cov_df_df.calls": ("kernels.cov_df_df", "calls", "1/op"),
    "kernels.cov_df_f.self_s": ("kernels.cov_df_f", "self_s", "s/op"),
    "kernels.cov_ff.self_s": ("kernels.cov_ff", "self_s", "s/op"),
    "kernels.check_domain.self_s": ("kernels.check_domain", "self_s", "s/op"),
    "assembly.cov_block.self_s": ("assembly.cov_block", "self_s", "s/op"),
    "assembly.cov_block.calls": ("assembly.cov_block", "calls", "1/op"),
    "assembly.cov_block.entries": ("assembly.cov_block", "entries", "1/op"),
    "assembly.joint_blocks.self_s": ("assembly.joint_blocks", "self_s", "s/op"),
    "assembly.mean_block.self_s": ("assembly.mean_block", "self_s", "s/op"),
    "assembly.k3_matrix.self_s": ("assembly.k3_matrix", "self_s", "s/op"),
    "assembly.residual_variance.total_s": ("assembly.residual_variance", "total_s", "s/op"),
    "gaussianops.condition.self_s": ("gaussianops.condition", "self_s", "s/op"),
    "gaussianops.condition.calls": ("gaussianops.condition", "calls", "1/op"),
    "gaussianops.condition.n3": ("gaussianops.condition", "n3", "1/op"),
    "gaussianops.condition.jittered": ("gaussianops.condition", "jittered", "1/op"),
    "gaussianops.condition.rank_deficient": ("gaussianops.condition", "rank_deficient", "1/op"),
    "gaussianops.cholesky_psd.self_s": ("gaussianops.cholesky_psd", "self_s", "s/op"),
    "gaussianops.cholesky_psd.calls": ("gaussianops.cholesky_psd", "calls", "1/op"),
    "gaussianops.cholesky_psd.n3": ("gaussianops.cholesky_psd", "n3", "1/op"),
    "gaussianops.cholesky_psd.retries": ("gaussianops.cholesky_psd", "retries", "1/op"),
    "gaussianops.sample_mvn.self_s": ("gaussianops.sample_mvn", "self_s", "s/op"),
    "gaussianops.sample_chi_square.self_s": ("gaussianops.sample_chi_square", "self_s", "s/op"),
    "gaussianops.make_rng.self_s": ("gaussianops.make_rng", "self_s", "s/op"),
    "algorithms.GsaSpec.row.self_s": ("algorithms.GsaSpec.row", "self_s", "s/op"),
    "algorithms.GsaSpec.row.calls": ("algorithms.GsaSpec.row", "calls", "1/op"),
    "algorithms.InfoView.self_s": ("algorithms.InfoView", "self_s", "s/op"),
    "algorithms.InfoView.calls": ("algorithms.InfoView", "calls", "1/op"),
    "limits.limit_step.self_s": ("limits.limit_step", "self_s", "s/op"),
    "limits.limit_step.calls": ("limits.limit_step", "calls", "1/op"),
    "trajectories.simulate_info_path.self_s": ("trajectories.simulate_info_path", "self_s", "s/op"),
    "trajectories.simulate_info_path.calls": ("trajectories.simulate_info_path", "calls", "1/op"),
    "harness.run_verify.self_s": ("harness.run_verify", "self_s", "s/op"),
    "harness.ConvergenceReport.to_csv.self_s": ("harness.ConvergenceReport.to_csv", "self_s", "s/op"),
}


def step_durations(spans):
    """Median duration of the k-th ``limits.limit_step`` call of an operation,
    for k in STEP_PROBES; 0 where no operation reached step k."""
    by_op = {}
    for span in spans:
        if span.name == "limits.limit_step":
            by_op.setdefault(span.op, []).append(span)
    out = {}
    for k in STEP_PROBES:
        durations = [sorted(steps, key=lambda s: s.start)[k - 1].duration
                     for steps in by_op.values() if len(steps) >= k]
        out[f"limits.limit_step.s_at_{k}"] = statistics.median(durations) if durations else 0.0
    return out


def layer_metrics(spans, ops):
    """Per-layer metrics averaged over ``ops`` traced calls, as
    ``{name: (value, unit)}``.  A layer a workload never enters reads 0."""
    table = aggregate(spans)
    metrics = {}
    for metric, (name, key, unit) in PER_OP.items():
        metrics[metric] = (table.get(name, {}).get(key, 0) / ops, unit)
    for metric, value in step_durations(spans).items():
        metrics[metric] = (value, "s")
    return metrics
