"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload verify-t8 --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced calls of the same inputs and
reports per-layer metrics, the tracing overhead, and writes every span to
``.bench_run/spans-<workload>.jsonl``.  The last line of standard output is
the result object; the line before it holds run metadata.
"""

import os

# BLAS threads change output bits and timings; pin them before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"

#: fresh interpreters started to time import + load_config; the median counts
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import grfspan
from grfspan.harness import load_config
load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_samples(config_path):
    """Seconds for ``import grfspan`` + ``load_config`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config_path)],
                              env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def percentile(samples, p):
    """The p-th percentile, interpolating between order statistics."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def digits(error):
    """-log10 of an absolute error, floored at 1e-17 (past float64 precision)."""
    return -math.log10(max(error, 1e-17))


def host_loop_ms():
    """Best of three timings of a fixed pure-Python loop.  It is not a
    metric: it shows how fast the host ran around a run, so drift between
    runs can be told apart from changes in the program."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for k in range(200_000):
            total += k * k % 7
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def git_commit():
    """HEAD's commit read from ``.git`` without running git; None outside a
    git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, workload):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "workers": getattr(workload, "workers", None),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


class Tally:
    """Attempted and failed operations, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, workload, i):
        """One checked call; returns (output, seconds), output None if the
        call raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = workload.call(i)
        except Exception:
            elapsed = time.perf_counter() - t0
            self.failed += 1
            self.problems.append(f"call {i} raised")
            traceback.print_exc()
            return None, elapsed
        elapsed = time.perf_counter() - t0
        bad = workload.check(i, out)
        if bad:
            self.failed += 1
            self.problems += bad
        return out, elapsed


def end_to_end(args, workload):
    """Untraced calls for ``--seconds``; every end-to-end metric."""
    tally = Tally()
    workload.warmup()
    latencies = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        out, elapsed = tally.run(workload, i)
        if out is not None:
            latencies.append(elapsed)
        i += 1
        if time.perf_counter() >= deadline:
            break
    if not latencies:
        sys.exit("error: every timed call failed")
    rss = peak_rss_mb()
    tally.problems += workload.final_check()
    error = workload.lift_direct_error()
    setup = setup_samples(workload.config_path())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "call_ms_min": (1e3 * min(latencies), "ms"),
        "peak_rss_mb": (rss, "MB"),
        "lift_direct_digits": (digits(error), "digits"),
    }
    extra = {"calls": len(latencies),
             "call_ms_p10": 1e3 * percentile(latencies, 10),
             "call_ms_p50": 1e3 * statistics.median(latencies),
             "items_per_s": workload.items_per_call * len(latencies) / sum(latencies),
             "lift_direct_max_abs": error, "setup_samples_s": setup}
    if len(latencies) >= 100:
        extra["call_ms_p90"] = 1e3 * percentile(latencies, 90)
    return tally, metrics, extra


def traced(args, workload):
    """Pairs of untraced and traced calls on the same input, in alternating
    order; per-layer metrics over the traced calls."""
    from layers import OP_SPAN, layer_metrics, targets
    from tracer import Tracer

    tally = Tally()
    tracer = Tracer()
    hooks = targets()
    workload.warmup()
    ratios = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        outs = {}
        for tracing in ((False, True) if i % 2 == 0 else (True, False)):
            if tracing:
                tracer.op = i
                with tracer.patch(hooks), tracer.span(OP_SPAN):
                    outs[tracing] = tally.run(workload, i)
            else:
                outs[tracing] = tally.run(workload, i)
        (plain, t_plain), (trace_out, t_trace) = outs[False], outs[True]
        if plain is not None and trace_out is not None:
            if not workload.same(plain, trace_out):
                tally.failed += 1
                tally.problems.append(f"call {i}: traced output differs from untraced")
            ratios.append(t_trace / t_plain)
        i += 1
        if time.perf_counter() >= deadline:
            break
    if not ratios:
        sys.exit("error: no untraced and traced call pair succeeded")
    tally.problems += workload.final_check()
    metrics = layer_metrics(tracer.spans, ops=i)
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    span_file = OUT / f"spans-{args.workload}.jsonl"
    tracer.write_jsonl(span_file)
    return tally, metrics, {"traced_calls": i, "spans": len(tracer.spans),
                            "span_file": str(span_file.relative_to(ROOT))}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "grfspan" / "__init__.py").is_file():
        print(f"error: grfspan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, traced=bool(args.trace))
        measure = traced if args.trace else end_to_end
        host_before = host_loop_ms()
        tally, metrics, extra = measure(args, workload)
        extra["host_loop_ms"] = [host_before, host_loop_ms()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"meta": {**metadata(args, workload), **extra}}))
    print(json.dumps({
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
