"""Experiment orchestration: configs, Monte Carlo fan-out, CSV reports.

A single config file describes the field, the optimizer, and the run
parameters; every experiment mode consumes the same config so the predicted
limit curve and the simulated trajectories can never disagree about what is
being run.  Reports are flat CSV — the columns carry enough raw statistics
that every derived quantity (gaps, slopes, medians, frequencies) can be
recomputed from the file alone.

Trajectory replications run in batches: a batch is a run of consecutive
streams of one N, of a fixed size, stepped together by
``simulate_info_paths``.  The batches fan out over a process pool sized by
the GRFSPAN_WORKERS environment variable (default: the CPUs the process may
run on).  Neither the batch a stream lands in nor the worker that runs it
changes a stream's bits, and results are keyed by (N, replication), so
identical config + master seed produce byte-identical CSV files regardless
of worker count.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .algorithms import (
    GsaSpec,
    fr_cg,
    gd,
    heavy_ball,
    nesterov,
    with_ball_projection,
    with_sphere_projection,
)
from .errors import ConfigError
from .gaussianops import DEFAULT_POLICY, ConditionPolicy
from .kernels import (
    KernelModel,
    SchoenbergMixture,
    SpinGlassMixture,
    lift_stationary,
    quadratic_kernel,
    spin_glass_kernel,
)
from .limits import LimitCurve, first_halting_step, predict
from .trajectories import simulate_info_paths
from .trajectories import simulate_info_path  # not called here: bench/layers.py wraps this name

WORKERS_ENV = "GRFSPAN_WORKERS"
FLOAT_FMT = "%.17g"

_KERNEL_TYPES = ("stationary_schoenberg", "spin_glass", "quadratic")
_KERNEL_KEYS = {
    "stationary_schoenberg": {"atoms", "mean_level"},
    "spin_glass": {"coeffs"},
    "quadratic": {"sigma_A", "sigma_eta", "R"},
}
_KERNEL_REQUIRED = {
    "stationary_schoenberg": {"atoms"},
    "spin_glass": {"coeffs"},
    "quadratic": {"sigma_A", "sigma_eta", "R"},
}
_ALG_TYPES = ("gd", "heavy_ball", "nesterov", "fr_cg")
_ALG_MOMENTUM = ("heavy_ball", "nesterov")
_RUN_KEYS = {"lambda", "N_list", "steps", "replications", "epsilons",
             "master_seed", "out", "rank_stall", "pseudo_inverse"}

#: epsilon thresholds are moved at least this relative distance away from
#: every limiting gradient-diagonal value before halting times are compared
EPSILON_MARGIN = 0.01


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description.

    kernel and algorithm are plain parameter dicts (picklable, so worker
    processes can rebuild the models); lam is the starting norm ‖x₀‖.
    """

    kernel: dict
    algorithm: dict | None = None
    lam: float = 1.0
    N_list: tuple = ()
    steps: int | None = None
    replications: int | None = None
    epsilons: tuple = ()
    master_seed: int = 0
    out: str | None = None
    rank_stall: str = "error"
    pseudo_inverse: bool = False

    def policy(self) -> ConditionPolicy:
        if self.pseudo_inverse:
            return ConditionPolicy(pseudo_fallback=True)
        return DEFAULT_POLICY


def _as_float(section, key, raw):
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a finite number, got {raw!r}")
    return value


def _as_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _as_bool(section, key, raw):
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"[{section}] {key}: expected true/false, got {raw!r}")


def _as_json_list(section, key, raw):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"[{section}] {key}: not a valid JSON list ({exc})") from None
    if not isinstance(value, list):
        raise ConfigError(f"[{section}] {key}: expected a JSON list, got {raw!r}")
    return value


def _is_number(value) -> bool:
    """Whether a JSON value is a finite number; JSON true/false load as bool,
    an int subclass, and NaN/Infinity as non-finite floats."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _parse_kernel(items):
    if "type" not in items:
        raise ConfigError("[kernel] missing required key 'type'")
    kind = items["type"]
    if kind not in _KERNEL_TYPES:
        raise ConfigError(
            f"[kernel] type must be one of {_KERNEL_TYPES}, got {kind!r}")
    allowed = _KERNEL_KEYS[kind] | {"type"}
    unknown = set(items) - allowed
    if unknown:
        raise ConfigError(
            f"[kernel] keys {sorted(unknown)} not allowed for type {kind}")
    missing = _KERNEL_REQUIRED[kind] - set(items)
    if missing:
        raise ConfigError(f"[kernel] type {kind} requires keys {sorted(missing)}")

    spec = {"type": kind}
    if kind == "stationary_schoenberg":
        atoms = _as_json_list("kernel", "atoms", items["atoms"])
        for entry in atoms:
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(_is_number(x) for x in entry)):
                raise ConfigError("[kernel] atoms entries must be [weight, rate] number pairs")
        spec["atoms"] = tuple((float(w), float(t)) for w, t in atoms)
        spec["mean_level"] = _as_float("kernel", "mean_level",
                                       items.get("mean_level", "0"))
    elif kind == "spin_glass":
        coeffs = _as_json_list("kernel", "coeffs", items["coeffs"])
        if not all(_is_number(c) for c in coeffs):
            raise ConfigError("[kernel] coeffs must be numbers")
        spec["coeffs"] = tuple(float(c) for c in coeffs)
    else:
        for key in ("sigma_A", "sigma_eta", "R"):
            spec[key] = _as_float("kernel", key, items[key])
    return spec


def _parse_algorithm(items):
    if "type" not in items:
        raise ConfigError("[algorithm] missing required key 'type'")
    kind = items["type"]
    if kind not in _ALG_TYPES:
        raise ConfigError(
            f"[algorithm] type must be one of {_ALG_TYPES}, got {kind!r}")
    allowed = {"type", "alpha", "projection", "radius"}
    if kind in _ALG_MOMENTUM:
        allowed.add("beta")
    unknown = set(items) - allowed
    if unknown:
        raise ConfigError(
            f"[algorithm] keys {sorted(unknown)} not allowed for type {kind}")
    if "alpha" not in items:
        raise ConfigError("[algorithm] missing required key 'alpha'")

    spec = {"type": kind, "alpha": _as_float("algorithm", "alpha", items["alpha"])}
    if kind in _ALG_MOMENTUM:
        if "beta" not in items:
            raise ConfigError(f"[algorithm] type {kind} requires key 'beta'")
        spec["beta"] = _as_float("algorithm", "beta", items["beta"])
    projection = items.get("projection", "none")
    if projection not in ("none", "sphere", "ball"):
        raise ConfigError(
            f"[algorithm] projection must be none/sphere/ball, got {projection!r}")
    if projection == "none":
        if "radius" in items:
            raise ConfigError("[algorithm] radius given but projection is none")
    else:
        if "radius" not in items:
            raise ConfigError(f"[algorithm] projection {projection} requires 'radius'")
        spec["radius"] = _as_float("algorithm", "radius", items["radius"])
    spec["projection"] = projection
    return spec


def load_config(path) -> ExperimentConfig:
    """Parse and validate a sectioned key-value config file.

    Unknown sections or keys are hard errors; the kernel and algorithm are
    built once eagerly so malformed parameters fail here, not mid-run.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str          # keep key case (N_list, sigma_A)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None

    unknown = set(parser.sections()) - {"kernel", "algorithm", "run"}
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}")
    if "kernel" not in parser:
        raise ConfigError("config must have a [kernel] section")

    kernel_spec = _parse_kernel(dict(parser["kernel"]))
    algorithm_spec = None
    if "algorithm" in parser:
        algorithm_spec = _parse_algorithm(dict(parser["algorithm"]))

    fields = {"kernel": kernel_spec, "algorithm": algorithm_spec}
    if "run" in parser:
        items = dict(parser["run"])
        unknown = set(items) - _RUN_KEYS
        if unknown:
            raise ConfigError(f"[run] unknown keys {sorted(unknown)}")
        if "lambda" in items:
            fields["lam"] = _as_float("run", "lambda", items["lambda"])
            if fields["lam"] < 0:
                raise ConfigError("[run] lambda must be nonnegative")
        if "N_list" in items:
            ns = _as_json_list("run", "N_list", items["N_list"])
            if not ns or any(type(n) is not int or not 1 <= n <= sys.float_info.max for n in ns):
                raise ConfigError("[run] N_list must be a nonempty list of positive integers "
                                  "within float range")
            if any(b <= a for a, b in zip(ns, ns[1:])):
                raise ConfigError("[run] N_list must be strictly increasing")
            fields["N_list"] = tuple(ns)
        if "steps" in items:
            steps = _as_int("run", "steps", items["steps"])
            if steps < 1:
                raise ConfigError(f"[run] steps must be >= 1, got {steps}")
            fields["steps"] = steps
        if "replications" in items:
            m = _as_int("run", "replications", items["replications"])
            if m < 2:
                raise ConfigError(f"[run] replications must be >= 2, got {m}")
            fields["replications"] = m
        if "epsilons" in items:
            eps = _as_json_list("run", "epsilons", items["epsilons"])
            if any(not _is_number(e) or e <= 0 for e in eps):
                raise ConfigError("[run] epsilons must be positive numbers")
            fields["epsilons"] = tuple(float(e) for e in eps)
        if "master_seed" in items:
            fields["master_seed"] = _as_int("run", "master_seed", items["master_seed"])
        if "out" in items:
            fields["out"] = items["out"]
        if "rank_stall" in items:
            if items["rank_stall"] not in ("error", "freeze"):
                raise ConfigError("[run] rank_stall must be 'error' or 'freeze'")
            fields["rank_stall"] = items["rank_stall"]
        if "pseudo_inverse" in items:
            fields["pseudo_inverse"] = _as_bool("run", "pseudo_inverse",
                                                items["pseudo_inverse"])

    config = ExperimentConfig(**fields)
    build_kernel(config.kernel)       # eager parameter validation
    if config.algorithm is not None:
        build_gsa(config.algorithm)
    return config


def build_kernel(spec: dict) -> KernelModel:
    """Construct the field model from a parameter dict."""
    kind = spec["type"]
    try:
        if kind == "stationary_schoenberg":
            mixture = SchoenbergMixture(atoms=spec["atoms"])
            return lift_stationary(mixture, spec.get("mean_level", 0.0))
        if kind == "spin_glass":
            return spin_glass_kernel(SpinGlassMixture(coeffs=spec["coeffs"]))
        if kind == "quadratic":
            return quadratic_kernel(spec["sigma_A"], spec["sigma_eta"], spec["R"])
    except ValueError as exc:
        raise ConfigError(f"invalid kernel parameters: {exc}") from None
    raise ConfigError(f"unknown kernel type {kind!r}")


def build_gsa(spec: dict) -> GsaSpec:
    """Construct the optimizer from a parameter dict."""
    kind = spec["type"]
    try:
        if kind == "gd":
            base = gd(spec["alpha"])
        elif kind == "heavy_ball":
            base = heavy_ball(spec["alpha"], spec["beta"])
        elif kind == "nesterov":
            base = nesterov(spec["alpha"], spec["beta"])
        elif kind == "fr_cg":
            base = fr_cg(spec["alpha"])
        else:
            raise ConfigError(f"unknown algorithm type {kind!r}")
        projection = spec.get("projection", "none")
        if projection == "sphere":
            base = with_sphere_projection(base, spec["radius"])
        elif projection == "ball":
            base = with_ball_projection(base, spec["radius"])
    except ValueError as exc:
        raise ConfigError(f"invalid algorithm parameters: {exc}") from None
    return base


# ---------------------------------------------------------------------------
# trajectory fan-out
# ---------------------------------------------------------------------------

def worker_count() -> int:
    """GRFSPAN_WORKERS, else the number of CPUs this process may run on."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {workers}")
    return workers


#: streams per pool task.  A constant, not a setting: it trades the work per
#: task against the memory of a worker's stacked arrays, and changes no bits
_BATCH = 25


def _batch_task(task):
    """Values and squared gradient norms, (len(streams), steps+1) each, of a
    batch of streams at one N."""
    config, N, streams = task
    records = simulate_info_paths(build_kernel(config.kernel), build_gsa(config.algorithm),
                                  config.lam, N, config.steps, streams, config.master_seed,
                                  policy=config.policy())
    return (np.array([r.f_values for r in records]),
            np.array([np.diagonal(r.grad_gram) for r in records]))


def _collect_trajectories(config: ExperimentConfig,
                          reps_per_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Run reps_per_n trajectories for every N, the rep-th at N_list[i] on
    stream i·reps_per_n + rep, in batches of consecutive streams; returns
    value and gradient arrays of shape (len(N_list), reps_per_n, steps+1)."""
    tasks = [(config, N, range(i * reps_per_n + start,
                               i * reps_per_n + min(start + _BATCH, reps_per_n)))
             for i, N in enumerate(config.N_list) for start in range(0, reps_per_n, _BATCH)]
    workers = min(worker_count(), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_task, tasks))
    else:
        results = [_batch_task(task) for task in tasks]

    shape = (len(config.N_list), reps_per_n, config.steps + 1)
    return (np.concatenate([f for f, _ in results]).reshape(shape),
            np.concatenate([g for _, g in results]).reshape(shape))


def _require(config: ExperimentConfig, *names):
    for name in names:
        if name == "algorithm" and config.algorithm is None:
            raise ConfigError("config needs an [algorithm] section for this mode")
        if name == "N_list" and not config.N_list:
            raise ConfigError("config needs [run] N_list for this mode")
        if name == "steps" and config.steps is None:
            raise ConfigError("config needs [run] steps for this mode")
        if name == "replications" and config.replications is None:
            raise ConfigError("config needs [run] replications for this mode")
        if name == "epsilons" and not config.epsilons:
            raise ConfigError("config needs [run] epsilons for this mode")
    if config.steps is not None:
        for N in config.N_list:
            if N <= config.steps + 2:
                raise ConfigError(
                    f"every N must exceed steps + 2 = {config.steps + 2}, got N={N}")


def _limit_curve(config: ExperimentConfig) -> LimitCurve:
    kernel = build_kernel(config.kernel)
    gsa = build_gsa(config.algorithm)
    return predict(kernel, gsa, config.lam, config.steps,
                   on_rank_stall=config.rank_stall, policy=config.policy())


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def _write_table(handle, comment, columns):
    """An optional ``# comment`` line, the column names, then one row per
    cell of the index grid, the last axis fastest.

    ``columns`` is a list of (name, array) pairs whose arrays broadcast to
    the grid.  Every cell prints with FLOAT_FMT, which writes the integer
    columns (N, step, dim, pair, counts, 0/1 flags) exactly as str(int).
    """
    if comment:
        handle.write(f"# {comment}\n")
    handle.write(",".join(name for name, _ in columns) + "\n")
    cells = np.broadcast_arrays(*(np.asarray(a, dtype=float) for _, a in columns))
    for row in np.stack([c.ravel() for c in cells], axis=1):
        handle.write(",".join(FLOAT_FMT % x for x in row) + "\n")


def _read_table(path, header_for, index) -> dict:
    """Every column of a ``_write_table`` file, reshaped to its index grid.

    ``header_for(width)`` is the report's own header for a file of that many
    columns.  ``index`` names the grid axes, outermost first; the outermost
    carries values (N), each inner one counts 0, 1, ….  A foreign header or
    rows that do not cover the grid exactly once, in write order, raise
    ConfigError.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = [line.rstrip("\n") for line in handle if not line.startswith("#")]
    header = lines[0].split(",") if lines else []
    if header != header_for(len(header)):
        raise ConfigError(f"{path}: columns {header}, expected {header_for(len(header))}")
    cells = [line.split(",") for line in lines[1:] if line]
    if any(len(row) != len(header) for row in cells):
        raise ConfigError(f"{path}: a row does not have {len(header)} cells")
    try:
        rows = np.array(cells, dtype=float).reshape(-1, len(header))
    except ValueError:
        raise ConfigError(f"{path}: a cell is not a number") from None
    keys = [rows[:, header.index(name)] for name in index]
    axes = [np.array(list(dict.fromkeys(key))) for key in keys]
    grid = np.meshgrid(*axes, indexing="ij")
    if (not len(rows) or len(rows) != grid[0].size
            or any(not np.array_equal(a, np.arange(len(a))) for a in axes[1:])
            or any(not np.array_equal(g.ravel(), key) for g, key in zip(grid, keys))):
        raise ConfigError(f"{path}: rows do not cover the {' x '.join(index)} grid "
                          "exactly once, in order")
    return {name: rows[:, k].reshape(grid[0].shape) for k, name in enumerate(header)}


class _Report:
    """A report written as one CSV table; subclasses give ``_table()``,
    the comment line and the (name, array) columns."""

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            self.write(handle)

    def write(self, handle):
        _write_table(handle, *self._table())


def write_limit_curve(curve: LimitCurve, handle):
    """CSV with columns step,f_limit,grad_norm_sq_limit,sigma_w,dim."""
    _write_table(handle, "", [
        ("step", np.arange(curve.steps + 1)), ("f_limit", curve.f_limit),
        ("grad_norm_sq_limit", np.diagonal(curve.grad_gram_limit)),
        ("sigma_w", curve.sigma_w), ("dim", curve.dims)])


# ---------------------------------------------------------------------------
# verify mode
# ---------------------------------------------------------------------------

VERIFY_THRESHOLDS = ("gap pass: |mean - limit| <= 3*se + 2/sqrt(N); "
                     "sd log-log slope target -0.5; ks significance 1e-3")

#: verify CSV columns after N and step, with the report field each holds;
#: all but the two gaps are raw statistics
_VERIFY_FIELDS = (("mean_f", "mean_f"), ("sd_f", "sd_f"), ("se_f", "se_f"),
                  ("mean_grad_norm_sq", "mean_grad"), ("sd_grad_norm_sq", "sd_grad"),
                  ("se_grad_norm_sq", "se_grad"), ("f_limit", "f_limit"),
                  ("grad_norm_sq_limit", "grad_limit"), ("gap_f", "gap_f"),
                  ("gap_grad_norm_sq", "gap_grad"))
_VERIFY_COLUMNS = ["N", "step"] + [name for name, _ in _VERIFY_FIELDS]


@dataclass
class ConvergenceReport(_Report):
    """Per-(N, step) statistics of simulated runs against the limit curve.

    Arrays are shaped (len(N_list), steps+1) except the limits (steps+1,)
    and the slopes (steps+1,), which are least-squares slopes of log sd
    against log N, one per step.
    """

    N_list: tuple
    steps: int
    mean_f: np.ndarray
    sd_f: np.ndarray
    se_f: np.ndarray
    mean_grad: np.ndarray
    sd_grad: np.ndarray
    se_grad: np.ndarray
    f_limit: np.ndarray
    grad_limit: np.ndarray
    gap_f: np.ndarray = field(init=False)
    gap_grad: np.ndarray = field(init=False)
    slope_f: np.ndarray = field(init=False)
    slope_grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.gap_f = np.abs(self.mean_f - self.f_limit[None, :])
        self.gap_grad = np.abs(self.mean_grad - self.grad_limit[None, :])
        self.slope_f = _loglog_slopes(self.N_list, self.sd_f)
        self.slope_grad = _loglog_slopes(self.N_list, self.sd_grad)

    def gap_bound(self) -> np.ndarray:
        """The acceptance envelope 3·SE + 2/√N, shaped like gap_f."""
        root = np.sqrt(np.asarray(self.N_list, dtype=float))[:, None]
        return 3.0 * self.se_f + 2.0 / root

    #: an own class attribute, not only inherited: bench/layers.py wraps it
    #: here, and bench/test_tracer.py looks it up in this class's __dict__
    to_csv = _Report.to_csv

    def _table(self):
        index = [("N", np.asarray(self.N_list)[:, None]),
                 ("step", np.arange(self.steps + 1))]
        return (f"thresholds: {VERIFY_THRESHOLDS}",
                index + [(name, getattr(self, attr)) for name, attr in _VERIFY_FIELDS])

    @classmethod
    def from_csv(cls, path) -> "ConvergenceReport":
        """Rebuild a report from its own CSV; gaps and slopes are recomputed
        from the stored raw statistics, not read back."""
        cells = _read_table(path, lambda width: _VERIFY_COLUMNS, ("N", "step"))
        raw = {attr: cells[name] for name, attr in _VERIFY_FIELDS[:-2]}
        raw["f_limit"], raw["grad_limit"] = raw["f_limit"][0], raw["grad_limit"][0]
        return cls(N_list=tuple(int(N) for N in cells["N"][:, 0]),
                   steps=cells["step"].shape[1] - 1, **raw)


def _loglog_slopes(N_list, sd) -> np.ndarray:
    """Least-squares slope of log sd vs log N per step; nan where undefined."""
    if len(N_list) < 2:
        return np.full(sd.shape[1], np.nan)
    logs_n = np.log(np.asarray(N_list, dtype=float))
    slopes = np.empty(sd.shape[1])
    for n in range(sd.shape[1]):
        col = sd[:, n]
        if np.any(col <= 0):
            slopes[n] = np.nan
            continue
        slopes[n] = np.polyfit(logs_n, np.log(col), 1)[0]
    return slopes


def run_predict(config: ExperimentConfig) -> LimitCurve:
    """Compute the deterministic limit curve described by the config."""
    _require(config, "algorithm", "steps")
    curve = _limit_curve(config)
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as handle:
            write_limit_curve(curve, handle)
    return curve


def run_verify(config: ExperimentConfig) -> ConvergenceReport:
    """Monte Carlo check that trajectory means track the limit curve."""
    _require(config, "algorithm", "N_list", "steps", "replications")
    curve = _limit_curve(config)
    M = config.replications
    f_vals, grad_diag = _collect_trajectories(config, M)
    root_m = math.sqrt(M)
    report = ConvergenceReport(
        N_list=config.N_list, steps=config.steps,
        mean_f=f_vals.mean(axis=1),
        sd_f=f_vals.std(axis=1, ddof=1),
        se_f=f_vals.std(axis=1, ddof=1) / root_m,
        mean_grad=grad_diag.mean(axis=1),
        sd_grad=grad_diag.std(axis=1, ddof=1),
        se_grad=grad_diag.std(axis=1, ddof=1) / root_m,
        f_limit=curve.f_limit.copy(),
        grad_limit=np.diagonal(curve.grad_gram_limit).copy(),
    )
    if config.out:
        report.to_csv(config.out)
    return report


# ---------------------------------------------------------------------------
# two-initialization mode
# ---------------------------------------------------------------------------

TWO_INIT_THRESHOLDS = "median max-gap must not increase with N"


@dataclass
class TwoInitReport(_Report):
    """Gaps between paired trajectories started from independent streams.

    step_gaps: (len(N_list), pairs, steps+1) absolute value differences;
    max_gaps: per-pair maxima over steps; medians: per-N median of max_gaps.
    """

    N_list: tuple
    steps: int
    step_gaps: np.ndarray
    max_gaps: np.ndarray = field(init=False)
    medians: np.ndarray = field(init=False)

    def __post_init__(self):
        self.max_gaps = self.step_gaps.max(axis=2)
        self.medians = np.median(self.max_gaps, axis=1)

    @staticmethod
    def _columns(steps):
        return ["N", "pair"] + [f"gap_step_{n}" for n in range(steps + 1)] + ["max_gap"]

    def _table(self):
        arrays = [np.asarray(self.N_list)[:, None], np.arange(self.step_gaps.shape[1]),
                  *np.moveaxis(self.step_gaps, -1, 0), self.max_gaps]
        return (f"thresholds: {TWO_INIT_THRESHOLDS}",
                list(zip(self._columns(self.steps), arrays)))

    @classmethod
    def from_csv(cls, path) -> "TwoInitReport":
        cells = _read_table(path, lambda width: cls._columns(max(width - 4, 0)),
                           ("N", "pair"))
        steps = len(cells) - 4
        gaps = np.stack([cells[f"gap_step_{n}"] for n in range(steps + 1)], axis=-1)
        return cls(N_list=tuple(int(N) for N in cells["N"][:, 0]), steps=steps,
                   step_gaps=gaps)


def run_two_init(config: ExperimentConfig) -> TwoInitReport:
    """Pairs of runs from the same start: their value curves must merge as
    N grows (replications counts pairs)."""
    _require(config, "algorithm", "N_list", "steps", "replications")
    M = config.replications
    f_vals, _ = _collect_trajectories(config, 2 * M)
    gaps = np.abs(f_vals[:, 0::2, :] - f_vals[:, 1::2, :])
    report = TwoInitReport(N_list=config.N_list, steps=config.steps,
                           step_gaps=gaps)
    if config.out:
        report.to_csv(config.out)
    return report


# ---------------------------------------------------------------------------
# halting mode
# ---------------------------------------------------------------------------

HALTING_THRESHOLDS = ("epsilons adjusted >= 1% relative from the limiting "
                      "gradient diagonal; pass: frequency -> 1 as N grows")


def adjust_epsilons(epsilons, diag) -> tuple:
    """Move each threshold at least 1% relative distance from every limiting
    diagonal value (halting times are only deterministic off the diagonal)."""
    adjusted = []
    for eps in epsilons:
        value = float(eps)
        for _ in range(32):
            for g in diag:
                g = float(g)
                if g > 0 and abs(value - g) < EPSILON_MARGIN * g:
                    value = g * (1 - EPSILON_MARGIN) if value <= g else g * (1 + EPSILON_MARGIN)
                    break
            else:
                break
        else:
            raise ConfigError(
                f"epsilon {eps} cannot be separated from the limiting diagonal")
        adjusted.append(value)
    return tuple(adjusted)


@dataclass
class HaltingReport(_Report):
    """Empirical halting-time agreement with the predicted halting step.

    tau_limit[j] is the predicted halting step for epsilons[j] (inf when the
    threshold is never crossed on the horizon); frequencies[i, j] is the
    fraction of runs at N_list[i] whose empirical halting step equals it.
    """

    N_list: tuple
    epsilons: tuple
    requested_epsilons: tuple
    tau_limit: tuple
    frequencies: np.ndarray
    replications: int

    def _table(self):
        return (f"thresholds: {HALTING_THRESHOLDS}",
                [("N", np.asarray(self.N_list)[:, None]), ("epsilon", self.epsilons),
                 ("tau_limit", self.tau_limit), ("frequency", self.frequencies),
                 ("replications", self.replications)])


def run_halting(config: ExperimentConfig) -> HaltingReport:
    """Frequency with which finite-N halting matches the predicted step."""
    _require(config, "algorithm", "N_list", "steps", "replications", "epsilons")
    curve = _limit_curve(config)
    diag = np.diagonal(curve.grad_gram_limit)
    epsilons = adjust_epsilons(config.epsilons, diag)
    tau_limit = tuple(float(first_halting_step(diag, eps)) for eps in epsilons)

    M = config.replications
    _, grad_diag = _collect_trajectories(config, M)
    freq = np.stack([np.mean(first_halting_step(grad_diag, eps) == tau, axis=1)
                     for eps, tau in zip(epsilons, tau_limit)], axis=1)
    report = HaltingReport(
        N_list=config.N_list, epsilons=epsilons,
        requested_epsilons=config.epsilons, tau_limit=tau_limit,
        frequencies=freq, replications=M)
    if config.out:
        report.to_csv(config.out)
    return report


# ---------------------------------------------------------------------------
# simulate mode
# ---------------------------------------------------------------------------

@dataclass
class SimulationTable(_Report):
    """Raw per-step trajectory dump with halting flags per threshold."""

    N_list: tuple
    steps: int
    epsilons: tuple
    f_values: np.ndarray          # (len(N_list), M, steps+1)
    grad_diag: np.ndarray

    def _table(self):
        step = np.arange(self.steps + 1)
        columns = [("replication", np.arange(self.f_values.shape[1])[:, None]),
                   ("N", np.asarray(self.N_list)[:, None, None]), ("step", step),
                   ("f_value", self.f_values), ("grad_norm_sq", self.grad_diag)]
        columns += [(f"halted_eps_{j}", step >= first_halting_step(self.grad_diag, eps)[..., None])
                    for j, eps in enumerate(self.epsilons)]
        comment = ("halted_eps_j: 1 once grad_norm_sq first dipped to eps_j; "
                   + "; ".join(f"eps_{j} = {FLOAT_FMT % e}"
                               for j, e in enumerate(self.epsilons)))
        return comment, columns


def run_simulate(config: ExperimentConfig) -> SimulationTable:
    """Dump M trajectories per N as flat per-step rows."""
    _require(config, "algorithm", "N_list", "steps", "replications")
    M = config.replications
    f_vals, grad_diag = _collect_trajectories(config, M)
    table = SimulationTable(N_list=config.N_list, steps=config.steps,
                            epsilons=config.epsilons, f_values=f_vals,
                            grad_diag=grad_diag)
    if config.out:
        table.to_csv(config.out)
    return table
