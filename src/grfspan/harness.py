"""Experiment orchestration: configs, Monte Carlo fan-out, CSV reports.

A single config file describes the field, the optimizer, and the run
parameters, each section read through one table that names every type and
key once; every experiment mode consumes the same config so the predicted
limit curve and the simulated trajectories can never disagree about what is
being run.  Reports are flat CSV — the columns carry enough raw statistics
that every derived quantity (gaps, slopes, medians, frequencies) can be
recomputed from the file alone.  The writer is the format's one definition:
``from_csv`` rebuilds a report from the cells and keeps the file only if
that report writes back to the same bytes.

Trajectory replications run in batches: a batch is a run of at most
``_BATCH`` consecutive streams of one N, stepped together by
``simulate_info_paths``.  The batches split into W static stripes, W the
GRFSPAN_WORKERS environment variable (default: the CPUs the process may run
on) capped at the batch count, and stripe w holds batches w, w + W, ...
The calling process counts as one of the W: it forks a child per stripe past
the first, explicitly with the ``fork`` start method, runs the first stripe
itself, then takes each child's results over a one-way pipe.  Only a run with
W > 1 loads ``multiprocessing``, and it loads ``numpy.random`` before the
fork, so each child starts with it instead of importing it at its first
draw.  Neither the batch a stream lands in nor the process that runs it
changes a stream's bits, and results are keyed by batch index, so identical
config + master seed produce byte-identical CSV files regardless of W; a
failing run raises the error of its lowest failing batch, also regardless
of W.
"""

from __future__ import annotations

import configparser
import io
import json
import math
import os
import sys
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

#: epsilon thresholds are moved at least this relative distance away from
#: every limiting gradient-diagonal value before halting times are compared
EPSILON_MARGIN = 0.01


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description.

    kernel and algorithm are plain parameter dicts, from which each run
    builds the models once; lam is the starting norm ‖x₀‖, and
    pseudo_inverse says whether a sampled run whose point block fails the
    whole jitter ladder goes on through a pseudo-inverse instead of raising
    NotPsdError (the limit factors no point block and ignores it).
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


# Each parser turns the raw text of one key into its value, (section, key,
# raw) → value, and raises ConfigError naming both when it cannot.

def _as_text(section, key, raw):
    return raw


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


def _as_json_list(section, key, raw) -> tuple:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = None
    if not isinstance(value, list):
        raise ConfigError(f"[{section}] {key}: expected a JSON list, got {raw!r}")
    return tuple(value)


def _is_number(value) -> bool:
    """Whether a JSON value is a finite number; JSON true/false load as bool,
    an int subclass, and NaN/Infinity as non-finite floats."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _as_numbers(section, key, raw) -> tuple:
    values = _as_json_list(section, key, raw)
    if not all(map(_is_number, values)):
        raise ConfigError(f"[{section}] {key} must be a list of numbers, got {raw!r}")
    return tuple(map(float, values))


def _as_atoms(section, key, raw) -> tuple:
    atoms = _as_json_list(section, key, raw)
    if not all(isinstance(a, list) and len(a) == 2 and all(map(_is_number, a)) for a in atoms):
        raise ConfigError(f"[{section}] {key} entries must be [weight, rate] number pairs")
    return tuple((float(w), float(t)) for w, t in atoms)


def _checked(parse, ok, must):
    """``parse``, then a ConfigError saying what the value ``must`` be
    unless ``ok(value)``."""
    def parse_checked(section, key, raw):
        value = parse(section, key, raw)
        if not ok(value):
            raise ConfigError(f"[{section}] {key} must be {must}, got {raw!r}")
        return value
    return parse_checked


#: a positive integer: [run] steps, and the GRFSPAN_WORKERS variable
_as_count = _checked(_as_int, lambda n: n >= 1, ">= 1")

_STEP_SIZE = {"alpha": (_as_float, None)}
_MOMENTUM = {**_STEP_SIZE, "beta": (_as_float, None)}
_RADIUS = {"radius": (_as_float, None)}

#: [kernel] type, [algorithm] type and [algorithm] projection → (builder,
#: {key: (parser, default)}), where a default of None makes the key
#: required; a builder takes the spec's values of its keys as keyword
#: arguments, and a projection's builder wraps the optimizer
_KERNELS = {
    "stationary_schoenberg": (
        lambda atoms, **level: lift_stationary(SchoenbergMixture(atoms=atoms), **level),
        {"atoms": (_as_atoms, None), "mean_level": (_as_float, 0.0)}),
    "spin_glass": (lambda coeffs: spin_glass_kernel(SpinGlassMixture(coeffs=coeffs)),
                   {"coeffs": (_as_numbers, None)}),
    "quadratic": (quadratic_kernel,
                  dict.fromkeys(("sigma_A", "sigma_eta", "R"), (_as_float, None))),
}
_ALGORITHMS = {
    "gd": (gd, _STEP_SIZE),
    "heavy_ball": (heavy_ball, _MOMENTUM),
    "nesterov": (nesterov, _MOMENTUM),
    "fr_cg": (fr_cg, _STEP_SIZE),
}
_PROJECTIONS = {
    "sphere": (with_sphere_projection, _RADIUS),
    "ball": (with_ball_projection, _RADIUS),
}

#: [kernel] and [algorithm] → the choices _parse_section reads
_SECTIONS = {"kernel": (("type", _KERNELS, None),),
             "algorithm": (("type", _ALGORITHMS, None), ("projection", _PROJECTIONS, "none"))}

#: [run] key → (ExperimentConfig field, parser)
_RUN = {
    "lambda": ("lam", _checked(_as_float, lambda x: x >= 0, "nonnegative")),
    "N_list": ("N_list", _checked(_as_json_list, lambda ns: ns and all(
        type(n) is int and 1 <= n <= sys.float_info.max and float(n) == n for n in ns) and all(
        a < b for a, b in zip(ns, ns[1:])),
        "a strictly increasing nonempty list of positive integers that float64 holds exactly")),
    "steps": ("steps", _as_count),
    "replications": ("replications", _checked(_as_int, lambda n: n >= 2, ">= 2")),
    "epsilons": ("epsilons", _checked(_as_numbers, lambda xs: all(x > 0 for x in xs),
                                      "positive numbers")),
    "master_seed": ("master_seed", _as_int),
    "out": ("out", _as_text),
    "rank_stall": ("rank_stall", _checked(_as_text, lambda v: v in ("error", "freeze"),
                                          "error or freeze")),
    "pseudo_inverse": ("pseudo_inverse", _as_bool),
}


def _parse_section(section, items, *choices) -> dict:
    """The spec dict of a [kernel] or [algorithm] section.

    Each choice (key, table, default) reads the section's ``key``, or
    ``default`` when it is left out, and picks that entry of ``table``; a
    default of None makes the key required, and any other default picks no
    entry.  The keys of the picked entries, {key: (parser, default)}, are
    the only others the section may give: again a default of None makes one
    required, and the others are filled in.
    """
    spec, keys = {}, {}
    for key, table, default in choices:
        kind = items.get(key, default)
        allowed = [default] * (default is not None) + list(table)
        if kind not in allowed:
            raise ConfigError(f"[{section}] {key} must be one of {allowed}, got {kind!r}")
        spec[key] = kind
        keys.update(table.get(kind, (None, {}))[1])
    picked = ", ".join(f"{key} {kind}" for key, kind in spec.items())
    unknown = set(items) - set(spec) - set(keys)
    if unknown:
        raise ConfigError(f"[{section}] keys {sorted(unknown)} not allowed for {picked}")
    for key, (parse, default) in keys.items():
        if key not in items and default is None:
            raise ConfigError(f"[{section}] {picked} requires key {key!r}")
        spec[key] = parse(section, key, items[key]) if key in items else default
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

    unknown = set(parser.sections()) - {*_SECTIONS, "run"}
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}")
    if "kernel" not in parser:
        raise ConfigError("config must have a [kernel] section")

    fields = {section: _parse_section(section, dict(parser[section]), *choices)
              for section, choices in _SECTIONS.items() if section in parser}
    for key, raw in (dict(parser["run"]) if "run" in parser else {}).items():
        if key not in _RUN:
            raise ConfigError(f"[run] unknown key {key!r}")
        name, parse = _RUN[key]
        fields[name] = parse("run", key, raw)

    config = ExperimentConfig(**fields)
    build_kernel(config.kernel)       # eager parameter validation
    if config.algorithm is not None:
        build_gsa(config.algorithm)
    return config


def _build(section, table, kind, spec, *inner):
    """The builder of ``table[kind]`` called on ``inner`` and the spec's
    values of its keys."""
    if kind not in table:
        raise ConfigError(f"unknown {section} type {kind!r}")
    build, keys = table[kind]
    try:
        return build(*inner, **{key: spec[key] for key in keys if key in spec})
    except ValueError as exc:
        raise ConfigError(f"invalid {section} parameters: {exc}") from None


def build_kernel(spec: dict) -> KernelModel:
    """Construct the field model from a parameter dict."""
    return _build("kernel", _KERNELS, spec["type"], spec)


def build_gsa(spec: dict) -> GsaSpec:
    """Construct the optimizer from a parameter dict; a projection that is
    not in the table leaves it unwrapped."""
    gsa = _build("algorithm", _ALGORITHMS, spec["type"], spec)
    projection = spec.get("projection")
    return _build("algorithm", _PROJECTIONS, projection, spec, gsa) \
        if projection in _PROJECTIONS else gsa


# ---------------------------------------------------------------------------
# trajectory fan-out
# ---------------------------------------------------------------------------

def worker_count() -> int:
    """GRFSPAN_WORKERS, else the number of CPUs this process may run on."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is not None:
        return _as_count("environment", WORKERS_ENV, raw)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: streams per task.  A constant, not a setting: it trades the per-step
#: Python cost a batch shares against the memory of a process's stacked
#: arrays, and changes no bits.  100 gives 8 tasks on the 800-trajectory
#: acceptance config, 4 for each of two processes.  The gain over 50 is
#: measured at T = 8 only; at T = 12 a trajectory costs the same at 50 and
#: 100 streams, so on longer runs the doubled arrays cost memory and gain no
#: speed.  A host with more CPUs than a run has tasks leaves the rest idle
_BATCH = 100


def _batch_task(kernel, gsa, config, N, streams):
    """Values and squared gradient norms, (len(streams), steps+1) each, of a
    batch of streams at one N."""
    records = simulate_info_paths(kernel, gsa, config.lam, N, config.steps, streams,
                                  config.master_seed, pseudo_inverse=config.pseudo_inverse)
    return (np.array([r.f_values for r in records]),
            np.array([np.diagonal(r.grad_gram) for r in records]))


def _run_stripe(tasks, stripe, stripes):
    """(task index, result) of tasks[stripe::stripes] in order, up to the
    first task that raises, which it pairs with the exception."""
    done = []
    for i in range(stripe, len(tasks), stripes):
        try:
            done.append((i, _batch_task(*tasks[i])))
        except Exception as exc:
            return done + [(i, exc)]
    return done


def _send_stripe(send, tasks, stripe, stripes):
    """A forked child's work: run its stripe and send the outcome.  It leaves
    an interrupt to the parent, which terminates it."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    send.send(_run_stripe(tasks, stripe, stripes))


def _fork_stripe(tasks, stripe, stripes):
    """Fork a child that runs one stripe; the child and the receiving end of
    its pipe.  Forked explicitly, so the child inherits this process's
    modules whatever the platform's default start method."""
    # loaded only by a run that forks; numpy.random, which every task draws
    # from and `import grfspan` does not load, is loaded before the fork so
    # the child inherits it instead of importing it at its first draw
    import multiprocessing
    import numpy.random
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    child = fork.Process(target=_send_stripe, args=(send, tasks, stripe, stripes))
    child.start()
    send.close()
    return child, receive


def _collect_trajectories(config: ExperimentConfig,
                          reps_per_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Run reps_per_n trajectories for every N, the rep-th at N_list[i] on
    stream i·reps_per_n + rep, in batches of up to _BATCH consecutive
    streams; returns value and gradient arrays of shape (len(N_list),
    reps_per_n, steps+1).

    The tasks split into W = min(worker_count(), len(tasks)) stripes, stripe w
    holding tasks w, w + W, ...; this process builds the kernel and the
    optimizer once, forks a child for each stripe past the first, which
    inherits them, and runs the first itself.  A failure raises the
    exception of the lowest failing task, whatever W is."""
    kernel, gsa = build_kernel(config.kernel), build_gsa(config.algorithm)
    tasks = [(kernel, gsa, config, N, range(i * reps_per_n + start,
                                            i * reps_per_n + min(start + _BATCH, reps_per_n)))
             for i, N in enumerate(config.N_list) for start in range(0, reps_per_n, _BATCH)]
    stripes = min(worker_count(), len(tasks))
    children = []
    try:
        for stripe in range(1, stripes):
            children.append(_fork_stripe(tasks, stripe, stripes))
        outcomes = _run_stripe(tasks, 0, stripes)
        for stripe, (child, receive) in enumerate(children, 1):
            try:
                outcomes += receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"worker of stripe {stripe} exited with code "
                                   f"{child.exitcode}") from None
            child.join()
    finally:
        for child, receive in children:
            child.terminate()
            child.join()
            receive.close()
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, out in outcomes:
        if isinstance(out, Exception):
            raise out

    shape = (len(config.N_list), reps_per_n, config.steps + 1)
    return (np.concatenate([f for _, (f, _) in outcomes]).reshape(shape),
            np.concatenate([g for _, (_, g) in outcomes]).reshape(shape))


#: what a mode may need from the config, and how the error names it
_NEEDS = {"algorithm": "an [algorithm] section",
          **{name: f"[run] {key}" for key, (name, _) in _RUN.items()}}


def _require(config: ExperimentConfig, *names):
    for name in names:
        if getattr(config, name) in (None, ()):
            raise ConfigError(f"config needs {_NEEDS[name]} for this mode")
    if config.steps is not None:
        for N in config.N_list:
            if N <= config.steps + 2:
                raise ConfigError(
                    f"every N must exceed steps + 2 = {config.steps + 2}, got N={N}")


def _limit_curve(config: ExperimentConfig) -> LimitCurve:
    kernel = build_kernel(config.kernel)
    gsa = build_gsa(config.algorithm)
    return predict(kernel, gsa, config.lam, config.steps, on_rank_stall=config.rank_stall)


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


def _read_back(path, build):
    """The report ``build(N_list, columns)`` makes from a report file, kept
    only if it writes back to that file.

    ``columns`` maps each header name to its cells, reshaped to (N values,
    rows per N).  The report must write the file's row count and every byte
    from the header on; the comment's text after the count is not compared.
    Anything else, a parse error included, raises ConfigError: so a cut
    file, a foreign header, a wrong count, a repeated or reordered row, an
    edited gap, or a cell not in FLOAT_FMT form is refused.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        comment, _, table = handle.read().partition("\n")
    try:
        header, *rows = [line.split(",") for line in table.splitlines()]
        cells = np.array(rows, dtype=float)
        shaped = cells.reshape(len(set(cells[:, 0])), -1, len(header))
        columns = dict(zip(header, np.moveaxis(shaped, -1, 0)))
        with np.errstate(all="ignore"):     # a foreign file may hold N = 0
            report = build(tuple(int(N) for N in columns["N"][:, 0]), columns)
            again = io.StringIO()
            report.write(again)
        head, _, written = again.getvalue().partition("\n")
        if written != table or head.partition(";")[:2] != comment.partition(";")[:2]:
            raise ValueError
    except (LookupError, ValueError, ArithmeticError):
        raise ConfigError(f"{path}: not a report file: it does not write back "
                          "to the same bytes") from None
    return report


class _Report:
    """A report written as one CSV table; subclasses give ``_table()``,
    the comment and the (name, array) columns.  The comment line starts
    with the data-row count, which lets a reader tell a file cut at a row
    boundary from a smaller report."""

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            self.write(handle)

    def write(self, handle):
        comment, columns = self._table()
        rows = math.prod(np.broadcast_shapes(*(np.shape(a) for _, a in columns)))
        _write_table(handle, f"rows: {rows}; {comment}", columns)


def _saved(report, out):
    """The report, after writing it to ``out`` if the config names a path."""
    if out:
        report.to_csv(out)
    return report


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
                     "sd log-log slope target -0.5")

#: verify CSV columns after N and step, with the report field each holds;
#: all but the two gaps are raw statistics
_VERIFY_FIELDS = (("mean_f", "mean_f"), ("sd_f", "sd_f"), ("se_f", "se_f"),
                  ("mean_grad_norm_sq", "mean_grad"), ("sd_grad_norm_sq", "sd_grad"),
                  ("se_grad_norm_sq", "se_grad"), ("f_limit", "f_limit"),
                  ("grad_norm_sq_limit", "grad_limit"), ("gap_f", "gap_f"),
                  ("gap_grad_norm_sq", "gap_grad"))


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
        """Rebuild a report from its own CSV, which must write back to the
        same bytes: gaps and slopes are recomputed from the stored raw
        statistics, and the gap columns only checked against them."""
        def build(N_list, columns):
            raw = {attr: columns[name] for name, attr in _VERIFY_FIELDS[:-2]}
            raw["f_limit"], raw["grad_limit"] = raw["f_limit"][0], raw["grad_limit"][0]
            return cls(N_list=N_list, steps=columns["step"].shape[1] - 1, **raw)
        return _read_back(path, build)


def _loglog_slopes(N_list, sd) -> np.ndarray:
    """Least-squares slope of log sd vs log N per step, (x·y)/(x·x) with x
    the centred log N; nan where any sd ≤ 0 or fewer than two N are given."""
    x = np.log(np.asarray(N_list, dtype=float))
    x -= x.mean()
    if not x @ x:
        return np.full(sd.shape[1], np.nan)
    positive = np.all(sd > 0, axis=0)
    return np.where(positive, x @ np.log(np.where(positive, sd, 1.0)) / (x @ x), np.nan)


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
    return _saved(ConvergenceReport(
        N_list=config.N_list, steps=config.steps,
        mean_f=f_vals.mean(axis=1),
        sd_f=f_vals.std(axis=1, ddof=1),
        se_f=f_vals.std(axis=1, ddof=1) / root_m,
        mean_grad=grad_diag.mean(axis=1),
        sd_grad=grad_diag.std(axis=1, ddof=1),
        se_grad=grad_diag.std(axis=1, ddof=1) / root_m,
        f_limit=curve.f_limit.copy(),
        grad_limit=np.diagonal(curve.grad_gram_limit).copy(),
    ), config.out)


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
        """Rebuild a report from its own CSV, which must write back to the
        same bytes: max_gap is recomputed from the per-step gaps."""
        def build(N_list, columns):
            steps = len(columns) - 4
            gaps = [columns[f"gap_step_{n}"] for n in range(steps + 1)]
            return cls(N_list=N_list, steps=steps, step_gaps=np.stack(gaps, axis=-1))
        return _read_back(path, build)


def run_two_init(config: ExperimentConfig) -> TwoInitReport:
    """Pairs of runs from the same start: their value curves must merge as
    N grows (replications counts pairs)."""
    _require(config, "algorithm", "N_list", "steps", "replications")
    M = config.replications
    f_vals, _ = _collect_trajectories(config, 2 * M)
    gaps = np.abs(f_vals[:, 0::2, :] - f_vals[:, 1::2, :])
    return _saved(TwoInitReport(N_list=config.N_list, steps=config.steps, step_gaps=gaps),
                  config.out)


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
    return _saved(HaltingReport(
        N_list=config.N_list, epsilons=epsilons, tau_limit=tau_limit,
        frequencies=freq, replications=M), config.out)


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
    return _saved(SimulationTable(N_list=config.N_list, steps=config.steps,
                                  epsilons=config.epsilons, f_values=f_vals,
                                  grad_diag=grad_diag), config.out)
