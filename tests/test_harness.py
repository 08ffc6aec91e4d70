"""Tests for config parsing, the experiment runners, and the CLI."""

import contextlib
import io
import math
import multiprocessing
import os
import signal
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from grfspan import cli, harness
from grfspan.errors import ConfigError, NumericalError
from grfspan.harness import (
    ConvergenceReport,
    HaltingReport,
    SimulationTable,
    TwoInitReport,
    adjust_epsilons,
    build_gsa,
    build_kernel,
    load_config,
    run_halting,
    run_simulate,
    run_two_init,
    run_verify,
    write_limit_curve,
)
from grfspan.kernels import PARTIAL_NAMES, SpinGlassMixture, alg_barrier, validate_partials
from grfspan.limits import LimitCurve
from grfspan.trajectories import simulate_info_path

BASE_CONFIG = """\
[kernel]
type = stationary_schoenberg
atoms = [[1.0, 1.0]]

[algorithm]
type = gd
alpha = 0.4

[run]
lambda = 1.0
N_list = [16, 32]
steps = 2
replications = 6
epsilons = [0.5]
master_seed = 11
"""


@pytest.fixture
def base_config(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.WORKERS_ENV, "1")
    path = tmp_path / "base.cfg"
    path.write_text(BASE_CONFIG)
    return load_config(path)


#: the acceptance config, the README's example and the bench's verify-t8
ACCEPTANCE = Path(__file__).resolve().parents[1] / "bench" / "configs" / "verify-t8.cfg"


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_load_config_happy_path(base_config):
    config = base_config
    assert config.kernel == {"type": "stationary_schoenberg",
                             "atoms": ((1.0, 1.0),), "mean_level": 0.0}
    assert config.algorithm == {"type": "gd", "alpha": 0.4, "projection": "none"}
    assert config.N_list == (16, 32)
    assert config.steps == 2 and config.replications == 6
    assert config.epsilons == (0.5,)
    assert config.master_seed == 11 and config.lam == 1.0
    assert config.rank_stall == "error" and not config.pseudo_inverse


def test_load_config_full_surface(tmp_path):
    path = _write(tmp_path, """\
[kernel]
type = quadratic
sigma_A = 1.0
sigma_eta = 0.5
R = 2.0

[algorithm]
type = heavy_ball
alpha = 0.3
beta = 0.5
projection = ball
radius = 2.0

[run]
N_list = [64]
steps = 3
replications = 2
master_seed = 1
out = report.csv
rank_stall = freeze
pseudo_inverse = true
""")
    config = load_config(path)
    assert config.kernel["sigma_A"] == 1.0 and config.kernel["R"] == 2.0
    assert config.algorithm["beta"] == 0.5
    assert config.algorithm["projection"] == "ball"
    assert config.out == "report.csv"
    assert config.rank_stall == "freeze" and config.pseudo_inverse is True


@pytest.mark.parametrize("mutation", [
    ("[kernel]", "[surprise]"),                             # unknown section
    ("atoms = [[1.0, 1.0]]", "atoms = [[1.0, 1.0]]\nbogus = 3"),
    ("type = stationary_schoenberg", "type = mystery"),
    ("atoms = [[1.0, 1.0]]", "atoms = [[1.0]]"),            # not a pair
    ("atoms = [[1.0, 1.0]]", "atoms = [[-1.0, 1.0]]"),      # negative weight
    ("alpha = 0.4", "alpha = fast"),
    ("type = gd", "type = adam"),
    ("type = gd", "type = gd\nbeta = 0.5"),                 # beta not allowed
    ("type = gd", "type = gd\nradius = 1.0"),               # radius w/o projection
    ("N_list = [16, 32]", "N_list = [32, 16]"),             # not increasing
    ("N_list = [16, 32]", "N_list = [16, 16]"),
    ("N_list = [16, 32]", "N_list = 16 32"),                # not JSON
    ("steps = 2", "steps = 0"),
    ("replications = 6", "replications = 1"),
    ("epsilons = [0.5]", "epsilons = [-0.5]"),
    ("epsilons = [0.5]", "epsilons = [true]"),              # JSON booleans are not numbers
    ("N_list = [16, 32]", "N_list = [true, 300]"),
    ("atoms = [[1.0, 1.0]]", "atoms = [[true, 1.0]]"),
    ("atoms = [[1.0, 1.0]]", "atoms = [[0.5, false]]"),
    ("type = stationary_schoenberg\natoms = [[1.0, 1.0]]",
     "type = spin_glass\ncoeffs = [0.0, true]"),
    ("master_seed = 11", "master_seed = 11\nmode = dance"),
    ("master_seed = 11", "master_seed = 11\nmode = verify"),    # the subcommand picks it
    ("master_seed = 11", "master_seed = 11\nrank_stall = panic"),
    ("master_seed = 11", "master_seed = 11\npseudo_inverse = maybe"),
    ("master_seed = 11", "master_seed = 11\nworkers = 4"),  # unknown run key
    ("alpha = 0.4", "alpha = nan"),                         # non-finite numbers
    ("lambda = 1.0", "lambda = nan"),
    ("lambda = 1.0", "lambda = inf"),
    ("atoms = [[1.0, 1.0]]", "atoms = [[1.0, 1.0]]\nmean_level = inf"),
    ("atoms = [[1.0, 1.0]]", "atoms = [[NaN, 1.0]]"),
    ("type = stationary_schoenberg\natoms = [[1.0, 1.0]]",
     "type = quadratic\nsigma_A = nan\nsigma_eta = 0.5\nR = 1.0"),
    ("type = stationary_schoenberg\natoms = [[1.0, 1.0]]",
     "type = spin_glass\ncoeffs = [0.0, Infinity]"),
    ("epsilons = [0.5]", "epsilons = [NaN]"),
    ("epsilons = [0.5]", "epsilons = [1e400]"),             # JSON reads it as inf
    ("epsilons = [0.5]", "epsilons = [1" + "0" * 400 + "]"),  # an int past every float
    ("N_list = [16, 32]", "N_list = [16, 1" + "0" * 400 + "]"),
    ("N_list = [16, 32]", "N_list = [16, 100000000000000001]"),  # float64 reads 1e17
    ("type = gd", "type = heavy_ball"),                     # momentum without beta
    ("type = stationary_schoenberg\natoms = [[1.0, 1.0]]",
     "type = quadratic\nsigma_A = 1.0\nsigma_eta = 0.5"),   # quadratic without R
    ("type = stationary_schoenberg", "type = spin_glass\ncoeffs = [0.0, 1.0]"),  # keeps atoms
    ("alpha = 0.4", "alpha = 0.4\nprojection = sphere"),    # sphere without radius
    ("alpha = 0.4", "alpha = 0.4\nprojection = cone\nradius = 1.0"),
    ("type = gd\nalpha = 0.4", "type = gd"),                # no alpha
    ("type = gd\n", ""),                                     # [algorithm] without type
    ("type = stationary_schoenberg\n", ""),                  # [kernel] without type
    ("alpha = 0.4", "alpha = 0.4\nalpha = 0.5"),             # malformed: a key twice
], ids=lambda m: (m[1] or "-" + m[0].strip()).replace("\n", ";")[:34])
def test_load_config_rejects(tmp_path, mutation):
    old, new = mutation
    assert old in BASE_CONFIG
    path = _write(tmp_path, BASE_CONFIG.replace(old, new))
    with pytest.raises(ConfigError):
        load_config(path)


#: one minimal section per table entry: its text, the spec dict load_config
#: gives for it, and the label or name of the model built from that spec
_KERNEL_SECTIONS = [
    ("type = stationary_schoenberg\natoms = [[1.0, 1.0]]",
     {"type": "stationary_schoenberg", "atoms": ((1.0, 1.0),), "mean_level": 0.0},
     "stationary-lift"),
    ("type = stationary_schoenberg\natoms = [[0.5, 1.0], [0.5, 2]]\nmean_level = -1.5",
     {"type": "stationary_schoenberg", "atoms": ((0.5, 1.0), (0.5, 2.0)), "mean_level": -1.5},
     "stationary-lift"),
    ("type = spin_glass\ncoeffs = [0.0, 0.0, 1]",
     {"type": "spin_glass", "coeffs": (0.0, 0.0, 1.0)}, "spin-glass"),
    ("type = quadratic\nsigma_A = 1.0\nsigma_eta = 0.5\nR = 2",
     {"type": "quadratic", "sigma_A": 1.0, "sigma_eta": 0.5, "R": 2.0}, "quadratic"),
]
_ALGORITHM_SECTIONS = [
    ("type = gd\nalpha = 0.4", {"type": "gd", "alpha": 0.4, "projection": "none"}, "gd"),
    ("type = heavy_ball\nalpha = 0.3\nbeta = 0.5",
     {"type": "heavy_ball", "alpha": 0.3, "beta": 0.5, "projection": "none"}, "heavy_ball"),
    ("type = nesterov\nalpha = 0.3\nbeta = 0.25",
     {"type": "nesterov", "alpha": 0.3, "beta": 0.25, "projection": "none"}, "nesterov"),
    ("type = fr_cg\nalpha = 0.2", {"type": "fr_cg", "alpha": 0.2, "projection": "none"},
     "fr_cg"),
    ("type = gd\nalpha = 0.4\nprojection = none",
     {"type": "gd", "alpha": 0.4, "projection": "none"}, "gd"),
    ("type = gd\nalpha = 0.4\nprojection = sphere\nradius = 1.5",
     {"type": "gd", "alpha": 0.4, "radius": 1.5, "projection": "sphere"}, "gd+sphere"),
    ("type = heavy_ball\nalpha = 0.3\nbeta = 0.5\nprojection = ball\nradius = 2",
     {"type": "heavy_ball", "alpha": 0.3, "beta": 0.5, "radius": 2.0, "projection": "ball"},
     "heavy_ball+ball"),
]


@pytest.mark.parametrize("section", _KERNEL_SECTIONS, ids=lambda c: c[2])
def test_kernel_section_spec_and_model(tmp_path, section):
    text, spec, label = section
    config = load_config(_write(tmp_path, f"[kernel]\n{text}\n"))
    assert config.kernel == spec and config.algorithm is None
    assert build_kernel(config.kernel).label == label


@pytest.mark.parametrize("section", _ALGORITHM_SECTIONS, ids=lambda c: c[2])
def test_algorithm_section_spec_and_model(tmp_path, section):
    text, spec, name = section
    config = load_config(_write(tmp_path, BASE_CONFIG.replace(
        "type = gd\nalpha = 0.4", text)))
    assert config.algorithm == spec
    gsa = build_gsa(config.algorithm)
    assert gsa.name == name
    assert gsa.parameters == {k: v for k, v in spec.items() if k not in ("type", "projection")}


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_kernel_section_required(tmp_path):
    path = _write(tmp_path, "[algorithm]\ntype = gd\nalpha = 0.1\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("raw, value", [("Yes", True), ("false", False), ("0", False)])
def test_load_config_reads_booleans(tmp_path, raw, value):
    config = load_config(_write(tmp_path, BASE_CONFIG + f"pseudo_inverse = {raw}\n"))
    assert config.pseudo_inverse is value


@pytest.mark.parametrize("build, spec", [(build_kernel, {"type": "mystery"}),
                                         (build_gsa, {"type": "adam", "alpha": 0.1})])
def test_build_rejects_an_unknown_type(build, spec):
    # load_config checks the type first; a dict built by hand reaches _build
    with pytest.raises(ConfigError, match="unknown .* type"):
        build(spec)


def test_build_factories_roundtrip(base_config):
    kernel = build_kernel(base_config.kernel)
    assert kernel.label == "stationary-lift"
    assert float(kernel.cov_ff(0.5, 0.5, 1.0)) == 1.0     # C(0) of exp(-r)
    gsa = build_gsa(base_config.algorithm)
    assert gsa.name == "gd"


def test_build_gsa_projection(base_config):
    spec = dict(base_config.algorithm)
    spec.update(projection="sphere", radius=1.5)
    gsa = build_gsa(spec)
    assert gsa.name == "gd+sphere"
    assert gsa.parameters == {"alpha": 0.4, "radius": 1.5}


# ---------------------------------------------------------------------------
# verify runner
# ---------------------------------------------------------------------------

def test_run_verify_smoke_writes_well_formed_csv(tmp_path, monkeypatch):
    # minimal M=2, steps=1 run completes and the CSV parses back
    monkeypatch.setenv(harness.WORKERS_ENV, "1")
    out = tmp_path / "report.csv"
    path = _write(tmp_path, BASE_CONFIG
                  .replace("steps = 2", "steps = 1")
                  .replace("replications = 6", "replications = 2"))
    config = replace(load_config(path), out=str(out))
    report = run_verify(config)
    assert out.exists()
    lines = out.read_text().splitlines()
    assert lines[0].startswith(f"# rows: {len(lines) - 2}; thresholds:")
    assert lines[1].split(",")[:3] == ["N", "step", "mean_f"]
    assert len(lines) == 2 + len(config.N_list) * (config.steps + 1)
    again = ConvergenceReport.from_csv(out)
    np.testing.assert_array_equal(report.mean_f, again.mean_f)


def test_verify_matches_direct_simulation(base_config):
    # the fan-out uses stream i*M + rep; recompute one cell by hand
    report = run_verify(base_config)
    kernel = build_kernel(base_config.kernel)
    gsa = build_gsa(base_config.algorithm)
    M = base_config.replications
    direct = np.array([
        simulate_info_path(kernel, gsa, 1.0, 32, 2, 1 * M + rep,
                           base_config.master_seed).f_values
        for rep in range(M)
    ])
    np.testing.assert_allclose(report.mean_f[1], direct.mean(axis=0),
                               rtol=0, atol=1e-15)


def test_report_roundtrip_exact(tmp_path, base_config):
    report = run_verify(base_config)
    out = tmp_path / "verify.csv"
    report.to_csv(out)
    again = ConvergenceReport.from_csv(out)
    for name in ("mean_f", "sd_f", "se_f", "mean_grad", "sd_grad", "se_grad",
                 "f_limit", "grad_limit", "gap_f", "gap_grad",
                 "slope_f", "slope_grad"):
        np.testing.assert_allclose(getattr(report, name), getattr(again, name),
                                   rtol=0, atol=1e-12)


def test_gap_bound_shape_and_value(base_config):
    report = run_verify(base_config)
    bound = report.gap_bound()
    assert bound.shape == report.gap_f.shape
    assert bound[0, 0] == 3 * report.se_f[0, 0] + 2 / math.sqrt(16)


def test_verify_requires_run_parameters(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.WORKERS_ENV, "1")
    path = _write(tmp_path, BASE_CONFIG.replace("N_list = [16, 32]\n", ""))
    with pytest.raises(ConfigError):
        run_verify(load_config(path))


def test_verify_rejects_n_too_small_for_steps(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.WORKERS_ENV, "1")
    path = _write(tmp_path, BASE_CONFIG.replace("steps = 2", "steps = 14"))
    with pytest.raises(ConfigError):
        run_verify(load_config(path))


# ---------------------------------------------------------------------------
# determinism and workers
# ---------------------------------------------------------------------------

def test_identical_seed_identical_bytes(tmp_path, base_config):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_verify(base_config).to_csv(a)
    run_verify(base_config).to_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_different_result(tmp_path, base_config):
    other = replace(base_config, master_seed=99)
    assert not np.array_equal(run_verify(base_config).mean_f,
                              run_verify(other).mean_f)


def test_worker_count_does_not_change_bytes(tmp_path, monkeypatch):
    # the second case ends every N with a ragged batch of 3 streams
    for replications in (10, harness._BATCH + 3):
        path = _write(tmp_path, BASE_CONFIG.replace("replications = 6",
                                                    f"replications = {replications}"))
        outputs = []
        for workers in ("1", "2"):
            monkeypatch.setenv(harness.WORKERS_ENV, workers)
            out = tmp_path / f"w{workers}.csv"
            run_verify(load_config(path)).to_csv(out)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_batch_size_does_not_change_bytes(tmp_path, monkeypatch):
    # 53 streams per N: tasks of 25 + 25 + 3, 50 + 3 and 53 streams
    path = _write(tmp_path, BASE_CONFIG.replace("replications = 6", "replications = 53"))
    outputs = set()
    for batch in (25, 50, 100):
        monkeypatch.setattr(harness, "_BATCH", batch)
        for workers in ("1", "2"):
            monkeypatch.setenv(harness.WORKERS_ENV, workers)
            out = tmp_path / f"b{batch}-w{workers}.csv"
            run_verify(load_config(path)).to_csv(out)
            outputs.add(out.read_bytes())
    assert len(outputs) == 1


def _planned_tasks(monkeypatch, config, reps_per_n):
    """(N, streams) of each task the fan-out hands out, in order, recorded
    in one process with every task stubbed out."""
    planned = []

    def record(kernel, gsa, config, N, streams):
        planned.append((N, streams))
        return (np.zeros((len(streams), config.steps + 1)),) * 2

    monkeypatch.setattr(harness, "_batch_task", record)
    monkeypatch.setenv(harness.WORKERS_ENV, "1")
    harness._collect_trajectories(config, reps_per_n)
    return planned


def test_acceptance_config_runs_as_tasks_of_batch_streams(monkeypatch):
    config = load_config(ACCEPTANCE)
    tasks = _planned_tasks(monkeypatch, config, config.replications)
    assert len(tasks) == len(config.N_list) * config.replications // harness._BATCH == 8
    for N, streams in tasks:
        assert len(streams) == harness._BATCH
        assert N == config.N_list[streams.start // config.replications]
        assert N == config.N_list[(streams.stop - 1) // config.replications]


@given(n_count=st.integers(1, 4), reps=st.integers(1, 250))
@settings(max_examples=40, deadline=None)
def test_tasks_cover_every_stream_once_in_order(n_count, reps):
    config = load_config(ACCEPTANCE)
    config = replace(config, N_list=config.N_list[:n_count])
    with pytest.MonkeyPatch.context() as monkeypatch:
        tasks = _planned_tasks(monkeypatch, config, reps)
    assert [s for _, streams in tasks for s in streams] == list(range(n_count * reps))
    for N, streams in tasks:
        assert 0 < len(streams) <= harness._BATCH
        assert {config.N_list[s // reps] for s in streams} == {N}


def test_worker_env_validation(monkeypatch):
    monkeypatch.setenv(harness.WORKERS_ENV, "zero")
    with pytest.raises(ConfigError):
        harness.worker_count()
    monkeypatch.setenv(harness.WORKERS_ENV, "0")
    with pytest.raises(ConfigError):
        harness.worker_count()
    monkeypatch.setenv(harness.WORKERS_ENV, "3")
    assert harness.worker_count() == 3


def test_default_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv(harness.WORKERS_ENV, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert harness.worker_count() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness.worker_count() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness.worker_count() == 1


def _child_env(**env):
    """This environment with ``env`` set, in which a fresh interpreter
    imports this grfspan."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_interpreter(script, *args, **env):
    """Run ``script`` in a fresh interpreter that imports this grfspan; the
    completed process, its output captured."""
    return subprocess.run([sys.executable, "-c", script, *args], env=_child_env(**env),
                          capture_output=True, text=True)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process if the block runs past ``seconds``,
    so that a fan-out that waits forever fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# 6 tasks of 2 streams, task i starting at stream 2i: under 2 workers the
# stripes are (0, 2, 4) and (1, 3, 5), under 3 (0, 3), (1, 4) and (2, 5), the
# first of them this process's own
@pytest.mark.parametrize("failing", [(3, 4), (2, 3)])
def test_failure_raises_the_lowest_failing_task_whatever_the_worker_count(
        monkeypatch, base_config, failing):
    monkeypatch.setattr(harness, "_BATCH", 2)
    task = harness._batch_task

    def failing_task(kernel, gsa, config, N, streams):
        index = streams.start // 2
        if index in failing:
            raise NumericalError(f"task {index} failed")
        return task(kernel, gsa, config, N, streams)

    monkeypatch.setattr(harness, "_batch_task", failing_task)
    for workers in ("1", "2", "3"):
        monkeypatch.setenv(harness.WORKERS_ENV, workers)
        with _deadline(60), pytest.raises(NumericalError) as raised:
            run_verify(base_config)
        assert type(raised.value) is NumericalError
        assert str(raised.value) == f"task {min(failing)} failed"
        assert multiprocessing.active_children() == []


def test_a_worker_that_dies_mid_stripe_is_named_with_its_exit_code(monkeypatch, base_config):
    monkeypatch.setattr(harness, "_BATCH", 2)
    parent, task, done = os.getpid(), harness._batch_task, []

    def dying_task(*batch):
        if os.getpid() != parent and done:
            os._exit(7)
        done.append(batch)
        return task(*batch)

    monkeypatch.setattr(harness, "_batch_task", dying_task)
    monkeypatch.setenv(harness.WORKERS_ENV, "2")
    with _deadline(60), pytest.raises(RuntimeError, match=r"^worker of stripe 1 exited with code 7$"):
        run_verify(base_config)
    assert multiprocessing.active_children() == []


_WARM_WORKERS = """
import os, sys
from grfspan import harness

task = harness._batch_task

def warm_task(*batch):
    with open(sys.argv[2], "a") as log:
        log.write(f"{os.getpid()} {'numpy.random' in sys.modules}\\n")
    return task(*batch)

harness._batch_task = warm_task
harness.run_verify(harness.load_config(sys.argv[1]))
"""


def test_pool_workers_start_with_numpy_random(tmp_path):
    # two tasks, so one forked child and this process; the parent loads
    # numpy.random before it forks, and each process logs its pid per task
    log = tmp_path / "pids.log"
    done = _fresh_interpreter(_WARM_WORKERS, str(_write(tmp_path, BASE_CONFIG)), str(log),
                              **{harness.WORKERS_ENV: "2"})
    assert done.returncode == 0, done.stderr
    loaded = dict(line.split() for line in log.read_text().splitlines())
    assert len(loaded) >= 2, loaded
    assert set(loaded.values()) == {"True"}, loaded


def test_import_loads_neither_numpy_random_nor_the_pool():
    done = _fresh_interpreter(
        "import sys, grfspan, grfspan.cli\n"
        "print(sorted({'numpy.random', 'multiprocessing', 'concurrent.futures'}"
        " & set(sys.modules)))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# ---------------------------------------------------------------------------
# two-init runner
# ---------------------------------------------------------------------------

def test_run_two_init_report(tmp_path, base_config):
    report = run_two_init(base_config)
    assert report.step_gaps.shape == (2, 6, 3)
    assert np.all(report.step_gaps >= 0)
    assert report.max_gaps.shape == (2, 6)
    np.testing.assert_array_equal(report.max_gaps,
                                  report.step_gaps.max(axis=2))
    assert report.medians.shape == (2,)
    out = tmp_path / "pairs.csv"
    report.to_csv(out)
    again = TwoInitReport.from_csv(out)
    assert again.N_list == report.N_list and again.steps == report.steps
    np.testing.assert_array_equal(report.step_gaps, again.step_gaps)
    np.testing.assert_array_equal(report.medians, again.medians)


def test_two_init_identical_streams_give_zero_gap():
    # degenerate control: the same stream on both sides collapses the gap
    kernel = build_kernel({"type": "stationary_schoenberg",
                           "atoms": ((1.0, 1.0),), "mean_level": 0.0})
    gsa = build_gsa({"type": "gd", "alpha": 0.4, "projection": "none"})
    a = simulate_info_path(kernel, gsa, 1.0, 32, 2, 5, 123)
    b = simulate_info_path(kernel, gsa, 1.0, 32, 2, 5, 123)
    assert np.max(np.abs(a.f_values - b.f_values)) == 0.0


# ---------------------------------------------------------------------------
# halting runner
# ---------------------------------------------------------------------------

def test_adjust_epsilons():
    diag = np.array([1.0, 0.5, 0.25])
    # far from all diagonal values: untouched
    assert adjust_epsilons((0.7,), diag) == (0.7,)
    # sitting on a diagonal value: pushed at least 1% away
    (moved,) = adjust_epsilons((0.5,), diag)
    assert abs(moved - 0.5) >= 0.01 * 0.5 * (1 - 1e-12)
    # just below: pushed down, not up
    (below,) = adjust_epsilons((0.499,), diag)
    assert below == 0.5 * 0.99
    (above,) = adjust_epsilons((0.501,), diag)
    assert above == 0.5 * 1.01
    # a chain of diagonal values 1% apart pushes a threshold down link by
    # link, past the 32 moves allowed
    chain = 1.01 ** np.arange(40)
    with pytest.raises(ConfigError, match="cannot be separated"):
        adjust_epsilons((chain[-1],), chain)


def test_run_halting_report(tmp_path, base_config):
    report = run_halting(base_config)
    assert report.frequencies.shape == (2, 1)
    assert np.all((0 <= report.frequencies) & (report.frequencies <= 1))
    assert report.tau_limit[0] >= 1
    out = tmp_path / "halt.csv"
    report.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[1] == "N,epsilon,tau_limit,frequency,replications"


def test_halting_epsilon_below_horizon(tmp_path, monkeypatch):
    # threshold unreachable in so few steps: both sides infinite, frequency 1
    monkeypatch.setenv(harness.WORKERS_ENV, "1")
    path = _write(tmp_path, BASE_CONFIG.replace("epsilons = [0.5]",
                                                "epsilons = [1e-6]"))
    report = run_halting(load_config(path))
    assert report.tau_limit == (math.inf,)
    assert np.all(report.frequencies == 1.0)


def test_halting_epsilon_above_first_diagonal(tmp_path, monkeypatch):
    # threshold above g_11: predicted halting at step 1, finite N agrees often
    monkeypatch.setenv(harness.WORKERS_ENV, "1")
    path = _write(tmp_path, BASE_CONFIG
                  .replace("epsilons = [0.5]", "epsilons = [0.9]")
                  .replace("N_list = [16, 32]", "N_list = [512]")
                  .replace("replications = 6", "replications = 40"))
    report = run_halting(load_config(path))
    assert report.tau_limit == (1.0,)
    assert report.frequencies[0, 0] >= 0.9


# ---------------------------------------------------------------------------
# simulate runner
# ---------------------------------------------------------------------------

def test_run_simulate_table(tmp_path, base_config):
    table = run_simulate(base_config)
    out = tmp_path / "sim.csv"
    table.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[1] == "replication,N,step,f_value,grad_norm_sq,halted_eps_0"
    assert len(lines) == 2 + 2 * 6 * 3
    # flags are cumulative 0/1 per trajectory
    flags = np.array([[int(line.split(",")[-1])] for line in lines[2:]])
    assert set(flags.ravel()) <= {0, 1}
    # rows are sorted by (N, replication, step)
    keys = []
    for line in lines[2:]:
        rep, n_val, step = map(int, line.split(",")[:3])
        keys.append((n_val, rep, step))
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# exact report text, from hand-made arrays (nothing simulated)
# ---------------------------------------------------------------------------

def _text(write, obj):
    handle = io.StringIO()
    write(obj, handle)
    return handle.getvalue()


def test_limit_curve_text():
    curve = LimitCurve(f_limit=np.array([0.0, -0.5, -0.75]), gamma=np.zeros((3, 3)),
                       y_reps=np.zeros((3, 3)), sigma_w=np.array([1.0, 0.1, 0.25]),
                       dims=np.array([1, 2, 3]), grad_gram_limit=np.diag([1.0, 0.5, 0.2]),
                       rho=np.zeros((3, 3)), lam=1.0)
    assert _text(write_limit_curve, curve) == """\
step,f_limit,grad_norm_sq_limit,sigma_w,dim
0,0,1,1,1
1,-0.5,0.5,0.10000000000000001,2
2,-0.75,0.20000000000000001,0.25,3
"""


def test_convergence_report_text():
    report = ConvergenceReport(
        N_list=(64, 10**9), steps=1,
        mean_f=np.array([[0.0, -0.5], [0.125, -0.375]]),
        sd_f=np.array([[0.5, 0.25], [0.0, 1e-5]]),
        se_f=np.array([[0.25, 0.125], [0.0, 5e-6]]),
        mean_grad=np.array([[1.0, 0.5], [1.0, 0.3]]),
        sd_grad=np.array([[0.2, 0.1], [1e-4, 3e-5]]),
        se_grad=np.array([[0.1, 0.05], [5e-5, 1.5e-5]]),
        f_limit=np.array([0.0, -0.4]), grad_limit=np.array([1.0, 0.4]))
    assert _text(ConvergenceReport.write, report) == """\
# rows: 4; thresholds: gap pass: |mean - limit| <= 3*se + 2/sqrt(N); sd log-log slope target -0.5
N,step,mean_f,sd_f,se_f,mean_grad_norm_sq,sd_grad_norm_sq,se_grad_norm_sq,f_limit,grad_norm_sq_limit,gap_f,gap_grad_norm_sq
64,0,0,0.5,0.25,1,0.20000000000000001,0.10000000000000001,0,1,0,0
64,1,-0.5,0.25,0.125,0.5,0.10000000000000001,0.050000000000000003,-0.40000000000000002,0.40000000000000002,0.099999999999999978,0.099999999999999978
1000000000,0,0.125,0,0,1,0.0001,5.0000000000000002e-05,0,1,0.125,0
1000000000,1,-0.375,1.0000000000000001e-05,5.0000000000000004e-06,0.29999999999999999,3.0000000000000001e-05,1.5e-05,-0.40000000000000002,0.40000000000000002,0.025000000000000022,0.10000000000000003
"""


def test_two_init_report_text():
    report = TwoInitReport(N_list=(16, 10**9), steps=2, step_gaps=np.array([
        [[0.0, 0.5, 0.25], [0.1, 0.0, 0.3]],
        [[0.0, 1e-9, 2e-9], [0.0, 0.0, 0.0]]]))
    assert _text(TwoInitReport.write, report) == """\
# rows: 4; thresholds: median max-gap must not increase with N
N,pair,gap_step_0,gap_step_1,gap_step_2,max_gap
16,0,0,0.5,0.25,0.5
16,1,0.10000000000000001,0,0.29999999999999999,0.29999999999999999
1000000000,0,0,1.0000000000000001e-09,2.0000000000000001e-09,2.0000000000000001e-09
1000000000,1,0,0,0,0
"""


def test_halting_report_text():
    report = HaltingReport(N_list=(64, 10**9), epsilons=(0.5, 0.05), tau_limit=(2.0, math.inf),
                           frequencies=np.array([[0.25, 1.0], [1.0, 1.0]]),
                           replications=4)
    assert _text(HaltingReport.write, report) == """\
# rows: 4; thresholds: epsilons adjusted >= 1% relative from the limiting gradient diagonal; pass: frequency -> 1 as N grows
N,epsilon,tau_limit,frequency,replications
64,0.5,2,0.25,4
64,0.050000000000000003,inf,1,4
1000000000,0.5,2,1,4
1000000000,0.050000000000000003,inf,1,4
"""


def test_simulation_table_text():
    # step 0 never halts; flags flip at the first later step at or below eps
    table = SimulationTable(
        N_list=(64, 10**9), steps=2, epsilons=(0.5, 0.05),
        f_values=np.array([[[0.0, -0.5, -0.75], [0.125, -0.25, -0.5]],
                           [[0.0, -0.375, -0.625], [-0.125, -0.5, -0.875]]]),
        grad_diag=np.array([[[1.0, 0.75, 0.5], [0.25, 0.75, 0.625]],
                            [[1.0, 0.5, 0.0625], [1.0, 0.25, 0.03125]]]))
    assert _text(SimulationTable.write, table) == """\
# rows: 12; halted_eps_j: 1 once grad_norm_sq first dipped to eps_j; eps_0 = 0.5; eps_1 = 0.050000000000000003
replication,N,step,f_value,grad_norm_sq,halted_eps_0,halted_eps_1
0,64,0,0,1,0,0
0,64,1,-0.5,0.75,0,0
0,64,2,-0.75,0.5,1,0
1,64,0,0.125,0.25,0,0
1,64,1,-0.25,0.75,0,0
1,64,2,-0.5,0.625,0,0
0,1000000000,0,0,1,0,0
0,1000000000,1,-0.375,0.5,1,0
0,1000000000,2,-0.625,0.0625,1,0
1,1000000000,0,-0.125,1,0,0
1,1000000000,1,-0.5,0.25,1,0
1,1000000000,2,-0.875,0.03125,1,1
"""


def _small_convergence_report(N_list=(16, 32)):
    rng = np.random.default_rng(5)
    stats = {name: rng.random((len(N_list), 4)) for name in
             ("mean_f", "sd_f", "se_f", "mean_grad", "sd_grad", "se_grad")}
    return ConvergenceReport(N_list=N_list, steps=3, f_limit=rng.random(4),
                             grad_limit=rng.random(4), **stats)


def test_two_init_reader_rejects_a_verify_csv(tmp_path):
    out = tmp_path / "verify.csv"
    _small_convergence_report().to_csv(out)
    with pytest.raises(ConfigError):
        TwoInitReport.from_csv(out)


def test_verify_reader_rejects_a_truncated_csv(tmp_path):
    out = tmp_path / "verify.csv"
    _small_convergence_report().to_csv(out)
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:-1]))
    with pytest.raises(ConfigError):
        ConvergenceReport.from_csv(out)


@pytest.mark.parametrize("edit", ["repeat", "swap", "header", "empty", "short", "count",
                                  "no count", "text", "gap", "form"])
def test_verify_reader_rejects_rows_off_the_grid(tmp_path, edit):
    out = tmp_path / "verify.csv"
    _small_convergence_report().to_csv(out)
    comment, header, *rows = out.read_text().splitlines(keepends=True)
    if edit == "repeat":
        rows[-1] = rows[-2]
    elif edit == "swap":
        rows[0], rows[1] = rows[1], rows[0]
    elif edit == "header":
        header = header.replace("mean_f", "mean_value")
    elif edit == "short":
        rows[0] = rows[0].rsplit(",", 1)[0] + "\n"
    elif edit == "count":
        comment = comment.replace(f"# rows: {len(rows)};", f"# rows: {len(rows) + 1};")
    elif edit == "no count":
        comment = comment.replace(f"rows: {len(rows)}; ", "")
    elif edit == "text":
        rows[0] = "x," + rows[0].split(",", 1)[1]
    elif edit == "gap":
        # a derived column, hand-edited to another number in FLOAT_FMT form
        *cells, gap = rows[0].split(",")
        rows[0] = ",".join(cells + [harness.FLOAT_FMT % (float(gap) + 1)]) + "\n"
    elif edit == "form":
        # N = 16 written as 16.0: the same number, not the writer's bytes
        rows[0] = rows[0].replace(",", ".0,", 1)
    else:
        rows = []
    out.write_text(comment + header + "".join(rows))
    with pytest.raises(ConfigError):
        ConvergenceReport.from_csv(out)


# every value class a report may hold: ±0, subnormals, and magnitudes up to
# 1e300, where the recomputed gaps still stay finite
_CELLS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
                   st.floats(-1e300, 1e300))
# N values float64 holds exactly, up to 2**1000
_N_VALUES = st.one_of(st.integers(1, 2 ** 53), st.integers(54, 1000).map(lambda k: 2 ** k))


@st.composite
def _reports(draw):
    N_list = tuple(sorted(draw(st.lists(_N_VALUES, min_size=1, max_size=4, unique=True))))
    steps = draw(st.integers(0, 6))

    def cells(*shape):
        return draw(hnp.arrays(float, shape, elements=_CELLS))

    if draw(st.booleans()):
        stats = {name: cells(len(N_list), steps + 1) for name in
                 ("mean_f", "sd_f", "se_f", "mean_grad", "sd_grad", "se_grad")}
        return ConvergenceReport(N_list=N_list, steps=steps, f_limit=cells(steps + 1),
                                 grad_limit=cells(steps + 1), **stats)
    pairs = draw(st.integers(1, 3))
    return TwoInitReport(N_list=N_list, steps=steps, step_gaps=cells(len(N_list), pairs, steps + 1))


_ROUND_TRIP = settings(derandomize=True, database=None, max_examples=40, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


@_ROUND_TRIP
@given(report=_reports())
def test_report_csv_round_trips_bit_for_bit(tmp_path, report):
    out = tmp_path / "report.csv"
    report.to_csv(out)
    back = type(report).from_csv(out)
    assert (back.N_list, back.steps) == (report.N_list, report.steps)
    for f in fields(report):
        if f.name not in ("N_list", "steps"):
            a, b = getattr(report, f.name), getattr(back, f.name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name


@_ROUND_TRIP
@given(report=_reports(), data=st.data(),
       edit=st.sampled_from(["last line", "mid-row", "swapped columns", "other report"]))
def test_report_reader_rejects_a_cut_or_foreign_file(tmp_path, report, edit, data):
    out = tmp_path / "report.csv"
    report.to_csv(out)
    text = out.read_text()
    comment, header, *rows = text.splitlines(keepends=True)
    if edit == "last line":
        text = text[:-len(rows[-1])]
    elif edit == "mid-row":
        text = text[:data.draw(st.integers(len(text) - len(rows[-1]) + 1, len(text) - 1))]
    elif edit == "other report":
        other = (TwoInitReport._columns(report.steps) if isinstance(report, ConvergenceReport)
                 else _text(ConvergenceReport.write, _small_convergence_report())
                 .splitlines()[1].split(","))
        text = comment + ",".join(other) + "\n" + "".join(rows)
    else:
        names = header.rstrip("\n").split(",")
        i, j = data.draw(st.lists(st.integers(0, len(names) - 1), min_size=2, max_size=2,
                                  unique=True))
        names[i], names[j] = names[j], names[i]
        text = comment + ",".join(names) + "\n" + "".join(rows)
    out.write_text(text)
    with pytest.raises(ConfigError):
        type(report).from_csv(out)


def test_verify_reader_reads_a_file_with_another_thresholds_text(tmp_path):
    # the comment's text after the row count may change between versions:
    # here the thresholds line as written before it dropped the KS claim
    report = _small_convergence_report()
    out = tmp_path / "verify.csv"
    report.to_csv(out)
    comment, rest = out.read_text().split("\n", 1)
    out.write_text(comment + "; ks significance 1e-3\n" + rest)
    back = ConvergenceReport.from_csv(out)
    assert (back.N_list, back.steps) == (report.N_list, report.steps)
    for f in fields(report):
        if f.name not in ("N_list", "steps"):
            a, b = getattr(report, f.name), getattr(back, f.name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name


def test_single_n_report_cut_at_a_row_boundary_is_rejected(tmp_path):
    out = tmp_path / "verify.csv"
    _small_convergence_report(N_list=(16,)).to_csv(out)
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:-1]))
    with pytest.raises(ConfigError):
        ConvergenceReport.from_csv(out)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_predict_header(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONFIG)
    assert cli.main(["predict", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "step,f_limit,grad_norm_sq_limit,sigma_w,dim"
    assert len(out.splitlines()) == 4    # header + steps 0..2


def test_cli_predict_out_file(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "curve.csv"
    assert cli.main(["predict", "--config", str(path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == \
        "step,f_limit,grad_norm_sq_limit,sigma_w,dim"
    assert capsys.readouterr().out == ""


def test_cli_missing_config_exits_2(tmp_path, capsys):
    code = cli.main(["verify", "--config", str(tmp_path / "none.cfg")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("grfspan: config-error:") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing-directory", "a-directory", "under-a-file"])
@pytest.mark.parametrize("mode", ["predict", "verify"])
def test_cli_unwritable_out_path_exits_2(mode, where, tmp_path, capsys):
    # checked before the run, so verify spends no Monte Carlo on it
    path = _write(tmp_path, BASE_CONFIG)
    (tmp_path / "a-file").write_text("")
    out = {"missing-directory": tmp_path / "missing" / "x.csv", "a-directory": tmp_path,
           "under-a-file": tmp_path / "a-file" / "x.csv"}[where]
    assert cli.main([mode, "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("grfspan: config-error: ") and str(out) in captured.err
    assert not (tmp_path / "missing").exists()


def test_cli_numerical_error_exits_3(tmp_path, capsys, monkeypatch):
    # a quadratic field exhausts the span after one step; with the stall set
    # to raise, predict must exit 3
    monkeypatch.setenv(harness.WORKERS_ENV, "1")
    path = _write(tmp_path, """\
[kernel]
type = quadratic
sigma_A = 1.0
sigma_eta = 0.0
R = 1.0

[algorithm]
type = gd
alpha = 0.3

[run]
steps = 5
""")
    assert cli.main(["predict", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("grfspan: numerical-error:") and err.count("\n") == 1
    # with freeze enabled the same run succeeds
    ok = _write(tmp_path, path.read_text() + "rank_stall = freeze\n", "ok.cfg")
    assert cli.main(["predict", "--config", str(ok)]) == 0


# a quadratic field at σ_A = 100: a sampled run's new point's rows fail every
# rung of the jitter ladder at step 2, and only the pseudo-inverse carries it
# on; the limit factors no point rows and needs neither
BADLY_SCALED_CONFIG = """\
[kernel]
type = quadratic
sigma_A = 100.0
sigma_eta = 0.5
R = 1.0

[algorithm]
type = gd
alpha = 0.00003

[run]
N_list = [16, 1000000000]
steps = 4
replications = 3
epsilons = [0.5]
rank_stall = freeze
"""


@pytest.mark.parametrize("mode", ["predict", "simulate", "verify", "two-init", "halting"])
def test_cli_pseudo_inverse_carries_a_badly_scaled_run(mode, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(harness.WORKERS_ENV, "1")
    off = _write(tmp_path, BADLY_SCALED_CONFIG, "off.cfg")
    on = _write(tmp_path, BADLY_SCALED_CONFIG + "pseudo_inverse = true\n", "on.cfg")
    if mode == "predict":
        for config, out in ((off, "off.csv"), (on, "on.csv")):
            assert cli.main([mode, "--config", str(config), "--out", str(tmp_path / out)]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "off.csv").read_bytes() == (tmp_path / "on.csv").read_bytes()
        return
    assert cli.main([mode, "--config", str(off)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert "not positive definite within jitter ladder" in line
    assert cli.main([mode, "--config", str(on), "--out", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().err == ""


DIVERGENT_CONFIG = """\
[kernel]
type = spin_glass
coeffs = [0.0, 1.0, 0.0, 0.0, 0.0, 3.0]

[algorithm]
type = gd
alpha = 1.0

[run]
lambda = 1
N_list = [64]
steps = 12
replications = 2
"""


def test_cli_non_finite_covariance_exits_3(tmp_path, capsys, monkeypatch, recwarn):
    # gd with a large step on a degree-5 spin glass overflows the kernel:
    # a numerical failure, not a traceback
    monkeypatch.setenv(harness.WORKERS_ENV, "1")
    path = _write(tmp_path, DIVERGENT_CONFIG)
    assert cli.main(["simulate", "--config", str(path)]) == 3
    # the one machine-parsable line, with no floating-point warning before it
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("grfspan: numerical-error: stream 0: step ")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_cli_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.WORKERS_ENV, "1")
    path = _write(tmp_path, BASE_CONFIG)
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert cli.main(["simulate", "--config", str(path), "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", str(path), "--out", str(b),
                     "--seed", "11"]) == 0
    assert cli.main(["simulate", "--config", str(path), "--out", str(c),
                     "--seed", "12"]) == 0
    assert a.read_bytes() == b.read_bytes()    # same seed as config
    assert a.read_bytes() != c.read_bytes()


def test_cli_stdout_closed_early_exits_1_with_empty_stderr(tmp_path):
    # 2 000 replications of 3 steps write 6 000 rows, about 300 KB of CSV,
    # more than a pipe holds, so the run is still writing when the reader
    # closes after one line
    path = _write(tmp_path, BASE_CONFIG.replace("N_list = [16, 32]", "N_list = [16]")
                  .replace("replications = 6", "replications = 2000"))
    run = subprocess.Popen([sys.executable, "-m", "grfspan.cli", "simulate", "--config",
                            str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           env=_child_env(**{harness.WORKERS_ENV: "1"}))
    assert run.stdout.readline().startswith(b"# rows: 6000;")
    run.stdout.close()
    stderr = run.stderr.read()
    assert run.wait(timeout=60) == 1
    assert stderr == b""


def test_cli_barrier_value(tmp_path, capsys):
    path = _write(tmp_path, "[kernel]\ntype = spin_glass\ncoeffs = [0, 0, 1.0]\n")
    assert cli.main(["barrier", "--config", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1.414214"


def test_cli_barrier_out_file_bytes(tmp_path, capsys):
    path = _write(tmp_path, "[kernel]\ntype = spin_glass\ncoeffs = [0, 0, 1.0]\n")
    out = tmp_path / "barrier.csv"
    assert cli.main(["barrier", "--config", str(path), "--out", str(out)]) == 0
    value = alg_barrier(SpinGlassMixture(coeffs=(0.0, 0.0, 1.0)))
    assert out.read_bytes() == b"barrier\n" + (b"%.17g" % value) + b"\n"
    assert capsys.readouterr().out.strip() == "1.414214"


def test_cli_barrier_needs_spin_glass(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONFIG)
    assert cli.main(["barrier", "--config", str(path)]) == 2
    capsys.readouterr()


def test_cli_check_kernel(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONFIG)
    assert cli.main(["check-kernel", "--config", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_check_kernel_out_file_bytes(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "partials.csv"
    assert cli.main(["check-kernel", "--config", str(path), "--out", str(out)]) == 0
    report = validate_partials(harness.build_kernel(harness.load_config(path).kernel))
    expected = (",".join(PARTIAL_NAMES) + "\n"
                + ",".join("%.17g" % report.max_rel_err[name] for name in PARTIAL_NAMES) + "\n")
    assert out.read_bytes() == expected.encode()
    assert "PASS" in capsys.readouterr().out
