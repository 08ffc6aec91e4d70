"""Deterministic limits and exact finite-N simulation of gradient span
algorithms on isotropic Gaussian random fields.

The package answers two questions about a first-order optimizer run on a
random objective in very high dimension:

* what the run converges to — ``predict`` returns the deterministic limiting
  progress curve (function values, gradient Gram matrix, span geometry) as
  the dimension N goes to infinity;
* what a single finite-N run looks like — ``simulate_info_path`` draws one
  exactly, in coordinates whose size does not depend on N, so N = 10⁹ costs
  the same as N = 100, and ``simulate_info_paths`` steps a batch of such
  runs together.

``brute_force_path`` cross-checks the sampler with explicit ambient
coordinates at small N, and the harness/CLI layer turns both into seeded,
reproducible Monte Carlo experiments.
"""

from .algorithms import (
    GsaSpec,
    InfoView,
    PrefactorRow,
    fr_cg,
    gd,
    heavy_ball,
    nesterov,
    with_ball_projection,
    with_sphere_projection,
)
from .errors import (
    CoincidentPointsError,
    ConfigError,
    DegenerateKernelError,
    DegenerateProjectionError,
    KernelDomainError,
    NotPsdError,
    NumericalError,
    RankStallError,
)
from .harness import (
    ConvergenceReport,
    ExperimentConfig,
    HaltingReport,
    TwoInitReport,
    load_config,
    run_halting,
    run_predict,
    run_simulate,
    run_two_init,
    run_verify,
)
from .kernels import (
    KernelModel,
    SchoenbergMixture,
    SpinGlassMixture,
    alg_barrier,
    lift_stationary,
    quadratic_kernel,
    spin_glass_kernel,
    stationary_direct,
    validate_partials,
)
from .limits import LimitCurve, halting_times, predict
from .trajectories import (
    TrajectoryRecord,
    brute_force_path,
    empirical_halting_time,
    simulate_info_path,
    simulate_info_paths,
)

__version__ = "0.1.0"

__all__ = [
    "GsaSpec", "InfoView", "PrefactorRow",
    "gd", "heavy_ball", "nesterov", "fr_cg",
    "with_sphere_projection", "with_ball_projection",
    "KernelModel", "SchoenbergMixture", "SpinGlassMixture",
    "lift_stationary", "stationary_direct", "spin_glass_kernel",
    "quadratic_kernel", "alg_barrier", "validate_partials",
    "LimitCurve", "predict", "halting_times",
    "TrajectoryRecord", "simulate_info_path", "simulate_info_paths", "brute_force_path",
    "empirical_halting_time",
    "ExperimentConfig", "load_config", "ConvergenceReport", "TwoInitReport",
    "HaltingReport", "run_predict", "run_verify", "run_two_init",
    "run_halting", "run_simulate",
    "ConfigError", "NumericalError", "KernelDomainError",
    "DegenerateKernelError", "NotPsdError", "RankStallError",
    "CoincidentPointsError", "DegenerateProjectionError",
    "__version__",
]
