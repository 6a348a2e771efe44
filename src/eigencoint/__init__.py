"""Cointegration analysis by eigenanalysis of a quadratic lag-covariance matrix.

The package identifies cointegration in a multivariate time series panel by
eigendecomposing the matrix ``W = sum_j S_j S_j'`` built from the demeaned
lag-``j`` sample autocovariances ``S_j``.  Large eigenvalues flag
nonstationary directions, small ones stationary (cointegrated) directions;
rank-selection rules on the eigenvalue profile estimate how many there are,
and the trailing eigenvectors span the estimated cointegration space.

Companion modules generate the simulation designs used to benchmark the
method, run Johansen trace-test and sequential unit-root baselines, and
drive seeded Monte Carlo experiments.
"""

__version__ = "0.1.0"

from . import errors
from .linalg import EigenSystem, eigh_desc, solve_spd, symmetrize
from .covstack import LagCovStack, as_panel, build_stack
from .ranksel import (
    CointFit,
    PenaltySpec,
    fit,
    penalty,
    rank_ic,
    rank_ratio,
    rank_ratio_fractional,
    split,
)
from .subspace import dist_d, dist_d1, true_b2
from .simgen import (
    GeneratedPanel,
    ScenarioSpec,
    frac_coeffs,
    gen_arfima,
    gen_arima,
    gen_panel,
)
from .baselines import (
    CriticalTable,
    TraceResult,
    johansen_trace,
    sequential_unit_root,
    trace_critical_table,
    unit_root_critical_table,
    unit_root_stat,
)
from .harness import (
    ExperimentPlan,
    ExperimentReport,
    emit_replicates,
    emit_report,
    load_plan,
    preset_plan,
    preset_template,
    run_plan,
)

__all__ = [
    "__version__",
    "errors",
    "EigenSystem",
    "eigh_desc",
    "solve_spd",
    "symmetrize",
    "LagCovStack",
    "as_panel",
    "build_stack",
    "CointFit",
    "PenaltySpec",
    "fit",
    "penalty",
    "rank_ic",
    "rank_ratio",
    "rank_ratio_fractional",
    "split",
    "dist_d",
    "dist_d1",
    "true_b2",
    "GeneratedPanel",
    "ScenarioSpec",
    "frac_coeffs",
    "gen_arfima",
    "gen_arima",
    "gen_panel",
    "CriticalTable",
    "TraceResult",
    "johansen_trace",
    "sequential_unit_root",
    "trace_critical_table",
    "unit_root_critical_table",
    "unit_root_stat",
    "ExperimentPlan",
    "ExperimentReport",
    "emit_replicates",
    "emit_report",
    "load_plan",
    "preset_plan",
    "preset_template",
    "run_plan",
]
