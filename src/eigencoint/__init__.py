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

``import eigencoint`` loads no submodule but :mod:`eigencoint.errors`: each
public name, and each submodule, is imported on first access (PEP 562).
"""

from importlib import import_module

from . import errors

__version__ = "0.1.0"

#: Each public name, under the submodule that defines it.
_EXPORTS = {
    "linalg": ("EigenSystem", "eigh_desc", "solve_spd", "symmetrize"),
    "covstack": ("LagCovStack", "as_panel", "build_stack"),
    "ranksel": ("CointFit", "PenaltySpec", "fit", "penalty", "rank_ic", "rank_ratio",
                "rank_ratio_fractional", "split"),
    "subspace": ("dist_d", "dist_d1", "true_b2"),
    "simgen": ("GeneratedPanel", "ScenarioSpec", "frac_coeffs", "gen_arfima", "gen_arima",
               "gen_panel"),
    "baselines": ("CriticalTable", "TraceResult", "johansen_trace", "sequential_unit_root",
                  "trace_critical_table", "unit_root_critical_table", "unit_root_stat"),
    "harness": ("ExperimentPlan", "ExperimentReport", "emit_replicates", "emit_report",
                "load_plan", "preset_plan", "preset_template", "run_plan"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "errors", *_OWNER]


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
