"""Seeded Monte Carlo experiment runner over scenario/sample-size grids.

A plan is a grid: scenarios x sample sizes, a set of estimators, a
replicate count, and a master seed.  A scenario is a
:class:`~eigencoint.simgen.ScenarioSpec` with ``n`` left open.  Each
replicate of each cell closes it with ``dataclasses.replace`` (the cell's
``n`` and the replicate's own derived seed), generates that panel, fits the
eigenanalysis pipeline once, then applies every requested estimator;
tallies are relative frequencies of correct rank and distance statistics of
the estimated cointegration space from the true one (always computed with
the *estimated* rank — the distance metric handles width mismatches).

Reproducibility: replicate ``k`` of cell ``ci`` (cells enumerated
scenario-major over the expanded scenario x n grid) draws its panel from the
64-bit seed produced by ``SeedSequence(master_seed, spawn_key=(ci, k))``.
Reports are therefore bit-identical across runs, and any single number can
be regenerated from ``(master_seed, ci, k)`` alone.  Every replicate runs in
the calling process, in chunks of consecutive ``k`` (one
:func:`~eigencoint.simgen.gen_panel` batch each); chunking changes no value.

Estimator names: ``ratio``, ``ic_omega1``, ``ic_omega2``, ``ic_omega3``,
``johansen``, ``unitroot``, ``fractional_ratio``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .baselines import (
    _UNIT_ROOT_MIN_N,
    CriticalTable,
    _check_reps,
    _check_sim_args,
    _trace_min_n,
    johansen_trace,
    trace_critical_table,
    unit_root_critical_table,
    sequential_unit_root,
)
from .errors import EigencointError, ExperimentFailure
from .ranksel import (
    PenaltySpec,
    fit,
    penalty,
    rank_ic,
    rank_ratio,
    rank_ratio_fractional,
    split,
)
from .simgen import ProcessBlock, ScenarioSpec, gen_panel
from .subspace import dist_d1

ESTIMATORS = (
    "ratio",
    "ic_omega1",
    "ic_omega2",
    "ic_omega3",
    "johansen",
    "unitroot",
    "fractional_ratio",
)

#: A cell fails (and the run aborts) when more than this fraction of its
#: replicates error out.
FAILURE_BUDGET = 0.05

#: Innovation floats (``reps x p x n``) one chunk of replicates may hold:
#: the replicates of a chunk are generated together, in one recursion.
_CHUNK_FLOATS = 2**20

_IC_VARIANTS = {"ic_omega1": "omega1", "ic_omega2": "omega2", "ic_omega3": "omega3"}


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything a reproducible experiment run needs.

    Attributes
    ----------
    scenarios : tuple of ScenarioSpec
        Designs with ``n`` left open (dicts go through
        :meth:`ScenarioSpec.from_dict`); each names its report rows, so
        names must be distinct.
    n_grid : tuple of int
        Sample sizes, each valid for every scenario and every estimator.
    estimators : tuple of str
        Subset of :data:`ESTIMATORS`; ``fractional_ratio`` requires every
        scenario to contain a fractionally integrated block.
    reps : int
        Replicates per cell.
    parallelism : int
        Ignored: every replicate runs in the calling process.  Kept, and
        still validated as ``>= 1``, so that existing plans and command
        lines still load.
    master_seed : int
        Non-negative.
    level : float
        Test size for the johansen/unitroot estimators, in ``(0, 1)``.
    j0 : int
        Max lag of the quadratic covariance accumulation,
        ``0 <= j0 <= min(n_grid) - 2``.
    crit_T, crit_reps : int
        Inner length (``>= 100``) and repetitions (``>= 1000``) of the trace
        critical-value simulation; checked when ``johansen`` is requested.
    ur_reps : int
        Repetitions (``>= 1000``) of the unit-root critical-value
        simulation; checked when ``unitroot`` is requested.
    fractional_d_min, fractional_delta : float
        Parameters of the fractional ratio rule; ``fractional_d_min=None``
        uses each scenario's true smallest order.
    """

    scenarios: tuple
    n_grid: tuple
    estimators: tuple = ("ratio",)
    reps: int = 200
    parallelism: int = 1
    master_seed: int = 0
    level: float = 0.05
    j0: int = 5
    crit_T: int = 1000
    crit_reps: int = 2000
    ur_reps: int = 4000
    fractional_d_min: Optional[float] = None
    fractional_delta: float = 0.0

    def __post_init__(self):
        scenarios = tuple(
            s if isinstance(s, ScenarioSpec) else ScenarioSpec.from_dict(s)
            for s in self.scenarios
        )
        object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not scenarios or not self.n_grid or not self.estimators:
            raise ValueError(
                "plan needs at least one scenario, sample size, and estimator"
            )
        if self.reps < 1:
            raise ValueError(f"need reps >= 1, got {self.reps}")
        if self.parallelism < 1:
            raise ValueError(f"need parallelism >= 1, got {self.parallelism}")
        if self.master_seed < 0:
            raise ValueError(f"need master_seed >= 0, got {self.master_seed}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        for s in scenarios:
            if s.n is not None:
                raise ValueError(
                    f"scenario {s.name!r} sets n; a plan's n_grid sets it"
                )
            for n in self.n_grid:
                replace(s, n=n)
            needs = {"johansen": _trace_min_n(s.p), "unitroot": _UNIT_ROOT_MIN_N}
            for est, need in needs.items():
                if est in self.estimators and min(self.n_grid) < need:
                    raise ValueError(
                        f"{est} needs n >= {need} on scenario {s.name!r}, "
                        f"got n_grid {list(self.n_grid)}"
                    )
        names = [s.name for s in scenarios]
        if len(set(names)) < len(names):
            raise ValueError(f"scenario names must be distinct, got {names}")
        if not 0 <= self.j0 <= min(self.n_grid) - 2:
            raise ValueError(
                f"need 0 <= j0 <= min(n_grid) - 2, got j0={self.j0} "
                f"with n_grid {list(self.n_grid)}"
            )
        for est in self.estimators:
            if est not in ESTIMATORS:
                raise ValueError(f"unknown estimator {est!r}; expected {ESTIMATORS}")
        if "fractional_ratio" in self.estimators:
            bad = [s.name for s in scenarios if not s.is_fractional]
            if bad:
                raise ValueError(
                    f"fractional_ratio requires fractional scenarios; {bad} are not"
                )
        if "johansen" in self.estimators:
            _check_sim_args((), (), self.crit_T, self.crit_reps)
        if "unitroot" in self.estimators:
            _check_reps(self.ur_reps)

    def cells(self):
        """Expanded (cell_index, scenario, n) grid, scenario-major."""
        out = []
        ci = 0
        for scenario in self.scenarios:
            for n in self.n_grid:
                out.append((ci, scenario, n))
                ci += 1
        return out

    def to_dict(self) -> dict:
        return {
            "scenarios": [s.to_dict() for s in self.scenarios],
            "n_grid": list(self.n_grid),
            "estimators": list(self.estimators),
            "reps": int(self.reps),
            "parallelism": int(self.parallelism),
            "master_seed": int(self.master_seed),
            "level": float(self.level),
            "j0": int(self.j0),
            "crit_T": int(self.crit_T),
            "crit_reps": int(self.crit_reps),
            "ur_reps": int(self.ur_reps),
            "fractional_d_min": self.fractional_d_min,
            "fractional_delta": float(self.fractional_delta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentPlan":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown plan fields: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class ReplicateRecord:
    """Outcome of one estimator on one replicate."""

    scenario: str
    p: int
    r: int
    n: int
    estimator: str
    replicate: int
    r_est: Optional[int]
    dist: Optional[float]
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error)


@dataclass(frozen=True)
class CellResult:
    """Aggregates for one (scenario, n, estimator) cell."""

    scenario: str
    p: int
    r: int
    n: int
    estimator: str
    freq_correct: float
    dist_mean: float
    dist_sd: float
    dist_quantiles: dict
    reps: int
    failures: int
    seed: int
    runtime: float


@dataclass(frozen=True)
class ExperimentReport:
    """Cell aggregates plus the per-replicate records they came from."""

    plan: ExperimentPlan
    cells: tuple
    replicates: tuple


def _replicate_seed(master_seed: int, cell_index: int, replicate: int) -> int:
    seq = np.random.SeedSequence(master_seed, spawn_key=(cell_index, replicate))
    return int(seq.generate_state(1, np.uint64)[0])


def _orthonormal_leading(directions: np.ndarray, r: int) -> np.ndarray:
    if r == 0:
        return directions[:, :0]
    return np.linalg.qr(directions[:, :r])[0]


def _run_chunk(plan, cell, trace_table, ur_table, ks: range) -> list:
    """All estimator records for replicates ``ks`` of ``cell``, in order.

    ``cell`` is one ``(ci, scenario, n)`` entry of :meth:`ExperimentPlan.cells`.
    The chunk's panels are generated together; if that raises, each
    replicate regenerates its own panel, so an error lands on the replicate
    that caused it.
    """
    ci, scenario, n = cell
    specs = [
        replace(scenario, n=n, seed=_replicate_seed(plan.master_seed, ci, k))
        for k in ks
    ]
    try:
        panels = gen_panel(specs)
    except EigencointError:
        panels = [None] * len(specs)
    return [
        rec
        for k, spec, panel in zip(ks, specs, panels)
        for rec in _run_replicate(
            plan, cell, trace_table, ur_table, k, spec, panel
        )
    ]


def _run_replicate(
    plan, cell, trace_table, ur_table, k: int, spec: ScenarioSpec, panel
) -> list:
    """All estimator records for replicate ``k``, whose panel ``spec`` gives.

    ``panel`` is the already generated panel, or None to generate it here.
    """
    _, scenario, n = cell
    base = dict(
        scenario=scenario.name, p=scenario.p, r=scenario.r, n=n, replicate=k
    )
    try:
        if panel is None:
            panel = gen_panel(spec)
        fitted = fit(panel.y, plan.j0)
    except EigencointError as exc:
        return [
            ReplicateRecord(
                **base, estimator=est, r_est=None, dist=None,
                error=type(exc).__name__,
            )
            for est in plan.estimators
        ]

    records = []
    for est in plan.estimators:
        try:
            if est == "ratio":
                r_est = rank_ratio(fitted.eigen, n)
                a2 = split(fitted, r_est)[1]
            elif est in _IC_VARIANTS:
                omega = penalty(
                    PenaltySpec(_IC_VARIANTS[est]), n, fitted.eigen.values[-1]
                )
                r_est = rank_ic(fitted.eigen, omega)
                a2 = split(fitted, r_est)[1]
            elif est == "fractional_ratio":
                d_min = plan.fractional_d_min
                if d_min is None:
                    d_min = scenario.d_min
                r_est = rank_ratio_fractional(
                    fitted.eigen, n, d_min, plan.fractional_delta
                )
                a2 = split(fitted, r_est)[1]
            elif est == "unitroot":
                r_est = sequential_unit_root(fitted.x_hat, plan.level, ur_table)
                a2 = split(fitted, r_est)[1]
            else:  # johansen
                res = johansen_trace(panel.y, trace_table, plan.level)
                r_est = res.selected_r
                a2 = _orthonormal_leading(res.directions, r_est)
            dist = dist_d1(a2, panel.b2)
            records.append(
                ReplicateRecord(**base, estimator=est, r_est=r_est, dist=dist)
            )
        except EigencointError as exc:
            records.append(
                ReplicateRecord(
                    **base, estimator=est, r_est=None, dist=None,
                    error=type(exc).__name__,
                )
            )
    return records


_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def _aggregate_cell(
    plan: ExperimentPlan, scenario, n, est, records, runtime
) -> CellResult:
    hits = [rec for rec in records if rec.estimator == est]
    good = [rec for rec in hits if not rec.failed]
    failures = len(hits) - len(good)
    if failures > FAILURE_BUDGET * len(hits):
        raise ExperimentFailure(
            f"cell ({scenario.name}, n={n}, {est}): {failures}/{len(hits)} "
            "replicates failed"
        )
    if good:
        dists = np.array([rec.dist for rec in good])
        freq = float(np.mean([rec.r_est == scenario.r for rec in good]))
        dist_mean = float(dists.mean())
        dist_sd = float(dists.std(ddof=1)) if dists.size > 1 else 0.0
        quantiles = {
            str(q): float(np.quantile(dists, q)) for q in _QUANTILES
        }
    else:
        freq, dist_mean, dist_sd, quantiles = float("nan"), float("nan"), float("nan"), {}
    return CellResult(
        scenario=scenario.name,
        p=scenario.p,
        r=scenario.r,
        n=n,
        estimator=est,
        freq_correct=freq,
        dist_mean=dist_mean,
        dist_sd=dist_sd,
        dist_quantiles=quantiles,
        reps=plan.reps,
        failures=failures,
        seed=plan.master_seed,
        runtime=runtime,
    )


def run_plan(plan: ExperimentPlan) -> ExperimentReport:
    """Execute a plan in this process; deterministic given the plan.

    Each cell's replicates run in chunks of at most :data:`_CHUNK_FLOATS`
    innovation floats.  ``plan.parallelism`` has no effect.

    Raises
    ------
    ExperimentFailure
        When more than ``FAILURE_BUDGET`` of a cell's replicates fail.
    """
    trace_table = None
    if "johansen" in plan.estimators:
        # One table for every cell: each dimension has its own stream, so
        # its rows do not depend on which other dimensions are simulated.
        trace_table = trace_critical_table(
            dims=range(1, max(s.p for s in plan.scenarios) + 1),
            levels=(plan.level,),
            T=plan.crit_T,
            reps=plan.crit_reps,
            seed=plan.master_seed,
        )
    ur_tables = {}
    if "unitroot" in plan.estimators:
        for n in sorted(set(plan.n_grid)):
            ur_tables[n] = unit_root_critical_table(
                n=n, levels=(plan.level,), reps=plan.ur_reps, seed=plan.master_seed
            )

    all_cells = []
    all_records = []
    for cell in plan.cells():
        _, scenario, n = cell
        ur_table = ur_tables.get(n)
        size = max(1, _CHUNK_FLOATS // (scenario.p * n))
        start = time.perf_counter()
        records = [
            rec
            for lo in range(0, plan.reps, size)
            for rec in _run_chunk(
                plan, cell, trace_table, ur_table,
                range(lo, min(lo + size, plan.reps)),
            )
        ]
        runtime = time.perf_counter() - start
        all_records.extend(records)
        for est in plan.estimators:
            all_cells.append(
                _aggregate_cell(plan, scenario, n, est, records, runtime)
            )
    return ExperimentReport(
        plan=plan, cells=tuple(all_cells), replicates=tuple(all_records)
    )


# ---------------------------------------------------------------------------
# report emission

_CSV_COLUMNS = (
    "scenario", "p", "r", "n", "estimator",
    "freq", "dist_mean", "dist_sd", "reps", "failures", "seed",
)


def _cell_row(cell: CellResult) -> dict:
    return {
        "scenario": cell.scenario,
        "p": cell.p,
        "r": cell.r,
        "n": cell.n,
        "estimator": cell.estimator,
        "freq": round(cell.freq_correct, 3),
        "dist_mean": round(cell.dist_mean, 3),
        "dist_sd": round(cell.dist_sd, 3),
        "reps": cell.reps,
        "failures": cell.failures,
        "seed": cell.seed,
    }


def emit_report(report: ExperimentReport, format: str = "csv") -> str:
    """Render cell aggregates as a CSV or JSON document.

    Frequencies and distances are written with 3 decimals.  Runtime and
    distance quantiles are deliberately left out so that reruns of the same
    plan emit byte-identical documents.
    """
    rows = [_cell_row(c) for c in report.cells]
    if format == "json":
        return json.dumps({"rows": rows}, indent=2) + "\n"
    if format != "csv":
        raise ValueError(f"unknown format {format!r} (expected 'csv' or 'json')")
    lines = [",".join(_CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                f"{row[col]:.3f}" if col in ("freq", "dist_mean", "dist_sd")
                else str(row[col])
                for col in _CSV_COLUMNS
            )
        )
    return "\n".join(lines) + "\n"


def emit_replicates(report: ExperimentReport) -> str:
    """Per-replicate CSV (one row per estimator per replicate).

    This is the source data for distance boxplots; distances are written in
    full precision.
    """
    header = "scenario,p,r,n,estimator,replicate,r_est,dist,error"
    lines = [header]
    for rec in report.replicates:
        r_est = "" if rec.r_est is None else str(rec.r_est)
        dist = "" if rec.dist is None else repr(rec.dist)
        lines.append(
            f"{rec.scenario},{rec.p},{rec.r},{rec.n},{rec.estimator},"
            f"{rec.replicate},{r_est},{dist},{rec.error}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presets reproducing the benchmark designs

_UNIFORM_STATIONARY = {"kind": "uniform", "low": -0.8, "high": 0.8}
_UNIFORM_AR = {"kind": "uniform", "low": 0.3, "high": 0.8}
_UNIFORM_MA = {"kind": "uniform", "low": 0.0, "high": 0.95}

#: Benchmark cell grids: (p, r) pairs, or (p, r, s) with ``s`` the number of
#: once-integrated components in the mixed-order design.
PRESET_CELLS = {
    "example1": ((8, 2), (12, 3), (20, 5), (28, 7)),
    "example2": ((6, 2), (6, 4), (10, 2), (10, 4), (20, 6), (20, 10), (20, 14)),
    "example3": ((6, 2, 2), (6, 4, 1), (10, 4, 1), (10, 6, 2), (20, 10, 1), (20, 14, 2)),
}

PRESET_N_GRID = {
    "example1": (500, 1000, 1500, 2000, 2500),
    "example2": (300, 500, 1000, 1500, 2000, 2500),
    "example3": (300, 500, 1000, 1500, 2000, 2500),
}

PRESET_ESTIMATORS = {
    "example1": ("johansen", "ratio", "ic_omega1", "ic_omega2"),
    "example2": ("ratio", "ic_omega1", "ic_omega2", "unitroot"),
    "example3": ("ratio", "ic_omega1", "ic_omega3", "unitroot"),
}


def preset_template(name: str, p: int, r: int, s: Optional[int] = None) -> ScenarioSpec:
    """One scenario design from the benchmark families, with ``n`` open.

    ``example1``: ``p - r`` ARIMA(1,1,1) components (AR ~ U(0.3, 0.8),
    MA ~ U(0, 0.95)) plus ``r`` stationary AR(1) (coefficient U(-0.8, 0.8)).
    ``example2``: the same with ARIMA(1,2,1) nonstationary components.
    ``example3``: ``s`` ARIMA(1,1,1) components on fixed coefficient grids
    (AR ``0.3 + 0.5 i/s``, MA ``0.2 + 0.6 i/s``), ``p - r - s`` ARIMA(0,2,1)
    with MA ~ U(-0.95, 0.95), and stationary AR(1) on the grid
    ``-0.8 + 1.6 i/r``.  Mixing entries are U(-3, 3) everywhere.
    """
    if name in ("example1", "example2"):
        if s is not None:
            raise ValueError(f"{name} takes no s parameter")
        d = 1 if name == "example1" else 2
        blocks = (
            ProcessBlock(
                count=p - r, d=d, ar_law=dict(_UNIFORM_AR), ma_law=dict(_UNIFORM_MA)
            ),
        ) if p > r else ()
        return ScenarioSpec(
            name=f"p{p}_r{r}",
            p=p,
            r=r,
            stationary_law=dict(_UNIFORM_STATIONARY),
            nonstationary_blocks=blocks,
        )
    if name != "example3":
        raise ValueError(f"unknown preset {name!r}")
    if s is None or not (1 <= s <= p - r):
        raise ValueError(f"example3 needs 1 <= s <= p - r, got s={s}")
    blocks = [
        ProcessBlock(
            count=s,
            d=1,
            ar_law={"kind": "grid", "values": [0.3 + 0.5 * i / s for i in range(1, s + 1)]},
            ma_law={"kind": "grid", "values": [0.2 + 0.6 * i / s for i in range(1, s + 1)]},
        )
    ]
    if p - r - s > 0:
        blocks.append(
            ProcessBlock(
                count=p - r - s,
                d=2,
                ar_law=None,
                ma_law={"kind": "uniform", "low": -0.95, "high": 0.95},
            )
        )
    return ScenarioSpec(
        name=f"p{p}_r{r}_s{s}",
        p=p,
        r=r,
        stationary_law={
            "kind": "grid",
            "values": [-0.8 + 1.6 * i / r for i in range(1, r + 1)],
        },
        nonstationary_blocks=tuple(blocks),
    )


def preset_plan(name: str, cells=None, **overrides) -> ExperimentPlan:
    """A ready-to-run plan for one of the benchmark designs.

    ``cells``, ``n_grid``, and ``estimators`` default to the full benchmark
    grids (see :data:`PRESET_CELLS` etc.), also when given as None, and
    accept subsets for cheaper runs; every other :class:`ExperimentPlan`
    field passes through ``overrides`` and defaults as on the plan.
    """
    if name not in PRESET_CELLS:
        raise ValueError(f"unknown preset {name!r}; expected {tuple(PRESET_CELLS)}")
    cells = PRESET_CELLS[name] if cells is None else tuple(tuple(c) for c in cells)
    for key, grids in (("n_grid", PRESET_N_GRID), ("estimators", PRESET_ESTIMATORS)):
        if overrides.get(key) is None:
            overrides[key] = grids[name]
    return ExperimentPlan(
        scenarios=tuple(preset_template(name, *cell) for cell in cells), **overrides
    )


def load_plan(source) -> ExperimentPlan:
    """Build a plan from a JSON document (text, dict, or file path).

    Two shapes are accepted: a full plan (the :meth:`ExperimentPlan.to_dict`
    schema) or a preset reference
    ``{"preset": "example2", "reps": 100, "cells": [[6, 2]], ...}``.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text, encoding="utf-8") as fh:
                data = json.load(fh)
    if "preset" in data:
        kwargs = dict(data)
        name = kwargs.pop("preset")
        return preset_plan(name, **kwargs)
    return ExperimentPlan.from_dict(data)
