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
:func:`~eigencoint.simgen.gen_panel` batch each), and each chunk's panels
are fitted in sub-batches (one stacked :func:`~eigencoint.ranksel.fit`
each).  Neither chunking nor sub-batching changes any value: a panel's
generation and fit are bitwise the same alone or in a batch.

Estimator names: ``ratio``, ``ic_omega1``, ``ic_omega2``, ``ic_omega3``,
``johansen``, ``unitroot``, ``fractional_ratio``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .baselines import (
    _UNIT_ROOT_MIN_N,
    DEFAULT_LEVEL,
    DEFAULT_TRACE_REPS,
    DEFAULT_TRACE_T,
    DEFAULT_UNIT_ROOT_REPS,
    _check_table_args,
    _check_trace_T,
    _check_unit_root_n,
    _trace_min_n,
    johansen_trace,
    trace_critical_table,
    unit_root_critical_table,
    sequential_unit_root,
)
from .covstack import DEFAULT_J0
from .errors import EigencointError, ExperimentFailure
from .ranksel import (
    PenaltySpec,
    _check_fractional_args,
    fit,
    penalty,
    rank_ic,
    rank_ratio,
    rank_ratio_fractional,
    split,
)
from .simgen import ProcessBlock, ScenarioSpec, _from_dict, gen_panel
from .subspace import _integer, dist_d1

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

#: Panel floats (``m x n x p``) one stacked fit may hold: a chunk's panels
#: are fitted in sub-batches of this size.  The chunk's latent array is
#: alive while a sub-batch is fitted.  Peak RSS of fresh ``simulate``
#: processes of the benchmark's two designs (4 runs each, 2 cores, NumPy
#: 2.4): ``mc_i2_small`` 50.2-50.4 MB at 2**14, 50.6-50.7 at 2**15,
#: 51.6-51.7 at 2**16 and 53.0-53.2 at 2**17; ``mc_i1_johansen`` 45.5 at
#: 2**14 and 2**15, 45.9 at 2**16 and 46.9 at 2**17.  2**14 would fit a
#: p=10, n=1000 panel alone, for 0.3 MB.
_FIT_FLOATS = 2**15


def check_distinct(label: str, values: list) -> None:
    """Raise ``ValueError`` naming each value of ``values`` that repeats."""
    repeated = [v for i, v in enumerate(values) if values[:i].count(v) == 1]
    if repeated:
        raise ValueError(f"{label} must be distinct, got {values} (repeated: {repeated})")


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
        Distinct sample sizes, each valid for every scenario and every
        estimator.
    estimators : tuple of str
        Distinct names from :data:`ESTIMATORS`; ``fractional_ratio``
        requires every scenario to contain a fractionally integrated block.
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
        uses each scenario's true smallest order.  Checked (``d_min > 1/2``,
        ``0 <= delta < 1/2``) when ``fractional_ratio`` is requested.

    The sample sizes and the integer fields must be whole numbers; a float
    such as ``2.0`` is stored as ``2``, and ``2.5`` raises ``ValueError``.
    A scenario may set neither ``n`` nor a nonzero ``seed``: ``n_grid`` and
    ``master_seed`` set them.
    """

    scenarios: tuple
    n_grid: tuple
    estimators: tuple = ("ratio",)
    reps: int = 200
    parallelism: int = 1
    master_seed: int = 0
    level: float = DEFAULT_LEVEL
    j0: int = DEFAULT_J0
    crit_T: int = DEFAULT_TRACE_T
    crit_reps: int = DEFAULT_TRACE_REPS
    ur_reps: int = DEFAULT_UNIT_ROOT_REPS
    fractional_d_min: Optional[float] = None
    fractional_delta: float = 0.0

    def __post_init__(self):
        scenarios = tuple(
            s if isinstance(s, ScenarioSpec) else ScenarioSpec.from_dict(s)
            for s in self.scenarios
        )
        object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "n_grid", tuple(_integer("n_grid", n) for n in self.n_grid))
        for field in ("reps", "parallelism", "master_seed", "j0", "crit_T", "crit_reps", "ur_reps"):
            object.__setattr__(self, field, _integer(field, getattr(self, field)))
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
            for key, owner in (("n", "n_grid"), ("seed", "master_seed")):
                if getattr(s, key) not in (None, 0):
                    raise ValueError(f"scenario {s.name!r} sets {key}; a plan's {owner} sets it")
            for n in self.n_grid:
                replace(s, n=n)
        # Each (scenario, n, estimator) names one report row, and the CSV
        # reports write the scenario name unquoted.
        for s in scenarios:
            if not isinstance(s.name, str) or any(c in s.name for c in ',"\r\n'):
                raise ValueError("scenario names must be strings without ',', '\"', CR or LF, "
                                 f"got {s.name!r}")
        for label, values in (("scenario names", [s.name for s in scenarios]),
                              ("n_grid entries", list(self.n_grid)),
                              ("estimators", list(self.estimators))):
            check_distinct(label, values)
        n_min = min(self.n_grid)
        if not 0 <= self.j0 <= n_min - 2:
            raise ValueError(
                f"need 0 <= j0 <= min(n_grid) - 2, got j0={self.j0} "
                f"with n_grid {list(self.n_grid)}"
            )
        # Level, seed and every n were checked above; each estimator's own
        # checks follow, through the functions its estimation calls.
        for est in self.estimators:
            if est not in ESTIMATORS:
                raise ValueError(f"unknown estimator {est!r}; expected {ESTIMATORS}")
            for s in scenarios:
                need = {"johansen": _trace_min_n(s.p), "unitroot": _UNIT_ROOT_MIN_N}.get(est, 0)
                if n_min < need:
                    raise ValueError(f"{est} needs n >= {need} on scenario {s.name!r}, "
                                     f"got n_grid {list(self.n_grid)}")
                if est == "fractional_ratio":
                    if not s.is_fractional:
                        raise ValueError(f"{est} requires fractional scenarios; {s.name!r} is not")
                    d_min = s.d_min if self.fractional_d_min is None else self.fractional_d_min
                    _check_fractional_args(d_min, self.fractional_delta)
            if est == "johansen":
                _check_table_args((), _check_trace_T, [self.crit_T], self.crit_reps, self.master_seed)
            elif est == "unitroot":
                _check_table_args((), _check_unit_root_n, [n_min], self.ur_reps, self.master_seed)

    def cells(self):
        """Expanded (cell_index, scenario, n) grid, scenario-major."""
        grid = [(scenario, n) for scenario in self.scenarios for n in self.n_grid]
        return [(ci, scenario, n) for ci, (scenario, n) in enumerate(grid)]

    def to_dict(self) -> dict:
        """Every field, in declaration order; tuples become lists."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(
            scenarios=[s.to_dict() for s in self.scenarios],
            n_grid=list(self.n_grid),
            estimators=list(self.estimators),
        )
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentPlan":
        return _from_dict(cls, data, "plan")


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


def _estimate(plan, scenario, n, est, fitted, y, tables):
    """Rank ``r_est`` and cointegration-space basis ``a2`` of estimator
    ``est`` on one replicate's observed panel ``y`` and its fit;
    ``tables`` is :func:`run_plan`'s mapping."""
    if est == "johansen":
        res = johansen_trace(y, tables[est], plan.level)
        return res.selected_r, np.linalg.qr(res.directions[:, :res.selected_r])[0]
    if est == "ratio":
        r_est = rank_ratio(fitted.eigen, n)
    elif est == "unitroot":
        r_est = sequential_unit_root(fitted.x_hat, plan.level, tables[est])
    elif est == "fractional_ratio":
        d_min = scenario.d_min if plan.fractional_d_min is None else plan.fractional_d_min
        r_est = rank_ratio_fractional(fitted.eigen, n, d_min, plan.fractional_delta)
    else:
        omega = penalty(
            PenaltySpec(est.removeprefix("ic_")), n, fitted.eigen.values[-1]
        )
        r_est = rank_ic(fitted.eigen, omega)
    return r_est, split(fitted, r_est)[1]


def _each(fn, batch) -> list:
    """``(result, "")`` per item of ``batch`` from one ``fn(batch)`` call; if
    that raises, one ``fn(item)`` call per item, with ``(None, error name)``
    where an item fails."""
    try:
        return [(result, "") for result in fn(batch)]
    except EigencointError:
        pass
    results = []
    for item in batch:
        try:
            results.append((fn(item), ""))
        except EigencointError as exc:
            results.append((None, type(exc).__name__))
    return results


def _run_chunk(plan, cell, tables, ks: range) -> list:
    """All estimator records for replicates ``ks`` of ``cell``, in order.

    ``cell`` is one ``(ci, scenario, n)`` entry of :meth:`ExperimentPlan.cells`.
    The chunk's panels are generated together, then fitted in stacked
    sub-batches of at most :data:`_FIT_FLOATS` floats, each estimated
    before the next is fitted; if a batch call raises, its items are redone
    one by one (:func:`_each`), so an error lands on the replicate that
    caused it.  A sub-batch's observed panels are mixed straight into its
    stack (:meth:`~eigencoint.simgen.GeneratedPanel.mix`, one product per
    panel: a stacked product over the strided batch array would copy it),
    and ``johansen`` reads its panel from that stack, so no ``y`` outlives
    its sub-batch.  A replicate whose panel or fit fails has every estimator's
    record fail with that error.  The fit-based estimators (all but
    ``johansen``) estimate the basis ``split(fitted, r_est)[1]``, so those
    that choose the same ``r_est`` on a replicate share one
    :func:`~eigencoint.subspace.dist_d1` call, its value or its error.
    """
    ci, scenario, n = cell
    specs = [
        replace(scenario, n=n, seed=_replicate_seed(plan.master_seed, ci, k))
        for k in ks
    ]
    panels = _each(gen_panel, specs)
    size = max(1, _FIT_FLOATS // (scenario.p * n))
    records = []
    for lo in range(0, len(specs), size):
        batch = range(lo, min(lo + size, len(specs)))
        good = [i for i in batch if not panels[i][1]]
        ys = np.empty((len(good), n, scenario.p))
        for y, i in zip(ys, good):
            panels[i][0].mix(out=y)
        fits = iter(zip(ys, _each(lambda stack: fit(stack, plan.j0), ys)))
        for i in batch:
            panel, error = panels[i]
            y, (fitted, fit_error) = (None, (None, error)) if error else next(fits)
            distances = {}  # basis key -> (dist, error)
            for est in plan.estimators:
                r_est = dist = None
                error = fit_error
                if not error:
                    try:
                        r_est, a2 = _estimate(plan, scenario, n, est, fitted, y, tables)
                    except EigencointError as exc:
                        error = type(exc).__name__
                    else:
                        # A fit-based basis is named by its rank alone.
                        key = est if est == "johansen" else r_est
                        if key not in distances:
                            try:
                                distances[key] = dist_d1(a2, panel.b2, b2_q=panel.b2_q), ""
                            except EigencointError as exc:
                                distances[key] = None, type(exc).__name__
                        dist, error = distances[key]
                        if error:
                            r_est = None
                records.append(ReplicateRecord(
                    scenario=scenario.name, p=scenario.p, r=scenario.r, n=n,
                    estimator=est, replicate=ks[i], r_est=r_est, dist=dist, error=error,
                ))
        # The fits and the last panel are views of this sub-batch's
        # arrays: drop them before the next stacked fit, so that one
        # sub-batch is held at a time.
        ys = y = fits = fitted = None
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
    # Within the budget, at least one replicate of the cell succeeded.
    dists = np.array([rec.dist for rec in good])
    return CellResult(
        scenario=scenario.name,
        p=scenario.p,
        r=scenario.r,
        n=n,
        estimator=est,
        freq_correct=float(np.mean([rec.r_est == scenario.r for rec in good])),
        dist_mean=float(dists.mean()),
        dist_sd=float(dists.std(ddof=1)) if dists.size > 1 else 0.0,
        dist_quantiles={
            str(q): float(v) for q, v in zip(_QUANTILES, np.quantile(dists, _QUANTILES))
        },
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
    tables = {}
    if "johansen" in plan.estimators:
        # One table for every cell: a row depends only on (seed, T, reps,
        # dim), not on which other dimensions are simulated.
        tables["johansen"] = trace_critical_table(
            dims=range(1, max(s.p for s in plan.scenarios) + 1),
            levels=(plan.level,),
            T=plan.crit_T,
            reps=plan.crit_reps,
            seed=plan.master_seed,
        )
    if "unitroot" in plan.estimators:
        # One table for every cell: a row depends only on (seed, reps, n).
        tables["unitroot"] = unit_root_critical_table(
            n=plan.n_grid, levels=(plan.level,), reps=plan.ur_reps, seed=plan.master_seed
        )

    all_cells = []
    all_records = []
    for cell in plan.cells():
        _, scenario, n = cell
        size = max(1, _CHUNK_FLOATS // (scenario.p * n))
        start = time.perf_counter()
        records = [
            rec
            for lo in range(0, plan.reps, size)
            for rec in _run_chunk(plan, cell, tables, range(lo, min(lo + size, plan.reps)))
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
    field passes through ``overrides`` and defaults as on the plan.  A
    malformed cell raises ``ValueError`` naming it.
    """
    if name not in PRESET_CELLS:
        raise ValueError(f"unknown preset {name!r}; expected {tuple(PRESET_CELLS)}")
    shape = "(p, r, s)" if name == "example3" else "(p, r)"
    scenarios = []
    for cell in PRESET_CELLS[name] if cells is None else cells:
        if np.ndim(cell) != 1 or len(cell) != len(shape.split(",")):
            raise ValueError(f"{name} cells are {shape}, got {cell!r}")
        try:
            scenarios.append(preset_template(name, *cell))
        except ValueError as exc:
            raise ValueError(f"{name} cell {cell!r}: {exc}") from exc
    for key, grids in (("n_grid", PRESET_N_GRID), ("estimators", PRESET_ESTIMATORS)):
        if overrides.get(key) is None:
            overrides[key] = grids[name]
    return ExperimentPlan(scenarios=tuple(scenarios), **overrides)


def load_plan(source) -> ExperimentPlan:
    """Build a plan from a JSON document (text, dict, or file path).

    Two shapes are accepted: a full plan (the :meth:`ExperimentPlan.to_dict`
    schema) or a preset reference
    ``{"preset": "example2", "reps": 100, "cells": [[6, 2]], ...}``.  Either
    raises ``ValueError`` naming the keys it does not know.
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
        unknown = set(kwargs) - ({f.name for f in fields(ExperimentPlan)} - {"scenarios"} | {"cells"})
        if unknown:
            raise ValueError(f"unknown plan fields: {sorted(unknown)}")
        return preset_plan(name, **kwargs)
    return ExperimentPlan.from_dict(data)
