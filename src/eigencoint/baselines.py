"""Comparison methods: Johansen-style trace test and sequential unit-root rank.

Both baselines use critical values simulated inside the package (from seeded
streams recorded in the table metadata) rather than hard-coded external
tables, so every reported number is reproducible from seeds alone.

Trace test
----------
The panel is cast as a mean-corrected error-correction regression of the
differences on the lagged levels (one lag, intercept absorbed by demeaning).
Canonical eigenvalues ``mu_1 >= ... >= mu_p`` of the product-moment
eigenproblem give the trace statistics

    stat(r0) = -T * sum_{i > r0} log(1 - mu_i),      T = n - 1,

and the selected rank is the first null ``r0`` whose statistic falls below
the critical value for dimension ``p - r0``.  Critical values come from the
empirical quantile of ``tr([sum e X'][sum X X']^-1 [sum X e'])`` over seeded
repetitions, where ``e`` is i.i.d. standard normal, ``X`` its cumulative sum
started at zero, and both factors are demeaned — the standard discretized
functional.

Unit-root procedure
-------------------
A serial-correlation-corrected normalized autoregression statistic (demeaned
variant): with ``rho`` the intercept-adjusted AR(1) slope, residual
autocovariances ``gamma_j``, and a Bartlett-kernel long-run variance
``lam2`` at bandwidth ``floor(4 (n/100)^(2/9))``,

    Z = T (rho - 1) - (lam2 - gamma_0) / (2 T^-2 sum w_t^2)

where ``w`` is the demeaned lagged series.  Naming of this family of tests
varies across the literature; what is implemented is exactly the statistic
above.  Components of a transformed panel are tested last-to-first (most
stationary candidate first) and testing stops at the first non-rejection;
the count of rejections estimates the cointegration rank.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .covstack import as_panel
from .errors import (
    DegenerateComponent,
    InvalidSeries,
    SingularMatrix,
    SingularMoments,
)
from .linalg import eigh_desc, solve_spd, symmetrize

#: Guard keeping log(1 - mu) finite when a canonical eigenvalue rounds to 1.
_MU_CEILING = 1.0 - 1e-12
#: Float64 elements per batched draw in the critical-value simulators.  Larger
#: budgets bought no speed and raised peak memory (2**19 added about 40 MB
#: to a dims 1..12 trace table).
_CHUNK_FLOATS = 2**15
#: Shortest series :func:`unit_root_stat` accepts.
_UNIT_ROOT_MIN_N = 20


def derive_stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based Philox stream for ``(seed, key...)``.

    The same derivation is used across the package (simulation, critical
    values, harness replicates), so any reported number can be regenerated
    from the integers that name it.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=key))
    )


# ---------------------------------------------------------------------------
# critical-value tables

@dataclass(frozen=True)
class CriticalTable:
    """Simulated critical values over dimensions and quantile levels.

    Attributes
    ----------
    dims : tuple of int
        Dimensions covered (ascending).  For the trace statistic this is
        ``p - r0``; univariate statistics use ``(1,)``.
    levels : tuple of float
        Test sizes, e.g. ``(0.05,)``.
    values : ndarray, shape (len(dims), len(levels))
        Rejection boundaries.  Upper-tail statistics (trace) store the
        ``1 - level`` quantile; lower-tail statistics (unit root) store the
        ``level`` quantile.
    meta : dict
        Provenance: inner length ``T``, repetitions, seed, statistic name.
    """

    dims: tuple
    levels: tuple
    values: np.ndarray
    meta: dict

    def value(self, dim: int, level: float) -> float:
        """Look up the critical value for ``(dim, level)``."""
        try:
            i = self.dims.index(dim)
        except ValueError:
            raise ValueError(f"table has no dimension {dim} (covers {self.dims})")
        close = [j for j, lv in enumerate(self.levels) if abs(lv - level) < 1e-12]
        if not close:
            raise ValueError(f"table has no level {level} (covers {self.levels})")
        return float(self.values[i, close[0]])

    def merged(self, other: "CriticalTable") -> "CriticalTable":
        """Union of dimensions; requires identical levels and meta."""
        if tuple(self.levels) != tuple(other.levels) or self.meta != other.meta:
            raise ValueError("cannot merge tables with different levels or meta")
        rows = {d: self.values[i] for i, d in enumerate(self.dims)}
        rows.update({d: other.values[i] for i, d in enumerate(other.dims)})
        dims = tuple(sorted(rows))
        values = np.vstack([rows[d] for d in dims])
        return CriticalTable(dims=dims, levels=tuple(self.levels), values=values, meta=dict(self.meta))

    def to_dict(self) -> dict:
        return {
            "dims": [int(d) for d in self.dims],
            "levels": [float(lv) for lv in self.levels],
            "values": [[float(v) for v in row] for row in np.atleast_2d(self.values)],
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "CriticalTable":
        return cls(
            dims=tuple(int(d) for d in data["dims"]),
            levels=tuple(float(lv) for lv in data["levels"]),
            values=np.asarray(data["values"], dtype=float),
            meta=dict(data["meta"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "CriticalTable":
        return cls.from_dict(json.loads(text))


def _batch_sizes(total: int, row: int):
    """Split ``total`` draws of ``row`` floats into chunks of about ``_CHUNK_FLOATS``."""
    m = max(1, _CHUNK_FLOATS // max(row, 1))
    for start in range(0, total, m):
        yield min(m, total - start)


def _trace_stat_sample(dim: int, T: int, reps: int, rng) -> np.ndarray:
    """Seeded sample of the discretized trace functional.

    Repetitions are drawn and scored in ``(m, T, dim)`` chunks.  The stream
    is consumed in the same order as one ``(T, dim)`` draw per repetition,
    and every batched step (cumulative sum, demeaning, stacked matmul,
    solve, trace) performs the same floating-point operations per
    repetition, so the sample is bitwise that of the one-at-a-time loop.
    """
    stats = np.empty(reps)
    done = 0
    for m in _batch_sizes(reps, T * dim):
        eps = rng.standard_normal((m, T, dim))
        xlag = np.zeros_like(eps)
        np.cumsum(eps[:, :-1], axis=1, out=xlag[:, 1:])
        xc = xlag - xlag.mean(axis=1, keepdims=True)
        a = eps.transpose(0, 2, 1) @ xc
        b = xc.transpose(0, 2, 1) @ xc
        prod = a @ np.linalg.solve(b, a.transpose(0, 2, 1))
        stats[done:done + m] = np.trace(prod, axis1=1, axis2=2)
        done += m
    return stats


def _check_sim_args(dims, levels, T: int, reps: int) -> None:
    for dim in dims:
        if dim < 1:
            raise ValueError(f"need dim >= 1, got {dim}")
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {level}")
    if T < 100:
        raise ValueError(f"need T >= 100, got {T}")
    _check_reps(reps)


def _check_reps(reps: int) -> None:
    if reps < 1000:
        raise ValueError(f"need reps >= 1000, got {reps}")


def sim_trace_critical(dim: int, level: float, T: int, reps: int, rng) -> float:
    """Empirical ``1 - level`` quantile of the trace functional.

    Parameters
    ----------
    dim : int
        Dimension of the random walk (``p - r0`` for the null being tested).
    level : float
        Test size in (0, 1).
    T : int
        Inner discretization length, at least 100.
    reps : int
        Monte Carlo repetitions, at least 1000.
    rng : numpy.random.Generator

    Returns
    -------
    float
    """
    _check_sim_args((dim,), (level,), T, reps)
    sample = _trace_stat_sample(dim, T, reps, rng)
    return float(np.quantile(sample, 1.0 - level))


def trace_critical_table(
    dims, levels=(0.05,), T: int = 1000, reps: int = 2000, seed: int = 0
) -> CriticalTable:
    """Simulate trace critical values for several dimensions at once.

    Each dimension draws from the stream ``derive_stream(seed, dim)``, so a
    table built for dims 1..8 agrees exactly with one built for dims 1..3
    under the same seed.  Values increase with dimension at fixed level.

    Every dimension and level, and the seed, are validated before any
    simulation starts.  The dimensions are then simulated concurrently on
    one thread per usable CPU (at most one per dimension, largest first);
    the batched kernel spends its time in NumPy calls that release the
    interpreter lock.  Because each dimension owns its stream, the values do
    not depend on the thread count or on the order in which dimensions
    finish.
    """
    from concurrent.futures import ThreadPoolExecutor

    dims = tuple(int(d) for d in dims)
    levels = tuple(float(lv) for lv in levels)
    _check_sim_args(dims, levels, T, reps)
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    quantiles = [1.0 - lv for lv in levels]

    def simulate(dim: int) -> np.ndarray:
        sample = _trace_stat_sample(dim, T, reps, derive_stream(seed, dim))
        return np.quantile(sample, quantiles)

    values = np.empty((len(dims), len(levels)))
    if dims:
        workers = min(len(dims), _usable_cpus())
        largest_first = sorted(range(len(dims)), key=dims.__getitem__, reverse=True)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(simulate, dims[i]) for i in largest_first}
            for i, future in futures.items():
                values[i] = future.result()
    return CriticalTable(
        dims=dims,
        levels=levels,
        values=values,
        meta={"T": int(T), "reps": int(reps), "seed": int(seed), "statistic": "trace"},
    )


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Johansen-style trace test

@dataclass(frozen=True)
class TraceResult:
    """Trace statistics over null ranks plus the sequentially selected rank.

    Attributes
    ----------
    stats : ndarray, shape (p,)
        ``stats[r0]`` is the statistic for null rank ``r0``; non-negative
        and non-increasing in ``r0``.
    selected_r : int
        First ``r0`` whose statistic is below its critical value, else p.
    level : float
        Test size used for selection.
    eigenvalues : ndarray, shape (p,)
        Canonical eigenvalues, descending, in [0, 1).
    directions : ndarray, shape (p, p)
        Column ``i`` is the canonical direction paired with
        ``eigenvalues[i]``; the first ``selected_r`` columns span the
        estimated cointegration space.
    """

    stats: np.ndarray
    selected_r: int
    level: float
    eigenvalues: np.ndarray
    directions: np.ndarray


def _trace_min_n(p: int) -> int:
    """Shortest panel :func:`johansen_trace` accepts for ``p`` series: ``n > 2p + 2``."""
    return 2 * p + 3


def johansen_trace(series, crit: CriticalTable, level: float = 0.05) -> TraceResult:
    """Run the trace test on a panel with simulated critical values.

    Parameters
    ----------
    series : array_like, shape (n, p)
        Observation panel with ``n > 2p + 2``.
    crit : CriticalTable
        Must cover dimensions ``1..p`` at ``level``.
    level : float
        Test size.

    Raises
    ------
    InvalidSeries
        Panel too short for the regression.
    SingularMoments
        A product-moment matrix is not invertible.
    """
    y = as_panel(series)
    n, p = y.shape
    if n < _trace_min_n(p):
        raise InvalidSeries(f"need n > 2p + 2 for the trace test, got n={n}, p={p}")
    dy = np.diff(y, axis=0)
    ylag = y[:-1]
    t_eff = dy.shape[0]
    dyc = dy - dy.mean(axis=0)
    ylc = ylag - ylag.mean(axis=0)
    s00 = (dyc.T @ dyc) / t_eff
    s11 = (ylc.T @ ylc) / t_eff
    s01 = (dyc.T @ ylc) / t_eff

    eig11 = eigh_desc(s11)
    if eig11.values[-1] <= 1e-12 * max(eig11.values[0], 0.0) or eig11.values[0] <= 0.0:
        raise SingularMoments("lagged-level moment matrix is singular")
    isqrt11 = eig11.vectors @ (eig11.vectors / np.sqrt(eig11.values)).T
    try:
        s00_inv_s01 = solve_spd(s00, s01)
    except SingularMatrix as exc:
        raise SingularMoments(f"difference moment matrix is singular: {exc}") from exc

    m = symmetrize(isqrt11 @ (s01.T @ s00_inv_s01) @ isqrt11)
    eig = eigh_desc(m)
    mu = np.clip(eig.values, 0.0, _MU_CEILING)
    directions = isqrt11 @ eig.vectors

    tail = np.cumsum(np.log1p(-mu[::-1]))[::-1]  # tail[r0] = sum_{i>=r0} log(1-mu_i)
    stats = -t_eff * tail
    selected = p
    for r0 in range(p):
        if stats[r0] < crit.value(p - r0, level):
            selected = r0
            break
    return TraceResult(
        stats=stats,
        selected_r=selected,
        level=float(level),
        eigenvalues=mu,
        directions=directions,
    )


# ---------------------------------------------------------------------------
# unit-root statistic and sequential rank

def bartlett_bandwidth(n: int) -> int:
    """Default long-run-variance bandwidth ``floor(4 (n/100)^(2/9))``."""
    return int(np.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


def unit_root_stat(x, bandwidth: Optional[int] = None) -> float:
    """Serial-correlation-corrected normalized autoregression statistic.

    Large negative values reject the unit-root null; the null distribution
    is simulated by :func:`unit_root_critical_table`.  The statistic is
    exactly invariant to scaling the series by a positive constant.  This
    is :func:`_unit_root_stats` on a single row, the one implementation of
    the formula.

    Parameters
    ----------
    x : array_like, shape (n,)
        Series to test, ``n >= 20``.
    bandwidth : int, optional
        Bartlett kernel truncation; default :func:`bartlett_bandwidth`.

    Raises
    ------
    InvalidSeries
        Fewer than 20 observations, or non-finite entries.
    DegenerateComponent
        Constant series.
    """
    x = np.asarray(x, dtype=float).ravel()
    return float(_unit_root_stats(x[None, :], bandwidth)[0])


def _unit_root_stats(xs: np.ndarray, bandwidth: Optional[int] = None) -> np.ndarray:
    """:func:`unit_root_stat` of every row of ``xs``, shape ``(m, n)``.

    The checks and the demeaning run on the whole batch.  Dot products and
    the scalar tail run row by row with the operations of a 1-D series,
    because batching them costs more in NumPy calls than one series spends
    on its arithmetic.  Either way a row's statistic is bitwise the same
    whatever batch it is scored in.
    """
    n = xs.shape[1]
    if n < _UNIT_ROOT_MIN_N:
        raise InvalidSeries(f"need at least {_UNIT_ROOT_MIN_N} observations, got {n}")
    if not np.isfinite(xs).all():
        raise InvalidSeries("series contains non-finite entries")
    if (xs.max(axis=1) == xs.min(axis=1)).any():
        raise DegenerateComponent("series is constant")
    ylag = xs[:, :-1]
    ynow = xs[:, 1:]
    t_eff = n - 1
    w = ylag - ylag.mean(axis=1, keepdims=True)
    ynow_c = ynow - ynow.mean(axis=1, keepdims=True)
    ss_w = [float(row @ row) for row in w]
    if 0.0 in ss_w:
        raise DegenerateComponent("lagged series is constant")

    q = bartlett_bandwidth(n) if bandwidth is None else int(bandwidth)
    if q < 0:
        raise ValueError(f"bandwidth must be non-negative, got {q}")
    weights = [2.0 * (1.0 - j / (q + 1.0)) for j in range(1, min(q, t_eff - 1) + 1)]
    stats = []
    for s, w_row, y_row, yc_row in zip(ss_w, w, ynow, ynow_c):
        rho = float(w_row @ y_row) / s
        resid = yc_row - rho * w_row
        gamma0 = float(resid @ resid) / t_eff
        lam2 = gamma0
        for j, wj in enumerate(weights, start=1):
            lam2 += wj * (float(resid[j:] @ resid[:-j]) / t_eff)
        stats.append(t_eff * (rho - 1.0) - (lam2 - gamma0) / (2.0 * s / t_eff**2))
    return np.array(stats)


def unit_root_critical_table(
    n: int, levels=(0.05,), reps: int = 4000, seed: int = 0
) -> CriticalTable:
    """Simulate the null distribution of :func:`unit_root_stat`.

    The null is a pure random walk of the same length ``n`` as the series
    to be tested; the table stores lower-tail (``level``) quantiles.  Walks
    are drawn from the one stream ``derive_stream(seed, 1)`` in ``(m, n)``
    chunks and scored by :func:`_unit_root_stats`; the stream order and the
    per-walk arithmetic are those of one walk at a time, so the values are
    bitwise those of a per-walk loop.

    Raises
    ------
    ValueError
        ``reps < 1000``.
    InvalidSeries
        ``n < 20``, as :func:`unit_root_stat` would raise.
    """
    _check_reps(reps)
    levels = tuple(float(lv) for lv in levels)
    rng = derive_stream(seed, 1)
    sample = np.empty(reps)
    done = 0
    for m in _batch_sizes(reps, n):
        walks = np.cumsum(rng.standard_normal((m, n)), axis=1)
        sample[done:done + m] = _unit_root_stats(walks)
        done += m
    values = np.quantile(sample, levels)[None, :]
    return CriticalTable(
        dims=(1,),
        levels=levels,
        values=values,
        meta={"T": int(n), "reps": int(reps), "seed": int(seed), "statistic": "unit_root"},
    )


def sequential_unit_root(x_hat, level: float, crit: CriticalTable) -> int:
    """Count stationary trailing components of a transformed panel.

    Columns must be ordered by descending eigenvalue (the fit ordering).
    The last column — the strongest stationarity candidate — is tested
    first; testing walks towards the first column and stops at the first
    component whose unit-root null is NOT rejected.  The number of
    rejections is the estimated cointegration rank.

    Parameters
    ----------
    x_hat : array_like, shape (n, p)
    level : float
        Test size; ``crit`` must cover it at dimension 1.
    crit : CriticalTable
        Lower-tail table from :func:`unit_root_critical_table`.

    Returns
    -------
    int
        Estimated rank in ``0..p``.
    """
    x = as_panel(x_hat)
    cv = crit.value(1, level)
    count = 0
    for idx in range(x.shape[1] - 1, -1, -1):
        if unit_root_stat(x[:, idx]) < cv:
            count += 1
        else:
            break
    return count
