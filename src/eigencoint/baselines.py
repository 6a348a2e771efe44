"""Comparison methods: Johansen-style trace test and sequential unit-root rank.

Both baselines use critical values simulated inside the package (from seeded
streams recorded in the table metadata) rather than hard-coded external
tables, so every reported number is reproducible from seeds alone.  Each
table has one plain function, :func:`trace_critical_table` and
:func:`unit_root_critical_table`: it checks its own arguments (the checks
both share in one helper), calls its sampler, and turns the samples into
quantiles through one small helper.  Each returns one table whose dims
are its sizes: dimensions for the trace table, series lengths for the
unit-root table.  The trace table scores every dimension from one nested
draw: column ``c`` of each repetition comes from ``derive_stream(seed, c)``,
and dimension ``d`` uses columns ``1..d``.  The unit-root table reads every
length's walks from the start of the one stream ``derive_stream(seed, 1)``,
so one pass serves every length.  So a row depends only on the seed, the
repetitions and its size (and the trace ``T``).

Trace test
----------
The panel is cast as a mean-corrected error-correction regression of the
differences on the lagged levels (one lag, intercept absorbed by demeaning).
Canonical eigenvalues ``mu_1 >= ... >= mu_p`` of the product-moment
eigenproblem give the trace statistics

    stat(r0) = -T * sum_{i > r0} log(1 - mu_i),      T = n - 1,

and the selected rank is the leading run of null ranks ``r0 = 0, 1, ...``
that pass their cutoff, the critical value for dimension ``p - r0``: a null
passes (is rejected) unless its statistic is below it.  So the rank is the
first ``r0`` whose statistic falls below its cutoff, or ``p``.  Critical
values come from the empirical quantile of
``tr([sum e X'][sum X X']^-1 [sum X e'])`` over seeded repetitions, where
``e`` is i.i.d. standard normal, ``X`` its cumulative sum started at zero,
and both factors are demeaned — the standard discretized functional.

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

import threading
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
from .linalg import SPD_RTOL, eigh_desc, solve_spd
from .ranksel import _leading_run
from .subspace import _integer

#: Guard keeping log(1 - mu) finite when a canonical eigenvalue rounds to 1.
_MU_CEILING = 1.0 - 1e-12
#: Float64 elements per column of one batched draw in the critical-value
#: simulators: a trace chunk holds ``_CHUNK_FLOATS // T`` repetitions of each
#: of its columns, a unit-root chunk ``_CHUNK_FLOATS // n`` walks.  On a
#: dims 1..12, T=1000 trace table (2 cores), 2**14, 2**15, 2**16 and 2**18
#: took 0.83-0.85, 0.80-0.82, 0.65-0.71 and 0.76-0.78 s at 40, 45, 55 and
#: 112 MB peak RSS (29 MB of it is the import); dims 1..28 took 2.2, 2.3
#: and 2.4 s at 47, 58 and 80 MB for 2**14, 2**15 and 2**16.  Spending
#: 2**15 on a whole ``(m, D, T)`` chunk instead (m=2) took 1.8-2.0 s: the
#: per-chunk Python overhead dominates.
_CHUNK_FLOATS = 2**15
#: Shortest series :func:`unit_root_stat` accepts.
_UNIT_ROOT_MIN_N = 20

#: Default test size of both baselines and of their critical-value tables.
DEFAULT_LEVEL = 0.05
#: Default inner length and repetitions of the trace critical-value table.
DEFAULT_TRACE_T = 1000
DEFAULT_TRACE_REPS = 2000
#: Default repetitions of the unit-root critical-value table.
DEFAULT_UNIT_ROOT_REPS = 4000


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
        Sizes covered, whole numbers strictly ascending (``ValueError``
        otherwise; ``2.0`` is ``2``): the dimension ``p - r0`` for the
        trace statistic, the series length ``n`` for the unit-root
        statistic.
    levels : tuple of float
        Test sizes, e.g. ``(0.05,)``.
    values : ndarray, shape (len(dims), len(levels))
        Rejection boundaries (``ValueError`` unless finite and of this
        shape).  Upper-tail statistics (trace) store the ``1 - level``
        quantile; lower-tail statistics (unit root) the ``level`` one.
    meta : dict
        Provenance: repetitions, seed, statistic name (and the trace ``T``
        and sampler tag).
    """

    dims: tuple
    levels: tuple
    values: np.ndarray
    meta: dict

    def __post_init__(self) -> None:
        dims = tuple(_integer("dim", d) for d in self.dims)
        if any(a >= b for a, b in zip(dims, dims[1:])):
            raise ValueError(f"need strictly ascending dims, got {list(self.dims)}")
        object.__setattr__(self, "dims", dims)
        shape = (len(self.dims), len(self.levels))
        if np.shape(self.values) != shape or not np.isfinite(self.values).all():
            raise ValueError(f"need finite values of shape {shape}, got {self.values!r}")

    def value(self, dim: int, level: float) -> float:
        """Look up the critical value for ``(dim, level)``."""
        try:
            i = self.dims.index(dim)
        except ValueError:
            size = "length" if self.meta.get("statistic") == "unit_root" else "dimension"
            raise ValueError(f"table has no {size} {dim} (covers {self.dims})")
        close = [j for j, lv in enumerate(self.levels) if abs(lv - level) < 1e-12]
        if not close:
            raise ValueError(f"table has no level {level} (covers {self.levels})")
        return float(self.values[i, close[0]])

    def merged(self, other: "CriticalTable") -> "CriticalTable":
        """Union of dimensions, ``other``'s row where both have one.  Raises
        ``ValueError`` naming the first difference: sampler tag, levels, meta."""
        old, new = self.meta.get("sampler"), other.meta.get("sampler")
        if old != new:
            tag = "no sampler tag" if old is None else f"sampler tag {old!r}"
            why = f"it has {tag}, from an older sampler than {new!r}"
        elif tuple(self.levels) != tuple(other.levels):
            why = f"its levels {list(self.levels)} are not this run's {list(other.levels)}"
        elif self.meta != other.meta:
            differ = [f"{key} {self.meta.get(key)!r} vs {other.meta.get(key)!r}"
                      for key in sorted(self.meta.keys() | other.meta.keys(), key=str)
                      if self.meta.get(key) != other.meta.get(key)]
            why = f"its meta differs from this run's: {', '.join(differ)}"
        else:
            rows = {d: self.values[i] for i, d in enumerate(self.dims)}
            rows.update({d: other.values[i] for i, d in enumerate(other.dims)})
            dims = tuple(sorted(rows))
            values = np.array([rows[d] for d in dims], dtype=float)
            values = values.reshape(len(dims), len(self.levels))  # (0, levels) without dims
            return CriticalTable(dims, tuple(self.levels), values, dict(self.meta))
        raise ValueError(f"cannot merge tables with different levels or meta: {why}")

    def to_dict(self) -> dict:
        return {
            "dims": [int(d) for d in self.dims],
            "levels": [float(lv) for lv in self.levels],
            "values": [[float(v) for v in row] for row in self.values],
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CriticalTable":
        """The table :meth:`to_dict` wrote; raises on anything else."""
        values = np.asarray(data["values"], dtype=float)
        return cls(
            dims=data["dims"],
            levels=tuple(float(lv) for lv in data["levels"]),
            values=values.reshape(0, len(data["levels"])) if values.shape == (0,) else values,
            meta=dict(data["meta"]),
        )


def _chunk_reps(row: int) -> int:
    """Repetitions per chunk of a simulator whose repetitions hold ``row``
    floats per column: ``_CHUNK_FLOATS // row``, at least one."""
    return max(1, _CHUNK_FLOATS // row)


def _draw_and_score(rngs, reps: int, row: int, score) -> None:
    """Read ``reps`` repetitions of ``row`` normals from each stream of
    ``rngs`` in chunks, while one worker thread scores them.

    A chunk, shape ``(len(rngs), k, row)``, holds ``k <= m = min(reps,
    _chunk_reps(row))`` repetitions of every stream.  Its block ``[s]``, a
    C-contiguous ``(k, row)`` view, is filled by one
    ``rngs[s].standard_normal(out=...)`` (the bits of
    ``standard_normal((k, row))``), and the worker runs ``score(chunk,
    start)`` on the chunks in order.  The chunks alternate between two
    buffers allocated up front, and a scorer must not keep a chunk past its
    call.

    Both threads read.  Each block is claimed, under one
    ``threading.Condition``, by whichever thread asks first: the calling
    thread reads and never scores; the worker claims blocks of chunk ``i``
    only once it has scored chunk ``i - 1``, that is when it would
    otherwise wait for chunk ``i``.  So when scoring costs less than
    reading (the dims 1..12 table) each chunk takes about half its reads
    plus its score, and when scoring costs more (dims 1..28) the worker
    reads nothing after the first chunk and nothing changes.  Three rules
    keep every bit independent of the thread timing:

    - chunk ``i + 1`` opens for claims only once every block of chunk ``i``
      is filled, so each stream is read in repetition order, each block
      once, and never by both threads at once;
    - a chunk is scored only once all its blocks are filled;
    - chunk ``i + 2`` is not read until chunk ``i`` is scored, as it
      reuses chunk ``i``'s buffer.

    After an error in either thread no block is claimed; a chunk whose
    blocks were all filled before it is still scored, and the error is
    raised here, after the worker has been joined.  The worker is one plain
    ``threading.Thread``: ``concurrent.futures`` took 6-10 ms to import in
    a cold CLI process, where nothing else uses it.

    The two threads overlap only while neither holds the GIL.  Philox
    fills, ``np.linalg.solve``, stacked ``@`` and the scorers' elementwise
    ufuncs and reductions release it.  An N-d ``np.cumsum`` of 500 rows or
    fewer, ``np.trace`` and ``np.vecdot`` over 500 row pairs or fewer hold
    it: the trace chunk's cumsum (``D k`` rows, 384 for dims 1..12 at
    ``T = 1000``), the unit-root ``vecdot`` over ``k`` walks (13 at ``n =
    2500``), and the trace ``vecdot`` while ``k D^2 <= 500``.  Measured (2
    cores, NumPy 2.4): 300 Philox fills of ``13 x 2500`` take 0.17 s alone,
    0.18-0.24 s next to a worker looping one of the first group (``vecdot``
    over 501 to 4608 row pairs among them), and 1.6-2.0 s next to one
    looping one of the second (``vecdot`` over 13, 32 or 500).  A 1-D
    ``cumsum`` per row releases the GIL but made the dims 1..12 table no
    faster (0.51-0.71 s against 0.50-0.64 s in-process, 12 runs each).

    The two threads also need both cores, so build a table before any
    threaded BLAS work in the process.  OpenBLAS's own worker thread, once
    a threaded product has woken it (``fit`` on a p=20, n=2500 panel), keeps
    taking CPU after the call returns.  Measured on ``analyze --methods
    ratio,ic,unitroot`` of a p=20, n=2500 random-walk panel (``cli.main``
    in a fresh process, 2 cores, 8 processes each): with the unit-root
    table after the fit, 478-657 ms wall and 779-864 ms process CPU; with
    the table first, 392-468 ms and 685-778 ms.  Setting OpenBLAS to one
    thread just before the table did not help: the already woken worker
    keeps spinning.
    """
    m = min(reps, _chunk_reps(row))
    buffers = np.empty((2, len(rngs), m, row))
    starts = range(0, reps, m)
    chunks = [buffers[i % 2, :, :min(m, reps - start)] for i, start in enumerate(starts)]
    cond = threading.Condition()
    errors = []  # the first is raised here; any stops all claims
    # Under ``cond``: chunks before ``opened`` are filled; ``claimed`` and
    # ``filled`` count the blocks of chunk ``opened``; ``scored`` chunks are
    # scored; ``stopped`` once the calling thread has left its loop.
    opened = claimed = filled = scored = 0
    stopped = False

    def claim(i: int) -> bool:
        """With ``cond`` held and chunk ``i`` open, fill its next unclaimed
        block once chunk ``i - 2`` is scored (releasing ``cond`` meanwhile);
        say whether a block was filled or failed."""
        nonlocal opened, claimed, filled
        if claimed == len(rngs) or scored < i - 1:
            return False
        s, claimed = claimed, claimed + 1
        cond.release()
        try:
            rngs[s].standard_normal(out=chunks[i][s])
        except BaseException as exc:  # raised by the calling thread
            cond.acquire()
            errors.append(exc)
        else:
            cond.acquire()
            filled += 1
            if filled == len(rngs):
                opened, claimed, filled = i + 1, 0, 0
        cond.notify_all()
        return True

    def work() -> None:
        nonlocal scored
        for i, start in enumerate(starts):
            with cond:
                while opened == i:
                    if errors or stopped:
                        return
                    if not claim(i):
                        cond.wait()
            try:
                score(chunks[i], start)
            except BaseException as exc:  # raised by the calling thread
                with cond:
                    errors.append(exc)
                    cond.notify_all()
                return
            with cond:
                scored += 1
                cond.notify_all()

    worker = threading.Thread(target=work, name="eigencoint-score")
    worker.start()
    try:
        with cond:
            while opened < len(chunks) and not errors:
                if not claim(opened):
                    cond.wait()
    finally:
        with cond:
            stopped = True
            cond.notify_all()
        worker.join()
    if errors:
        raise errors[0]


def _trace_stat_sample(dims, T: int, reps: int, seed: int) -> np.ndarray:
    """Seeded samples of the discretized trace functional, one row per dim.

    All dims are scored from one nested draw.  Column ``c`` (``1..D``,
    ``D = max(dims)``) of every repetition is the next ``T`` normals of
    ``derive_stream(seed, c)``, and dim ``d`` is scored on columns
    ``1..d``.  :func:`_draw_and_score` reads the ``D`` streams into
    stream-major ``(D, k, T)`` chunks.  The cumulative sum and the
    demeaning act on each column alone.  The moment matrices ``A = e x'``
    and ``B = x x'`` are formed once per chunk over all ``D`` columns, each
    entry one ``np.vecdot`` (a BLAS dot) of two length-``T`` rows, and dim
    ``d`` is scored on their leading ``d x d`` blocks.  So a row is bitwise
    that of the one-repetition-at-a-time loop whose entries are 1-D dots,
    and depends on ``(seed, T, reps, d)`` alone: not on the other dims, the
    chunk size or the thread timing.

    The worker integrates each chunk (cumulative sum, demeaning) into one
    ``(D, m, T)`` buffer allocated up front, forms the products and solves;
    whenever it has scored a chunk before the next is read, it reads some
    of the next chunk's ``D`` stream blocks itself.  It calls raw
    ``np.linalg.solve``, the streams' own ``standard_normal`` and no
    package function, so nothing on the worker thread is timed by a
    caller's wrapper.
    """
    D = max(dims)
    sample = np.empty((len(dims), reps))
    walks = np.empty((D, min(reps, _chunk_reps(T)), T))

    def score(eps: np.ndarray, start: int) -> None:
        k = eps.shape[1]
        xc = walks[:, :k]
        xc[:, :, 0] = 0.0
        np.cumsum(eps[:, :, :-1], axis=2, out=xc[:, :, 1:])
        xc -= xc.mean(axis=2, keepdims=True)
        # C order keeps each d x d block a BLAS-shaped matrix for ``@``.
        e, x = eps.transpose(1, 0, 2), xc.transpose(1, 0, 2)  # (k, D, T) views
        a_full = np.vecdot(e[:, :, None], x[:, None], order="C")
        b_full = np.vecdot(x[:, :, None], x[:, None], order="C")
        for i, d in enumerate(dims):
            a = a_full[:, :d, :d]
            prod = a @ np.linalg.solve(b_full[:, :d, :d], a.transpose(0, 2, 1))
            sample[i, start:start + k] = np.trace(prod, axis1=1, axis2=2)

    _draw_and_score([derive_stream(seed, c) for c in range(1, D + 1)], reps, T, score)
    return sample


def _check_table_args(levels, check_size, sizes, reps: int, seed: int) -> tuple:
    """Raise on an argument either table rejects, in the order levels,
    ``check_size`` of every size (the trace ``T``, or each unit-root
    length), reps, seed.  ``reps`` and ``seed``, like a size, must be whole
    numbers (``1000.0`` is ``1000``); returns the sizes, ``reps`` and
    ``seed`` as ints."""
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {level}")
    sizes = tuple(check_size(size) for size in sizes)
    reps = _integer("reps", reps)
    if reps < 1000:
        raise ValueError(f"need reps >= 1000, got {reps}")
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    return sizes, reps, seed


def _check_trace_T(T: int) -> int:
    T = _integer("T", T)
    if T < 100:
        raise ValueError(f"need T >= 100, got {T}")
    return T


def _quantile_table(samples, dims, levels, quantiles, meta: dict) -> CriticalTable:
    """The table whose row ``i`` holds the ``quantiles`` of ``samples[i]``."""
    values = np.quantile(samples, quantiles, axis=1).T
    return CriticalTable(dims=dims, levels=levels, values=values, meta=meta)


def trace_critical_table(
    dims, levels=(DEFAULT_LEVEL,), T: int = DEFAULT_TRACE_T, reps: int = DEFAULT_TRACE_REPS,
    seed: int = 0,
) -> CriticalTable:
    """Simulate trace critical values for several dimensions at once.

    The table's dims are ``dims`` sorted ascending with repeats dropped, and
    it stores upper-tail (``1 - level``) quantiles.  Every dimension (a
    whole number: ``2.0`` is ``2``), then
    every level, ``T``, ``reps`` and the seed are validated before any
    simulation starts.  All dims are then scored from one nested draw
    (:func:`_trace_stat_sample`, looked up at call time): column ``c`` of
    each repetition comes from the stream ``derive_stream(seed, c)``, and
    dim ``d`` uses columns ``1..d``.  A row therefore depends only on
    ``(seed, T, reps, d)``, so a table built for dims 1..8 agrees exactly
    with one built for dims 1..3 under the same seed.  Values increase with
    dimension at fixed level.  ``meta["sampler"]`` is ``"nested-dot"``, so
    that a table cached by an earlier sampler (untagged, or ``"nested"``,
    whose products rounded differently) never merges with one built by this
    one.
    """
    dims = tuple(sorted({_integer("dim", d) for d in dims}))
    levels = tuple(float(lv) for lv in levels)
    for dim in dims:
        if dim < 1:
            raise ValueError(f"need dim >= 1, got {dim}")
    (T,), reps, seed = _check_table_args(levels, _check_trace_T, (T,), reps, seed)
    samples = _trace_stat_sample(dims, T, reps, seed) if dims else np.empty((0, reps))
    meta = {"T": T, "reps": reps, "seed": seed, "statistic": "trace",
            "sampler": "nested-dot"}
    return _quantile_table(samples, dims, levels, [1.0 - lv for lv in levels], meta)


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


def johansen_trace(series, crit: CriticalTable, level: float = DEFAULT_LEVEL) -> TraceResult:
    """Run the trace test on a panel with simulated critical values.

    Parameters
    ----------
    series : array_like, shape (n, p)
        Observation panel with ``n > 2p + 2``.
    crit : CriticalTable
        Must cover dimensions ``1..p`` at ``level``: every one is read,
        also those past the selected rank, and a missing one raises
        ``ValueError``.
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
    if eig11.values[0] <= 0.0 or eig11.values[-1] <= SPD_RTOL * eig11.values[0]:
        raise SingularMoments("lagged-level moment matrix is singular")
    isqrt11 = eig11.vectors @ (eig11.vectors / np.sqrt(eig11.values)).T
    try:
        s00_inv_s01 = solve_spd(s00, s01)
    except SingularMatrix as exc:
        raise SingularMoments(f"difference moment matrix is singular: {exc}") from exc

    eig = eigh_desc(isqrt11 @ (s01.T @ s00_inv_s01) @ isqrt11)
    mu = np.clip(eig.values, 0.0, _MU_CEILING)
    directions = isqrt11 @ eig.vectors

    tail = np.cumsum(np.log1p(-mu[::-1]))[::-1]  # tail[r0] = sum_{i>=r0} log(1-mu_i)
    stats = -t_eff * tail
    cutoffs = np.array([crit.value(p - r0, level) for r0 in range(p)])
    # ``~(stats < cutoffs)``, not ``stats >= cutoffs``: a NaN statistic
    # counts as a rejection, so the walk goes on past it.
    return TraceResult(
        stats=stats,
        selected_r=_leading_run(~(stats < cutoffs)),
        level=float(level),
        eigenvalues=mu,
        directions=directions,
    )


# ---------------------------------------------------------------------------
# unit-root statistic and sequential rank

def bartlett_bandwidth(n: int) -> int:
    """Default long-run-variance bandwidth ``floor(4 (n/100)^(2/9))``."""
    return int(np.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


def unit_root_stat(x, bandwidth: Optional[int] = None):
    """Serial-correlation-corrected normalized autoregression statistic.

    Large negative values reject the unit-root null; the null distribution
    is simulated by :func:`unit_root_critical_table`.  The statistic is
    exactly invariant to scaling the series by a positive constant.  This
    is :func:`_unit_root_stats` on the series, or on each column of a
    panel, the one implementation of the formula; a column's statistic is
    bitwise the one it gets alone.

    Parameters
    ----------
    x : array_like, shape (n,) or (n, k)
        Series to test, ``n >= 20``, or a panel whose ``k`` columns are
        tested.
    bandwidth : int, optional
        Bartlett kernel truncation, a whole number ``>= 0`` (``3.0`` is
        ``3``); default :func:`bartlett_bandwidth`.  Checked before the
        data.

    Returns
    -------
    float, or ndarray of shape (k,) for a panel

    Raises
    ------
    ValueError
        Negative bandwidth, or one that is not a whole number.
    InvalidSeries
        Fewer than 20 observations, non-finite entries, or more than two
        dimensions.
    DegenerateComponent
        A constant series (any column of a panel).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        return _unit_root_stats(x.T, bandwidth)
    if x.ndim > 2:
        raise InvalidSeries(f"expected a series or an (n, k) panel, got ndim={x.ndim}")
    return float(_unit_root_stats(x.reshape(1, -1), bandwidth)[0])


def _check_unit_root_n(n: int) -> int:
    if n < _UNIT_ROOT_MIN_N:
        raise InvalidSeries(f"need at least {_UNIT_ROOT_MIN_N} observations, got {n}")
    return n


def _unit_root_stats(
    xs: np.ndarray, bandwidth: Optional[int] = None, work: Optional[np.ndarray] = None
) -> np.ndarray:
    """:func:`unit_root_stat` of every row of ``xs``, shape ``(m, n)``.

    The whole batch goes through each step: the checks, the demeaning, the
    inner products and the scalar tail, as length-``m`` arrays in the
    operation order of a 1-D series.  Each inner product is one
    ``np.vecdot``, which is one BLAS dot per row.  ``xs`` is made
    C-contiguous first, because a strided row would go through a different
    BLAS dot kernel.  A row's statistic is therefore bitwise the same
    whatever batch, or stride, it is scored in.

    ``work``, if given, holds three C-contiguous ``(m, n - 1)`` arrays, a
    workspace that the demeaned lagged series ``w``, the demeaned current
    series and the residuals are written into (the same ufuncs, through
    ``out=``) instead of fresh arrays.
    """
    q = None if bandwidth is None else _integer("bandwidth", bandwidth)
    if q is not None and q < 0:
        raise ValueError(f"bandwidth must be non-negative, got {q}")
    xs = np.ascontiguousarray(xs)
    n = xs.shape[1]
    _check_unit_root_n(n)
    if not np.isfinite(xs).all():
        raise InvalidSeries("series contains non-finite entries")
    if (xs.max(axis=1) == xs.min(axis=1)).any():
        raise DegenerateComponent("series is constant")
    ylag = xs[:, :-1]
    ynow = xs[:, 1:]
    t_eff = n - 1
    w, ynow_c, resid = (None, None, None) if work is None else work
    # sum / count is what ndarray.mean computes, without its Python wrapper
    w = np.subtract(ylag, ylag.sum(axis=1, keepdims=True) / t_eff, out=w)
    ynow_c = np.subtract(ynow, ynow.sum(axis=1, keepdims=True) / t_eff, out=ynow_c)
    ss_w = np.vecdot(w, w)
    if (ss_w == 0.0).any():
        raise DegenerateComponent("lagged series is constant")

    if q is None:
        q = bartlett_bandwidth(n)
    rho = np.vecdot(w, ynow) / ss_w
    resid = np.multiply(rho[:, None], w, out=resid)
    resid = np.subtract(ynow_c, resid, out=resid)
    gamma0 = np.vecdot(resid, resid) / t_eff
    lam2 = gamma0
    for j in range(1, min(q, t_eff - 1) + 1):
        lam2 = lam2 + np.vecdot(resid[:, j:], resid[:, :-j]) / t_eff * (2.0 * (1.0 - j / (q + 1.0)))
    return t_eff * (rho - 1.0) - (lam2 - gamma0) / (2.0 * ss_w / t_eff**2)


def unit_root_critical_table(
    n, levels=(DEFAULT_LEVEL,), reps: int = DEFAULT_UNIT_ROOT_REPS, seed: int = 0
) -> CriticalTable:
    """Simulate the null distribution of :func:`unit_root_stat`.

    The null is a pure random walk of the length of the series to be
    tested.  ``n`` is one length or a sequence of them; the table's dims
    are the lengths, sorted with repeats dropped as
    :func:`trace_critical_table` sorts its dims, and it stores lower-tail
    (``level``) quantiles.  Every length reads its walks from the start of
    the one stream ``derive_stream(seed, 1)``, so one pass of it
    (:func:`_unit_root_stat_sample`, looked up at call time) serves every
    length, and a row depends only on ``(seed, reps, n)``: it is bitwise
    that of one walk at a time, and that of a table for its length alone.
    ``meta`` is ``{reps, seed, statistic}``.

    Every argument is validated before the first draw, also for an empty
    sequence: each length is a whole number (``300.0`` is ``300``), then
    the levels, every length, ``reps`` and the seed.

    Raises
    ------
    ValueError
        A length that is not a whole number, ``reps < 1000``, a level
        outside (0, 1), or ``seed < 0``.
    InvalidSeries
        A length below 20, as :func:`unit_root_stat` would raise.
    """
    lengths = tuple(sorted({_integer("n", size) for size in ((n,) if np.ndim(n) == 0 else n)}))
    levels = tuple(float(lv) for lv in levels)
    lengths, reps, seed = _check_table_args(levels, _check_unit_root_n, lengths, reps, seed)
    samples = _unit_root_stat_sample(lengths, reps, seed) if lengths else np.empty((0, reps))
    meta = {"reps": reps, "seed": seed, "statistic": "unit_root"}
    return _quantile_table(samples, lengths, levels, list(levels), meta)


def _unit_root_stat_sample(ns, reps: int, seed: int) -> np.ndarray:
    """Seeded samples of :func:`unit_root_stat` on random walks, one row of
    ``reps`` statistics per length of ``ns`` (ascending, distinct).

    Walk ``j`` of length ``n`` is the cumulative sum of floats ``j n`` to
    ``(j + 1) n - 1`` of the one stream ``derive_stream(seed, 1)``, which
    is what ``reps`` draws of ``standard_normal(n)`` give.  So every
    length reads the same stream from its start, and one pass serves all
    of them.  :func:`_draw_and_score` reads the stream in chunks of
    ``m = min(reps, _chunk_reps(N))`` walks of the largest length ``N``,
    and one worker thread scores each chunk as one flat run of steps.

    Each length keeps one carry: the steps of its walk that the chunks so
    far leave unfinished.  For each length that still needs walks, the
    worker prepends its carry to the chunk, cumsums every whole walk into
    one ``(k, n)`` walk buffer, scores it with :func:`_unit_root_stats` and
    copies out the remainder as the new carry.  A chunk holds at least
    ``N`` floats, so ``k >= 1`` until a length has all ``reps`` walks; from
    then on it is skipped, so its carry does not grow with later chunks.
    Each walk's arithmetic does not depend on its chunk or on the other
    lengths, so each row is bitwise that of a per-walk loop, whatever the
    chunk size or the thread timing.  One walk buffer and one scorer
    workspace, sized for the largest ``(k, n)`` batch a chunk can complete,
    serve every length.
    """
    N = ns[-1]
    sample = np.empty((len(ns), reps))
    m = min(reps, _chunk_reps(N))
    # A chunk of m * N floats, after a carry of < n, completes at most this
    # many walks of length n.
    most = [min(reps, (m * N + n - 1) // n) for n in ns]
    walks = np.empty(max(k * n for k, n in zip(most, ns)))
    work = np.empty((3, max(k * (n - 1) for k, n in zip(most, ns))))
    carry = [np.empty(0)] * len(ns)
    done = [0] * len(ns)

    def score(steps: np.ndarray, start: int) -> None:
        for i, n in enumerate(ns):
            if done[i] == reps:
                continue
            flat = steps.reshape(-1)
            if carry[i].size:  # never for N: a chunk holds whole walks of N
                flat = np.concatenate((carry[i], flat))
            k = min(flat.size // n, reps - done[i])
            xs = walks[:k * n].reshape(k, n)
            np.cumsum(flat[:k * n].reshape(k, n), axis=1, out=xs)
            carry[i] = flat[k * n:].copy()
            ws = work[:, :k * (n - 1)].reshape(3, k, n - 1)
            sample[i, done[i]:done[i] + k] = _unit_root_stats(xs, work=ws)
            done[i] += k

    _draw_and_score([derive_stream(seed, 1)], reps, N, score)
    return sample


def sequential_unit_root(x_hat, level: float, crit: CriticalTable) -> int:
    """Count stationary trailing components of a transformed panel.

    Columns must be ordered by descending eigenvalue (the fit ordering).
    The last column — the strongest stationarity candidate — is tested
    first; testing walks towards the first column and stops at the first
    component whose unit-root null is NOT rejected.  The number of
    rejections is the estimated cointegration rank.  The critical value is
    the row of ``crit`` for the panel's length; a table without it raises
    ``ValueError``.

    Every column is scored in one :func:`unit_root_stat` call.  If that
    call raises (say, on a constant column), the columns are scored one at
    a time in testing order instead, so a column past the stopping point
    never raises, and the first column tested that cannot be scored raises
    its error.

    Parameters
    ----------
    x_hat : array_like, shape (n, p)
    level : float
        Test size; ``crit`` must cover it.
    crit : CriticalTable
        Lower-tail table from :func:`unit_root_critical_table` covering ``n``.

    Returns
    -------
    int
        Estimated rank in ``0..p``.
    """
    x = as_panel(x_hat)
    cv = crit.value(x.shape[0], level)
    try:
        stats = unit_root_stat(x)
    except (InvalidSeries, DegenerateComponent):
        stats = None
    count = 0
    # A lazy walk, not a leading run over every column: on the per-column
    # fallback no column past the stopping point may be scored.
    for idx in range(x.shape[1] - 1, -1, -1):
        stat = unit_root_stat(x[:, idx]) if stats is None else stats[idx]
        if stat < cv:
            count += 1
        else:
            break
    return count
