"""End-to-end acceptance checks, one test per release criterion.

Each test exercises a criterion at its stated tolerance and prints a single
``[acceptance] criterion N PASS/FAIL`` line on the real stdout (bypassing
pytest capture) so a full run yields a nine-line scoreboard.  The Monte
Carlo criteria pin both the target frequencies and a wall-clock budget;
everything is seeded, so reruns are deterministic.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eigencoint.baselines import (
    derive_stream,
    johansen_trace,
    sequential_unit_root,
    trace_critical_table,
    unit_root_critical_table,
)
from eigencoint.covstack import build_stack
from eigencoint.harness import emit_replicates, emit_report, preset_plan, preset_template, run_plan
from eigencoint.linalg import EigenSystem, eigh_desc, symmetrize
from eigencoint.ranksel import (
    PenaltySpec,
    fit,
    penalty,
    rank_ic,
    rank_ratio,
    rank_ratio_fractional,
    split,
)
from eigencoint.simgen import frac_coeffs, gen_arfima, gen_arima, gen_panel
from eigencoint.subspace import dist_d, dist_d1


def criterion(num, label):
    """Print one scoreboard line per criterion on the real stdout.

    pytest captures at the file-descriptor level by default, so the line is
    emitted inside ``capfd.disabled()`` to reach the terminal either way.
    """

    def deco(fn):
        def wrapper(capfd):
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                elapsed = time.perf_counter() - start
                with capfd.disabled():
                    print(
                        f"[acceptance] criterion {num} FAIL ({elapsed:6.1f}s) {label}",
                        flush=True,
                    )
                raise
            elapsed = time.perf_counter() - start
            with capfd.disabled():
                print(
                    f"[acceptance] criterion {num} PASS ({elapsed:6.1f}s) {label}",
                    flush=True,
                )

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    return deco


def _eigen(values):
    values = np.asarray(values, dtype=float)
    return EigenSystem(values=values, vectors=np.eye(values.size))


# ---------------------------------------------------------------------------
# 1. Formula exactness: hand-evaluated rank rules and analytic distances.


@criterion(1, "formula exactness: rank rules integer-exact, distances to 1e-10")
def test_c1_formula_exactness():
    # Ratio rule, worked by hand from the defining inequality.
    assert rank_ratio(_eigen([1e6, 2.0, 1.0]), 100) == 2
    assert rank_ratio(_eigen([5e5, 4e5, 1.0]), 100) == 1
    assert rank_ratio(_eigen([3.0, 3.0, 3.0, 3.0]), 1) == 4  # all tied -> p

    # Information criterion, worked by hand from IC(l).
    assert rank_ic(_eigen([1e6, 2.0, 1.0]), 10.0) == 2
    assert rank_ic(_eigen([1e6, 2.0, 1.0]), 0.5) == 1
    assert rank_ic(_eigen([7.0]), 123.0) == 1  # p = 1 has one candidate

    # Named penalties are exact arithmetic at these inputs.
    assert penalty(PenaltySpec(variant="omega1"), 16, 2.0) == 64.0
    assert penalty(PenaltySpec(variant="omega2"), 100, 1.0) == 1000.0
    assert penalty(PenaltySpec(variant="custom", custom_value=7.5), 10, 1.0) == 7.5

    # Analytic sin(theta) cases for both distance metrics.
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert dist_d(e1, e1) == 0.0
    assert abs(dist_d(e1, e2) - 1.0) <= 1e-10
    at60 = np.array([[0.5], [math.sqrt(3.0) / 2.0]])
    assert abs(dist_d(e1, at60) - math.sqrt(0.75)) <= 1e-10
    # Non-orthonormal comparison basis: scaling is absorbed by the projector.
    assert abs(dist_d1(e1, np.array([[0.0], [3.0]])) - 1.0) <= 1e-10
    pair = np.eye(3)[:, :2]
    assert abs(dist_d1(pair, np.eye(3)[:, :1]) - math.sqrt(0.5)) <= 1e-10


# ---------------------------------------------------------------------------
# 2. Oracle equivalence: optimized kernels vs naive transcriptions.


def _naive_stack(y, j0):
    n, p = y.shape
    ybar = y.mean(axis=0)
    sigmas = []
    for j in range(j0 + 1):
        s = np.zeros((p, p))
        for t in range(n - j):
            for a in range(p):
                for b in range(p):
                    s[a, b] += (y[t + j, a] - ybar[a]) * (y[t, b] - ybar[b])
        sigmas.append(s / n)
    w = np.zeros((p, p))
    for s in sigmas:
        w += s @ s.T
    return sigmas, (w + w.T) / 2.0


@criterion(2, "oracle equivalence: lag-cov stack and ARFIMA vs naive loops")
def test_c2_oracle_equivalence():
    # 50 seeded panels, n <= 50, p <= 6, against the triple-loop oracle.
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 51))
        p = int(rng.integers(1, 7))
        j0 = int(rng.integers(0, 6))
        y = rng.standard_normal((n, p))
        stack = build_stack(y, j0)
        sigmas, w = _naive_stack(y, j0)
        assert np.max(np.abs(stack.w - w)) <= 1e-12
        for got, want in zip(stack.sigmas, sigmas):
            assert np.max(np.abs(got - want)) <= 1e-12

    # 20 seeded fractional series against a naive double-loop convolution.
    # Both links of the chain are held to 1e-12: the expansion coefficients
    # against the gamma-ratio closed form, and the generated series against
    # the explicit convolution of those coefficients with the short-memory
    # core.  (Exponentiating log-gamma differences costs ~1e-13 relative on
    # its own, so the gamma form is checked on the coefficients, where that
    # is the only error source, rather than after convolution.)
    orders = (0.3, 0.7, 1.2, 1.6)
    arma = ((), (0.5,)), ((), ()), ((0.4,), ()), ((0.3,), (0.6,))
    n = 120
    for k in range(20):
        d = orders[k % len(orders)]
        ar, ma = arma[k % len(arma)]
        seed = 9000 + k
        impl = gen_arfima(n, d, ar=ar, ma=ma, rng=derive_stream(seed))
        core = gen_arima(n, ar=ar, d=0, ma=ma, rng=derive_stream(seed))
        coeffs = frac_coeffs(d, n - 1)
        gamma_form = np.array(
            [
                math.exp(math.lgamma(j + d) - math.lgamma(d) - math.lgamma(j + 1))
                for j in range(n)
            ]
        )
        assert_allclose(coeffs, gamma_form, rtol=1e-12)
        oracle = np.array(
            [
                math.fsum(coeffs[j] * core[t - j] for j in range(t + 1))
                for t in range(n)
            ]
        )
        assert_allclose(impl, oracle, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# 3. Eigen quality on random symmetric matrices.


@criterion(3, "eigen quality: reconstruction/orthonormality/trace on 100 matrices")
def test_c3_eigen_quality():
    rng = np.random.default_rng(314159)
    for _ in range(100):
        p = int(rng.integers(1, 31))
        scale = 10.0 ** int(rng.integers(-2, 3))
        m = symmetrize(rng.standard_normal((p, p)) * scale)
        res = eigh_desc(m)
        tol = 1e-10 * (1.0 + np.max(np.abs(m)))
        assert np.max(np.abs(res.vectors.T @ res.vectors - np.eye(p))) <= 1e-10
        recon = res.vectors @ np.diag(res.values) @ res.vectors.T
        assert np.max(np.abs(recon - m)) <= tol
        assert abs(res.values.sum() - np.trace(m)) <= tol * p
        assert np.all(np.diff(res.values) <= 0.0)


# ---------------------------------------------------------------------------
# 4. Benchmark replication, six-dimensional design with two random walks.


@criterion(4, "p=6 benchmark: ratio freq at n=300/1000 and IC(omega2) at n=1000")
def test_c4_table_replication_p6():
    start = time.perf_counter()
    plan = preset_plan(
        "example2",
        reps=200,
        cells=((6, 2),),
        n_grid=(300, 1000),
        estimators=("ratio",),
        parallelism=4,
    )
    freq = {cell.n: cell.freq_correct for cell in run_plan(plan).cells}
    assert abs(freq[300] - 0.835) <= 0.08
    assert abs(freq[1000] - 0.979) <= 0.05

    plan_ic = preset_plan(
        "example2",
        reps=200,
        cells=((6, 4),),
        n_grid=(1000,),
        estimators=("ic_omega2",),
        parallelism=4,
    )
    (cell,) = run_plan(plan_ic).cells
    assert abs(cell.freq_correct - 0.998) <= 0.05
    assert time.perf_counter() - start < 180.0


# ---------------------------------------------------------------------------
# 5. Mixed-order design: one I(2) pair alongside an I(1) pair.


@criterion(5, "mixed-order benchmark: ratio freq at n=300/1000 for (6,2,2)")
def test_c5_mixed_order_scenario():
    start = time.perf_counter()
    plan = preset_plan(
        "example3",
        reps=200,
        cells=((6, 2, 2),),
        n_grid=(300, 1000),
        estimators=("ratio",),
        parallelism=4,
    )
    freq = {cell.n: cell.freq_correct for cell in run_plan(plan).cells}
    assert abs(freq[300] - 0.711) <= 0.10
    assert abs(freq[1000] - 0.873) <= 0.08
    assert time.perf_counter() - start < 180.0


# ---------------------------------------------------------------------------
# 6. Distance trend: with the true rank supplied, the estimated space closes
#    in on the truth as the sample grows.


@criterion(6, "distance trend: median D1 strictly decreasing over n")
def test_c6_distance_trend():
    start = time.perf_counter()
    template = preset_template("example2", 6, 2)
    medians = []
    for n in (500, 1000, 2500):
        dists = np.empty(100)
        for k in range(100):
            seed = int(
                np.random.SeedSequence(606, spawn_key=(n, k)).generate_state(
                    1, np.uint64
                )[0]
            )
            panel = gen_panel(replace(template, n=n, seed=seed))
            a_hat2 = split(fit(panel.y, 5), 2)[1]
            dists[k] = dist_d1(a_hat2, panel.b2)
        medians.append(float(np.median(dists)))
    assert medians[0] > medians[1] > medians[2]
    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# 7. Baseline sanity: trace-test size, sequential unit-root size/power, and
#    the qualitative margin over the trace test at p=8.


@criterion(7, "baselines: trace size, unit-root size/power, p=8 margin >= 0.10")
def test_c7_baseline_sanity():
    # Trace-test rejection rate under a univariate random-walk null, using
    # its own simulated critical values.
    table = trace_critical_table(dims=(1,), T=1000, reps=2000, seed=0)
    reps = 500
    rejections = 0
    for k in range(reps):
        walk = np.cumsum(derive_stream(40, k).standard_normal(500))
        if johansen_trace(walk[:, None], table).selected_r >= 1:
            rejections += 1
    assert abs(rejections / reps - 0.05) <= 0.03

    # Sequential unit-root screen: full rank on an i.i.d. panel (power) and
    # rank zero on pure walks (size).  Testing stops at the first
    # non-rejection, so the exact zero-rank probability is 1 - level = 0.95;
    # the band around (1 - level)^3 covers it.
    ur_table = unit_root_critical_table(1000, reps=2000, seed=0)
    hits = 0
    for k in range(100):
        x = derive_stream(60, k).standard_normal((1000, 3))
        if sequential_unit_root(x, 0.05, ur_table) == 3:
            hits += 1
    assert hits / 100 >= 0.7
    zeros = 0
    for k in range(200):
        x = np.cumsum(derive_stream(361, k).standard_normal((1000, 3)), axis=0)
        if sequential_unit_root(x, 0.05, ur_table) == 0:
            zeros += 1
    assert abs(zeros / 200 - 0.95**3) <= 0.1

    # Eight-dimensional design with two walks: the eigenvalue-ratio rule
    # must beat the trace test's correct-rank frequency by at least 0.10
    # (the VAR(1) working model underfits this data-generating process).
    plan = preset_plan(
        "example1",
        reps=200,
        cells=((8, 2),),
        n_grid=(500,),
        estimators=("ratio", "johansen"),
        parallelism=4,
    )
    freq = {cell.estimator: cell.freq_correct for cell in run_plan(plan).cells}
    assert freq["ratio"] >= freq["johansen"] + 0.10


# ---------------------------------------------------------------------------
# 8. Invariance suite: scaling, rotation, worker count.


@criterion(8, "invariance: panel scaling, basis rotation, worker count")
def test_c8_invariance_suite():
    # Seed chosen so every rank decision sits far from its threshold (the
    # nearest eigenvalue ratio is ~60x off the cutoff); a panel whose
    # lambda_5 lands exactly on n * lambda_6 flips under any reordering of
    # float operations and cannot witness the invariance.
    template = preset_template("example2", 6, 2)
    panel = gen_panel(replace(template, n=500, seed=2027))

    def all_ranks(y):
        fitted = fit(y, 5)
        lam_p = fitted.eigen.values[-1]
        n = y.shape[0]
        return (
            rank_ratio(fitted.eigen, n),
            rank_ic(fitted.eigen, penalty(PenaltySpec(variant="omega1"), n, lam_p)),
            rank_ic(fitted.eigen, penalty(PenaltySpec(variant="omega2"), n, lam_p)),
            rank_ic(fitted.eigen, penalty(PenaltySpec(variant="omega3"), n, lam_p)),
            rank_ratio_fractional(fitted.eigen, n, d_min=1.0, delta=0.2),
        )

    base = all_ranks(panel.y)
    lam = fit(panel.y, 5).eigen.values
    for s in (0.1, 10.0):
        assert all_ranks(s * panel.y) == base
        # The mechanism: every eigenvalue scales by s**4.  On a spectrum
        # graded over ~14 decades the trailing eigenvalues carry absolute
        # (norm-relative) rounding noise, so the band scales with lambda_1.
        scaled = fit(s * panel.y, 5).eigen.values
        assert np.max(np.abs(scaled - s**4 * lam)) <= 1e-10 * s**4 * lam[0]

    # Right-rotating either orthonormal basis, or rescaling the columns of
    # the raw comparison basis, never moves the distances.
    rng = np.random.default_rng(88)
    q1 = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    q2 = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    rot1 = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    rot2 = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    assert abs(dist_d(q1 @ rot1, q2 @ rot2) - dist_d(q1, q2)) <= 1e-10
    b2 = rng.standard_normal((6, 2))
    scaled_b2 = b2 @ np.diag([2.5, -0.3])
    assert abs(dist_d1(q1 @ rot1, scaled_b2) - dist_d1(q1, b2)) <= 1e-10

    # Identical replicate records and emitted reports regardless of the
    # worker pool size.
    kwargs = dict(
        reps=20,
        cells=((6, 2),),
        n_grid=(300,),
        estimators=("ratio", "ic_omega2"),
    )
    serial = run_plan(preset_plan("example2", parallelism=1, **kwargs))
    pooled = run_plan(preset_plan("example2", parallelism=4, **kwargs))
    assert serial.replicates == pooled.replicates
    assert emit_report(serial) == emit_report(pooled)
    assert emit_replicates(serial) == emit_replicates(pooled)


# ---------------------------------------------------------------------------
# 9. Fractional pieces: coefficients, rank rule, integer-order degeneration.


@criterion(9, "fractional: coefficients, rank rule, integer-order degeneration")
def test_c9_fractional_exactness():
    # Closed forms: alpha = 1 gives the all-ones expansion, a_1 = alpha, and
    # a_2 = alpha (alpha + 1) / 2, all exact in float arithmetic.
    assert_array_equal(frac_coeffs(1.0, 8), np.ones(9))
    for alpha in (0.4, 1.3, 1.9):
        assert frac_coeffs(alpha, 1)[1] == alpha
    assert frac_coeffs(0.4, 2)[2] == 0.4 * (0.4 + 1.0) / 2.0
    assert abs(frac_coeffs(0.4, 2)[2] - 0.28) <= 1e-16

    # Fractional ratio rule, worked by hand from the threshold inequality.
    values = _eigen([1e6, 2.0, 1.0])
    assert rank_ratio_fractional(values, 100, d_min=1.0, delta=0.0) == 1
    assert rank_ratio_fractional(values, 100, d_min=1.5, delta=0.4) == 2
    # d_min = 1, delta = 0 collapses the threshold to lambda_p itself, i.e.
    # the plain ratio rule with the sample-size factor removed.
    assert rank_ratio_fractional(values, 100, d_min=1.0, delta=0.0) == rank_ratio(
        values, 1
    )

    # Integer orders hand off to the ARIMA generator bit for bit.
    for d in (0, 1):
        delegated = gen_arfima(80, float(d), ar=(0.5,), ma=(0.2,), rng=derive_stream(17))
        direct = gen_arima(80, ar=(0.5,), d=d, ma=(0.2,), rng=derive_stream(17))
        assert_array_equal(delegated, direct)
