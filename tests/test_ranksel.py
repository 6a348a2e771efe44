import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import eigencoint
from eigencoint.errors import DegenerateSpectrum, InvalidRank, InvalidSeries
from eigencoint.linalg import EigenSystem
from eigencoint.ranksel import (
    PenaltySpec,
    _leading_run,
    fit,
    penalty,
    rank_ic,
    rank_ratio,
    rank_ratio_fractional,
    split,
)


def eigen_from(values):
    values = np.asarray(values, dtype=float)
    return EigenSystem(values=values, vectors=np.eye(values.size))


# ---------------------------------------------------------------------------
# fit


def test_fit_separates_walk_from_noise():
    rng = np.random.default_rng(6)
    theta = 0.3
    a = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    ratios = {}
    for n in (200, 1000):
        x = np.column_stack(
            [np.cumsum(rng.standard_normal(n)), rng.standard_normal(n)]
        )
        f = fit(x @ a.T, 5)
        ratios[n] = f.eigen.values[0] / f.eigen.values[1]
    assert ratios[1000] > ratios[200]
    assert ratios[1000] > 100.0


def test_fit_iid_panel_moderate_spread():
    rng = np.random.default_rng(17)
    f = fit(rng.standard_normal((500, 3)), 5)
    assert f.eigen.values[0] / f.eigen.values[2] < 500


def test_fit_constant_panel_zero_spectrum():
    f = fit(np.full((30, 2), 1.0), 3)
    assert_array_equal(f.eigen.values, np.zeros(2))
    with pytest.raises(DegenerateSpectrum):
        rank_ratio(f.eigen, 30)


def test_fit_invariants():
    rng = np.random.default_rng(23)
    y = np.cumsum(rng.standard_normal((120, 4)), axis=0)
    f = fit(y, 5)
    assert f.n == 120
    a = f.eigen.vectors
    assert np.max(np.abs(a.T @ a - np.eye(4))) <= 1e-10
    assert np.all(np.diff(f.eigen.values) <= 0.0)
    assert np.all(f.eigen.values >= 0.0)
    assert_array_equal(f.x_hat, y @ a)
    assert f.stack.j0 == 5


def test_fit_deterministic():
    rng = np.random.default_rng(29)
    y = np.cumsum(rng.standard_normal((80, 3)), axis=0)
    f1, f2 = fit(y, 4), fit(y, 4)
    assert_array_equal(f1.eigen.values, f2.eigen.values)
    assert_array_equal(f1.eigen.vectors, f2.eigen.vectors)
    assert_array_equal(f1.x_hat, f2.x_hat)


def assert_fits_equal(got, want):
    assert got.n == want.n and got.p == want.p
    assert_array_equal(got.eigen.values, want.eigen.values, strict=True)
    assert_array_equal(got.eigen.vectors, want.eigen.vectors, strict=True)
    assert_array_equal(got.x_hat, want.x_hat, strict=True)
    assert got.stack.j0 == want.stack.j0
    assert len(got.stack.sigmas) == len(want.stack.sigmas)
    for s_got, s_want in zip(got.stack.sigmas, want.stack.sigmas):
        assert_array_equal(s_got, s_want, strict=True)
    assert_array_equal(got.stack.w, want.stack.w, strict=True)
    assert_array_equal(got.stack.mean, want.stack.mean, strict=True)


def i2_panels(m, n, p, seed):
    """``m`` panels of two cumulative sums of noise, mixed: an I(2) design."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(np.cumsum(rng.standard_normal((m, n, p)), axis=1), axis=1)
    x[:, :, p // 2:] = rng.standard_normal((m, n, p - p // 2))
    return x @ rng.uniform(-3.0, 3.0, (p, p)).T


@pytest.mark.parametrize(
    "m, n, p, j0, splits",
    [
        (1, 300, 6, 5, [(0, 1)]),
        (7, 300, 6, 5, [(0, 3), (3, 7), (0, 7)]),
        (4, 200, 1, 5, [(0, 4)]),
        (5, 120, 4, 0, [(0, 2), (2, 5)]),
        (2, 2500, 20, 5, [(0, 2)]),
    ],
    ids=["m1", "uneven", "p1", "j0-0", "p20-n2500"],
)
def test_stacked_fit_matches_each_panel_alone_bitwise(m, n, p, j0, splits):
    ys = i2_panels(m, n, p, seed=31 + m + p)
    alone = [fit(y, j0) for y in ys]
    for lo, hi in splits:
        stacked = fit(ys[lo:hi], j0)
        assert isinstance(stacked, list) and len(stacked) == hi - lo
        for got, want in zip(stacked, alone[lo:hi]):
            assert_fits_equal(got, want)


def test_stacked_fit_rejects_a_stack_with_a_non_finite_panel():
    ys = i2_panels(3, 100, 3, seed=37)
    ys[1, 5, 0] = np.nan
    with pytest.raises(InvalidSeries, match="non-finite"):
        fit(ys, 3)


# ---------------------------------------------------------------------------
# rank_ratio


def test_rank_ratio_hand_example_two():
    assert rank_ratio(eigen_from([1e6, 2.0, 1.0]), 100) == 2


def test_rank_ratio_hand_example_one():
    assert rank_ratio(eigen_from([5e5, 4e5, 1.0]), 100) == 1


@pytest.mark.parametrize("n", [1, 10, 1000])
def test_rank_ratio_equal_values_full_rank(n):
    assert rank_ratio(eigen_from([3.0, 3.0, 3.0, 3.0]), n) == 4


def test_rank_ratio_never_zero():
    assert rank_ratio(eigen_from([1e12, 1.0]), 2) == 1


@pytest.mark.parametrize("values", [[1.0, 0.0], [1.0, -0.5]])
def test_rank_ratio_degenerate_spectrum(values):
    with pytest.raises(DegenerateSpectrum):
        rank_ratio(eigen_from(values), 100)


@pytest.mark.parametrize("factor", [1e-6, 1e6])
def test_rank_ratio_common_rescaling_invariance(factor):
    values = np.array([7e5, 30.0, 2.0, 1.0])
    base = rank_ratio(eigen_from(values), 250)
    assert rank_ratio(eigen_from(values * factor), 250) == base


# ---------------------------------------------------------------------------
# rank_ic


def test_rank_ic_hand_example_two():
    assert rank_ic(eigen_from([1e6, 2.0, 1.0]), 10.0) == 2


def test_rank_ic_hand_example_one():
    assert rank_ic(eigen_from([1e6, 2.0, 1.0]), 0.5) == 1


def test_rank_ic_single_candidate():
    assert rank_ic(eigen_from([42.0]), 3.0) == 1
    assert rank_ic(eigen_from([42.0]), 1e9) == 1


def test_rank_ic_tie_prefers_smaller():
    # values (3, 1), omega = 3: IC(1) = 1 + 3 = 4, IC(2) = 4 + 0 = 4.
    assert rank_ic(eigen_from([3.0, 1.0]), 3.0) == 1


def test_rank_ic_requires_positive_omega():
    with pytest.raises(ValueError):
        rank_ic(eigen_from([2.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        rank_ic(eigen_from([2.0, 1.0]), -1.0)


@pytest.mark.parametrize("omega", [np.inf, np.nan])
def test_rank_ic_rejects_non_finite_omega(omega):
    with pytest.raises(ValueError, match="finite"):
        rank_ic(eigen_from([2.0, 1.0]), omega)


def test_rank_ic_matches_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(25):
        p = int(rng.integers(1, 9))
        values = np.sort(rng.uniform(0.01, 1e4, p))[::-1]
        omega = float(rng.uniform(0.01, 1e3))
        scores = [
            np.sum(values[p - l:]) + (p - l) * omega for l in range(1, p + 1)
        ]
        expected = int(np.argmin(scores)) + 1
        assert rank_ic(eigen_from(values), omega) == expected


# ---------------------------------------------------------------------------
# penalty


def test_penalty_named_variants_exact():
    assert penalty(PenaltySpec("omega1"), 16, 2.0) == 64.0
    assert penalty(PenaltySpec("omega2"), 100, 1.0) == 1000.0
    assert_allclose(
        penalty(PenaltySpec("omega3"), 1000, 3.0), 3.0 * 1000.0 ** (2.0 / 3.0),
        rtol=1e-15,
    )


def test_penalty_custom_passthrough():
    assert penalty(PenaltySpec("custom", 7.5), 100, 123.0) == 7.5


def test_penalty_degenerate_lambda():
    with pytest.raises(DegenerateSpectrum):
        penalty(PenaltySpec("omega1"), 100, 0.0)
    # custom ignores lambda_p entirely
    assert penalty(PenaltySpec("custom", 2.0), 100, 0.0) == 2.0


def test_penalty_overflow_is_degenerate():
    with pytest.raises(DegenerateSpectrum, match="overflows"):
        penalty(PenaltySpec("omega2"), 1000, 1e305)


def test_penalty_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec("omega4")
    with pytest.raises(ValueError):
        PenaltySpec("custom")  # missing value
    with pytest.raises(ValueError):
        PenaltySpec("custom", -1.0)
    with pytest.raises(ValueError):
        PenaltySpec("omega1", 5.0)  # value forbidden for named variants


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_penalty_spec_custom_value_must_be_finite(value):
    with pytest.raises(ValueError, match="finite"):
        PenaltySpec("custom", value)


# ---------------------------------------------------------------------------
# rank_ratio_fractional


def test_fractional_hand_example_threshold_one():
    assert rank_ratio_fractional(eigen_from([1e6, 2.0, 1.0]), 100, 1.0, 0.0) == 1


def test_fractional_hand_example_wide_threshold():
    # threshold 100^0.9 ~ 63.1
    assert rank_ratio_fractional(eigen_from([1e6, 2.0, 1.0]), 100, 1.5, 0.4) == 2


def test_fractional_reduces_to_unit_scaling():
    # d_min = 1, delta = 0 compares against lambda_p itself, i.e. the plain
    # ratio rule with the n factor replaced by 1.
    values = eigen_from([50.0, 2.0, 1.0])
    assert rank_ratio_fractional(values, 1000, 1.0, 0.0) == 1


@pytest.mark.parametrize("d_min,delta", [(0.5, 0.0), (0.4, 0.1), (1.0, 0.5), (1.0, -0.1)])
def test_fractional_parameter_validation(d_min, delta):
    with pytest.raises(ValueError):
        rank_ratio_fractional(eigen_from([2.0, 1.0]), 100, d_min, delta)


def test_fractional_degenerate_threshold_warns():
    with pytest.warns(RuntimeWarning):
        rank_ratio_fractional(eigen_from([10.0, 1.0]), 100, 0.6, 0.0)


# ---------------------------------------------------------------------------
# one decision: the leading run of trailing eigenvalues that pass the cutoff


def largest_j_at_or_below(values, threshold):
    """Reference loop: the largest ``j`` in ``1..p`` with
    ``lambda_{p+1-j} <= threshold``, at least 1."""
    r = 1
    for j in range(2, len(values) + 1):
        if values[len(values) - j] <= threshold:
            r = j
    return r


def ic_exact_argmin(values, omega):
    """The criterion's own minimizer, ties to the smallest ``l``, with
    ``IC(l) = sum of the l smallest + (p - l) * omega`` summed exactly."""
    p = len(values)
    tail = [Fraction(float(v)) for v in values[::-1]]
    scores = [sum(tail[:l]) + (p - l) * Fraction(float(omega)) for l in range(1, p + 1)]
    return scores.index(min(scores)) + 1


def descending_spectra():
    """Random spectra of every size 1..10, graded spectra spanning up to 30
    decades, and spectra with ties."""
    rng = np.random.default_rng(83)
    for _ in range(200):
        p = int(rng.integers(1, 11))
        yield np.sort(rng.uniform(0.01, 1e4, p))[::-1]
    for p in range(1, 11):
        for decades in (1.0, 3.0, 30.0):
            yield 10.0 ** (decades * np.linspace(1.0, 0.0, p))
    yield np.array([5.0, 5.0, 2.0, 2.0, 2.0, 1.0])
    yield np.array([3.0, 3.0, 3.0])


def test_leading_run_counts_the_true_prefix():
    assert _leading_run([]) == 0
    assert _leading_run(np.array([True, True])) == 2
    assert _leading_run([False, True, True]) == 0
    assert _leading_run([True, False, True]) == 1
    assert _leading_run(np.array([1.0, np.nan]) < 2.0) == 1


def test_ratio_rules_match_the_largest_j_loop():
    rng = np.random.default_rng(89)
    for values in descending_spectra():
        eigen = eigen_from(values)
        # The sample sizes either side of each eigenvalue's ratio to
        # lambda_p (the ratio itself where it is whole: a tie, which is
        # counted), then random sample sizes.
        ratios = values / values[-1]
        sizes = np.concatenate(
            [np.floor(ratios), np.ceil(ratios), np.ceil(rng.uniform(0.5, 5e3, 3))])
        for n in map(int, sizes):
            assert rank_ratio(eigen, n) == largest_j_at_or_below(values, float(n) * values[-1])
        d_min, delta = float(rng.uniform(0.51, 2.0)), float(rng.uniform(0.0, 0.49))
        n = int(rng.integers(10, 5000))
        threshold = float(n) ** (d_min + delta - 1.0) * values[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = rank_ratio_fractional(eigen, n, d_min, delta)
        assert got == largest_j_at_or_below(values, threshold)


def test_rank_ic_matches_the_exact_criterion_argmin():
    rng = np.random.default_rng(97)
    for values in descending_spectra():
        eigen = eigen_from(values)
        # Each eigenvalue as the penalty (a tie the criterion gives to the
        # smaller l), then random penalties across the spectrum's range.
        for omega in list(values) + list(10.0 ** rng.uniform(-3.0, 31.0, 4)):
            assert rank_ic(eigen, omega) == ic_exact_argmin(values, omega)


@pytest.mark.parametrize("n", [True, 2.5, 0, "100"], ids=["True", "fraction", "zero", "str"])
def test_sample_size_must_be_a_whole_number(n):
    eigen = eigen_from([1e6, 2.0, 1.0])
    rules = [
        lambda n: rank_ratio(eigen, n),
        lambda n: rank_ratio_fractional(eigen, n, 1.5, 0.4),
        lambda n: penalty(PenaltySpec(), n, 1.0),
        lambda n: penalty(PenaltySpec("custom", 7.5), n, 1.0),
    ]
    for rule in rules:
        with pytest.raises(ValueError, match="n must be a positive integer"):
            rule(n)
        assert rule(1000.0) == rule(1000)


def test_value_equal_to_the_cutoff():
    values = eigen_from([5.0, 3.0, 1.0])
    assert rank_ic(values, 3.0) == 1  # strict: lambda == omega is not counted
    assert rank_ratio(values, 3) == 2  # lambda == n * lambda_p is counted
    # 4**0.5 * 1 == 2 exactly
    assert rank_ratio_fractional(eigen_from([5.0, 2.0, 1.0]), 4, 1.5, 0.0) == 2


def test_single_eigenvalue_is_rank_one_for_every_rule():
    one = eigen_from([7.0])
    assert rank_ratio(one, 1000) == 1
    assert rank_ic(one, 1e-9) == rank_ic(one, 1e9) == 1
    assert rank_ratio_fractional(one, 1000, 1.2, 0.1) == 1


def test_fractional_threshold_below_lambda_p_is_rank_one_and_warns():
    # exponent 0.6 - 1 < 0: the threshold 100**-0.4 * lambda_p < lambda_p,
    # so not even the tied eigenvalues pass.
    with pytest.warns(RuntimeWarning, match="degenerates"):
        assert rank_ratio_fractional(eigen_from([1.0, 1.0, 1.0]), 100, 0.6, 0.0) == 1


# ---------------------------------------------------------------------------
# split


def test_split_boundaries():
    rng = np.random.default_rng(43)
    f = fit(rng.standard_normal((40, 3)), 3)
    a1, a2 = split(f, 0)
    assert a2.shape == (3, 0)
    assert_array_equal(a1, f.eigen.vectors)
    a1, a2 = split(f, 3)
    assert a1.shape == (3, 0)
    assert_array_equal(a2, f.eigen.vectors)


def test_split_last_column():
    rng = np.random.default_rng(47)
    f = fit(rng.standard_normal((40, 3)), 3)
    a1, a2 = split(f, 1)
    assert_array_equal(a2, f.eigen.vectors[:, 2:])
    assert_array_equal(a1, f.eigen.vectors[:, :2])
    assert np.max(np.abs(a1.T @ a2)) <= 1e-10


@pytest.mark.parametrize("r", [-1, 4])
def test_split_rank_out_of_range(r):
    f = fit(np.random.default_rng(53).standard_normal((30, 3)), 2)
    with pytest.raises(InvalidRank):
        split(f, r)


@pytest.mark.parametrize("r", [1.5, True, "1"])
def test_split_rank_must_be_a_whole_number(r):
    f = fit(np.random.default_rng(53).standard_normal((30, 3)), 2)
    with pytest.raises(ValueError, match="r must be an integer"):
        split(f, r)
    for got, want in zip(split(f, 1.0), split(f, 1)):
        assert_array_equal(got, want)


def test_fit_j0_must_be_a_whole_number():
    y = np.random.default_rng(59).standard_normal((30, 3))
    with pytest.raises(ValueError, match="j0 must be an integer, got True"):
        fit(y, True)
    with pytest.raises(ValueError, match="j0 must be an integer, got 2.5"):
        fit(y, 2.5)


# ---------------------------------------------------------------------------
# scale invariance of the rank rules (panel level)


@pytest.mark.parametrize("s", [0.1, 10.0])
def test_rank_rules_scale_invariant(s):
    rng = np.random.default_rng(61)
    x = np.column_stack(
        [
            np.cumsum(np.cumsum(rng.standard_normal(300))),
            np.cumsum(rng.standard_normal(300)),
            rng.standard_normal(300),
        ]
    )
    a = rng.uniform(-3.0, 3.0, (3, 3))
    y = x @ a.T
    base = fit(y, 5)
    scaled = fit(s * y, 5)
    n = 300
    assert rank_ratio(scaled.eigen, n) == rank_ratio(base.eigen, n)
    for variant in ("omega1", "omega2", "omega3"):
        spec = PenaltySpec(variant)
        rb = rank_ic(base.eigen, penalty(spec, n, base.eigen.values[-1]))
        rs = rank_ic(scaled.eigen, penalty(spec, n, scaled.eigen.values[-1]))
        assert rs == rb
    assert rank_ratio_fractional(
        scaled.eigen, n, 1.2, 0.1
    ) == rank_ratio_fractional(base.eigen, n, 1.2, 0.1)


def test_example2_frequency_trend():
    # Correct-rank frequency for the (p=6, r=2) twice-integrated design is
    # non-decreasing in n, allowing one Monte Carlo inversion of <= 0.03.
    from dataclasses import replace

    from eigencoint.harness import _replicate_seed, preset_template
    from eigencoint.simgen import gen_panel

    tpl = preset_template("example2", 6, 2)
    freqs = []
    for j, n in enumerate((300, 1000, 2500)):
        hits = 0
        for k in range(200):
            panel = gen_panel(replace(tpl, n=n, seed=_replicate_seed(7, j, k)))
            f = fit(panel.y, 5)
            hits += rank_ratio(f.eigen, n) == 2
        freqs.append(hits / 200.0)
    drops = [max(0.0, freqs[i] - freqs[i + 1]) for i in range(2)]
    assert sum(d > 0 for d in drops) <= 1
    assert max(drops) <= 0.03


# ---------------------------------------------------------------------------
# column-permutation invariance on I(2) panels


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 1: on I(2) panels the stationary eigenvalues of W lie "
        "below eps * lambda_1, so eigh(W)'s rounding, which depends on column "
        "order, decides the ratio and IC ranks"
    ),
)
def test_rank_rules_invariant_to_column_permutation():
    # Reversing the columns of y relabels the series and changes no
    # statistic, so no rank rule may change its decision.
    from dataclasses import replace

    from eigencoint.harness import _replicate_seed, preset_template
    from eigencoint.simgen import gen_panel

    n = 2500
    tpl = preset_template("example3", 10, 6, 2)
    panels = gen_panel(
        [replace(tpl, n=n, seed=_replicate_seed(0, 0, k)) for k in range(40)]
    )

    def ranks(y):
        eigen = fit(y, 5).eigen
        out = {"ratio": rank_ratio(eigen, n)}
        for variant in ("omega1", "omega2", "omega3"):
            omega = penalty(PenaltySpec(variant), n, eigen.values[-1])
            out[f"ic_{variant}"] = rank_ic(eigen, omega)
        return out

    flipped = {}
    for panel in panels:
        base, permuted = ranks(panel.y), ranks(panel.y[:, ::-1])
        for rule in base:
            flipped[rule] = flipped.get(rule, 0) + (base[rule] != permuted[rule])
    assert flipped == dict.fromkeys(flipped, 0)


# ---------------------------------------------------------------------------
# BLAS thread count


def _numpy_blas_name() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


_FIT_DIGEST = """
import hashlib
from dataclasses import replace

from eigencoint.harness import _replicate_seed, preset_template
from eigencoint.ranksel import fit
from eigencoint.simgen import gen_panel

spec = replace(preset_template("example1", 28, 7), n=2500, seed=_replicate_seed(0, 0, 0))
fitted = fit(gen_panel(spec).y, 5)
digest = hashlib.sha256()
for array in (fitted.stack.w, fitted.eigen.values, fitted.eigen.vectors, fitted.x_hat):
    digest.update(array.tobytes())
print(digest.hexdigest())
"""


@pytest.mark.skipif("openblas" not in _numpy_blas_name().lower(),
                    reason="NumPy's BLAS is not OpenBLAS")
@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="fewer than 2 usable CPUs")
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 10: OpenBLAS threads the (p x n) @ (n x p) lag products "
        "from about p=28 up, and its threaded kernel rounds differently"
    ),
)
def test_fit_does_not_depend_on_blas_thread_count():
    # One example1 (28, 7) panel at n=2500, fitted in two child processes
    # that differ only in the OpenBLAS thread count.
    src = str(Path(eigencoint.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    digests = [
        subprocess.run(
            [sys.executable, "-c", _FIT_DIGEST],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        for threads in ("1", "2")
    ]
    assert digests[0] == digests[1]
