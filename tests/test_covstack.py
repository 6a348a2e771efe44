import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eigencoint.covstack import DEFAULT_J0, as_panel, build_stack
from eigencoint.errors import InvalidSeries, LagTooLarge


def naive_lag_cov(y, j):
    """Literal triple-loop transcription of the defining sum."""
    n, p = y.shape
    ybar = y.mean(axis=0)
    out = np.zeros((p, p))
    for t in range(n - j):
        for a in range(p):
            for b in range(p):
                out[a, b] += (y[t + j, a] - ybar[a]) * (y[t, b] - ybar[b])
    return out / n


def naive_stack_w(y, j0):
    w = np.zeros((y.shape[1],) * 2)
    for j in range(j0 + 1):
        s = naive_lag_cov(y, j)
        w += s @ s.T
    return (w + w.T) / 2.0


def test_as_panel_validates():
    y = as_panel([[1.0, 2.0], [3.0, 4.0]])
    assert y.shape == (2, 2)
    with pytest.raises(InvalidSeries):
        as_panel([1.0, 2.0, 3.0])  # 1-D
    with pytest.raises(InvalidSeries):
        as_panel([[1.0, 2.0]])  # n < 2
    with pytest.raises(InvalidSeries):
        as_panel([[1.0], [np.nan]])


def lag_cov(y, j):
    """``S_j`` as :func:`build_stack` computes it."""
    return build_stack(y, j).sigmas[j]


def test_lag_cov_constant_series_is_zero():
    # 4.5 is exactly representable and its mean over 10 points is exact, so
    # demeaning annihilates the panel bit-for-bit.
    y = np.full((10, 3), 4.5)
    for j in range(0, 8):
        assert_array_equal(lag_cov(y, j), np.zeros((3, 3)))
    # An inexactly represented constant still vanishes to rounding error.
    y = np.full((10, 3), 4.2)
    for j in range(0, 8):
        assert np.max(np.abs(lag_cov(y, j))) <= 1e-13


def test_lag_cov_univariate_hand_example():
    # y = (1, 2, 3): mean 2, deviations (-1, 0, 1).
    y = np.array([[1.0], [2.0], [3.0]])
    assert_allclose(lag_cov(y, 0), np.array([[2.0 / 3.0]]), rtol=1e-15)
    assert_array_equal(lag_cov(y, 1), np.array([[0.0]]))


def test_lag_cov_divisor_is_n_not_n_minus_j():
    # With divisor n the lag-1 value of (0, 1, 0, 1) differs from the n-j
    # normalization by the factor (n-1)/n.
    y = np.array([[0.0], [1.0], [0.0], [1.0]])
    ybar = 0.5
    expected = sum(
        (y[t + 1, 0] - ybar) * (y[t, 0] - ybar) for t in range(3)
    ) / 4.0
    assert_allclose(lag_cov(y, 1)[0, 0], expected, rtol=1e-15)
    assert expected == -3.0 / 16.0


@pytest.mark.parametrize("j", [-1, 9, 10, 50])
def test_lag_cov_lag_bounds(j):
    y = np.arange(20.0).reshape(10, 2)
    with pytest.raises(LagTooLarge):
        lag_cov(y, j)


@pytest.mark.parametrize("j0", [2.5, True, "2"])
def test_build_stack_j0_must_be_a_whole_number(j0):
    y = np.arange(20.0).reshape(10, 2) ** 2
    with pytest.raises(ValueError, match="j0 must be an integer"):
        build_stack(y, j0)
    assert_array_equal(build_stack(y, 2.0).w, build_stack(y, 2).w)
    assert build_stack(y, 2.0).j0 == 2


def test_lag_cov_rejects_non_finite():
    y = np.ones((6, 2))
    y[3, 1] = np.inf
    with pytest.raises(InvalidSeries):
        lag_cov(y, 1)


def test_build_stack_j0_zero():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((30, 3))
    stack = build_stack(y, 0)
    s0 = naive_lag_cov(y, 0)
    assert_allclose(stack.w, s0 @ s0.T, rtol=1e-12)
    assert len(stack.sigmas) == 1


def test_build_stack_hand_panel_matches_oracle():
    y = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 3.0], [-2.0, 0.5]])
    stack = build_stack(y, 1)
    assert np.max(np.abs(stack.w - naive_stack_w(y, 1))) <= 1e-12


def test_build_stack_constant_panel_zero():
    stack = build_stack(np.full((12, 2), 3.0), 4)
    assert_array_equal(stack.w, np.zeros((2, 2)))


def test_build_stack_fields():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((40, 4))
    stack = build_stack(y, 3)
    assert stack.j0 == 3
    assert stack.p == 4
    assert len(stack.sigmas) == 4
    assert_array_equal(stack.mean, y.mean(axis=0))
    assert_array_equal(stack.w, stack.w.T)
    # w equals the sum of sigma_j sigma_j' within 1e-10 relative max-abs
    total = sum(s @ s.T for s in stack.sigmas)
    scale = np.max(np.abs(total))
    assert np.max(np.abs(stack.w - total)) <= 1e-10 * scale


def test_build_stack_default_j0_constant():
    assert DEFAULT_J0 == 5


def test_oracle_equivalence_seeded_batch():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(10, 51))
        p = int(rng.integers(1, 7))
        j0 = int(rng.integers(0, min(6, n - 1)))
        y = rng.standard_normal((n, p)) * rng.uniform(0.5, 5.0)
        stack = build_stack(y, j0)
        oracle = naive_stack_w(y, j0)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(stack.w - oracle)) <= 1e-12 * scale


def test_translation_invariance():
    rng = np.random.default_rng(21)
    y = rng.standard_normal((60, 3))
    shift = np.array([5.0, -2.0, 11.0])
    w0 = build_stack(y, 4).w
    w1 = build_stack(y + shift, 4).w
    assert np.max(np.abs(w1 - w0)) <= 1e-9


def test_psd_random_directions():
    rng = np.random.default_rng(13)
    y = np.cumsum(rng.standard_normal((80, 4)), axis=0)
    w = build_stack(y, 5).w
    lam_max = np.max(np.linalg.eigvalsh(w))
    for _ in range(100):
        a = rng.standard_normal(4)
        a /= np.linalg.norm(a)
        assert a @ w @ a >= -1e-9 * (1.0 + lam_max)


@pytest.mark.parametrize("s", [0.1, 10.0])
def test_scaling_by_s_rescales_w_by_s4(s):
    rng = np.random.default_rng(31)
    y = rng.standard_normal((50, 3))
    w = build_stack(y, 3).w
    ws = build_stack(s * y, 3).w
    assert_allclose(ws, s**4 * w, rtol=1e-8)


def test_build_stack_j0_too_large():
    y = np.random.default_rng(1).standard_normal((10, 2))
    with pytest.raises(LagTooLarge):
        build_stack(y, 9)
    with pytest.raises(LagTooLarge):
        build_stack(y, -1)


def test_stacked_build_stack_matches_each_panel_bitwise():
    rng = np.random.default_rng(19)
    ys = np.cumsum(rng.standard_normal((3, 60, 4)), axis=1)
    stacked = build_stack(ys, 3)
    assert stacked.p == 4
    assert stacked.w.shape == (3, 4, 4) and stacked.mean.shape == (3, 4)
    for k, y in enumerate(ys):
        alone = build_stack(y, 3)
        for s_stacked, s_alone in zip(stacked.sigmas, alone.sigmas):
            assert_array_equal(s_stacked[k], s_alone, strict=True)
        assert_array_equal(stacked.w[k], alone.w, strict=True)
        assert_array_equal(stacked.mean[k], alone.mean, strict=True)


@pytest.mark.parametrize("shape", [(5,), (2, 2, 5, 3)], ids=["1-D", "4-D"])
def test_build_stack_rejects_other_ranks(shape):
    with pytest.raises(InvalidSeries, match="ndim"):
        build_stack(np.zeros(shape), 1)
    with pytest.raises(InvalidSeries, match="ndim"):
        as_panel(np.zeros((2, 5, 3)))
