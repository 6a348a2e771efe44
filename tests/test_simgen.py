import hashlib
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eigencoint.errors import InvalidOrder, NonstationaryAR, SingularMixing
from eigencoint.harness import PRESET_CELLS, preset_template
from eigencoint.simgen import (
    DEFAULT_MIXING_LAW,
    ProcessBlock,
    ScenarioSpec,
    frac_coeffs,
    gen_arfima,
    gen_arima,
    gen_panel,
)
from eigencoint.subspace import true_b2


def make_stream(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


UNIFORM_STATIONARY = {"kind": "uniform", "low": -0.8, "high": 0.8}
ARIMA121_BLOCK = {
    "count": 4,
    "d": 2,
    "ar_law": {"kind": "uniform", "low": 0.3, "high": 0.8},
    "ma_law": {"kind": "uniform", "low": 0.0, "high": 0.95},
}


def acf1(series):
    """Lag-1 sample autocorrelation."""
    z = series - series.mean()
    return float(z[1:] @ z[:-1] / (z @ z))


# ---------------------------------------------------------------------------
# frac_coeffs

def test_frac_coeffs_alpha_one_is_all_ones():
    assert_array_equal(frac_coeffs(1.0, 3), np.ones(4))


@pytest.mark.parametrize("alpha", [0.4, 1.3, -0.3, 1.9, 0.7])
def test_frac_coeffs_first_coefficient_is_alpha(alpha):
    coeffs = frac_coeffs(alpha, 4)
    assert coeffs[0] == 1.0
    assert coeffs[1] == alpha


def test_frac_coeffs_second_coefficient_closed_form():
    # a_2 = alpha * (alpha + 1) / 2
    assert frac_coeffs(0.4, 2)[2] == pytest.approx(0.28, abs=1e-16)


@pytest.mark.parametrize("alpha", [0.4, 1.3, -0.3, 1.9])
def test_frac_coeffs_match_gamma_ratio(alpha):
    m = 25
    coeffs = frac_coeffs(alpha, m)
    oracle = [
        math.gamma(j + alpha) / (math.gamma(alpha) * math.gamma(j + 1))
        for j in range(m + 1)
    ]
    assert_allclose(coeffs, oracle, rtol=1e-12)


def test_frac_coeffs_alpha_zero_is_identity_filter():
    assert_array_equal(frac_coeffs(0.0, 4), [1.0, 0.0, 0.0, 0.0, 0.0])


def test_frac_coeffs_unit_order_partial_sums_are_integers():
    # cumulative sums of the d=1 (all-ones) filter count the terms exactly
    assert_array_equal(np.cumsum(frac_coeffs(1.0, 9)), np.arange(1.0, 11.0))


def test_frac_coeffs_m_zero():
    assert_array_equal(frac_coeffs(0.7, 0), [1.0])


def test_frac_coeffs_length():
    assert frac_coeffs(0.3, 17).shape == (18,)


@pytest.mark.parametrize("alpha", [-1.0, -2, -5.0])
def test_frac_coeffs_rejects_negative_integer_alpha(alpha):
    with pytest.raises(InvalidOrder, match="pole"):
        frac_coeffs(alpha, 3)


@pytest.mark.parametrize("m", [3.7, True, "3"])
def test_frac_coeffs_m_must_be_a_whole_number(m):
    with pytest.raises(ValueError, match="m must be an integer"):
        frac_coeffs(0.4, m)
    assert_array_equal(frac_coeffs(0.4, 3.0), frac_coeffs(0.4, 3))


def test_frac_coeffs_rejects_negative_m():
    with pytest.raises(InvalidOrder, match="m >= 0"):
        frac_coeffs(0.4, -1)


# ---------------------------------------------------------------------------
# gen_arima

def test_random_walk_endpoint_variance():
    # var(x_n / sqrt(n)) -> 1 for a pure random walk
    n, reps = 200, 1000
    rng = make_stream(20260818)
    endpoints = np.array(
        [gen_arima(n, d=1, rng=rng)[-1] / math.sqrt(n) for _ in range(reps)]
    )
    assert abs(endpoints.var(ddof=1) - 1.0) < 0.15


def test_ar1_lag_one_autocorrelation():
    x = gen_arima(10000, ar=(0.5,), rng=make_stream(7))
    assert abs(acf1(x) - 0.5) < 0.05


def test_pure_noise_returns_the_stream_draws():
    out = gen_arima(64, rng=make_stream(5))
    assert_array_equal(out, make_stream(5).standard_normal(64))


def test_single_integration_is_cumsum_of_core():
    core = gen_arima(100, ar=(0.5,), ma=(0.2,), rng=make_stream(3))
    walked = gen_arima(100, ar=(0.5,), d=1, ma=(0.2,), rng=make_stream(3))
    assert_array_equal(walked, np.cumsum(core))


def test_double_integration_inverts_under_differencing():
    x = gen_arima(500, ar=(0.4,), d=2, ma=(0.3,), rng=make_stream(11))
    core = gen_arima(500, ar=(0.4,), d=0, ma=(0.3,), rng=make_stream(11))
    # cumulative sums round, so recovery is near-exact rather than bitwise
    assert_allclose(np.diff(x, n=2), core[2:], rtol=0, atol=1e-9)


def test_ar1_matches_hand_recursion():
    eps = make_stream(9).standard_normal(50)
    expected = np.zeros(50)
    prev = 0.0
    for t in range(50):
        prev = 0.6 * prev + eps[t]
        expected[t] = prev
    assert_allclose(gen_arima(50, ar=(0.6,), rng=make_stream(9)), expected,
                    rtol=1e-12, atol=1e-12)


def test_ma1_matches_hand_recursion():
    eps = make_stream(13).standard_normal(40)
    expected = eps + 0.7 * np.concatenate(([0.0], eps[:-1]))
    assert_allclose(gen_arima(40, ma=(0.7,), rng=make_stream(13)), expected,
                    rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("q", range(4))
@pytest.mark.parametrize("k", range(4))
def test_gen_arima_matches_lfilter_bitwise(k, q):
    # MA-only filters (k == 0) take lfilter's convolution path, the others
    # its direct-form-II-transposed loop; both must agree bit for bit.
    from scipy.signal import lfilter

    coeffs = make_stream(100 + 4 * k + q)
    ar = coeffs.uniform(-0.3, 0.3, k)  # sum |ar| < 1: stationary
    ma = coeffs.uniform(-0.95, 0.95, q)
    for d in (0, 1, 2):
        for n in (1, 2, 777):
            expected = lfilter(
                np.concatenate(([1.0], ma)),
                np.concatenate(([1.0], -ar)),
                make_stream(n).standard_normal(n),
            )
            for _ in range(d):
                expected = np.cumsum(expected)
            got = gen_arima(n, ar=ar, d=d, ma=ma, rng=make_stream(n))
            assert got.tobytes() == expected.tobytes(), (d, n)


def test_same_stream_is_deterministic():
    a = gen_arima(200, ar=(0.3,), d=1, ma=(0.5,), rng=make_stream(42))
    b = gen_arima(200, ar=(0.3,), d=1, ma=(0.5,), rng=make_stream(42))
    assert_array_equal(a, b)


@pytest.mark.parametrize(
    "ar",
    [(1.0,), (1.05,), (-1.0,), (0.5, 0.5), (0.2, 0.9), (0.4, 0.4, 0.4),
     # Unit roots whose companion spectral radius rounds to just below 1:
     # the coefficients sum to exactly 1, then to 1 + 5.6e-17 in binary.
     (0.2, 0.2, 0.6), (0.4, 0.4, 0.2)],
)
def test_explosive_or_unit_root_ar_rejected(ar):
    with pytest.raises(NonstationaryAR):
        gen_arima(50, ar=ar, rng=make_stream(0))


def test_panel_names_the_first_nonstationary_drawn_coefficient():
    spec = ScenarioSpec(p=3, r=3, n=50, seed=0,
                        stationary_law={"kind": "grid", "values": [0.5, -1.0, 1.5]})
    with pytest.raises(NonstationaryAR, match=r"\(np.float64\(-1.0\),\) are not stationary"):
        gen_panel(spec)


def test_stationary_higher_order_ar_accepted():
    out = gen_arima(50, ar=(0.2, 0.1, 0.1), rng=make_stream(0))
    assert out.shape == (50,)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("generate, args", [(gen_arima, (50,)), (gen_arfima, (50, 0.3))])
def test_generators_require_a_stream(generate, args):
    with pytest.raises(TypeError, match="rng"):
        generate(*args)


@pytest.mark.parametrize("kwargs", [{"n": 0}, {"n": -3}])
def test_gen_arima_rejects_bad_length(kwargs):
    with pytest.raises(InvalidOrder, match="n >= 1"):
        gen_arima(rng=make_stream(0), **kwargs)


@pytest.mark.parametrize("n", [50.9, True, "50"])
def test_gen_arima_length_must_be_a_whole_number(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        gen_arima(n, rng=make_stream(0))
    assert_array_equal(gen_arima(50.0, rng=make_stream(0)), gen_arima(50, rng=make_stream(0)))


@pytest.mark.parametrize("d", [-1, 1.5])
def test_gen_arima_rejects_bad_order(d):
    with pytest.raises(InvalidOrder, match="non-negative integer"):
        gen_arima(50, d=d, rng=make_stream(0))


@pytest.mark.parametrize("d", [True, math.nan, math.inf, None, "1"],
                         ids=["True", "nan", "inf", "None", "str"])
def test_integration_order_names_a_value_that_is_not_whole(d):
    # A bool is not an order, and nan, inf, None or a string is not a
    # number: each raises InvalidOrder naming the value as given.
    with pytest.raises(InvalidOrder, match=f"non-negative integer, got {re.escape(repr(d))}$"):
        gen_arima(50, d=d, rng=make_stream(0))
    with pytest.raises(InvalidOrder, match=f"got {re.escape(repr(d))}$"):
        gen_arfima(50, d, rng=make_stream(0))
    whole = gen_arima(50, d=2.0, rng=make_stream(0))
    assert whole.tobytes() == gen_arima(50, d=2, rng=make_stream(0)).tobytes()


# ---------------------------------------------------------------------------
# gen_arfima

@pytest.mark.parametrize("d", [0.0, 1.0, 2.0])
def test_integer_orders_reproduce_gen_arima_bitwise(d):
    frac = gen_arfima(80, d, ar=(0.4,), ma=(0.1,), rng=make_stream(21))
    plain = gen_arima(80, ar=(0.4,), d=int(d), ma=(0.1,), rng=make_stream(21))
    assert_array_equal(frac, plain)


def test_fractional_white_noise_matches_convolution_oracle():
    n, d = 300, 0.3
    x = gen_arfima(n, d, rng=make_stream(17))
    eps = make_stream(17).standard_normal(n)
    coeffs = frac_coeffs(d, n - 1)
    oracle = np.zeros(n)
    for t in range(n):
        for j in range(t + 1):
            oracle[t] += coeffs[j] * eps[t - j]
    assert_allclose(x, oracle, rtol=1e-12, atol=1e-12)


def test_fractional_arma_matches_convolution_oracle():
    n, d = 200, 1.3
    x = gen_arfima(n, d, ar=(0.4,), ma=(0.2,), rng=make_stream(23))
    core = gen_arima(n, ar=(0.4,), ma=(0.2,), rng=make_stream(23))
    coeffs = frac_coeffs(d, n - 1)
    oracle = np.zeros(n)
    for t in range(n):
        for j in range(t + 1):
            oracle[t] += coeffs[j] * core[t - j]
    assert_allclose(x, oracle, rtol=1e-12, atol=1e-10)


@pytest.mark.parametrize("d", [0.5, 1.5, -0.5])
def test_half_integer_and_boundary_orders_rejected(d):
    with pytest.raises(InvalidOrder):
        gen_arfima(50, d, rng=make_stream(0))


@pytest.mark.parametrize("d", [2.5, -0.7, 3.0])
def test_out_of_range_orders_rejected(d):
    with pytest.raises(InvalidOrder, match=r"\(-1/2, 2\]"):
        gen_arfima(50, d, rng=make_stream(0))


@pytest.mark.parametrize("d", [-0.3, 0.3, 1.3, 2.0])
def test_valid_orders_produce_finite_series(d):
    out = gen_arfima(60, d, rng=make_stream(31))
    assert out.shape == (60,)
    assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# ProcessBlock / ScenarioSpec validation and serialization

@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"count": 0, "d": 1}, "positive integer"),
        ({"count": 1.5, "d": 1}, "positive integer"),
        ({"count": 1, "d": 0}, ">= 1"),
        ({"count": 1, "d": 0.4}, r"\(1/2, 2\]"),
        ({"count": 1, "d": 0.5}, r"\(1/2, 2\]"),
        ({"count": 1, "d": 2.5}, r"\(1/2, 2\]"),
        ({"count": True, "d": 1}, "positive integer"),
        ({"count": 1, "d": "1"}, "finite number"),
    ],
)
def test_process_block_rejects_bad_fields(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ProcessBlock(**kwargs)


@pytest.mark.parametrize("d", [1, 2, 1.3, 2.0, 0.6])
def test_process_block_accepts_valid_orders(d):
    block = ProcessBlock(count=2, d=d)
    assert block.count == 2


@pytest.mark.parametrize(
    "law, match",
    [
        ({"kind": "uniform", "low": 0.5, "high": 0.5}, "low < high"),
        ({"kind": "uniform", "low": 0.9, "high": 0.1}, "low < high"),
        ({"kind": "grid", "values": [0.1]}, "exactly 2 values"),
        ({"kind": "cauchy"}, "unknown law kind"),
        ("uniform", "law dict"),
        ({"kind": "uniform", "low": "-0.5", "high": "0.5"}, "finite numbers low < high"),
        ({"kind": "uniform", "low": False, "high": 0.5}, "finite numbers low < high"),
        ({"kind": "uniform", "low": float("-inf"), "high": 0.5}, "finite numbers low < high"),
        ({"kind": "uniform", "low": float("nan"), "high": 0.5}, "finite numbers low < high"),
        ({"kind": "grid", "values": [0.1, "0.2"]}, "finite numbers"),
        ({"kind": "grid", "values": [0.1, float("inf")]}, "finite numbers"),
        ({"kind": "grid", "values": [0.1, True]}, "finite numbers"),
    ],
)
def test_process_block_rejects_bad_laws(law, match):
    with pytest.raises(ValueError, match=match):
        ProcessBlock(count=2, d=1, ar_law=law)


def test_process_block_round_trip():
    block = ProcessBlock(**ARIMA121_BLOCK)
    assert ProcessBlock.from_dict(block.to_dict()) == block


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"p": 0, "r": 0}, "p >= 1"),
        ({"p": 3, "r": -1}, "0 <= r <= p"),
        ({"p": 3, "r": 4}, "0 <= r <= p"),
        ({"p": 3, "r": 3, "n": 9, "stationary_law": UNIFORM_STATIONARY}, "n >= 10"),
        ({"p": 3.5, "r": 3, "stationary_law": UNIFORM_STATIONARY}, "p must be an integer"),
        ({"p": 3, "r": 3, "n": 50.5, "stationary_law": UNIFORM_STATIONARY},
         "n must be an integer"),
        ({"p": 3, "r": 3, "seed": "1", "stationary_law": UNIFORM_STATIONARY},
         "seed must be an integer"),
    ],
)
def test_scenario_spec_rejects_bad_dimensions(kwargs, match):
    kwargs.setdefault("n", 50)
    with pytest.raises(ValueError, match=match):
        ScenarioSpec(**kwargs)


def test_scenario_spec_rejects_block_count_mismatch():
    with pytest.raises(ValueError, match="expected p - r"):
        ScenarioSpec(
            p=4,
            r=1,
            n=50,
            stationary_law=UNIFORM_STATIONARY,
            nonstationary_blocks=({"count": 2, "d": 1},),
        )


def test_scenario_spec_requires_stationary_law_when_r_positive():
    with pytest.raises(ValueError, match="coefficient law"):
        ScenarioSpec(p=2, r=1, n=50, nonstationary_blocks=({"count": 1, "d": 1},))


@pytest.mark.parametrize(
    "law",
    [
        {"kind": "hadamard"},
        {"kind": "uniform", "low": 2.0, "high": 1.0},
        {"kind": "uniform", "low": float("-inf"), "high": 3.0},
        {"kind": "uniform", "low": "-3", "high": "3"},
        {"kind": "uniform", "low": -3.0, "high": float("nan")},
        None,
    ],
)
def test_scenario_spec_rejects_bad_mixing_law(law):
    with pytest.raises(ValueError):
        ScenarioSpec(
            p=2,
            r=2,
            n=50,
            stationary_law=UNIFORM_STATIONARY,
            mixing_law=law,
        )


def example2_spec(n=500, seed=11):
    return ScenarioSpec(
        p=6,
        r=2,
        n=n,
        stationary_law=dict(UNIFORM_STATIONARY),
        nonstationary_blocks=(dict(ARIMA121_BLOCK),),
        seed=seed,
    )


def test_scenario_spec_json_round_trip():
    spec = example2_spec()
    again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert again.nonstationary_blocks[0] == ProcessBlock(**ARIMA121_BLOCK)


@pytest.mark.parametrize(
    "data, match",
    [
        ({"p": 1, "r": 1, "stationary_law": UNIFORM_STATIONARY, "mixing": {"kind": "identity"}},
         r"unknown scenario fields: \['mixing'\]"),
        ({"p": 2, "r": 1, "stationary_law": UNIFORM_STATIONARY,
          "nonstationary_blocks": [{"count": 1, "d": 1, "ma_laws": None}]},
         r"unknown block fields: \['ma_laws'\]"),
    ],
)
def test_scenario_spec_from_dict_rejects_unknown_keys(data, match):
    with pytest.raises(ValueError, match=match):
        ScenarioSpec.from_dict(data)


def test_scenario_spec_stores_whole_float_fields_as_integers():
    data = dict(example2_spec().to_dict(), p=6.0, r=2.0, n=500.0, seed=11.0,
                nonstationary_blocks=[dict(ARIMA121_BLOCK, count=4.0)])
    spec = ScenarioSpec.from_dict(data)
    assert spec == example2_spec()
    assert all(type(v) is int for v in (spec.p, spec.r, spec.n, spec.seed))
    assert type(spec.nonstationary_blocks[0].count) is int
    assert spec.to_dict() == example2_spec().to_dict()


def test_scenario_spec_dict_defaults():
    spec = ScenarioSpec.from_dict(
        {"p": 1, "r": 1, "n": 20, "stationary_law": UNIFORM_STATIONARY}
    )
    assert spec.mixing_law == DEFAULT_MIXING_LAW
    assert spec.seed == 0


def test_open_scenario_spec_round_trips_without_n_or_seed():
    spec = replace(example2_spec(), n=None, name="p6_r2")
    data = spec.to_dict()
    assert list(data) == [
        "name", "p", "r", "stationary_law", "nonstationary_blocks", "mixing_law",
    ]
    assert ScenarioSpec.from_dict(data) == replace(spec, seed=0)
    assert ScenarioSpec.from_dict(json.loads(json.dumps(data))) == replace(spec, seed=0)
    closed = replace(spec, n=300, seed=4)
    assert closed.to_dict() == dict(data, n=300, seed=4)
    assert ScenarioSpec.from_dict(closed.to_dict()) == closed


def test_gen_panel_rejects_open_spec():
    spec = replace(example2_spec(), n=None)
    with pytest.raises(ValueError, match="leaves n open"):
        gen_panel(spec)
    with pytest.raises(ValueError, match="leaves n open"):
        gen_panel([replace(spec, seed=s) for s in (1, 2)])


def test_scenario_spec_fractional_flags():
    integer = example2_spec()
    assert not integer.is_fractional
    assert integer.d_min == 2.0
    frac = ScenarioSpec(
        p=2,
        r=1,
        n=50,
        stationary_law=UNIFORM_STATIONARY,
        nonstationary_blocks=({"count": 1, "d": 1.4},),
    )
    assert frac.is_fractional
    assert frac.d_min == 1.4
    all_stationary = ScenarioSpec(p=2, r=2, n=50, stationary_law=UNIFORM_STATIONARY)
    assert all_stationary.d_min == math.inf


# ---------------------------------------------------------------------------
# gen_panel

def test_identity_mixing_returns_latents_verbatim():
    spec = ScenarioSpec(
        p=2,
        r=2,
        n=50,
        stationary_law=UNIFORM_STATIONARY,
        mixing_law={"kind": "identity"},
        seed=3,
    )
    panel = gen_panel(spec)
    assert_array_equal(panel.y, panel.x)
    assert_array_equal(panel.mixing, np.eye(2))


def test_panel_shapes_and_true_rank():
    panel = gen_panel(example2_spec())
    assert panel.y.shape == (500, 6)
    assert panel.x.shape == (500, 6)
    assert panel.mixing.shape == (6, 6)
    assert panel.b2.shape == (6, 2)
    assert panel.true_r == 2


def test_same_spec_is_bit_identical():
    a = gen_panel(example2_spec())
    b = gen_panel(example2_spec())
    assert_array_equal(a.y, b.y)
    assert_array_equal(a.x, b.x)
    assert_array_equal(a.mixing, b.mixing)
    assert_array_equal(a.b2, b.b2)


def test_distinct_seeds_differ():
    a = gen_panel(example2_spec(seed=11))
    b = gen_panel(example2_spec(seed=12))
    assert not np.array_equal(a.y, b.y)


def test_panel_is_exactly_mixed():
    panel = gen_panel(example2_spec())
    assert_allclose(panel.y, panel.x @ panel.mixing.T, rtol=0, atol=1e-12)


def test_y_is_mixed_anew_on_each_read():
    panel = gen_panel(example2_spec())
    y = panel.y
    assert y is not panel.y
    out = np.empty_like(y)
    assert panel.mix(out=out) is out
    assert out.tobytes() == y.tobytes() == (panel.x @ panel.mixing.T).tobytes()
    y[0] = np.nan  # a write to one read does not reach the panel
    assert np.all(np.isfinite(panel.y))


def test_default_mixing_entries_in_range():
    panel = gen_panel(example2_spec())
    assert np.all(np.abs(panel.mixing) <= 3.0)
    assert np.linalg.cond(panel.mixing) <= 1e10


def test_orthogonal_mixing_is_orthonormal():
    spec = ScenarioSpec(
        p=5,
        r=2,
        n=50,
        stationary_law=UNIFORM_STATIONARY,
        nonstationary_blocks=({"count": 3, "d": 1},),
        mixing_law={"kind": "orthogonal"},
        seed=8,
    )
    panel = gen_panel(spec)
    q = panel.mixing
    assert_allclose(q.T @ q, np.eye(5), rtol=0, atol=1e-10)
    # for an orthogonal mixing the comparison basis is its last r columns
    assert_allclose(panel.b2, q[:, 3:], rtol=0, atol=1e-10)


def test_degenerate_mixing_law_raises_after_retries():
    spec = ScenarioSpec(
        p=3,
        r=3,
        n=50,
        stationary_law=UNIFORM_STATIONARY,
        mixing_law={"kind": "uniform", "low": 1.0 - 1e-13, "high": 1.0 + 1e-13},
        seed=1,
    )
    with pytest.raises(SingularMixing, match="condition"):
        gen_panel(spec)


def test_nonstationary_components_dominate_cointegrating_combinations():
    # each observed component wanders (lag-1 autocorrelation near 1) while
    # the combinations b2' y recover the stationary latents
    panel = gen_panel(example2_spec())
    for j in range(6):
        assert acf1(panel.y[:, j]) > 0.95
    combos = panel.y @ panel.b2
    for j in range(2):
        assert abs(acf1(combos[:, j])) < 0.95
        assert_allclose(combos[:, j], panel.x[:, 4 + j], rtol=0, atol=1e-8)


@pytest.mark.parametrize("n", [500, 2000])
def test_differencing_integer_latents_stabilizes_autocovariance(n):
    spec = ScenarioSpec(
        p=3,
        r=1,
        n=n,
        stationary_law=UNIFORM_STATIONARY,
        nonstationary_blocks=(dict(ARIMA121_BLOCK, count=2),),
        seed=29,
    )
    panel = gen_panel(spec)
    for j in range(2):
        w = np.diff(panel.x[:, j], n=2)
        z = w - w.mean()
        acov1 = z[1:] @ z[:-1] / w.size
        assert abs(acov1) < 15.0


def test_grid_laws_run_deterministically():
    spec = ScenarioSpec(
        p=4,
        r=2,
        n=60,
        stationary_law={"kind": "grid", "values": [-0.8, 0.0]},
        nonstationary_blocks=(
            {
                "count": 2,
                "d": 1,
                "ar_law": {"kind": "grid", "values": [0.55, 0.8]},
                "ma_law": {"kind": "grid", "values": [0.5, 0.8]},
            },
        ),
        seed=4,
    )
    a = gen_panel(spec)
    b = gen_panel(spec)
    assert_array_equal(a.y, b.y)
    assert np.all(np.isfinite(a.y))


FRACTIONAL_SPEC = ScenarioSpec(
    p=5,
    r=1,
    n=300,
    stationary_law=UNIFORM_STATIONARY,
    nonstationary_blocks=(
        dict(ARIMA121_BLOCK, count=2, d=1.4),
        {"count": 1, "d": 2},
        {"count": 1, "d": 0.7, "ma_law": {"kind": "grid", "values": [0.4]}},
    ),
)


def three_seed_batch(template):
    """Specs of ``template`` (of ``FRACTIONAL_SPEC`` when None) at n=300 and
    seeds 0, 1 and 2**63 + 5."""
    seeds = (0, 1, 2**63 + 5)
    if template is None:
        return [ScenarioSpec.from_dict(dict(FRACTIONAL_SPEC.to_dict(), seed=s))
                for s in seeds]
    return [replace(template, n=300, seed=s) for s in seeds]


@pytest.mark.parametrize(
    "template",
    [preset_template(name, *cells[-1]) for name, cells in PRESET_CELLS.items()]
    + [None],
    ids=list(PRESET_CELLS) + ["fractional"],
)
def test_batch_equals_panels_generated_one_by_one(template):
    specs = three_seed_batch(template)
    batch = gen_panel(specs)
    assert len(batch) == len(specs)
    for spec, panel in zip(specs, batch):
        alone = gen_panel(spec)
        for field in ("y", "mixing", "b2", "x"):
            got, expected = getattr(panel, field), getattr(alone, field)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), field
        assert panel.true_r == alone.true_r
    assert gen_panel([]) == []


# sha256 of each field's bytes over a three_seed_batch, computed with the
# out-of-place filter and integration that the in-place ones replaced, so
# they pin that no bit moved.  Each preset's last cell with p <= 20 is used:
# there ``y = x @ mixing.T`` does not depend on the BLAS thread count.
PINNED_PANEL_DIGESTS = {
    "example1": {
        "y": "9fe50118a1ca2242682a740b867baca82e5e60614e771d4055d40e3e7e35f960",
        "mixing": "efb8972e99254a27aaf2357713312677abd85332e32e4a9bbd401448942472f2",
        "b2": "0e9929a2dbf90c32b627bad18b1a2df2f79a5f385b93ce574d7fb4fa91d4d993",
        "x": "27e0ab6a22a7bea77c1468f0cd0ab9cfacd0f0abde24ac99d54e208886b515c4",
    },
    "example2": {
        "y": "95e0ce9d604fadb3c49de8c2f74049fbe7d18edb2e5cd741be40b1882733d965",
        "mixing": "efb8972e99254a27aaf2357713312677abd85332e32e4a9bbd401448942472f2",
        "b2": "209ef62783bfa08432c0d8e820959cf059977935b6becbaf51a8aa0c0f3a0f09",
        "x": "a3c5137adf0744ce536e47509fff356f5f14f6f2efc0b389d64a54e76fa300c9",
    },
    "example3": {
        "y": "2f309d7a16b868a626ab8ebb620e7d33a675418bebfe2d9090922835067d534a",
        "mixing": "efb8972e99254a27aaf2357713312677abd85332e32e4a9bbd401448942472f2",
        "b2": "209ef62783bfa08432c0d8e820959cf059977935b6becbaf51a8aa0c0f3a0f09",
        "x": "9eff4abcf7e4d09188704b9230fee32ee752d8caeac2d6c5e5fb669b955aadf4",
    },
    "fractional": {
        "y": "d07261487f35e04aa5503432d4361dd3806e14e16552e4c6a7619b8d74eae853",
        "mixing": "03f3627a0d37c2de2801fbdb88955769fcfe72afb41f1a0019f0be41300f7e60",
        "b2": "775cb20ec1305d44b0e6b4d4972e9bc5377574bd550caedb4f2d3991c50bd076",
        "x": "1eee49770a317d3319fa0e27b1f2b493ddad22468a0163e6adc3968d54a555b9",
    },
}


@pytest.mark.parametrize("name", list(PINNED_PANEL_DIGESTS))
def test_batch_panels_match_pinned_digests(name):
    template = None
    if name != "fractional":
        template = preset_template(name, *[c for c in PRESET_CELLS[name] if c[0] <= 20][-1])
    panels = gen_panel(three_seed_batch(template))
    for field, expected in PINNED_PANEL_DIGESTS[name].items():
        data = b"".join(getattr(panel, field).tobytes() for panel in panels)
        assert hashlib.sha256(data).hexdigest() == expected, field


def test_batch_peak_memory_is_about_two_panel_sets():
    # The batch array (the latents) and the mixed panels are the only
    # full-size arrays: the filter and integration run in place, and each
    # panel's ``x`` is a view of the batch array.
    specs = [replace(preset_template("example2", 10, 4), n=1000, seed=s) for s in range(100)]
    gen_panel(specs[:2])  # lazy imports inside NumPy stay out of the peak
    tracemalloc.start()
    try:
        panels = gen_panel(specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * sum(panel.y.nbytes for panel in panels)
    assert all(panel.x.base is panels[0].x.base is not None for panel in panels)


def test_batch_peak_memory_is_about_one_panel_set():
    # Each panel's ``y`` is mixed when it is read, so the batch array (the
    # latents) is the only full-size array a batch makes.
    specs = [replace(preset_template("example2", 10, 4), n=1000, seed=s) for s in range(100)]
    gen_panel(specs[:2])  # lazy imports inside NumPy stay out of the peak
    tracemalloc.start()
    try:
        panels = gen_panel(specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * panels[0].x.base.nbytes
    assert panels[0].x.base.nbytes == 100 * 1000 * 10 * 8


@pytest.mark.parametrize(
    "change",
    [
        {"n": 301},
        {"stationary_law": {"kind": "uniform", "low": -0.5, "high": 0.5}},
        {"mixing_law": {"kind": "orthogonal"}},
        {"nonstationary_blocks": (dict(ARIMA121_BLOCK, d=1),)},
    ],
)
def test_batch_rejects_specs_differing_beyond_seed(change):
    spec = example2_spec(seed=1)
    other = ScenarioSpec.from_dict(dict(spec.to_dict(), seed=2, **change))
    gen_panel([spec, ScenarioSpec.from_dict(dict(spec.to_dict(), seed=2))])
    with pytest.raises(ValueError, match="differ only in seed"):
        gen_panel([spec, other])


@pytest.mark.parametrize("law", [DEFAULT_MIXING_LAW, {"kind": "orthogonal"},
                                 {"kind": "identity"}])
def test_each_panel_carries_the_factor_of_its_b2(law):
    template = replace(preset_template("example2", 6, 2), mixing_law=law)
    specs = [replace(template, n=100, seed=s) for s in range(6)]
    for panel in gen_panel(specs) + [gen_panel(specs[0])]:
        expected = np.linalg.qr(true_b2(panel.mixing, 2))[0]
        assert panel.b2_q.shape == expected.shape
        assert panel.b2_q.tobytes() == expected.tobytes()
    spec = replace(specs[0], r=0, stationary_law=None,
                   nonstationary_blocks=(dict(ARIMA121_BLOCK, count=6),))
    assert gen_panel(spec).b2_q is None


def test_batch_redraws_only_its_ill_conditioned_mixings(monkeypatch):
    # With the ceiling at the median condition of the first draws, about
    # half the members need a redraw, some more than one; each member still
    # gets the matrix it gets alone, and the batch checks each round in one
    # stacked call.
    import eigencoint.simgen as simgen

    specs = [replace(preset_template("example2", 6, 2), n=50, seed=s) for s in range(16)]
    firsts = [np.linalg.cond(simgen.derive_stream(s.seed, 2, 0).uniform(-3, 3, (6, 6)))
              for s in specs]
    monkeypatch.setattr(simgen, "MIXING_COND_LIMIT", float(np.median(firsts)))
    cond = np.linalg.cond
    checked = []
    monkeypatch.setattr(np.linalg, "cond", lambda a: checked.append(len(a)) or cond(a))
    batch = gen_panel(specs)
    assert checked[0] == 16 and 0 < checked[1] < 16 and len(checked) < 10
    monkeypatch.setattr(np.linalg, "cond", cond)
    for spec, panel in zip(specs, batch):
        assert panel.mixing.tobytes() == gen_panel(spec).mixing.tobytes()
        assert np.linalg.cond(panel.mixing) <= simgen.MIXING_COND_LIMIT


def test_batch_raises_singular_mixing_when_any_member_runs_out_of_draws():
    spec = ScenarioSpec(p=3, r=3, n=50, stationary_law=UNIFORM_STATIONARY,
                        mixing_law={"kind": "uniform", "low": 1.0 - 1e-13, "high": 1.0 + 1e-13})
    with pytest.raises(SingularMixing, match="seed 5"):
        gen_panel([replace(spec, seed=s) for s in (5, 6)])
