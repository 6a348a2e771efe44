import importlib.util
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eigencoint import baselines
from eigencoint.baselines import (
    CriticalTable,
    bartlett_bandwidth,
    derive_stream,
    johansen_trace,
    sequential_unit_root,
    trace_critical_table,
    unit_root_critical_table,
    unit_root_stat,
)
from eigencoint.errors import DegenerateComponent, InvalidSeries, SingularMoments

META = {"T": 100, "reps": 1000, "seed": 0, "statistic": "trace"}


def hand_table(dims, values, levels=(0.05,)):
    return CriticalTable(dims=dims, levels=levels, values=values, meta=META)


@pytest.fixture(scope="module")
def trace_table():
    return trace_critical_table(dims=(1, 2, 3), T=1000, reps=2000, seed=0)


@pytest.fixture(scope="module")
def ur_table():
    return unit_root_critical_table(1000, reps=2000, seed=0)


# ---------------------------------------------------------------------------
# CriticalTable

def test_value_lookup():
    table = hand_table((1, 2), [[3.0, 2.5], [11.0, 10.0]], levels=(0.05, 0.10))
    assert table.value(1, 0.05) == 3.0
    assert table.value(2, 0.10) == 10.0


def test_value_missing_dim():
    with pytest.raises(ValueError, match="no dimension 4"):
        hand_table((1,), [[3.0]]).value(4, 0.05)


def test_value_missing_level():
    with pytest.raises(ValueError, match="no level"):
        hand_table((1,), [[3.0]]).value(1, 0.01)


def test_merged_unions_dimensions():
    merged = hand_table((1, 3), [[3.0], [30.0]]).merged(hand_table((2,), [[15.0]]))
    assert merged.dims == (1, 2, 3)
    assert_array_equal(merged.values, [[3.0], [15.0], [30.0]])


def test_merged_overlap_prefers_other():
    merged = hand_table((1, 2), [[3.0], [15.0]]).merged(hand_table((2,), [[16.0]]))
    assert merged.dims == (1, 2)
    assert merged.value(2, 0.05) == 16.0


def test_merged_rejects_incompatible_tables():
    base = hand_table((1,), [[3.0]])
    other_levels = hand_table((2,), [[15.0, 12.0]], levels=(0.05, 0.10))
    with pytest.raises(ValueError, match="different levels or meta"):
        base.merged(other_levels)
    other_meta = CriticalTable(
        dims=(2,), levels=(0.05,), values=np.array([[15.0]]),
        meta=dict(META, seed=99),
    )
    with pytest.raises(ValueError, match="different levels or meta"):
        base.merged(other_meta)


def test_merged_tables_without_dims_is_empty():
    empty = trace_critical_table(dims=(), T=100, reps=1000)
    merged = empty.merged(empty)
    assert merged.dims == ()
    assert merged.values.shape == (0, 1)
    one = CriticalTable(dims=(2,), levels=empty.levels, values=np.array([[15.0]]),
                        meta=empty.meta)
    both = empty.merged(one)
    assert both.dims == (2,)
    assert_array_equal(both.values, [[15.0]])


def test_table_from_lists_equals_table_from_arrays():
    # Published values are typed in as nested lists.
    typed = CriticalTable(dims=(1, 2), levels=[0.05], values=[[1.0], [2.0]], meta={})
    assert typed.value(2, 0.05) == 2.0
    assert typed.levels == (0.05,)
    assert typed.values.dtype == float
    built = CriticalTable(dims=(1, 2), levels=(0.05,), values=np.array([[1.0], [2.0]]), meta={})
    assert typed.to_dict() == built.to_dict()
    again = CriticalTable.from_dict(typed.to_dict())
    assert (again.dims, again.levels, again.meta) == (typed.dims, typed.levels, typed.meta)
    assert again.values.tobytes() == typed.values.tobytes()
    empty = CriticalTable(dims=(), levels=(0.05,), values=[], meta={})
    assert empty.values.shape == (0, 1)


def test_table_keeps_its_own_meta():
    meta = dict(META)
    table = CriticalTable(dims=(1,), levels=(0.05,), values=[[3.0]], meta=meta)
    meta["seed"] = 99
    assert table.meta == META


def test_table_json_round_trip():
    table = hand_table((1, 2), [[3.0, 2.5], [11.0, 10.0]], levels=(0.05, 0.10))
    again = CriticalTable.from_dict(json.loads(json.dumps(table.to_dict())))
    assert again.dims == table.dims
    assert again.levels == table.levels
    assert again.meta == table.meta
    assert_array_equal(again.values, table.values)


@pytest.mark.parametrize(
    "dims, values",
    [
        ((1, 2), [[3.0]]),  # a row missing
        ((1,), [[3.0], [15.0]]),  # a row too many
        ((1,), [[3.0, 2.5]]),  # a column too many
        ((1,), [3.0]),  # not one row per dim
        ((1, 2), [[3.0], [np.nan]]),
        ((1,), [[np.inf]]),
    ],
    ids=["short", "long", "wide", "flat", "nan", "inf"],
)
def test_table_rejects_values_that_do_not_fit_or_are_not_finite(dims, values):
    with pytest.raises(ValueError, match=r"need finite values of shape \(\d+, 1\)"):
        CriticalTable(dims=dims, levels=(0.05,), values=np.asarray(values), meta=dict(META))
    data = {"dims": list(dims), "levels": [0.05], "values": values, "meta": META}
    with pytest.raises(ValueError, match="need finite values"):
        CriticalTable.from_dict(json.loads(json.dumps(data)))


@pytest.mark.parametrize(
    "dims, match",
    [
        ((1.5, 2.9), "dim must be an integer, got 1.5"),
        ((1, True), "dim must be an integer, got True"),
        ((2, 1, 1), r"need strictly ascending dims, got \[2, 1, 1\]"),
        ((1, 1), "need strictly ascending dims"),
        ((2, 1), "need strictly ascending dims"),
    ],
    ids=["fraction", "bool", "descending-repeat", "repeat", "descending"],
)
def test_table_rejects_dims_that_are_not_whole_or_strictly_ascending(dims, match):
    values = np.arange(1.0, len(dims) + 1.0)[:, None]
    with pytest.raises(ValueError, match=match):
        CriticalTable(dims=dims, levels=(0.05,), values=values, meta=dict(META))
    data = {"dims": list(dims), "levels": [0.05], "values": values.tolist(), "meta": META}
    with pytest.raises(ValueError, match=match):
        CriticalTable.from_dict(json.loads(json.dumps(data)))


def test_table_dims_accept_whole_floats():
    data = {"dims": [1.0, 2], "levels": [0.05], "values": [[3.0], [15.0]], "meta": META}
    table = CriticalTable.from_dict(data)
    assert table.dims == (1, 2) and all(type(d) is int for d in table.dims)
    assert table.value(2, 0.05) == 15.0


def test_empty_tables_round_trip():
    for empty in (trace_critical_table(dims=(), levels=(0.05, 0.1), T=100, reps=1000),
                  unit_root_critical_table(n=(), levels=(0.05, 0.1), reps=1000)):
        data = json.loads(json.dumps(empty.to_dict()))
        assert data["values"] == []
        again = CriticalTable.from_dict(data)
        assert (again.dims, again.levels, again.meta) == (empty.dims, empty.levels, empty.meta)
        assert again.values.shape == empty.values.shape == (0, 2)
        assert again.merged(empty).values.shape == (0, 2)


def test_merged_names_the_first_difference():
    new = dict(META, sampler="nested-dot")
    base = CriticalTable(dims=(1,), levels=(0.05,), values=np.array([[3.0]]), meta=new)

    def why(levels, meta):
        other = CriticalTable(dims=(2,), levels=levels, values=np.full((1, len(levels)), 15.0),
                              meta=meta)
        with pytest.raises(ValueError) as info:
            other.merged(base)
        message = str(info.value)
        assert message.startswith("cannot merge tables with different levels or meta: ")
        return message.split(": ", 1)[1]

    # The sampler tag comes first, even when the levels and other keys differ too.
    assert why((0.1,), dict(META, seed=9)) == (
        "it has no sampler tag, from an older sampler than 'nested-dot'")
    assert why((0.1,), dict(new, sampler="nested", seed=9)) == (
        "it has sampler tag 'nested', from an older sampler than 'nested-dot'")
    # Then the levels, then every meta key that differs, sorted.
    assert why((0.1,), dict(new, seed=9)) == "its levels [0.1] are not this run's [0.05]"
    assert why((0.05,), dict(new, seed=9, T=200)) == (
        "its meta differs from this run's: T 200 vs 100, seed 9 vs 0")


def test_one_quantile_call_equals_the_per_row_quantiles():
    samples = derive_stream(5).standard_normal((4, 1001))
    levels, quantiles = (0.05, 0.1), [0.95, 0.9]
    table = baselines._quantile_table(samples, (1, 2, 3, 4), levels, quantiles, dict(META))
    for i, sample in enumerate(samples):
        assert table.values[i].tobytes() == np.quantile(sample, quantiles).tobytes()
    empty = baselines._quantile_table(np.empty((0, 1000)), (), levels, quantiles, dict(META))
    assert empty.values.shape == (0, 2)


# ---------------------------------------------------------------------------
# stream derivation

def test_derive_stream_is_keyed():
    a = derive_stream(7, 1, 2).standard_normal(8)
    b = derive_stream(7, 1, 2).standard_normal(8)
    c = derive_stream(7, 1, 3).standard_normal(8)
    assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# simulated trace critical values

def trace_quantile(T, reps, rng, level=0.05):
    """``1 - level`` quantile of a dim-1 trace sample whose one column is
    drawn from ``rng`` (the sampler's ``derive_stream(seed, 1)``)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "derive_stream", lambda *key: rng)
        sample = baselines._trace_stat_sample((1,), T, reps, 0)[0]
    return float(np.quantile(sample, 1.0 - level))


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"dim": 0}, "dim >= 1"),
        ({"T": 50}, "T >= 100"),
        ({"reps": 500}, "reps >= 1000"),
        ({"dim": 2.5}, "dim must be an integer, got 2.5"),
        ({"dim": True}, "dim must be an integer, got True"),
        ({"T": 100.5}, "T must be an integer, got 100.5"),
        ({"reps": 1000.5}, "reps must be an integer, got 1000.5"),
        ({"level": 1.0}, "level must lie in"),
        ({"seed": -1}, "seed >= 0"),
    ],
)
def test_sim_trace_critical_validates_arguments(monkeypatch, kwargs, match):
    # The other arguments are the stored table's, so validation must come
    # before the lookup.
    lookups = []
    monkeypatch.setattr(baselines, "_packaged_rows", lambda *args: lookups.append(args))
    full = {"dim": 1, "level": 0.05, "T": 1000, "reps": 2000, "seed": 0}
    full.update(kwargs)
    with pytest.raises(ValueError, match=match):
        trace_critical_table(
            dims=(full["dim"],), levels=(full["level"],), T=full["T"], reps=full["reps"],
            seed=full["seed"],
        )
    assert lookups == []


@pytest.mark.parametrize("level", [0.0, 1.0, -0.1])
def test_sim_trace_critical_validates_level(level):
    with pytest.raises(ValueError, match="level"):
        trace_critical_table(dims=(1,), levels=(level,), T=100, reps=1000)


def test_sim_trace_critical_deterministic():
    table = trace_critical_table((1,), (0.05,), 100, 1000, seed=0)
    assert table.value(1, 0.05) == trace_quantile(100, 1000, derive_stream(0, 1))


def test_sim_trace_critical_seeds_agree():
    a = trace_quantile(1000, 6000, derive_stream(101))
    b = trace_quantile(1000, 6000, derive_stream(202))
    assert abs(a - b) < 0.15
    assert 7.5 < a < 9.5


def test_sim_trace_critical_error_shrinks_with_reps():
    estimates = {
        reps: [trace_quantile(100, reps, derive_stream(300 + s)) for s in range(16)]
        for reps in (1000, 4000)
    }
    sd_small = np.std(estimates[1000], ddof=1)
    sd_large = np.std(estimates[4000], ddof=1)
    assert sd_large <= 0.75 * sd_small


def test_trace_table_values_increase_with_dimension(trace_table):
    col = trace_table.values[:, 0]
    assert col[0] < col[1] < col[2]


def test_trace_table_subset_rows_agree_bitwise(monkeypatch, trace_table):
    # Simulated: at these defaults trace_critical_table reads stored rows.
    monkeypatch.setattr(baselines, "_packaged", ())
    sub = trace_critical_table(dims=(2,), T=1000, reps=2000, seed=0)
    assert_array_equal(sub.values[0], trace_table.values[1])


def test_trace_table_records_meta(trace_table):
    assert trace_table.meta == {
        "T": 1000, "reps": 2000, "seed": 0, "statistic": "trace", "sampler": "nested-dot"
    }


def test_trace_dim_one_value_is_pinned(trace_table):
    # Column 1 of the nested draw is the one-dimension stream
    # derive_stream(seed, 1), scored as a one-column sample.
    assert trace_table.value(1, 0.05) == 8.322607745266891


def test_trace_largest_dim_value_is_pinned(trace_table):
    assert trace_table.value(3, 0.05) == 32.32104538933965


def reference_trace_sample(dims, T, reps, seed):
    """The nested draw one repetition at a time: column ``c`` of repetition
    ``k`` is the next ``T`` normals of ``derive_stream(seed, c)``, dim ``d``
    is scored on columns ``1..d``, and every moment-matrix entry is one 1-D
    dot of two length-``T`` rows."""
    rngs = [derive_stream(seed, c) for c in range(1, max(dims) + 1)]
    stats = np.empty((len(dims), reps))
    for k in range(reps):
        eps = np.vstack([rng.standard_normal(T) for rng in rngs])
        xlag = np.zeros_like(eps)
        xlag[:, 1:] = np.cumsum(eps[:, :-1], axis=1)
        xc = xlag - xlag.mean(axis=1, keepdims=True)
        for i, d in enumerate(dims):
            a = np.array([[eps[r] @ xc[c] for c in range(d)] for r in range(d)])
            b = np.array([[xc[r] @ xc[c] for c in range(d)] for r in range(d)])
            stats[i, k] = np.trace(a @ np.linalg.solve(b, a.T))
    return stats


# Ids name the largest dim of a range ``1..D``, or the dims with gaps.
@pytest.mark.parametrize("dims", [(1,), (1, 2, 3, 4), (2, 5)], ids=["1", "4", "2,5"])
def test_batched_trace_sample_matches_loop_bitwise(dims):
    T, reps = 100, 1000
    assert reps % (baselines._CHUNK_FLOATS // T) != 0  # a ragged last chunk
    expected = reference_trace_sample(dims, T, reps, 7)
    got = baselines._trace_stat_sample(dims, T, reps, 7)
    assert_array_equal(got, expected)


def test_threaded_trace_table_matches_loop_bitwise():
    levels = (0.01, 0.05, 0.1)
    table = trace_critical_table(dims=(4, 1, 2), levels=levels, T=100, reps=1000, seed=9)
    assert table.dims == (1, 2, 4)
    samples = reference_trace_sample((1, 2, 4), 100, 1000, 9)
    for i, sample in enumerate(samples):
        expected = np.quantile(sample, [1 - lv for lv in levels])
        assert_array_equal(table.values[i], expected)


def test_trace_table_sorts_and_dedupes_dims(monkeypatch):
    sample = baselines._trace_stat_sample
    calls = []

    def counted(dims, *args):
        calls.append(dims)
        return sample(dims, *args)

    monkeypatch.setattr(baselines, "_trace_stat_sample", counted)
    table = trace_critical_table(dims=(2, 1, 1), T=100, reps=1000)
    assert table.dims == (1, 2)
    assert calls == [(1, 2)]
    expected = trace_critical_table(dims=(1, 2), T=100, reps=1000)
    assert_array_equal(table.values, expected.values)


def test_trace_row_does_not_depend_on_other_dims():
    full = trace_critical_table(dims=range(1, 13), T=100, reps=1000, seed=3)
    alone = trace_critical_table(dims=(12,), T=100, reps=1000, seed=3)
    assert_array_equal(alone.values[0], full.values[-1])


def test_trace_rows_do_not_depend_on_chunk_size(monkeypatch):
    expected = trace_critical_table(dims=(1, 3, 5), T=100, reps=1000, seed=4)
    monkeypatch.setattr(baselines, "_CHUNK_FLOATS", 7 * 100)
    assert 1000 % 7 != 0  # a ragged last chunk
    got = trace_critical_table(dims=(1, 3, 5), T=100, reps=1000, seed=4)
    assert_array_equal(got.values, expected.values)


def test_trace_rows_do_not_depend_on_thread_timing(monkeypatch):
    expected = trace_critical_table(dims=(1, 3), T=100, reps=1000, seed=5)
    monkeypatch.setattr(baselines, "_CHUNK_FLOATS", 7 * 100)
    solve = np.linalg.solve
    calls = []

    def stalling(a, b):
        # Every third solve stalls the worker, so the drawing thread runs ahead.
        calls.append(len(a))
        if len(calls) % 3 == 0:
            time.sleep(0.001)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", stalling)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = trace_critical_table(dims=(1, 3), T=100, reps=1000, seed=5)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 2 * -(-1000 // 7)
    assert_array_equal(got.values, expected.values)


def test_trace_table_raises_worker_error_and_joins_worker(monkeypatch):
    solve = np.linalg.solve
    calls = []

    def failing_fifth(a, b):
        # Two dims per chunk: the fifth solve is the third chunk's first.
        calls.append(len(a))
        if len(calls) == 5:
            raise np.linalg.LinAlgError("third chunk")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_fifth)
    threads = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError, match="third chunk"):
        trace_critical_table(dims=(1, 2), T=1000, reps=2000, seed=1)
    assert len(calls) == 5
    assert threading.active_count() == threads


def test_trace_table_validates_every_dim_before_simulating(monkeypatch):
    calls = []
    monkeypatch.setattr(baselines, "_trace_stat_sample", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="dim >= 1"):
        trace_critical_table(dims=(1, 0), T=100, reps=1000)
    assert calls == []


# ---------------------------------------------------------------------------
# the default tables stored in the package

STORED_LENGTHS = (300, 500, 1000, 1500, 2000, 2500)
TRACE_META = {"T": 1000, "reps": 2000, "seed": 0, "statistic": "trace", "sampler": "nested-dot"}
UNIT_ROOT_META = {"reps": 4000, "seed": 0, "statistic": "unit_root"}


def refuse_streams(monkeypatch):
    def refuse(*key):
        raise AssertionError(f"drew stream {key}")
    monkeypatch.setattr(baselines, "derive_stream", refuse)


def kwargs_id(value):
    """A parameter id naming a dict's items, such as ``seed=1``."""
    return ",".join(f"{k}={v}" for k, v in value.items()) if isinstance(value, dict) else None


def test_stored_tables_are_the_default_tables():
    trace, unit_root = baselines._packaged_tables()
    assert trace.dims == tuple(range(1, 61)) and unit_root.dims == STORED_LENGTHS
    assert trace.levels == unit_root.levels == (0.05,)
    assert trace.meta == TRACE_META
    assert unit_root.meta == UNIT_ROOT_META


def test_stored_rows_equal_a_fresh_simulation(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(baselines, "_packaged", ())  # every request simulates
        fresh_trace = trace_critical_table(dims=(1, 2, 3))
        fresh_unit_root = unit_root_critical_table(300)
    refuse_streams(monkeypatch)
    for stored, fresh in ((trace_critical_table(dims=(1, 2, 3)), fresh_trace),
                          (unit_root_critical_table(300), fresh_unit_root)):
        assert (stored.dims, stored.levels, stored.meta) == (fresh.dims, fresh.levels, fresh.meta)
        assert stored.values.tobytes() == fresh.values.tobytes()


def test_default_tables_draw_no_stream(monkeypatch):
    refuse_streams(monkeypatch)
    full = trace_critical_table(dims=range(1, 61))
    assert full.dims == tuple(range(1, 61)) and full.values.shape == (60, 1)
    # Any subset of the stored sizes is served, in the requested order.
    sub = trace_critical_table(dims=(12, 3), levels=[0.05], T=1000.0, reps=2000, seed=0)
    assert sub.dims == (3, 12)
    assert_array_equal(sub.values, full.values[[2, 11]])
    lengths = unit_root_critical_table(n=STORED_LENGTHS)
    assert lengths.dims == STORED_LENGTHS
    alone = unit_root_critical_table(2500)
    assert alone.dims == (2500,) and alone.values[0, 0] == lengths.values[-1, 0]
    assert alone.meta == {"reps": 4000, "seed": 0, "statistic": "unit_root"}


@pytest.mark.parametrize("table, kwargs", [
    ("trace", {"seed": 1}),
    ("trace", {"reps": 3000}),
    ("trace", {"T": 500}),
    ("trace", {"levels": (0.1,)}),
    ("trace", {"levels": (0.05, 0.1)}),
    ("trace", {"dims": (61,)}),
    ("trace", {"dims": (60, 61)}),
    ("unit_root", {"seed": 1}),
    ("unit_root", {"reps": 5000}),
    ("unit_root", {"levels": (0.1,)}),
    ("unit_root", {"n": 400}),
    ("unit_root", {"n": (300, 400)}),
], ids=kwargs_id)
def test_requests_outside_the_stored_tables_simulate(monkeypatch, table, kwargs):
    calls = []

    def sample(sizes, *args):
        calls.append(args)
        return np.full((len(sizes), 1), 7.0)

    name = "_trace_stat_sample" if table == "trace" else "_unit_root_stat_sample"
    monkeypatch.setattr(baselines, name, sample)
    if table == "trace":
        args = {"dims": (1, 2), **kwargs}
        simulated = trace_critical_table(**args)
    else:
        args = {"n": 300, **kwargs}
        simulated = unit_root_critical_table(**args)
    assert (simulated.values == 7.0).all()
    assert len(calls) == 1


def test_stored_table_serves_only_its_whole_meta():
    assert baselines._packaged_rows((1,), (0.05,), TRACE_META) is not None
    for key, value in (("sampler", "nested-chol"), ("statistic", "unit_root"), ("extra", 1)):
        assert baselines._packaged_rows((1,), (0.05,), {**TRACE_META, key: value}) is None
    assert baselines._packaged_rows((300,), (0.05,), {"reps": 4000, "seed": 0}) is None


def test_stored_tables_are_read_once_per_process(monkeypatch):
    reads = []
    monkeypatch.setattr(baselines, "_packaged", None)
    monkeypatch.setattr(baselines, "open", lambda path, **kw: reads.append(path) or open(path, **kw),
                        raising=False)
    trace_critical_table(dims=(1,))
    unit_root_critical_table(300)
    trace_critical_table(dims=(1,), T=100, reps=1000, seed=3)  # a miss reads nothing more
    assert reads == [baselines._PACKAGED_PATH]


def test_build_script_asks_for_the_committed_tables(monkeypatch):
    # The samplers are cheap stand-ins: this pins what the script requests
    # (sizes, levels, meta); CI's rebuild-and-cmp step pins the bits.
    calls = []

    def stand_in(sizes, *args):
        calls.append(args)
        return np.zeros((len(sizes), 1000))

    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its src/
    monkeypatch.setattr(baselines, "_packaged", baselines._packaged)  # build() empties it
    monkeypatch.setattr(baselines, "_trace_stat_sample", stand_in)
    monkeypatch.setattr(baselines, "_unit_root_stat_sample", stand_in)
    path = Path(__file__).resolve().parents[1] / "tools" / "build_critical_tables.py"
    spec = importlib.util.spec_from_file_location("build_critical_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    built = [CriticalTable.from_dict(entry) for entry in json.loads(script.build())]
    with open(baselines._PACKAGED_PATH, encoding="utf-8") as fh:
        committed = [CriticalTable.from_dict(entry) for entry in json.load(fh)]
    assert len(calls) == 2  # both tables missed and were simulated
    assert ([(t.dims, t.levels, t.meta) for t in built]
            == [(t.dims, t.levels, t.meta) for t in committed])
    assert script.UNIT_ROOT_LENGTHS == STORED_LENGTHS


# ---------------------------------------------------------------------------
# trace test

def test_zero_coupling_panel_gives_zero_statistics():
    # the demeaned differences of this series are exactly orthogonal to the
    # demeaned lagged levels, so every canonical eigenvalue is zero
    y = np.array([0.0, 1.0, 0.0, -1.0, -2.0])[:, None]
    res = johansen_trace(y, hand_table((1,), [[3.0]]))
    assert_array_equal(res.eigenvalues, [0.0])
    assert res.stats[0] == 0.0
    assert res.selected_r == 0


def test_trace_rejects_short_panel():
    y = derive_stream(0).standard_normal((6, 2))
    with pytest.raises(InvalidSeries, match="2p \\+ 2"):
        johansen_trace(y, hand_table((1, 2), [[3.0], [15.0]]))


def test_trace_rejects_constant_panel():
    with pytest.raises(SingularMoments, match="lagged-level"):
        johansen_trace(np.ones((30, 2)), hand_table((1, 2), [[3.0], [15.0]]))


def test_trace_requires_covering_table():
    rng = derive_stream(1)
    y = np.cumsum(rng.standard_normal((100, 2)), axis=0)
    with pytest.raises(ValueError, match="no dimension 2"):
        johansen_trace(y, hand_table((1,), [[3.0]]))


def first_non_rejection(stats, crit, level=0.05):
    """Reference loop: the first ``r0`` whose statistic is below its
    critical value, else ``p``."""
    p = len(stats)
    for r0 in range(p):
        if stats[r0] < crit.value(p - r0, level):
            return r0
    return p


def test_trace_selection_matches_the_first_non_rejection_loop(trace_table):
    rng = derive_stream(11)
    for seed in range(6):
        y = mixed_panel(seed)
        stats = johansen_trace(y, trace_table).stats
        tables = [trace_table]
        # cutoffs at, just above and just below each statistic, and random ones
        for shift in (0.0, np.inf, -np.inf):
            cut = np.nextafter(stats, shift) if shift else stats.copy()
            tables.append(hand_table((1, 2, 3), cut[::-1, None]))
        tables += [hand_table((1, 2, 3), np.sort(rng.uniform(0.0, 60.0, (3, 1)), axis=0))
                   for _ in range(5)]
        for table in tables:
            res = johansen_trace(y, table)
            assert_array_equal(res.stats, stats)
            assert res.selected_r == first_non_rejection(stats, table)


def test_trace_statistic_equal_to_its_cutoff_is_a_rejection():
    y = np.cumsum(derive_stream(3).standard_normal((200, 2)), axis=0)
    stats = johansen_trace(y, hand_table((1, 2), [[1e9], [1e9]])).stats
    # dim 2 is r0 = 0, dim 1 is r0 = 1
    tied = hand_table((1, 2), [[stats[1] + 1.0], [stats[0]]])
    assert johansen_trace(y, tied).selected_r == 1
    above = hand_table((1, 2), [[stats[1] + 1.0], [np.nextafter(stats[0], np.inf)]])
    assert johansen_trace(y, above).selected_r == 0


def test_trace_reads_every_dimension_of_the_table():
    # r0 = 0 is accepted at once, but dim 1 (r0 = 1) is still looked up.
    y = np.cumsum(derive_stream(1).standard_normal((100, 2)), axis=0)
    assert johansen_trace(y, hand_table((1, 2), [[1e9], [1e9]])).selected_r == 0
    with pytest.raises(ValueError, match="no dimension 1"):
        johansen_trace(y, hand_table((2,), [[1e9]]))


def mixed_panel(seed, n=300):
    rng = derive_stream(seed)
    x = np.column_stack(
        [
            np.cumsum(rng.standard_normal(n)),
            np.cumsum(rng.standard_normal(n)),
            rng.standard_normal(n),
        ]
    )
    mixing = np.array([[2.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    return x @ mixing.T


def test_trace_statistics_shape_and_ordering(trace_table):
    res = johansen_trace(mixed_panel(9), trace_table)
    assert res.stats.shape == (3,)
    assert np.all(res.stats >= 0.0)
    assert np.all(np.diff(res.stats) <= 1e-12)
    assert np.all(res.eigenvalues >= 0.0)
    assert np.all(res.eigenvalues < 1.0)
    assert np.all(np.diff(res.eigenvalues) <= 1e-12)
    assert 0 <= res.selected_r <= 3
    assert res.directions.shape == (3, 3)
    assert res.level == 0.05


def test_trace_deterministic(trace_table):
    y = mixed_panel(11)
    a = johansen_trace(y, trace_table)
    b = johansen_trace(y, trace_table)
    assert_array_equal(a.stats, b.stats)
    assert_array_equal(a.directions, b.directions)
    assert a.selected_r == b.selected_r


def test_trace_size_on_univariate_random_walk(trace_table):
    reps, n = 500, 500
    rejections = 0
    for k in range(reps):
        walk = np.cumsum(derive_stream(40, k).standard_normal(n))
        if johansen_trace(walk[:, None], trace_table).selected_r >= 1:
            rejections += 1
    assert abs(rejections / reps - 0.05) <= 0.03


def test_trace_power_with_one_cointegrating_relation(trace_table):
    reps, n = 200, 1000
    hits = 0
    for k in range(reps):
        rng = derive_stream(41, k)
        walk = np.cumsum(rng.standard_normal(n))
        from scipy.signal import lfilter

        stationary = lfilter([1.0], [1.0, -0.5], rng.standard_normal(n))
        y = np.column_stack([walk, walk + stationary])
        if johansen_trace(y, trace_table).selected_r == 1:
            hits += 1
    assert hits / reps >= 0.90


# ---------------------------------------------------------------------------
# unit-root statistic

@pytest.mark.parametrize("n, expected", [(50, 3), (100, 4), (200, 4), (400, 5), (1000, 6)])
def test_bartlett_bandwidth_values(n, expected):
    assert bartlett_bandwidth(n) == expected


@pytest.mark.parametrize("scale", [0.1, 10.0])
def test_unit_root_stat_scale_invariant(scale):
    x = np.cumsum(derive_stream(50).standard_normal(400))
    assert_allclose(unit_root_stat(scale * x), unit_root_stat(x), rtol=1e-9)


def test_unit_root_stat_rejects_short_series():
    with pytest.raises(InvalidSeries, match="at least 20"):
        unit_root_stat(np.arange(19.0))


def test_unit_root_stat_rejects_non_finite():
    x = np.cumsum(derive_stream(51).standard_normal(40))
    x[7] = np.nan
    with pytest.raises(InvalidSeries, match="non-finite"):
        unit_root_stat(x)


def test_unit_root_stat_rejects_constant_series():
    with pytest.raises(DegenerateComponent, match="constant"):
        unit_root_stat(np.full(30, 2.5))
    tail_jump = np.ones(30)
    tail_jump[-1] = 2.0
    with pytest.raises(DegenerateComponent, match="lagged series"):
        unit_root_stat(tail_jump)


def test_unit_root_stat_rejects_negative_bandwidth():
    x = np.cumsum(derive_stream(52).standard_normal(40))
    with pytest.raises(ValueError, match="bandwidth"):
        unit_root_stat(x, bandwidth=-1)


@pytest.mark.parametrize(
    "x", [np.full(30, 2.5), np.arange(10.0), np.full((30, 2), 2.5)],
    ids=["constant", "short", "constant-panel"],
)
def test_unit_root_stat_checks_bandwidth_before_the_data(x):
    # The bad argument is reported, not the data's own problem.
    with pytest.raises(ValueError, match="bandwidth must be non-negative"):
        unit_root_stat(x, bandwidth=-1)


def test_zero_bandwidth_is_uncorrected_statistic():
    x = np.cumsum(derive_stream(53).standard_normal(100))
    ylag, ynow = x[:-1], x[1:]
    w = ylag - ylag.mean()
    rho = (w @ ynow) / (w @ w)
    assert_allclose(unit_root_stat(x, bandwidth=0), 99 * (rho - 1.0), rtol=1e-12)


def test_unit_root_stat_separates_noise_from_walk():
    rng = derive_stream(54)
    noise_stat = unit_root_stat(rng.standard_normal(500))
    walk_stat = unit_root_stat(np.cumsum(rng.standard_normal(500)))
    assert noise_stat < -100.0
    assert noise_stat < walk_stat


# ---------------------------------------------------------------------------
# unit-root critical values and sequential rank

def test_unit_root_table_deterministic():
    a = unit_root_critical_table(200, reps=1000, seed=3)
    b = unit_root_critical_table(200, reps=1000, seed=3)
    assert_array_equal(a.values, b.values)
    assert a.meta["statistic"] == "unit_root"
    assert a.dims == (200,)


def test_unit_root_table_validates_reps():
    with pytest.raises(ValueError, match="reps >= 1000"):
        unit_root_critical_table(200, reps=500)


def test_unit_root_table_lower_tail_ordering():
    table = unit_root_critical_table(200, levels=(0.05, 0.5), reps=1000, seed=4)
    assert table.values[0, 0] < table.values[0, 1]
    assert table.values[0, 0] < -5.0


def reference_unit_root_stat(x, bandwidth=None):
    """The scalar formula as a plain 1-D computation."""
    n = x.size
    ylag = x[:-1]
    ynow = x[1:]
    t_eff = n - 1
    w = ylag - ylag.mean()
    ss_w = float(w @ w)
    rho = float(w @ ynow) / ss_w
    resid = (ynow - ynow.mean()) - rho * w
    q = bartlett_bandwidth(n) if bandwidth is None else int(bandwidth)
    gamma0 = float(resid @ resid) / t_eff
    lam2 = gamma0
    for j in range(1, min(q, t_eff - 1) + 1):
        gj = float(resid[j:] @ resid[:-j]) / t_eff
        lam2 += 2.0 * (1.0 - j / (q + 1.0)) * gj
    return t_eff * (rho - 1.0) - (lam2 - gamma0) / (2.0 * ss_w / t_eff**2)


@pytest.mark.parametrize("n", [777, 1000, 2500])
def test_batched_unit_root_table_matches_loop_bitwise(n):
    assert 1000 % (baselines._CHUNK_FLOATS // n) != 0  # a ragged last chunk
    levels = (0.01, 0.05, 0.1, 0.5)
    rng = derive_stream(6, 1)
    sample = [reference_unit_root_stat(np.cumsum(rng.standard_normal(n))) for _ in range(1000)]
    table = unit_root_critical_table(n, levels=levels, reps=1000, seed=6)
    assert_array_equal(table.values[0], np.quantile(sample, levels))


@pytest.mark.parametrize(
    "n, bandwidth",
    # n=20 with bandwidth 30 sums lags only up to t_eff - 1 = 18
    [(120, None), (120, 0), (120, 3), (120, 60), (20, 30)],
    ids=["None", "0", "3", "60", "n20-30"],
)
def test_batched_unit_root_stat_matches_scalar_formula(n, bandwidth):
    rng = derive_stream(55)
    rows = np.vstack([
        np.cumsum(rng.standard_normal(n)),
        rng.standard_normal(n),
        np.cumsum(np.cumsum(rng.standard_normal(n))),
    ])
    batched = baselines._unit_root_stats(rows, bandwidth)
    for row, stat in zip(rows, batched):
        expected = reference_unit_root_stat(row, bandwidth)
        assert stat == expected
        assert unit_root_stat(row, bandwidth) == expected


def test_non_contiguous_batch_scores_like_its_rows():
    rng = derive_stream(56)
    panel = np.cumsum(rng.standard_normal((300, 3)), axis=0)
    walks = np.cumsum(rng.standard_normal((6, 200)), axis=1)
    for batch in (panel.T, walks[::2]):
        assert not batch.flags.c_contiguous
        expected = [reference_unit_root_stat(np.ascontiguousarray(row)) for row in batch]
        assert_array_equal(baselines._unit_root_stats(batch), expected)
    assert_array_equal(
        [unit_root_stat(panel[:, i]) for i in range(3)], baselines._unit_root_stats(panel.T)
    )


@pytest.mark.parametrize("bandwidth", [None, 0, 3])
def test_unit_root_stat_of_panel_is_its_column_statistics(bandwidth):
    rng = derive_stream(57)
    k = 4
    # Every other row of a wider array: neither the panel nor a column is
    # contiguous.
    wide = np.cumsum(rng.standard_normal((600, 2 * k)), axis=0)
    wide[:, 1::2] = rng.standard_normal((600, k))
    panel = wide[::2, 1:]
    assert not panel.flags.c_contiguous and not panel.flags.f_contiguous
    stats = unit_root_stat(panel, bandwidth)
    assert stats.shape == (panel.shape[1],)
    for j in range(panel.shape[1]):
        assert stats[j] == unit_root_stat(panel[:, j], bandwidth)
        assert stats[j] == reference_unit_root_stat(np.ascontiguousarray(panel[:, j]), bandwidth)


def test_unit_root_stat_rejects_three_dimensional_input():
    with pytest.raises(InvalidSeries, match="ndim=3"):
        unit_root_stat(np.zeros((2, 30, 2)))


def test_unit_root_table_rejects_short_series():
    with pytest.raises(InvalidSeries, match="at least 20"):
        unit_root_critical_table(19, reps=1000)


@pytest.mark.parametrize(
    "kwargs, error, match",
    [
        ({"n": 19}, InvalidSeries, "at least 20"),
        ({"levels": (1.5,)}, ValueError, "level must lie in"),
        ({"levels": (0.05, 0.0)}, ValueError, "level must lie in"),
        ({"seed": -1}, ValueError, "seed >= 0"),
        ({"reps": 999}, ValueError, "reps >= 1000"),
        ({"n": 300.5}, ValueError, "n must be an integer, got 300.5"),
        ({"n": [300, True]}, ValueError, "n must be an integer, got True"),
        ({"seed": 1.5}, ValueError, "seed must be an integer, got 1.5"),
        ({"seed": True}, ValueError, "seed must be an integer, got True"),
    ],
)
def test_unit_root_table_validates_before_drawing(monkeypatch, kwargs, error, match):
    # The other arguments are the stored table's, so validation must come
    # before the lookup too.
    streams, lookups = [], []
    monkeypatch.setattr(baselines, "derive_stream", lambda *key: streams.append(key))
    monkeypatch.setattr(baselines, "_packaged_rows", lambda *args: lookups.append(args))
    args = {"n": 2500, "levels": (0.05,), "reps": 4000, "seed": 0}
    args.update(kwargs)
    with pytest.raises(error, match=match):
        unit_root_critical_table(**args)
    assert streams == [] and lookups == []


def test_unit_root_table_raises_worker_error_and_joins_worker(monkeypatch):
    score = baselines._unit_root_stats
    chunks = []

    def failing_third(xs, work=None):
        chunks.append(len(xs))
        if len(chunks) == 3:
            raise DegenerateComponent("third chunk")
        return score(xs, work=work)

    monkeypatch.setattr(baselines, "_unit_root_stats", failing_third)
    threads = threading.active_count()
    with pytest.raises(DegenerateComponent, match="third chunk"):
        unit_root_critical_table(300, reps=4000, seed=1)
    assert len(chunks) == 3
    assert threading.active_count() == threads


class LoggedStream:
    """``derive_stream(seed)`` that logs each fill as ``("read", thread,
    seed, first repetition, k)`` before it and ``("filled", ...)`` after it,
    sleeps ``delay`` seconds in between, and raises there if ``fail(self)``."""

    def __init__(self, seed, log, delay=0.0, fail=lambda stream: False):
        self.seed, self.log, self.delay, self.fail = seed, log, delay, fail
        self.rng, self.read = derive_stream(seed), 0

    def standard_normal(self, out):
        entry = (threading.get_ident(), self.seed, self.read, len(out))
        self.log.append(("read",) + entry)
        time.sleep(self.delay)
        if self.fail(self):
            raise RuntimeError(f"fill of stream {self.seed} at {self.read}")
        self.rng.standard_normal(out=out)
        self.read += len(out)
        self.log.append(("filled",) + entry)
        return out


def check_reads(log, seeds, reps, m):
    """Each stream's blocks are read once each, in repetition order, and no
    block of chunk ``c + 1`` is read before every block of chunk ``c`` is
    filled (so block ``i + 1`` of a stream only after block ``i``).  Return
    the log index of each chunk's first read."""
    blocks = [(first, min(m, reps - first)) for first in range(0, reps, m)]
    for seed in seeds:
        for kind in ("read", "filled"):
            got = [(e[3], e[4]) for e in log if e[0] == kind and e[2] == seed]
            assert got == blocks[:len(got)]
    first_read, fills = {}, {}
    for at, entry in enumerate(log):
        if entry[0] == "read":
            first_read.setdefault(entry[3] // m, at)
        elif entry[0] == "filled":
            fills.setdefault(entry[3] // m, []).append(at)
    for c in first_read:
        if c > 0:
            assert len(fills[c - 1]) == len(seeds) and max(fills[c - 1]) < first_read[c]
    return first_read


def check_join(chunks, seeds, reps, row, m):
    """The scored chunks, in order and joined, are each stream's first
    ``reps`` repetitions of ``row`` normals, bitwise."""
    assert [start for start, _ in chunks] == list(range(0, reps, m))
    joined = np.concatenate([chunk for _, chunk in chunks], axis=1)
    for seed, rows in zip(seeds, joined):
        assert rows.tobytes() == derive_stream(seed).standard_normal((reps, row)).tobytes()


def test_draw_and_score_keeps_its_order_under_fast_thread_switches():
    # Three callers at once on two cores, switching threads every
    # microsecond: each call's caller and worker share the reads, yet each
    # stream is read once per block in repetition order and chunk k + 1 only
    # after chunk k is filled; the chunks are scored in order, with the
    # right contents, on one thread other than the caller, and chunk k's
    # score returns before chunk k + 2 is read.
    reps, row = 2001, baselines._CHUNK_FLOATS // 2  # 1001 chunks of at most 2
    logs, failures = [], []

    def one_call() -> None:
        log, caller = [], threading.get_ident()
        logs.append((log, caller))

        class Stream:
            # Fills the first entry of each row with its repetition index.
            def __init__(self, index):
                self.index, self.read = index, 0

            def standard_normal(self, out):
                entry = (threading.get_ident(), self.index, self.read, len(out))
                log.append(("read",) + entry)
                out[:, 0] = np.arange(self.read, self.read + len(out))
                self.read += len(out)
                log.append(("filled",) + entry)
                return out

        def score(chunk, start):
            in_order = (chunk[:, :, 0] == np.arange(start, start + chunk.shape[1])).all()
            log.append(("score", threading.get_ident(), start, bool(in_order)))
            log.append(("scored", threading.get_ident(), start))

        try:
            baselines._draw_and_score([Stream(0), Stream(1)], reps, row, score)
        except BaseException as exc:
            failures.append(exc)

    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=one_call) for _ in range(3)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert failures == []
    assert threading.active_count() == threads
    starts = list(range(0, reps, 2))
    for log, caller in logs:
        first_read = check_reads(log, (0, 1), reps, 2)
        assert len(first_read) == len(starts)
        scores = [e for e in log if e[0] == "score"]
        assert [(start, ok) for _, _, start, ok in scores] == [(start, True) for start in starts]
        assert len({thread for _, thread, _, _ in scores} | {caller}) == 2
        scored = [at for at, e in enumerate(log) if e[0] == "scored"]
        assert all(scored[k] < first_read[k + 2] for k in range(len(starts) - 2))


def test_draw_error_stops_scoring_and_joins_worker():
    # The chunk in flight when a read fails is scored; no later one is.
    read, scored = [], []

    class Failing:
        def standard_normal(self, out):
            read.append(len(out))
            if len(read) == 3:
                raise RuntimeError("third read")
            return out

    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="third read"):
        baselines._draw_and_score([Failing()], 10, baselines._CHUNK_FLOATS // 2,
                                  lambda chunk, start: scored.append(start))
    assert read == [2, 2, 2]
    assert scored == [0, 2]
    assert threading.active_count() == threads


def test_draw_and_score_fills_each_stream_once_per_chunk():
    # Each chunk's block of stream s is one standard_normal(out=...) fill of
    # a C-contiguous (k, row) view: the stream's next k * row normals, so
    # the chunks joined are standard_normal((reps, row)) of every stream.
    reps, row, seeds = 70, 1000, (3, 4, 5)
    assert baselines._chunk_reps(row) == 32  # chunks of 32, 32 and 6
    fills, chunks = [], []

    class Recorded:
        def __init__(self, seed):
            self.seed, self.rng = seed, derive_stream(seed)

        def standard_normal(self, out):
            fills.append((self.seed, out.shape, out.flags.c_contiguous))
            return self.rng.standard_normal(out=out)

    def score(chunk, start):
        chunks.append((start, chunk.copy()))

    baselines._draw_and_score([Recorded(seed) for seed in seeds], reps, row, score)
    for seed in seeds:
        assert [(shape, c) for s, shape, c in fills if s == seed] == [
            ((k, row), True) for k in (32, 32, 6)]
    check_join(chunks, seeds, reps, row, 32)


def test_draw_and_score_worker_reads_while_the_scorer_would_wait():
    # Slow fills and an instant scorer: having scored chunk c - 1, the
    # worker fills blocks of chunk c instead of waiting for the caller.
    reps, row, seeds = 40, 4096, (3, 4, 5, 6)
    m = baselines._chunk_reps(row)
    assert m == 8  # five chunks of four blocks
    log, chunks, caller = [], [], threading.get_ident()
    rngs = [LoggedStream(seed, log, delay=0.002) for seed in seeds]
    baselines._draw_and_score(rngs, reps, row, lambda chunk, start: chunks.append(
        (start, chunk.copy())))
    check_reads(log, seeds, reps, m)
    assert any(e[1] != caller and e[3] >= m for e in log if e[0] == "read")
    check_join(chunks, seeds, reps, row, m)


def test_draw_and_score_caller_reads_while_the_worker_scores():
    # A slow scorer: chunk c + 1 is filled by the caller while the worker
    # scores chunk c, so the worker never waits for a block of it and reads
    # none (chunk 0, before there is anything to score, either may read),
    # and chunk c + 2 waits for chunk c's score.
    reps, row, seeds = 40, 4096, (3, 4, 5, 6)
    m = baselines._chunk_reps(row)
    log, chunks, caller = [], [], threading.get_ident()

    def score(chunk, start):
        time.sleep(0.05)
        chunks.append((start, chunk.copy()))
        log.append(("scored", threading.get_ident(), start))

    baselines._draw_and_score([LoggedStream(seed, log) for seed in seeds], reps, row, score)
    first_read = check_reads(log, seeds, reps, m)
    assert all(e[1] == caller for e in log if e[0] == "read" and e[3] >= m)
    scored = [at for at, e in enumerate(log) if e[0] == "scored"]
    assert all(scored[k] < first_read[k + 2] for k in range(len(scored) - 2))
    check_join(chunks, seeds, reps, row, m)


def test_draw_and_score_raises_a_worker_fill_error_after_filled_chunks():
    # A fill that fails on the worker thread (its first block from chunk 2
    # on): the caller raises it after joining the worker, no block is read
    # after it, and every chunk filled before it is scored.
    reps, row, seeds = 80, 4096, (3, 4, 5, 6)
    m = baselines._chunk_reps(row)  # ten chunks
    log, chunks, caller = [], [], threading.get_ident()

    def off_caller(stream):
        return threading.get_ident() != caller and stream.read >= 2 * m

    rngs = [LoggedStream(seed, log, delay=0.002, fail=off_caller) for seed in seeds]
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="fill of stream"):
        baselines._draw_and_score(rngs, reps, row, lambda chunk, start: chunks.append(
            (start, chunk.copy())))
    assert threading.active_count() == threads
    first_read = check_reads(log, seeds, reps, m)
    failed = max(first_read)  # no chunk is read after the one that failed
    assert [e[3] // m for e in log if e[0] == "read" and e[1] != caller and e[3] >= 2 * m] == [
        failed]
    check_join(chunks, seeds, failed * m, row, m)


def test_draw_and_score_trace_sample_is_bitwise_under_sleepy_streams(monkeypatch):
    # The real sampler, its Philox streams each sleeping a seeded random
    # 0-200 us before every fill, switching threads every microsecond, and
    # also two samples built at once: every one is bitwise the plain run,
    # in chunks of 327 (four chunks) and of 7 repetitions (143).
    dims, args = (1, 2, 3, 4, 5), {"T": 100, "reps": 1000, "seed": 9}
    expected = baselines._trace_stat_sample(dims, **args)
    stream = baselines.derive_stream

    class Sleepy:
        def __init__(self, seed, *key):
            self.rng, self.pauses = stream(seed, *key), np.random.default_rng(key)

        def standard_normal(self, out):
            time.sleep(self.pauses.uniform(0.0, 2e-4))
            return self.rng.standard_normal(out=out)

    got = []

    def sample():
        got.append(baselines._trace_stat_sample(dims, **args))

    monkeypatch.setattr(baselines, "derive_stream", Sleepy)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for chunk_floats in (baselines._CHUNK_FLOATS, 7 * 100):
            monkeypatch.setattr(baselines, "_CHUNK_FLOATS", chunk_floats)
            sample()
            pair = [threading.Thread(target=sample) for _ in range(2)]
            for t in pair:
                t.start()
            for t in pair:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert len(got) == 6
    for sample_ in got:
        assert sample_.tobytes() == expected.tobytes()


def test_unit_root_tables_back_to_back_match_the_loop_bitwise():
    # The sampler's slots, walks and workspace are allocated per table: a
    # table built after a longer or a shorter one is the one it gets alone,
    # also in its short last chunk (1001 walks), and a unit_root_stat call
    # between tables scores as the scalar formula does.
    levels = (0.01, 0.05, 0.1, 0.5)
    panel = np.cumsum(derive_stream(58).standard_normal((400, 3)), axis=0)
    for n in (300, 1000, 300):
        assert 1001 % (baselines._CHUNK_FLOATS // n) != 0
        table = unit_root_critical_table(n, levels=levels, reps=1001, seed=8)
        rng = derive_stream(8, 1)
        sample = [reference_unit_root_stat(np.cumsum(rng.standard_normal(n)))
                  for _ in range(1001)]
        assert_array_equal(table.values[0], np.quantile(sample, levels))
        assert_array_equal(
            unit_root_stat(panel),
            [reference_unit_root_stat(np.ascontiguousarray(col)) for col in panel.T],
        )


def test_unit_root_stat_calls_stay_on_the_traced_path(monkeypatch):
    # bench/trace.py times calls through the module global unit_root_stat
    # on one span stack that is not thread-local: sequential_unit_root must
    # go through it once, with the whole panel, and the table's worker
    # thread must never reach it.
    calls = []
    stat = baselines.unit_root_stat

    def counted(x, bandwidth=None):
        calls.append(np.shape(x))
        return stat(x, bandwidth)

    monkeypatch.setattr(baselines, "unit_root_stat", counted)
    table = unit_root_critical_table(300, reps=1000, seed=0)
    assert calls == []
    noise = derive_stream(64).standard_normal((300, 3))
    assert sequential_unit_root(noise, 0.05, table) == 3
    assert calls == [(300, 3)]


def test_sequential_rank_full_on_noise_panel(ur_table):
    reps, hits = 100, 0
    for k in range(reps):
        x = derive_stream(60, k).standard_normal((1000, 3))
        if sequential_unit_root(x, 0.05, ur_table) == 3:
            hits += 1
    assert hits / reps >= 0.7


def test_sequential_rank_zero_on_random_walks(ur_table):
    # testing stops at the first non-rejection, so the exact zero-rank
    # probability is 1 - level = 0.95; the band around (1 - level)^3 covers it
    reps, hits = 200, 0
    for k in range(reps):
        x = np.cumsum(derive_stream(361, k).standard_normal((1000, 3)), axis=0)
        if sequential_unit_root(x, 0.05, ur_table) == 0:
            hits += 1
    assert abs(hits / reps - 0.95**3) <= 0.1


def test_sequential_rank_stops_at_first_non_rejection(ur_table):
    rng = derive_stream(62)
    x = np.column_stack(
        [
            rng.standard_normal(1000),
            np.cumsum(rng.standard_normal(1000)),
            rng.standard_normal(1000),
        ]
    )
    # the last column rejects, the middle (a walk) does not; the stationary
    # first column is never reached
    assert sequential_unit_root(x, 0.05, ur_table) == 1


def test_sequential_rank_ignores_constant_column_past_stopping_point(ur_table):
    # The walk stops the testing before the constant first column, which
    # fails the one whole-panel call; the column-at-a-time fallback gives
    # the rank that testing column by column always gave.
    rng = derive_stream(65)
    x = np.column_stack([
        np.full(1000, 1.0),
        np.cumsum(rng.standard_normal(1000)),
        rng.standard_normal(1000),
    ])
    with pytest.raises(DegenerateComponent):
        unit_root_stat(x)
    assert sequential_unit_root(x, 0.05, ur_table) == 1


def test_sequential_rank_raises_on_constant_column_it_tests(ur_table):
    rng = derive_stream(66)
    x = np.column_stack([np.cumsum(rng.standard_normal(1000)), np.full(1000, 1.0),
                         rng.standard_normal(1000)])
    with pytest.raises(DegenerateComponent, match="series is constant"):
        sequential_unit_root(x, 0.05, ur_table)


def test_sequential_rank_rejects_constant_column():
    x = np.column_stack(
        [derive_stream(63).standard_normal(100), np.full(100, 1.0)]
    )
    table = unit_root_critical_table(100, reps=1000, seed=0)
    with pytest.raises(DegenerateComponent):
        sequential_unit_root(x, 0.05, table)


@pytest.mark.parametrize(
    "ns, reps",
    [
        ((20, 21, 997), 2000),  # walks of 20 and 21 straddle chunks of 997
        ((300, 500, 1000, 1500, 2000, 2500), 1001),  # the preset grid, ragged last chunk
        ((1000, 300, 1000), 1000),  # unsorted, repeated
    ],
)
def test_unit_root_batch_tables_equal_the_per_size_tables(ns, reps):
    levels = (0.01, 0.05, 0.1, 0.5)
    table = unit_root_critical_table(n=list(ns), levels=levels, reps=reps, seed=11)
    assert table.dims == tuple(sorted(set(ns)))
    for n in ns:
        alone = unit_root_critical_table(n, levels=levels, reps=reps, seed=11)
        row = table.values[table.dims.index(n)]
        assert row.tobytes() == alone.values[0].tobytes()
        assert (table.levels, table.meta) == (alone.levels, alone.meta)
    assert unit_root_critical_table(n=(), reps=1000).dims == ()


@pytest.mark.parametrize("ns, reps", [((20, 21, 997), 2000), ((300, 1000, 2500), 1001)])
def test_unit_root_batch_sample_is_every_walk_scored_alone(ns, reps):
    # Walk j of length n is floats j*n .. (j+1)*n - 1 of stream (seed, 1),
    # also where it straddles two draw chunks; compare every statistic,
    # not only the quantiles that a few wrong walks may leave unchanged.
    chunk = baselines._chunk_reps(ns[-1]) * ns[-1]
    assert all(reps * n > chunk and chunk % n for n in ns[:-1])  # walks straddle
    sample = baselines._unit_root_stat_sample(list(ns), reps, 12)
    for i, n in enumerate(ns):
        steps = derive_stream(12, 1).standard_normal((reps, n))
        expected = baselines._unit_root_stats(np.cumsum(steps, axis=1))
        assert sample[i].tobytes() == expected.tobytes()
        assert baselines._unit_root_stat_sample([n], reps, 12)[0].tobytes() == expected.tobytes()


def test_unit_root_batch_skips_a_length_once_its_walks_are_scored(monkeypatch):
    # Walks of 20 are done after 2 of the 63 chunks of 997; from then on the
    # length is skipped, so no later chunk scores an empty batch of it (or
    # grows its carry).
    score = baselines._unit_root_stats
    batches = []

    def recorded(xs, work=None):
        batches.append(xs.shape)
        return score(xs, work=work)

    monkeypatch.setattr(baselines, "_unit_root_stats", recorded)
    ns, reps = (20, 997), 2000
    sample = baselines._unit_root_stat_sample(list(ns), reps, 13)
    for n in ns:
        sizes = [k for k, length in batches if length == n]
        assert sum(sizes) == reps
        assert min(sizes) > 0
    assert [k for k, length in batches if length == 20] == [1595, 405]
    steps = derive_stream(13, 1).standard_normal((reps, 20))
    assert sample[0].tobytes() == score(np.cumsum(steps, axis=1)).tobytes()


def test_unit_root_batch_tables_read_the_stream_once(monkeypatch):
    # One stream, drawn once: as many normals as the largest size's table.
    drawn = []

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, out):
            drawn.append(out.size)
            return self.rng.standard_normal(out=out)

    keys = []
    stream = baselines.derive_stream
    monkeypatch.setattr(baselines, "derive_stream",
                        lambda *key: keys.append(key) or Counted(stream(*key)))
    unit_root_critical_table(n=(300, 1000, 2500), reps=1000, seed=2)
    assert keys == [(2, 1)]
    assert sum(drawn) == 2500 * 1000


@pytest.mark.parametrize("bad, error", [(19, InvalidSeries), (5, InvalidSeries)])
def test_unit_root_batch_validates_every_size_before_drawing(monkeypatch, bad, error):
    streams = []
    monkeypatch.setattr(baselines, "derive_stream", lambda *key: streams.append(key))
    with pytest.raises(error):
        unit_root_critical_table(n=(300, 1000, bad), reps=1000)
    with pytest.raises(ValueError, match="reps >= 1000"):
        unit_root_critical_table(n=(300, 1000), reps=999)
    assert streams == []


def test_unit_root_batch_raises_worker_error_and_joins_worker(monkeypatch):
    score = baselines._unit_root_stats
    calls = []

    def failing_fifth(xs, work=None):
        calls.append(xs.shape)
        if len(calls) == 5:
            raise DegenerateComponent("fifth batch")
        return score(xs, work=work)

    monkeypatch.setattr(baselines, "_unit_root_stats", failing_fifth)
    threads = threading.active_count()
    with pytest.raises(DegenerateComponent, match="fifth batch"):
        unit_root_critical_table(n=(300, 1000), reps=4000, seed=1)
    # Each chunk of 32 walks of 1000 scores 106 or 107 walks of 300, then
    # the 32 walks of 1000; nothing is scored after the error.
    assert calls == [(106, 300), (32, 1000), (107, 300), (32, 1000), (107, 300)]
    assert threading.active_count() == threads


def test_table_sizes_accept_whole_floats_and_numpy_integers():
    trace = trace_critical_table(dims=(2,), T=100, reps=1000)
    for dims in ((2.0,), (np.int64(2),)):
        same = trace_critical_table(dims=dims, T=100, reps=1000)
        assert same.dims == (2,) and type(same.dims[0]) is int
        assert same.values.tobytes() == trace.values.tobytes()
    unit_root = unit_root_critical_table(300, reps=1000)
    for n in (300.0, np.int64(300), [np.int32(300), 300.0]):
        same = unit_root_critical_table(n, reps=1000)
        assert same.dims == (300,) and type(same.dims[0]) is int
        assert same.values.tobytes() == unit_root.values.tobytes()


def test_table_repetitions_and_T_accept_whole_floats():
    trace = trace_critical_table(dims=(1, 2), T=100, reps=1000)
    same = trace_critical_table(dims=(1, 2), T=100.0, reps=1000.0)
    assert same.meta == trace.meta
    assert type(same.meta["T"]) is int and type(same.meta["reps"]) is int
    assert same.values.tobytes() == trace.values.tobytes()
    unit_root = unit_root_critical_table(300, reps=1000)
    same = unit_root_critical_table(300, reps=np.float64(1000.0))
    assert same.meta == unit_root.meta and type(same.meta["reps"]) is int
    assert same.values.tobytes() == unit_root.values.tobytes()
    # The documented order holds: levels, then sizes, then reps, then seed.
    with pytest.raises(ValueError, match="level must lie"):
        trace_critical_table(dims=(1,), levels=(2.0,), T=100.5, reps=1000.5)
    with pytest.raises(ValueError, match="T must be an integer"):
        trace_critical_table(dims=(1,), T=100.5, reps=1000.5, seed=-1)
    with pytest.raises(ValueError, match="reps must be an integer"):
        unit_root_critical_table(300, reps=1000.5, seed=-1)


def test_trace_table_seed_must_be_a_whole_number(monkeypatch):
    table = trace_critical_table(dims=(1,), T=100, reps=1000, seed=2)
    same = trace_critical_table(dims=(1,), T=100, reps=1000, seed=2.0)
    assert same.meta == table.meta and type(same.meta["seed"]) is int
    assert same.values.tobytes() == table.values.tobytes()
    same = unit_root_critical_table(300, reps=1000, seed=np.float64(2.0))
    assert same.meta["seed"] == 2 and type(same.meta["seed"]) is int
    streams = []
    monkeypatch.setattr(baselines, "derive_stream", lambda *key: streams.append(key))
    for seed in (1.5, True, "1"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            trace_critical_table(dims=(1,), T=100, reps=1000, seed=seed)
    # The seed is checked last: levels, sizes, reps, then seed.
    with pytest.raises(ValueError, match="reps >= 1000"):
        trace_critical_table(dims=(1,), T=100, reps=500, seed=1.5)
    with pytest.raises(ValueError, match="seed >= 0"):
        unit_root_critical_table(300, reps=1000, seed=-1.0)
    assert streams == []


@pytest.mark.parametrize("bandwidth", [2.5, True, "2"])
def test_unit_root_stat_bandwidth_must_be_a_whole_number(bandwidth):
    x = np.cumsum(derive_stream(61).standard_normal(100))
    with pytest.raises(ValueError, match="bandwidth must be an integer"):
        unit_root_stat(x, bandwidth=bandwidth)
    assert unit_root_stat(x, bandwidth=2.0) == unit_root_stat(x, bandwidth=2)
    with pytest.raises(ValueError, match="non-negative"):
        unit_root_stat(x, bandwidth=-1)


def test_unit_root_table_rows_are_the_one_length_tables():
    levels = (0.05, 0.1)
    table = unit_root_critical_table([1000, 300], levels=levels, reps=1000, seed=5)
    assert table.dims == (300, 1000)
    assert table.meta == {"reps": 1000, "seed": 5, "statistic": "unit_root"}
    for i, n in enumerate(table.dims):
        alone = unit_root_critical_table(n, levels=levels, reps=1000, seed=5)
        assert alone.dims == (n,)
        assert table.values[i].tobytes() == alone.values[0].tobytes()
        assert table.value(n, 0.1) == alone.value(n, 0.1)


def test_unit_root_tables_of_one_length_merge_into_the_two_length_table():
    both = unit_root_critical_table([300, 1000], reps=1000, seed=5)
    merged = unit_root_critical_table(1000, reps=1000, seed=5).merged(
        unit_root_critical_table(300, reps=1000, seed=5))
    assert (merged.dims, merged.levels, merged.meta) == (both.dims, both.levels, both.meta)
    assert merged.values.tobytes() == both.values.tobytes()
    with pytest.raises(ValueError, match="different levels or meta"):
        both.merged(unit_root_critical_table(300, reps=1001, seed=5))


def test_sequential_unit_root_needs_a_table_for_the_panel_length(monkeypatch):
    calls = []
    stat = baselines.unit_root_stat
    monkeypatch.setattr(baselines, "unit_root_stat", lambda *a: calls.append(1) or stat(*a))
    table = unit_root_critical_table([300, 1000], reps=1000, seed=0)
    noise = derive_stream(67).standard_normal((500, 2))
    with pytest.raises(ValueError, match=r"no length 500 \(covers \(300, 1000\)\)"):
        sequential_unit_root(noise, 0.05, table)
    assert calls == []
    assert sequential_unit_root(noise[:300], 0.05, table) == 2


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"reps": 5}, "reps >= 1000"),
        ({"levels": (2.0,)}, "level must lie in"),
        ({"seed": -1}, "seed >= 0"),
        ({"reps": 1000.5}, "reps must be an integer, got 1000.5"),
    ],
    ids=["reps", "levels", "seed", "reps-fraction"],
)
def test_unit_root_table_checks_its_arguments_for_no_lengths(kwargs, match):
    with pytest.raises(ValueError, match=match):
        unit_root_critical_table(n=[], **kwargs)
    empty = unit_root_critical_table(n=[], reps=1000)
    assert empty.dims == () and empty.values.shape == (0, 1)
