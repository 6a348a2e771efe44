import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from eigencoint import harness
from eigencoint.errors import (
    DegenerateComponent,
    ExperimentFailure,
    SingularBasis,
    SingularMixing,
)
from eigencoint.harness import (
    ESTIMATORS,
    PRESET_CELLS,
    PRESET_ESTIMATORS,
    PRESET_N_GRID,
    CellResult,
    ExperimentPlan,
    ExperimentReport,
    ReplicateRecord,
    _aggregate_cell,
    emit_replicates,
    emit_report,
    load_plan,
    preset_plan,
    preset_template,
    run_plan,
)
from eigencoint.baselines import (
    johansen_trace,
    sequential_unit_root,
    trace_critical_table,
    unit_root_critical_table,
)
from eigencoint.ranksel import (
    PenaltySpec,
    fit,
    penalty,
    rank_ic,
    rank_ratio,
    rank_ratio_fractional,
    split,
)
from eigencoint.simgen import GeneratedPanel, ScenarioSpec, gen_panel
from eigencoint.subspace import dist_d1

UNIFORM_STATIONARY = {"kind": "uniform", "low": -0.8, "high": 0.8}


def small_template(p=4, r=1, d=1):
    return ScenarioSpec(
        name=f"p{p}_r{r}",
        p=p,
        r=r,
        stationary_law=dict(UNIFORM_STATIONARY),
        nonstationary_blocks=({"count": p - r, "d": d},),
    )


def small_plan(**overrides):
    kwargs = dict(
        scenarios=(small_template(),),
        n_grid=(200,),
        estimators=("ratio",),
        reps=5,
        master_seed=7,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def replicate_seed(master_seed, cell_index, replicate):
    """The documented provenance: one 64-bit word per (cell, replicate)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(cell_index, replicate))
    return int(seq.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# scenarios (specs with n open) and plans

def test_template_round_trip():
    template = small_template()
    assert template.n is None
    assert ScenarioSpec.from_dict(template.to_dict()) == template


def test_template_validates_design_eagerly():
    with pytest.raises(ValueError, match="expected p - r"):
        ScenarioSpec(
            name="bad",
            p=4,
            r=1,
            stationary_law=dict(UNIFORM_STATIONARY),
            nonstationary_blocks=({"count": 2, "d": 1},),
        )


def test_template_order_properties():
    integer = small_template(d=2)
    assert not integer.is_fractional
    assert integer.d_min == 2.0
    fractional = small_template(d=1.4)
    assert fractional.is_fractional
    assert fractional.d_min == 1.4


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"scenarios": ()}, "at least one"),
        ({"n_grid": ()}, "at least one"),
        ({"estimators": ()}, "at least one"),
        ({"reps": 0}, "reps >= 1"),
        ({"parallelism": 0}, "parallelism >= 1"),
        ({"estimators": ("ratio", "mle")}, "unknown estimator"),
        ({"estimators": ("fractional_ratio",)}, "requires fractional"),
        ({"level": 1.5}, r"level must lie in \(0, 1\)"),
        ({"level": 0.0}, r"level must lie in \(0, 1\)"),
        ({"n_grid": (5,)}, "n >= 10"),
        ({"n_grid": (200, 9)}, "n >= 10"),
        ({"j0": -1}, "0 <= j0 <= min"),
        ({"j0": 199, "n_grid": (300, 200)}, "0 <= j0 <= min"),
        ({"estimators": ("johansen",), "crit_reps": 10}, "reps >= 1000"),
        ({"estimators": ("johansen",), "crit_T": 50}, "T >= 100"),
        ({"estimators": ("unitroot",), "ur_reps": 0}, "reps >= 1000"),
        ({"scenarios": (replace(small_template(), n=200),)}, "sets n"),
        ({"estimators": ("ratio", "unitroot"), "n_grid": (300, 19)},
         "unitroot needs n >= 20"),
        ({"estimators": ("johansen",), "n_grid": (10,)}, "johansen needs n >= 11"),
        ({"scenarios": (small_template(), small_template())}, "names must be distinct"),
        ({"scenarios": (replace(small_template(3, 1), name=""),
                        replace(small_template(4, 2), name=""))},
         "names must be distinct"),
        ({"scenarios": (small_template(d=1.4),), "estimators": ("fractional_ratio",),
          "fractional_delta": 0.7}, r"delta must lie in \[0, 1/2\)"),
        ({"scenarios": (small_template(d=1.4),), "estimators": ("fractional_ratio",),
          "fractional_d_min": 0.5}, "d_min must exceed 1/2"),
        ({"reps": 2.5}, "reps must be an integer, got 2.5"),
        ({"master_seed": 1.5}, "master_seed must be an integer"),
        ({"j0": 2.5}, "j0 must be an integer"),
        ({"estimators": ("johansen",), "crit_T": 100.5}, "crit_T must be an integer"),
        ({"estimators": ("johansen",), "crit_reps": 1000.5}, "crit_reps must be an integer"),
        ({"estimators": ("unitroot",), "ur_reps": 1000.5}, "ur_reps must be an integer"),
        ({"n_grid": (200.5,)}, "n_grid must be an integer"),
        ({"reps": "5"}, "reps must be an integer"),
        ({"scenarios": (dict(small_template().to_dict(),
                             nonstationary_blocks=[{"count": 3, "d": 1, "ma_laws": None}]),)},
         r"unknown block fields: \['ma_laws'\]"),
        ({"scenarios": (dict(small_template().to_dict(), mixing={"kind": "identity"}),)},
         r"unknown scenario fields: \['mixing'\]"),
        ({"scenarios": (dict(small_template().to_dict(), p=4.5, r=1.5),)},
         "p must be an integer, got 4.5"),
        ({"scenarios": (replace(small_template(), seed=7),)},
         "sets seed; a plan's master_seed sets it"),
        ({"n_grid": (300, 200, 300)},
         r"n_grid entries must be distinct, got \[300, 200, 300\] \(repeated: \[300\]\)"),
        ({"n_grid": (200, 200.0)}, r"n_grid entries must be distinct.*\(repeated: \[200\]\)"),
        ({"estimators": ("ratio", "unitroot", "ratio")},
         r"estimators must be distinct.*\(repeated: \['ratio'\]\)"),
        ({"scenarios": (replace(small_template(), name="p4,r1"),)},
         r"scenario names must be strings without ',', '\"', CR or LF, got 'p4,r1'"),
        ({"scenarios": (replace(small_template(), name=4),)}, "must be strings.*got 4"),
    ],
)
def test_plan_validation(overrides, match):
    with pytest.raises(ValueError, match=match):
        small_plan(**overrides)


def test_plan_accepts_each_estimators_shortest_sample():
    # johansen needs n > 2p + 2 (p = 4 here), unitroot n >= 20.
    assert small_plan(estimators=("johansen",), n_grid=(11,)).n_grid == (11,)
    assert small_plan(estimators=("unitroot",), n_grid=(20,)).n_grid == (20,)


def test_plan_stores_whole_float_fields_as_integers():
    plan = small_plan(reps=5.0, master_seed=7.0, n_grid=(200.0,), j0=3.0)
    assert (plan.reps, plan.master_seed, plan.n_grid, plan.j0) == (5, 7, (200,), 3)
    assert all(type(v) is int for v in (plan.reps, plan.master_seed, plan.j0, *plan.n_grid))


def test_plan_accepts_fractional_estimator_on_fractional_scenario():
    plan = small_plan(
        scenarios=(small_template(d=1.4),), estimators=("fractional_ratio",)
    )
    assert plan.estimators == ("fractional_ratio",)


def test_cells_enumerate_scenario_major():
    s1, s2 = small_template(), small_template(p=3, r=1)
    plan = small_plan(scenarios=(s1, s2), n_grid=(100, 200, 300))
    cells = plan.cells()
    assert [c[0] for c in cells] == list(range(6))
    assert [(c[1].name, c[2]) for c in cells] == [
        (s1.name, 100), (s1.name, 200), (s1.name, 300),
        (s2.name, 100), (s2.name, 200), (s2.name, 300),
    ]


def test_plan_round_trip_and_unknown_field():
    plan = small_plan(level=0.1, j0=3)
    again = ExperimentPlan.from_dict(plan.to_dict())
    assert again == plan
    with pytest.raises(ValueError, match="unknown plan fields"):
        ExperimentPlan.from_dict(dict(plan.to_dict(), burn_in=100))


# ---------------------------------------------------------------------------
# run_plan

def _direct_estimate(plan, scenario, n, est, panel, fitted):
    """One estimator on one replicate, from the library calls alone."""
    if est == "johansen":
        table = trace_critical_table(
            dims=range(1, scenario.p + 1), levels=(plan.level,),
            T=plan.crit_T, reps=plan.crit_reps, seed=plan.master_seed,
        )
        res = johansen_trace(panel.y, table, plan.level)
        r_est = res.selected_r
        a2 = np.linalg.qr(res.directions[:, :r_est])[0] if r_est else res.directions[:, :0]
        return r_est, a2
    if est == "ratio":
        r_est = rank_ratio(fitted.eigen, n)
    elif est == "unitroot":
        table = unit_root_critical_table(
            n=n, levels=(plan.level,), reps=plan.ur_reps, seed=plan.master_seed
        )
        r_est = sequential_unit_root(fitted.x_hat, plan.level, table)
    elif est == "fractional_ratio":
        r_est = rank_ratio_fractional(
            fitted.eigen, n, scenario.d_min, plan.fractional_delta
        )
    else:
        omega = penalty(PenaltySpec(est[3:]), n, fitted.eigen.values[-1])
        r_est = rank_ic(fitted.eigen, omega)
    return r_est, split(fitted, r_est)[1]


@pytest.mark.parametrize(
    "est", ["ratio", "ic_omega1", "ic_omega2", "ic_omega3", "unitroot", "johansen",
            "fractional_ratio"],
)
def test_single_replicate_equals_direct_pipeline(est):
    if est == "fractional_ratio":
        scenario = small_template(p=6, r=2, d=1.4)
        plan = small_plan(
            scenarios=(scenario,), n_grid=(1000,), estimators=(est,), reps=1,
            master_seed=123, fractional_delta=0.1,
        )
    else:
        scenario = preset_template("example2", 6, 2)
        plan = preset_plan(
            "example2", reps=1, cells=((6, 2),), n_grid=(1000,), estimators=(est,),
            master_seed=123, crit_T=100, crit_reps=1000, ur_reps=1000,
        )
    report = run_plan(plan)
    assert len(report.replicates) == 1
    rec = report.replicates[0]

    seed = replicate_seed(123, 0, 0)
    panel = gen_panel(replace(scenario, n=1000, seed=seed))
    fitted = fit(panel.y, plan.j0)
    r_est, a2 = _direct_estimate(plan, scenario, 1000, est, panel, fitted)
    dist = dist_d1(a2, panel.b2)

    assert rec.r_est == r_est
    assert rec.dist == dist
    assert rec.scenario == scenario.name
    assert rec.estimator == est
    assert not rec.failed

    cell = report.cells[0]
    assert cell.freq_correct == float(r_est == 2)
    assert cell.dist_mean == dist
    assert cell.dist_sd == 0.0
    assert cell.failures == 0
    assert cell.reps == 1
    assert cell.seed == 123


def test_frequency_improves_with_sample_size():
    plan = preset_plan(
        "example2",
        reps=200,
        cells=((6, 2),),
        n_grid=(300, 1000),
        estimators=("ratio",),
        parallelism=4,
    )
    report = run_plan(plan)
    freq = {cell.n: cell.freq_correct for cell in report.cells}
    assert freq[1000] > freq[300]
    assert freq[300] > 0.5


def test_report_independent_of_worker_count():
    serial = run_plan(small_plan(reps=20))
    parallel = run_plan(small_plan(reps=20, parallelism=2))
    assert serial.replicates == parallel.replicates
    assert emit_report(serial) == emit_report(parallel)
    assert emit_replicates(serial) == emit_replicates(parallel)


def test_mixing_failure_lands_on_its_own_replicate(monkeypatch):
    from eigencoint import simgen

    plan = small_plan(reps=20)
    clean = run_plan(plan).replicates
    bad_seed = replicate_seed(plan.master_seed, 0, 3)
    draw_mixings = simgen._draw_mixings

    def failing_draw(batch):
        if any(spec.seed == bad_seed for spec in batch):
            raise SingularMixing("forced")
        return draw_mixings(batch)

    monkeypatch.setattr(simgen, "_draw_mixings", failing_draw)
    patched = run_plan(plan).replicates
    assert len(patched) == len(clean)
    for before, after in zip(clean, patched):
        if after.replicate == 3:
            assert (after.r_est, after.dist, after.error) == (None, None, "SingularMixing")
        else:
            assert after == before


def test_estimator_failure_lands_on_its_own_record(monkeypatch):
    plan = small_plan(reps=20, estimators=("ratio", "unitroot"), ur_reps=1000)
    clean = run_plan(plan).replicates
    sequential = harness.sequential_unit_root
    calls = []

    def failing_first(*args):
        calls.append(args)
        if len(calls) == 1:
            raise DegenerateComponent("forced")
        return sequential(*args)

    monkeypatch.setattr(harness, "sequential_unit_root", failing_first)
    patched = run_plan(plan)
    assert len(patched.replicates) == len(clean)
    changed = [(b, a) for b, a in zip(clean, patched.replicates) if a != b]
    assert len(changed) == 1
    before, after = changed[0]
    assert before.estimator == "unitroot" and not before.failed
    assert after == replace(before, r_est=None, dist=None, error="DegenerateComponent")
    assert {c.estimator: c.failures for c in patched.cells} == {"ratio": 0, "unitroot": 1}


@pytest.mark.parametrize(
    "budget", [1, 3 * 4 * 200, 2**62], ids=["single", "uneven", "whole-cell"]
)
def test_report_independent_of_chunk_budget(monkeypatch, budget):
    plan = small_plan(reps=7, n_grid=(150, 200), estimators=("ratio", "ic_omega2"))
    default = run_plan(plan)
    monkeypatch.setattr(harness, "_CHUNK_FLOATS", budget)
    chunked = run_plan(plan)
    assert emit_report(chunked) == emit_report(default)
    assert emit_replicates(chunked) == emit_replicates(default)


@pytest.mark.parametrize(
    "budget", [1, 3 * 4 * 200, 2**62], ids=["single", "uneven", "whole-chunk"]
)
def test_report_independent_of_fit_budget(monkeypatch, budget):
    plan = small_plan(reps=7, n_grid=(150, 200), estimators=("ratio", "ic_omega2", "unitroot"),
                      ur_reps=1000)
    default = run_plan(plan)
    monkeypatch.setattr(harness, "_FIT_FLOATS", budget)
    batched = run_plan(plan)
    assert emit_report(batched) == emit_report(default)
    assert emit_replicates(batched) == emit_replicates(default)


def test_non_finite_panel_fails_only_its_own_records(monkeypatch):
    # Replicate 4 sits in the middle of the sub-batch (3, 4, 5): the
    # stacked fit raises, and the per-panel fallback fails only its fit.
    plan = small_plan(reps=20, estimators=("ratio", "unitroot"), ur_reps=1000)
    monkeypatch.setattr(harness, "_FIT_FLOATS", 3 * 4 * 200)
    clean = run_plan(plan).replicates
    bad_seed = replicate_seed(plan.master_seed, 0, 4)
    generate = harness.gen_panel

    def corrupting(specs):
        # ``y`` is mixed from ``x`` on each read: a NaN in row 10 of ``x``
        # makes row 10 of that panel's ``y`` NaN.
        panels = generate(specs)
        for spec, panel in zip(specs, panels):
            if spec.seed == bad_seed:
                panel.x[10, 0] = np.nan
        return panels

    monkeypatch.setattr(harness, "gen_panel", corrupting)
    patched = run_plan(plan)
    assert len(patched.replicates) == len(clean)
    for before, after in zip(clean, patched.replicates):
        if after.replicate == 4:
            assert (after.r_est, after.dist, after.error) == (None, None, "InvalidSeries")
        else:
            assert after == before
    assert all(c.failures == 1 for c in patched.cells)


def test_chunk_holds_one_sub_batch_of_fits_at_a_time(monkeypatch):
    # Four sub-batches of three panels in one chunk: when a stacked fit
    # starts, no earlier sub-batch's x_hat stack is alive.
    plan = small_plan(reps=12, estimators=("ratio", "unitroot"), ur_reps=1000)
    monkeypatch.setattr(harness, "_FIT_FLOATS", 3 * 4 * 200)
    stacked_fit = harness.fit
    stacks, alive = [], []

    def tracked(ys, j0):
        alive.append(sum(ref() is not None for ref in stacks))
        fits = stacked_fit(ys, j0)
        stacks.append(weakref.ref(fits[0].x_hat.base))
        return fits

    monkeypatch.setattr(harness, "fit", tracked)
    run_plan(plan)
    assert alive == [0, 0, 0, 0]


def test_chunk_peak_memory_is_about_one_latent_array_and_one_sub_batch():
    # 100 replicates of example2 (10, 4) at n=1000 are one chunk: its
    # latent array is 8 MB, and its sub-batches are 3 panels (240 kB).  A
    # sub-batch's working set (its y stack, the centred copy, x_hat and the
    # unit-root scratch) is a few sub-batch sizes; a y kept per panel would
    # add another 8 MB.
    plan = preset_plan("example2", cells=[(10, 4)], n_grid=(1000,), reps=100, ur_reps=1000)
    cell = next(iter(plan.cells()))
    tables = {"unitroot": unit_root_critical_table(
        n=1000, levels=(plan.level,), reps=plan.ur_reps, seed=plan.master_seed)}
    harness._run_chunk(plan, cell, tables, range(4))  # lazy imports stay out of the peak
    latent = 100 * 1000 * 10 * 8
    sub_batch = harness._FIT_FLOATS // (1000 * 10) * 1000 * 10 * 8
    tracemalloc.start()
    try:
        records = harness._run_chunk(plan, cell, tables, range(100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 100 * len(plan.estimators)
    assert peak <= latent + 8 * sub_batch


def test_harness_mixes_each_panel_once(monkeypatch):
    # The fit and johansen read one y per replicate, mixed into its
    # sub-batch's stack.
    plan = small_plan(reps=10, estimators=("ratio", "johansen"), crit_T=100, crit_reps=1000)
    mix = GeneratedPanel.mix
    mixed = []

    def counted(self, out=None):
        mixed.append(self)
        return mix(self, out=out)

    monkeypatch.setattr(GeneratedPanel, "mix", counted)
    report = run_plan(plan)
    assert len(mixed) == plan.reps
    assert not any(rec.failed for rec in report.replicates)


FIT_BASED_AND_JOHANSEN = ("ratio", "ic_omega1", "ic_omega2", "unitroot", "johansen")


def shared_distance_plan():
    # At p=5, n=200 the fit-based estimators disagree on most replicates,
    # and johansen's rank sometimes equals theirs.  With 20 replicates one
    # failed record per cell stays within the failure budget.
    return small_plan(
        scenarios=(small_template(p=5, r=2),), reps=20, estimators=FIT_BASED_AND_JOHANSEN,
        crit_T=100, crit_reps=1000, ur_reps=1000,
    )


def replicate_panels(plan):
    scenario, n = plan.scenarios[0], plan.n_grid[0]
    return [
        gen_panel(replace(scenario, n=n, seed=replicate_seed(plan.master_seed, 0, k)))
        for k in range(plan.reps)
    ]


def test_fit_based_estimators_share_one_distance_per_rank(monkeypatch):
    plan = shared_distance_plan()
    panels = replicate_panels(plan)
    calls = []
    distance = harness.dist_d1

    def counted(a2, b2, **factor):
        calls.append(next(k for k, panel in enumerate(panels) if np.array_equal(panel.b2, b2)))
        return distance(a2, b2, **factor)

    monkeypatch.setattr(harness, "dist_d1", counted)
    report = run_plan(plan)
    assert len(report.replicates) == plan.reps * len(FIT_BASED_AND_JOHANSEN)
    distinct = []
    for k, panel in enumerate(panels):
        records = {rec.estimator: rec for rec in report.replicates if rec.replicate == k}
        fitted = fit(panel.y, plan.j0)
        for est, rec in records.items():
            r_est, a2 = _direct_estimate(plan, plan.scenarios[0], plan.n_grid[0], est, panel,
                                         fitted)
            assert (rec.r_est, rec.dist, rec.error) == (r_est, dist_d1(a2, panel.b2), "")
        distinct.append(len({rec.r_est for est, rec in records.items() if est != "johansen"}))
        assert calls.count(k) == distinct[k] + 1
    assert len(calls) < len(report.replicates)
    assert max(distinct) > 1


def test_shared_distance_error_fails_every_fit_based_record(monkeypatch):
    plan = shared_distance_plan()
    clean = run_plan(plan).replicates
    bad = replicate_panels(plan)[5]
    vectors = fit(bad.y, plan.j0).eigen.vectors
    distance = harness.dist_d1
    raised = []

    def failing(a2, b2, **factor):
        # Only the fit-based bases (trailing eigenvectors) of replicate 5
        # raise; its johansen basis is scored as usual.
        width = np.shape(a2)[1]
        if np.array_equal(b2, bad.b2) and np.array_equal(a2, vectors[:, vectors.shape[1] - width:]):
            raised.append(width)
            raise SingularBasis("forced")
        return distance(a2, b2, **factor)

    monkeypatch.setattr(harness, "dist_d1", failing)
    patched = run_plan(plan).replicates
    assert len(patched) == len(clean)
    fit_based = [b for b in clean if b.replicate == 5 and b.estimator != "johansen"]
    # One raise per distinct rank (here 2, 3 and 4), shared by its records.
    assert sorted(raised) == sorted({b.r_est for b in fit_based}) == [2, 3, 4]
    for before, after in zip(clean, patched):
        if before in fit_based:
            assert after == replace(before, r_est=None, dist=None, error="SingularBasis")
        else:
            assert after == before


def test_rank_deficient_true_basis_fails_only_its_own_replicate(monkeypatch):
    # Replicate 3's b2 loses rank inside the batch: it carries no factor,
    # so its dist_d1 calls factor b2 and raise SingularBasis as they always
    # did; every other replicate keeps its factor and its bytes.
    from eigencoint import simgen

    plan = small_plan(reps=20, scenarios=(small_template(p=5, r=2),),
                      estimators=("ratio", "ic_omega2", "unitroot"), ur_reps=1000)
    clean = run_plan(plan).replicates
    bad_mixing = replicate_panels(plan)[3].mixing
    basis = simgen.true_b2

    def deficient(mixing, r):
        b2s = basis(mixing, r)
        for j in range(len(b2s)):
            if np.array_equal(mixing[j], bad_mixing):
                b2s[j, :, 1] = b2s[j, :, 0]
        return b2s

    monkeypatch.setattr(simgen, "true_b2", deficient)
    panels = {}
    distance = harness.dist_d1

    def checked(a2, b2, *, b2_q=None):
        panels.setdefault(b2.tobytes(), b2_q is None)
        return distance(a2, b2, b2_q=b2_q)

    monkeypatch.setattr(harness, "dist_d1", checked)
    patched = run_plan(plan).replicates
    assert len(patched) == len(clean)
    assert sorted(panels.values()) == [False] * 19 + [True]
    for before, after in zip(clean, patched):
        if after.replicate == 3:
            assert (after.r_est, after.dist, after.error) == (None, None, "SingularBasis")
        else:
            assert after == before


def test_plan_builds_all_its_unit_root_tables_in_one_call(monkeypatch):
    plan = small_plan(n_grid=(300, 120, 200), estimators=("ratio", "unitroot"), reps=3,
                      ur_reps=1000)
    clean = emit_replicates(run_plan(plan))
    calls = []
    build = harness.unit_root_critical_table

    def recording(**kwargs):
        table = build(**kwargs)
        calls.append(table.dims)
        for i, n in enumerate(table.dims):
            alone = unit_root_critical_table(n=n, levels=(plan.level,), reps=plan.ur_reps,
                                             seed=plan.master_seed)
            assert table.values[i].tobytes() == alone.values[0].tobytes()
            assert table.meta == alone.meta
        return table

    monkeypatch.setattr(harness, "unit_root_critical_table", recording)
    assert emit_replicates(run_plan(plan)) == clean
    assert calls == [(120, 200, 300)]


def test_all_estimators_run_in_one_plan():
    plan = small_plan(
        scenarios=(small_template(p=2, r=1),),
        n_grid=(120,),
        estimators=("ratio", "ic_omega2", "johansen", "unitroot"),
        reps=3,
        crit_T=100,
        crit_reps=1000,
        ur_reps=1000,
    )
    report = run_plan(plan)
    assert len(report.replicates) == 3 * 4
    for rec in report.replicates:
        assert rec.error == ""
        assert 0 <= rec.r_est <= 2
        assert 0.0 <= rec.dist <= 1.0
    assert {c.estimator for c in report.cells} == set(plan.estimators)


def test_fractional_plan_runs():
    plan = small_plan(
        scenarios=(small_template(p=2, r=1, d=1.4),),
        n_grid=(200,),
        estimators=("fractional_ratio",),
        reps=3,
        fractional_delta=0.1,
    )
    report = run_plan(plan)
    assert all(rec.r_est is not None for rec in report.replicates)


def test_systematic_failures_abort_the_cell():
    # Every stationary AR coefficient drawn lies outside the unit circle,
    # so every replicate errors
    explosive = replace(
        small_template(), stationary_law={"kind": "uniform", "low": 1.0, "high": 1.5}
    )
    plan = small_plan(scenarios=(explosive,), reps=5)
    with pytest.raises(ExperimentFailure, match="5/5"):
        run_plan(plan)


def test_replicate_seed_provenance():
    plan = small_plan(reps=2, n_grid=(150, 200), master_seed=99)
    report = run_plan(plan)
    by_key = {(rec.n, rec.replicate): rec for rec in report.replicates}
    # regenerate one record from scratch using only (master_seed, cell, rep)
    rec = by_key[(200, 1)]
    panel = gen_panel(replace(plan.scenarios[0], n=200, seed=replicate_seed(99, 1, 1)))
    fitted = fit(panel.y, plan.j0)
    assert rec.r_est == rank_ratio(fitted.eigen, 200)


# ---------------------------------------------------------------------------
# aggregation and the failure budget

def fake_records(n_good, n_failed, template, n=100, est="ratio", r_est=1):
    base = dict(scenario=template.name, p=template.p, r=template.r, n=n, estimator=est)
    good = [
        ReplicateRecord(**base, replicate=k, r_est=r_est, dist=0.01 * (k + 1))
        for k in range(n_good)
    ]
    failed = [
        ReplicateRecord(
            **base, replicate=n_good + k, r_est=None, dist=None, error="SingularMixing"
        )
        for k in range(n_failed)
    ]
    return good + failed


def test_aggregate_rejects_over_budget_failures():
    template = small_template()
    plan = small_plan(reps=10)
    records = fake_records(9, 1, template)
    with pytest.raises(ExperimentFailure, match="1/10"):
        _aggregate_cell(plan, template, 100, "ratio", records, 0.0)


def test_aggregate_excludes_failures_within_budget():
    template = small_template()
    plan = small_plan(reps=40)
    records = fake_records(39, 1, template)
    cell = _aggregate_cell(plan, template, 100, "ratio", records, 0.0)
    assert cell.failures == 1
    assert cell.freq_correct == 1.0  # all good records hit r_est == r == 1
    dists = np.array([0.01 * (k + 1) for k in range(39)])
    assert cell.dist_mean == pytest.approx(dists.mean(), rel=1e-12)
    assert cell.dist_sd == pytest.approx(dists.std(ddof=1), rel=1e-12)
    assert set(cell.dist_quantiles) == {"0.05", "0.25", "0.5", "0.75", "0.95"}
    for level, value in cell.dist_quantiles.items():
        assert value == float(np.quantile(dists, float(level)))  # one call per level


def test_aggregate_counts_wrong_ranks():
    template = small_template()
    plan = small_plan(reps=4)
    records = [
        ReplicateRecord(
            scenario=template.name, p=4, r=1, n=100, estimator="ratio",
            replicate=k, r_est=(1 if k < 3 else 2), dist=0.1,
        )
        for k in range(4)
    ]
    cell = _aggregate_cell(plan, template, 100, "ratio", records, 0.0)
    assert cell.freq_correct == 0.75


# ---------------------------------------------------------------------------
# emission

def hand_cell(**overrides):
    kwargs = dict(
        scenario="p6_r2",
        p=6,
        r=2,
        n=300,
        estimator="ratio",
        freq_correct=0.8351,
        dist_mean=0.01234,
        dist_sd=0.0056,
        dist_quantiles={"0.5": 0.01},
        reps=200,
        failures=0,
        seed=0,
        runtime=1.5,
    )
    kwargs.update(overrides)
    return CellResult(**kwargs)


def test_empty_report_is_header_only():
    report = ExperimentReport(plan=small_plan(), cells=(), replicates=())
    assert emit_report(report) == (
        "scenario,p,r,n,estimator,freq,dist_mean,dist_sd,reps,failures,seed\n"
    )


def test_one_cell_report_rows():
    report = ExperimentReport(plan=small_plan(), cells=(hand_cell(),), replicates=())
    lines = emit_report(report).splitlines()
    assert len(lines) == 2
    assert lines[1] == "p6_r2,6,2,300,ratio,0.835,0.012,0.006,200,0,0"


def test_json_report_mirrors_csv():
    report = ExperimentReport(plan=small_plan(), cells=(hand_cell(),), replicates=())
    data = json.loads(emit_report(report, format="json"))
    row = data["rows"][0]
    assert row["scenario"] == "p6_r2"
    assert row["freq"] == 0.835
    assert row["dist_mean"] == 0.012
    assert row["n"] == 300
    csv_fields = emit_report(report).splitlines()[1].split(",")
    header = emit_report(report).splitlines()[0].split(",")
    assert [str(row[col]) for col in header] == csv_fields


def test_unknown_format_rejected():
    report = ExperimentReport(plan=small_plan(), cells=(), replicates=())
    with pytest.raises(ValueError, match="unknown format"):
        emit_report(report, format="tsv")


def test_replicate_csv_full_precision_and_failures():
    good = ReplicateRecord(
        scenario="s", p=2, r=1, n=100, estimator="ratio",
        replicate=0, r_est=1, dist=0.12345678901234567,
    )
    bad = ReplicateRecord(
        scenario="s", p=2, r=1, n=100, estimator="ratio",
        replicate=1, r_est=None, dist=None, error="SingularMixing",
    )
    report = ExperimentReport(plan=small_plan(), cells=(), replicates=(good, bad))
    lines = emit_replicates(report).splitlines()
    assert lines[0] == "scenario,p,r,n,estimator,replicate,r_est,dist,error"
    assert float(lines[1].split(",")[7]) == good.dist
    assert lines[2] == "s,2,1,100,ratio,1,,,SingularMixing"


# ---------------------------------------------------------------------------
# presets and plan loading

def test_example3_template_grids():
    template = preset_template("example3", 6, 2, 2)
    once, twice = template.nonstationary_blocks
    assert once.d == 1
    assert once.ar_law == {"kind": "grid", "values": [0.55, 0.8]}
    assert once.ma_law == {"kind": "grid", "values": [0.5, 0.8]}
    assert twice.d == 2
    assert twice.count == 2
    assert twice.ar_law is None
    assert twice.ma_law == {"kind": "uniform", "low": -0.95, "high": 0.95}
    assert template.stationary_law == {"kind": "grid", "values": [0.0, 0.8]}


def test_integer_preset_templates():
    t1 = preset_template("example1", 8, 2)
    assert t1.nonstationary_blocks[0].d == 1
    assert t1.nonstationary_blocks[0].count == 6
    t2 = preset_template("example2", 6, 4)
    assert t2.nonstationary_blocks[0].d == 2
    all_stationary = preset_template("example2", 4, 4)
    assert all_stationary.nonstationary_blocks == ()


@pytest.mark.parametrize(
    "args, match",
    [
        (("example1", 8, 2, 3), "no s parameter"),
        (("example9", 4, 1), "unknown preset"),
        (("example3", 6, 2, None), "1 <= s <= p - r"),
        (("example3", 6, 2, 5), "1 <= s <= p - r"),
    ],
)
def test_preset_template_rejects_bad_arguments(args, match):
    with pytest.raises(ValueError, match=match):
        preset_template(*args)


def test_preset_plan_defaults_and_subsets():
    full = preset_plan("example2")
    assert len(full.scenarios) == len(PRESET_CELLS["example2"])
    assert full.n_grid == PRESET_N_GRID["example2"]
    assert full.estimators == PRESET_ESTIMATORS["example2"]
    sub = preset_plan(
        "example2", reps=10, cells=((6, 2),), n_grid=(300,), estimators=("ratio",),
        level=0.10,
    )
    assert [s.name for s in sub.scenarios] == ["p6_r2"]
    assert sub.level == 0.10
    with pytest.raises(ValueError, match="unknown preset"):
        preset_plan("example7")


def test_estimator_names_cover_presets():
    for names in PRESET_ESTIMATORS.values():
        assert set(names) <= set(ESTIMATORS)


def test_load_plan_variants(tmp_path):
    plan = small_plan()
    assert load_plan(plan.to_dict()) == plan
    assert load_plan(json.dumps(plan.to_dict())) == plan
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
    assert load_plan(str(path)) == plan


def test_load_plan_preset_shorthand():
    plan = load_plan({"preset": "example2", "reps": 10, "cells": [[6, 2]], "n_grid": [300]})
    assert plan.reps == 10
    assert plan.scenarios[0].name == "p6_r2"
    assert plan.n_grid == (300,)


def test_load_plan_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown plan fields"):
        load_plan({"scenarios": [small_template().to_dict()], "n_grid": [100],
                   "estimators": ["ratio"], "warmup": 5})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"bogus": 1}, "unknown plan fields: ['bogus']"),
        ({"scenarios": [], "warmup": 5}, "unknown plan fields: ['scenarios', 'warmup']"),
        ({"cells": [[6]]}, "example2 cells are (p, r), got [6]"),
        ({"cells": [[6, 2, 1]]}, "example2 cells are (p, r), got [6, 2, 1]"),
        ({"cells": [6, 2]}, "example2 cells are (p, r), got 6"),
        ({"cells": [[6, 7]]}, "example2 cell [6, 7]: need p >= 1 and 0 <= r <= p"),
        ({"preset": "example3", "cells": [[6, 2]]}, "example3 cells are (p, r, s), got [6, 2]"),
    ],
    ids=["unknown", "scenarios", "short_cell", "long_cell", "flat_cells", "bad_cell",
         "example3_pair"],
)
def test_load_plan_preset_reference_is_strict(fields, message):
    with pytest.raises(ValueError) as raised:
        load_plan({"preset": "example2", **fields})
    assert str(raised.value).startswith(message)


# The plan file shown in README.md, verbatim.
README_PLAN = """
{
  "scenarios": [
    {
      "name": "p4_r1",
      "p": 4,
      "r": 1,
      "stationary_law": {"kind": "uniform", "low": -0.8, "high": 0.8},
      "nonstationary_blocks": [
        {"count": 3, "d": 1,
         "ar_law": {"kind": "uniform", "low": 0.3, "high": 0.8},
         "ma_law": null}
      ],
      "mixing_law": {"kind": "uniform", "low": -3.0, "high": 3.0}
    }
  ],
  "n_grid": [300, 1000],
  "estimators": ["ratio", "ic_omega2"],
  "reps": 200,
  "master_seed": 0,
  "level": 0.05,
  "j0": 5,
  "crit_T": 1000,
  "crit_reps": 2000,
  "ur_reps": 4000,
  "fractional_d_min": null,
  "fractional_delta": 0.0
}
"""


def test_readme_plan_file_round_trips():
    data = json.loads(README_PLAN)
    plan = load_plan(README_PLAN)
    assert plan.scenarios[0].n is None
    written = plan.to_dict()
    assert written["scenarios"] == data["scenarios"]
    assert [list(s) for s in written["scenarios"]] == [list(s) for s in data["scenarios"]]
    assert {key: written[key] for key in data} == data


def test_whole_float_plan_fields_run_as_integers():
    data = dict(json.loads(README_PLAN), n_grid=[100], reps=4)
    floats = json.loads(json.dumps(data))
    floats["scenarios"][0]["p"] = 4.0
    floats["scenarios"][0]["nonstationary_blocks"][0]["count"] = 3.0
    whole, fractional = (run_plan(load_plan(d)) for d in (data, floats))
    assert emit_report(fractional) == emit_report(whole)
    assert emit_replicates(fractional) == emit_replicates(whole)
