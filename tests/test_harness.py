import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from eigencoint import harness
from eigencoint.errors import ExperimentFailure, SingularMixing
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
from eigencoint.ranksel import fit, rank_ratio, split
from eigencoint.simgen import ScenarioSpec, gen_panel
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
    ],
)
def test_plan_validation(overrides, match):
    with pytest.raises(ValueError, match=match):
        small_plan(**overrides)


def test_plan_accepts_each_estimators_shortest_sample():
    # johansen needs n > 2p + 2 (p = 4 here), unitroot n >= 20.
    assert small_plan(estimators=("johansen",), n_grid=(11,)).n_grid == (11,)
    assert small_plan(estimators=("unitroot",), n_grid=(20,)).n_grid == (20,)


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

def test_single_replicate_equals_direct_pipeline():
    plan = preset_plan(
        "example2",
        reps=1,
        cells=((6, 2),),
        n_grid=(1000,),
        estimators=("ratio",),
        master_seed=123,
    )
    report = run_plan(plan)
    assert len(report.replicates) == 1
    rec = report.replicates[0]

    seed = replicate_seed(123, 0, 0)
    panel = gen_panel(replace(preset_template("example2", 6, 2), n=1000, seed=seed))
    fitted = fit(panel.y, plan.j0)
    r_est = rank_ratio(fitted.eigen, 1000)
    dist = dist_d1(split(fitted, r_est)[1], panel.b2)

    assert rec.r_est == r_est
    assert rec.dist == dist
    assert rec.scenario == "p6_r2"
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
    draw_mixing = simgen._draw_mixing

    def failing_draw(spec):
        if spec.seed == bad_seed:
            raise SingularMixing("forced")
        return draw_mixing(spec)

    monkeypatch.setattr(simgen, "_draw_mixing", failing_draw)
    patched = run_plan(plan).replicates
    assert len(patched) == len(clean)
    for before, after in zip(clean, patched):
        if after.replicate == 3:
            assert (after.r_est, after.dist, after.error) == (None, None, "SingularMixing")
        else:
            assert after == before


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
