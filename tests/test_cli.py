import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from eigencoint import __version__
from eigencoint.baselines import CriticalTable
from eigencoint.cli import main
from eigencoint.harness import ExperimentPlan
from eigencoint.ranksel import PenaltySpec, fit, penalty, rank_ic, rank_ratio, split

FIXTURES = Path(__file__).parent / "fixtures"
COINT_PAIR = FIXTURES / "coint_pair.csv"
NOISE3 = FIXTURES / "noise3.csv"


def load_pair():
    return np.loadtxt(COINT_PAIR, delimiter=",", skiprows=1)


# ---------------------------------------------------------------------------
# version

def test_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


# ---------------------------------------------------------------------------
# analyze

def test_analyze_cointegrated_pair(tmp_path, capsys):
    out = tmp_path / "pair.json"
    rc = main(["analyze", "--input", str(COINT_PAIR), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["n"] == 500
    assert report["p"] == 2
    assert report["j0"] == 5
    assert len(report["eigenvalues"]) == 2
    assert report["ranks"] == {"ratio": 1, "ic": 1}
    assert report["selected_r"] == 1
    assert report["penalty"]["variant"] == "omega2"
    assert np.shape(report["a2"]) == (2, 1)
    xhat = tmp_path / "pair_xhat.csv"
    assert xhat.exists()
    assert f"wrote {out} and {xhat}" in capsys.readouterr().out


def test_analyze_report_matches_library_pipeline(tmp_path):
    out = tmp_path / "pair.json"
    main(["analyze", "--input", str(COINT_PAIR), "--out", str(out)])
    report = json.loads(out.read_text())

    y = load_pair()
    fitted = fit(y, 5)
    assert report["eigenvalues"] == [float(v) for v in fitted.eigen.values]
    assert report["ranks"]["ratio"] == rank_ratio(fitted.eigen, 500)
    omega = penalty(PenaltySpec("omega2"), 500, fitted.eigen.values[-1])
    assert report["ranks"]["ic"] == rank_ic(fitted.eigen, omega)
    assert report["penalty"]["omega"] == float(omega)
    a2 = split(fitted, report["ranks"]["ratio"])[1]
    assert_array_equal(np.array(report["a2"]), a2)


def test_analyze_xhat_round_trips_exactly(tmp_path):
    out = tmp_path / "pair.json"
    main(["analyze", "--input", str(COINT_PAIR), "--out", str(out)])
    written = np.loadtxt(tmp_path / "pair_xhat.csv", delimiter=",", skiprows=1)
    expected = fit(load_pair(), 5).x_hat
    assert (tmp_path / "pair_xhat.csv").read_text().splitlines()[0] == "x1,x2"
    assert_array_equal(written, expected)


def test_analyze_default_output_paths(tmp_path, monkeypatch):
    shutil.copy(COINT_PAIR, tmp_path / "panel.csv")
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--input", "panel.csv"]) == 0
    assert (tmp_path / "panel_report.json").exists()
    assert (tmp_path / "panel_report_xhat.csv").exists()


def test_analyze_noise_panel_full_rank(tmp_path):
    out = tmp_path / "noise.json"
    rc = main(["analyze", "--input", str(NOISE3), "--methods", "ratio,ic",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["ranks"] == {"ratio": 3, "ic": 3}
    assert np.shape(report["a2"]) == (3, 3)


def test_analyze_unitroot_method(tmp_path):
    out = tmp_path / "pair.json"
    rc = main(["analyze", "--input", str(COINT_PAIR), "--methods", "unitroot",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["ranks"] == {"unitroot": 1}
    assert report["level"] == 0.05
    assert report["selected_r"] == 1


def test_analyze_custom_penalty(tmp_path):
    out = tmp_path / "pair.json"
    rc = main(["analyze", "--input", str(COINT_PAIR), "--methods", "ic",
               "--penalty", "custom=0.5", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["penalty"] == {"variant": "custom", "omega": 0.5}


def test_analyze_accepts_crlf_line_endings(tmp_path):
    rows = COINT_PAIR.read_text().splitlines()[:31]  # header + 30 observations
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(("\r\n".join(rows) + "\r\n").encode())
    out = tmp_path / "r.json"
    assert main(["analyze", "--input", str(crlf), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["n"] == 30
    assert report["p"] == 2


@pytest.mark.parametrize(
    "content, message",
    [
        ("1.0,2.0\n1.0,oops\n", "non-numeric cell 'oops' at row 2, column 2"),
        ("1.0,2.0\n1.0\n", "line 2 has 1 fields, expected 2"),
        ("a,b\n", "header only"),
        ("", "no data rows"),
        ("1.0,2.0\n1.0,nan\n", "non-finite cell 'nan' at row 2, column 2"),
        ("1.0,2.0\n3.0,4.0\n-inf,1.0\n", "non-finite cell '-inf' at row 3, column 1"),
    ],
)
def test_analyze_reports_malformed_csv(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    assert main(["analyze", "--input", str(bad)]) == 2
    assert message in capsys.readouterr().err


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", "--input", str(tmp_path / "absent.csv")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_analyze_panel_too_short(tmp_path, capsys):
    small = tmp_path / "small.csv"
    small.write_text("1.0,2.0\n2.0,1.0\n3.0,5.0\n")
    assert main(["analyze", "--input", str(small)]) == 2
    assert "too short for j0=5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--methods", "ratio,bogus"], "unknown method"),
        (["--penalty", "omega9"], "penalty"),
        (["--penalty", "custom=abc"], "bad custom penalty"),
        (["--level", "0.7"], "level"),
        (["--j0", "-1"], "j0 >= 0"),
    ],
)
def test_analyze_rejects_bad_options(capsys, extra, message):
    assert main(["analyze", "--input", str(COINT_PAIR)] + extra) == 2
    assert message in capsys.readouterr().err


def test_analyze_degenerate_panel_is_numerical_failure(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text("1.0,2.0\n" * 30)
    assert main(["analyze", "--input", str(flat)]) == 3
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_preset_subset(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main([
        "simulate", "--preset", "example2", "--cells", "6,2", "--n", "300",
        "--estimators", "ratio", "--reps", "5", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("scenario,p,r,n,estimator")
    assert lines[1].startswith("p6_r2,6,2,300,ratio,")
    stdout = capsys.readouterr().out
    assert "scenario p6_r2 (p=6, r=2)" in stdout
    assert "correct-rank frequency" in stdout
    assert "mean distance" in stdout

    again = tmp_path / "again.csv"
    main([
        "simulate", "--preset", "example2", "--cells", "6,2", "--n", "300",
        "--estimators", "ratio", "--reps", "5", "--out", str(again),
    ])
    assert again.read_bytes() == out.read_bytes()


def small_plan_dict():
    return ExperimentPlan(
        scenarios=(
            {
                "name": "toy",
                "p": 3,
                "r": 1,
                "stationary_law": {"kind": "uniform", "low": -0.8, "high": 0.8},
                "nonstationary_blocks": [{"count": 2, "d": 1}],
            },
        ),
        n_grid=(150,),
        estimators=("ratio",),
        reps=3,
        master_seed=11,
    ).to_dict()


def test_simulate_plan_file_json_format(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(small_plan_dict()))
    out = tmp_path / "report.json"
    rc = main(["simulate", "--plan", str(plan_path), "--format", "json",
               "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 1
    assert rows[0]["scenario"] == "toy"
    assert rows[0]["reps"] == 3
    assert rows[0]["seed"] == 11
    assert 0.0 <= rows[0]["freq"] <= 1.0


def test_simulate_plan_overrides(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(small_plan_dict()))
    out = tmp_path / "report.json"
    rc = main(["simulate", "--plan", str(plan_path), "--reps", "2", "--seed", "5",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["reps"] == 2
    assert row["seed"] == 5


def test_simulate_plan_file_takes_n_and_estimators(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(small_plan_dict()))
    out = tmp_path / "report.json"
    rc = main(["simulate", "--plan", str(plan_path), "--n", "100,120",
               "--estimators", "ratio,ic_omega2", "--format", "json", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(row["n"], row["estimator"]) for row in rows] == [
        (100, "ratio"), (100, "ic_omega2"), (120, "ratio"), (120, "ic_omega2"),
    ]
    assert {row["reps"] for row in rows} == {3}


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--cells", "9,9"], "unknown plan fields: ['cells']"),
        (["--n", "5"], "n >= 10"),
        (["--estimators", "bogus"], "unknown estimator 'bogus'"),
    ],
    ids=["cells", "n", "estimators"],
)
def test_simulate_plan_file_rejects_bad_flags(tmp_path, capsys, extra, message):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(small_plan_dict()))
    out = tmp_path / "report.csv"
    assert main(["simulate", "--plan", str(plan_path), "--out", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid plan:")
    assert message in err
    assert not out.exists()


def test_simulate_replicates_out(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(small_plan_dict()))
    reps_out = tmp_path / "replicates.csv"
    rc = main(["simulate", "--plan", str(plan_path), "--out", str(tmp_path / "r.csv"),
               "--replicates-out", str(reps_out)])
    assert rc == 0
    lines = reps_out.read_text().splitlines()
    assert lines[0] == "scenario,p,r,n,estimator,replicate,r_est,dist,error"
    assert len(lines) == 4  # header + 3 replicates


def test_simulate_default_output_name(tmp_path, monkeypatch):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(small_plan_dict()))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--plan", str(plan_path)]) == 0
    assert (tmp_path / "simulation_report.csv").exists()


def test_simulate_needs_exactly_one_source(capsys):
    assert main(["simulate"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["simulate", "--plan", "x.json", "--preset", "example2"]) == 2
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv_extra",
    [
        ["--preset", "example9"],
        ["--preset", "example2", "--cells", "6,2,9"],
        ["--preset", "example2", "--estimators", "ratio,mle"],
        ["--preset", "example2", "--cells", "6,2", "--n", "15",
         "--estimators", "ratio,unitroot"],
        ["--preset", "example1", "--cells", "8,2", "--n", "15", "--estimators", "johansen"],
    ],
)
def test_simulate_rejects_bad_preset_arguments(tmp_path, capsys, argv_extra):
    assert main(["simulate"] + argv_extra + ["--reps", "1"]) == 2
    assert "invalid plan" in capsys.readouterr().err


def test_simulate_rejects_bad_plan_file(tmp_path, capsys):
    bad = tmp_path / "plan.json"
    bad.write_text("{not json")
    assert main(["simulate", "--plan", str(bad)]) == 2
    assert "invalid plan" in capsys.readouterr().err
    missing_fields = tmp_path / "plan2.json"
    missing_fields.write_text(json.dumps({"n_grid": [100]}))
    assert main(["simulate", "--plan", str(missing_fields)]) == 2


def test_simulate_plan_with_level_out_of_range_exits_2(tmp_path, capsys):
    # Rejected while the plan is built, before any critical value is drawn.
    plan = dict(small_plan_dict(), level=1.5, estimators=["ratio", "unitroot"],
                ur_reps=1000)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out = tmp_path / "report.csv"
    assert main(["simulate", "--plan", str(plan_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid plan: level")
    assert not out.exists()


# ---------------------------------------------------------------------------
# crit

def crit_args(out, dim="1", reps="1000", seed="0"):
    return ["crit", "--dim", dim, "--T", "100", "--reps", reps, "--seed", seed,
            "--out", str(out)]


def test_crit_writes_table(tmp_path, capsys):
    out = tmp_path / "cache.json"
    assert main(crit_args(out)) == 0
    table = CriticalTable.from_json(out.read_text())
    assert table.dims == (1,)
    assert table.levels == (0.05,)
    assert table.meta["T"] == 100
    assert "wrote" in capsys.readouterr().out


def test_crit_merges_compatible_cache(tmp_path):
    out = tmp_path / "cache.json"
    main(crit_args(out, dim="1"))
    first = CriticalTable.from_json(out.read_text())
    main(crit_args(out, dim="2"))
    merged = CriticalTable.from_json(out.read_text())
    assert merged.dims == (1, 2)
    assert merged.value(1, 0.05) == first.value(1, 0.05)
    assert merged.value(1, 0.05) < merged.value(2, 0.05)


def test_crit_rerun_is_idempotent(tmp_path):
    out = tmp_path / "cache.json"
    main(crit_args(out))
    before = out.read_bytes()
    main(crit_args(out))
    assert out.read_bytes() == before


def test_crit_dim_ranges(tmp_path):
    out = tmp_path / "cache.json"
    assert main(crit_args(out, dim="1..3")) == 0
    assert CriticalTable.from_json(out.read_text()).dims == (1, 2, 3)
    listed = tmp_path / "cache2.json"
    assert main(crit_args(listed, dim="2,3")) == 0
    assert CriticalTable.from_json(listed.read_text()).dims == (2, 3)


def test_crit_incompatible_cache_replaced(tmp_path):
    out = tmp_path / "cache.json"
    main(crit_args(out, dim="1", seed="0"))
    main(crit_args(out, dim="2", seed="1"))
    table = CriticalTable.from_json(out.read_text())
    assert table.dims == (2,)
    assert table.meta["seed"] == 1


def test_crit_corrupt_cache_replaced(tmp_path):
    out = tmp_path / "cache.json"
    # Not JSON, then JSON that is not a table object.
    for content in ("garbage", "[]", "3"):
        out.write_text(content)
        assert main(crit_args(out)) == 0
        assert CriticalTable.from_json(out.read_text()).dims == (1,)


def test_crit_rejects_bad_arguments(tmp_path, capsys):
    out = tmp_path / "cache.json"
    assert main(crit_args(out, reps="500")) == 2
    assert "reps >= 1000" in capsys.readouterr().err
    assert main(crit_args(out, dim="x")) == 2
    assert "bad --dim" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["crit", "--dim", "1", "--T", "50"],
        ["crit", "--dim", "0"],
        ["crit", "--dim", "1", "--level", "1.5"],
        ["crit", "--dim", "1", "--level", "0"],
        ["crit", "--dim", "1", "--seed", "-1"],
        ["simulate", "--preset", "example2", "--cells", "6,2", "--n", "300",
         "--reps", "2", "--estimators", "ratio", "--seed", "-1"],
        ["analyze", "--input", str(COINT_PAIR), "--methods", "ratio,unitroot",
         "--seed", "-1"],
        ["crit", "--dim", "3..1"],
    ],
    ids=["crit-T", "crit-dim", "crit-level-high", "crit-level-zero",
         "crit-seed", "simulate-seed", "analyze-seed", "crit-dim-empty-range"],
)
def test_bad_numeric_argument_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.file"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_analyze_report_keys_are_pinned(tmp_path):
    # The benchmark's analyze check requires exactly these top-level keys;
    # new analyze output belongs in a separate file.
    out = tmp_path / "pair.json"
    argv = ["analyze", "--input", str(COINT_PAIR), "--methods", "ratio,ic,unitroot"]
    assert main(argv + ["--out", str(out)]) == 0
    assert set(json.loads(out.read_text())) == {
        "input", "n", "p", "j0", "eigenvalues", "penalty", "level", "ranks",
        "selected_r", "a2",
    }


def test_bench_trace_layer_targets_resolve():
    # A traced benchmark run exits early when a wrapped target is missing.
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "trace.py"
    spec = importlib.util.spec_from_file_location("bench_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    targets = [t for group in trace.LAYERS.values() for t in group]
    assert targets
    for target in targets:
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), target


def test_bench_simulate_workloads_build_one_plan(tmp_path, monkeypatch):
    # The benchmark runs each simulate workload from CLI flags and its pool
    # probe from a plan document; both must give the same plan.
    import importlib.util

    import eigencoint.cli as cli
    from eigencoint.harness import load_plan

    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclasses look it up
    spec.loader.exec_module(bench)

    class Built(Exception):
        pass

    def capture(plan):
        raise Built(plan)

    monkeypatch.setattr(cli, "run_plan", capture)
    workloads = [w for w in bench.WORKLOADS.values() if issubclass(w, bench.Simulate)]
    assert len(workloads) >= 2
    for workload_cls in workloads:
        for seed in (0, 1):
            workload = workload_cls(seed, str(tmp_path))
            with pytest.raises(Built) as built:
                main(workload.args(str(tmp_path)))
            assert built.value.args[0] == load_plan(workload.plan()), workload.name


def test_cli_import_leaves_scipy_signal_unloaded():
    # SciPy is a test dependency only: neither importing the CLI nor
    # simulating panels and running a plan may load any of it.
    import eigencoint

    src = str(Path(eigencoint.__file__).resolve().parents[1])
    code = """
import sys, eigencoint.cli
print('scipy.signal' in sys.modules)
from dataclasses import replace
from eigencoint.harness import preset_plan, preset_template, run_plan
from eigencoint.simgen import gen_panel
gen_panel(replace(preset_template('example3', 6, 2, 2), n=300, seed=0))
run_plan(preset_plan('example2', reps=2, cells=((6, 2),), n_grid=(300,),
                     estimators=('ratio', 'unitroot'), ur_reps=1000))
print(sorted(name for name in sys.modules if name.startswith('scipy')))
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split("\n")[:2] == ["False", "[]"]
