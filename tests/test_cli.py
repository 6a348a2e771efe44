import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from eigencoint import __version__, baselines, cli
from eigencoint.baselines import CriticalTable
from eigencoint.cli import _read_panel_csv, main
from eigencoint.harness import ExperimentPlan
from eigencoint.ranksel import PenaltySpec, fit, penalty, rank_ic, rank_ratio, split

FIXTURES = Path(__file__).parent / "fixtures"
COINT_PAIR = FIXTURES / "coint_pair.csv"
NOISE3 = FIXTURES / "noise3.csv"


def load_pair():
    return np.loadtxt(COINT_PAIR, delimiter=",", skiprows=1)


def refuse(*args, **kwargs):
    raise AssertionError("called after an output was found unwritable")


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
        # A width or non-numeric error anywhere wins over an earlier non-finite cell.
        ("1.0,2.0\n1.0,nan\n1.0,oops\n", "non-numeric cell 'oops' at row 3, column 2"),
        ("1.0,2.0\n1.0,nan\n1.0\n", "line 3 has 1 fields, expected 2"),
        # Rows are physical lines, blank ones included; cells are named as written.
        ("\n1.0,2.0\n\n 1.0 ,x\n", "non-numeric cell 'x' at row 4, column 2"),
        ("1.0,2.0\n1.0, NaN \n", "non-finite cell ' NaN ' at row 2, column 2"),
        ("1.0,2.0\n1e308,1e308\n1.0,inf\n", "non-finite cell 'inf' at row 3, column 2"),
        # Only the first non-blank line can be a header.
        ("a,b\nc,d\n", "non-numeric cell 'c' at row 2, column 1"),
        ("a,b\n1.0,2.0\n3.0\n", "line 3 has 1 fields, expected 2"),
        ("\n \n", "no data rows"),
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


def test_analyze_non_utf8_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "utf16.csv"
    bad.write_bytes(b"\xff\xfe" + "1.0,2.0\n".encode("utf-16-le"))
    assert main(["analyze", "--input", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")


@pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
def test_analyze_ignores_utf8_bom(tmp_path, header):
    # A BOM glued to the first cell must not turn the first observation
    # into a header.
    rows = COINT_PAIR.read_text().splitlines()[0 if header else 1:41]
    text = "\n".join(rows) + "\n"
    outputs = []
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        panel = tmp_path / f"{name}.csv"
        panel.write_bytes(data)
        assert main(["analyze", "--input", str(panel)]) == 0
        report = json.loads((tmp_path / f"{name}_report.json").read_text())
        assert report.pop("input") == str(panel)
        outputs.append((report, (tmp_path / f"{name}_report_xhat.csv").read_bytes()))
    assert outputs[0][0]["n"] == 40
    assert outputs[1] == outputs[0]


def test_analyze_width_comes_from_first_data_row(tmp_path):
    rows = COINT_PAIR.read_text().splitlines()[1:41]
    panel = tmp_path / "wide_header.csv"
    panel.write_text("a,b,c\n" + "\n".join(rows) + "\n")
    out = tmp_path / "r.json"
    assert main(["analyze", "--input", str(panel), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["n"], report["p"]) == (40, 2)


def test_analyze_unwritable_xhat_exits_2(tmp_path, capsys, monkeypatch):
    # Both outputs are checked before the panel is read: no report is left.
    monkeypatch.setattr(cli, "_read_panel_csv", refuse)
    out = tmp_path / "r.json"
    (tmp_path / "r_xhat.csv").mkdir()
    assert main(["analyze", "--input", str(COINT_PAIR), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'r_xhat.csv'}: ")
    assert os.listdir(tmp_path) == ["r_xhat.csv"]
    assert os.listdir(tmp_path / "r_xhat.csv") == []


@pytest.mark.parametrize("methods, calls", [
    ("ratio,ic,unitroot", ["table", "fit"]),
    ("unitroot", ["table", "fit"]),
    ("ratio,ic", ["fit"]),
])
def test_analyze_builds_the_unit_root_table_before_the_fit(tmp_path, monkeypatch, methods,
                                                           calls):
    # The table's two threads need both cores, which the fit's threaded BLAS
    # products would share (baselines._draw_and_score).
    recorded = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            recorded.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "unit_root_critical_table",
                        recording("table", cli.unit_root_critical_table))
    monkeypatch.setattr(cli, "fit", recording("fit", cli.fit))
    out = tmp_path / "r.json"
    argv = ["analyze", "--input", str(COINT_PAIR), "--methods", methods, "--out", str(out)]
    assert main(argv) == 0
    assert recorded == calls


def test_default_seed_analyze_reads_the_stored_unit_root_row(tmp_path, monkeypatch):
    # 300 is a stored length, so at the default --seed 0 no walk is drawn.
    panel = tmp_path / "walks.csv"
    walks = np.cumsum(np.random.default_rng(0).standard_normal((300, 3)), axis=0)
    np.savetxt(panel, walks, delimiter=",")

    def no_stream(*key):
        raise AssertionError(f"drew stream {key}")

    monkeypatch.setattr(baselines, "derive_stream", no_stream)
    out = tmp_path / "r.json"
    argv = ["analyze", "--input", str(panel), "--methods", "unitroot", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["ranks"].keys() == {"unitroot"}


def test_analyze_rejects_repeated_methods(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_read_panel_csv", refuse)
    out = tmp_path / "r.json"
    argv = ["analyze", "--input", str(COINT_PAIR), "--methods", "ratio,ratio,ic,ic,ic",
            "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: methods must be distinct, got ['ratio', 'ratio', 'ic', "
                            "'ic', 'ic'] (repeated: ['ratio', 'ic'])\n")
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


def test_analyze_output_bytes_are_pinned(tmp_path, monkeypatch):
    # Digests of the report and x_hat written before the reader and the
    # x_hat writer were streamed; the report names its input, so the path
    # is fixed by running inside tmp_path.
    shutil.copy(COINT_PAIR, tmp_path / "coint_pair.csv")
    monkeypatch.chdir(tmp_path)
    argv = ["analyze", "--input", "coint_pair.csv", "--methods", "ratio,ic,unitroot"]
    assert main(argv + ["--out", "r.json"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("r.json", "r_xhat.csv")}
    assert digests == {
        "r.json": "b0b1747bf7e00a99b026b25761f157156a5f327ad205e08a95fdcda5809759b2",
        "r_xhat.csv": "37bc8f9cd865b81415412d57ff6dc03a88dab21d7d202e2fb9478e8f112010b7",
    }


def test_read_panel_csv_memory_is_bounded_by_the_panel(tmp_path):
    # One float buffer: no per-line, per-field or per-cell Python objects
    # outlive their row (18.6x the panel's bytes when every row was kept).
    y = np.random.default_rng(3).standard_normal((2000, 20))
    path = tmp_path / "panel.csv"
    np.savetxt(path, y, delimiter=",", header=",".join(f"s{i}" for i in range(20)),
               comments="")
    _read_panel_csv(str(path))  # lazy imports stay out of the peak
    tracemalloc.start()
    try:
        panel = _read_panel_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert panel.shape == (2000, 20)
    assert_array_equal(panel, np.loadtxt(path, delimiter=",", skiprows=1))
    assert peak <= 2.5 * panel.nbytes


def test_analyze_panel_too_short(tmp_path, capsys):
    small = tmp_path / "small.csv"
    small.write_text("1.0,2.0\n2.0,1.0\n3.0,5.0\n")
    assert main(["analyze", "--input", str(small)]) == 2
    assert "too short for j0=5" in capsys.readouterr().err


def test_analyze_unitroot_panel_too_short(tmp_path, capsys):
    rows = np.random.default_rng(0).standard_normal((15, 2)).cumsum(axis=0)
    small = tmp_path / "small.csv"
    np.savetxt(small, rows, delimiter=",")
    assert main(["analyze", "--input", str(small), "--methods", "ratio,unitroot"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "15 rows is too short for unitroot (need n >= 20)" in err
    assert not (tmp_path / "small_report.json").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--methods", "ratio,bogus"], "unknown method"),
        (["--penalty", "omega9"], "penalty"),
        (["--penalty", "custom=abc"], "bad custom penalty"),
        (["--level", "0.7"], "level"),
        (["--j0", "-1"], "j0 >= 0"),
        (["--penalty", "custom=inf"], "finite custom_value"),
    ],
)
def test_analyze_rejects_bad_options(capsys, extra, message):
    assert main(["analyze", "--input", str(COINT_PAIR)] + extra) == 2
    assert message in capsys.readouterr().err


def test_analyze_overflowing_penalty_is_numerical_failure(tmp_path, capsys):
    # omega2 = n**1.5 * lambda_p overflows while W itself stays finite.
    big = tmp_path / "big.csv"
    np.savetxt(big, np.loadtxt(NOISE3, delimiter=",", skiprows=1) * 1e76, delimiter=",")
    assert main(["analyze", "--input", str(big)]) == 3
    assert "penalty omega2 overflows" in capsys.readouterr().err
    assert not (tmp_path / "big_report.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", str(COINT_PAIR), "--out", "{missing}/r.json"],
        ["analyze", "--input", str(COINT_PAIR), "--methods", "ratio,unitroot",
         "--out", "{missing}/r.json"],
        ["analyze", "--input", str(COINT_PAIR), "--methods", "unitroot", "--out", "{tmp}"],
        ["simulate", "--preset", "example2", "--cells", "6,2", "--n", "300",
         "--estimators", "ratio", "--reps", "2", "--out", "{missing}/r.csv"],
        ["crit", "--dim", "1", "--T", "100", "--reps", "1000", "--out", "{missing}/c.json"],
        ["crit", "--dim", "1", "--T", "100", "--reps", "1000", "--out", "{tmp}"],
    ],
    ids=["analyze", "analyze-unitroot", "analyze-directory", "simulate", "crit-missing-dir",
         "crit-directory"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, argv):
    # Refused before any input is read or any table simulated.
    for name in ("_read_panel_csv", "unit_root_critical_table", "trace_critical_table"):
        monkeypatch.setattr(cli, name, refuse)
    argv = [a.format(missing=tmp_path / "absent", tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write ")
    if argv[0] == "simulate":
        assert captured.out == ""  # refused before any replicate ran
    assert sorted(os.listdir(tmp_path)) == []


@pytest.mark.parametrize(
    "input_name, out, clash",
    [
        ("in.csv", "in.csv", "in.csv"),  # the report would replace the panel
        ("in.csv", "link.csv", "link.csv"),  # a symlink to the panel
        ("in.csv", "sub/../in.csv", "sub/../in.csv"),
        ("r_xhat.csv", "r.json", "r_xhat.csv"),  # x_hat would replace the panel
    ],
    ids=["same", "symlink", "dotdot", "xhat"],
)
def test_analyze_refuses_output_that_is_the_input(tmp_path, capsys, monkeypatch, input_name,
                                                  out, clash):
    for name in ("_read_panel_csv", "unit_root_critical_table", "fit"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.chdir(tmp_path)
    shutil.copy(COINT_PAIR, input_name)
    (tmp_path / "sub").mkdir()
    os.symlink(input_name, "link.csv")
    before = sorted(os.listdir(tmp_path))
    argv = ["analyze", "--input", input_name, "--methods", "ratio,unitroot", "--out", out]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {clash}: it is also the input {input_name}\n")
    assert sorted(os.listdir(tmp_path)) == before
    assert (tmp_path / input_name).read_bytes() == COINT_PAIR.read_bytes()


@pytest.mark.parametrize(
    "source, outputs, message",
    [
        (["--preset", "example2", "--cells", "6,2"],
         ["--out", "same.csv", "--replicates-out", "same.csv"],
         "cannot write same.csv: it is also the output same.csv"),
        (["--preset", "example2", "--cells", "6,2"],
         ["--out", "r.csv", "--replicates-out", "./sub/../r.csv"],
         "cannot write ./sub/../r.csv: it is also the output r.csv"),
        (["--plan", "plan.json"], ["--out", "plan.json"],
         "cannot write plan.json: it is also the input plan.json"),
        (["--plan", "plan.json"], ["--out", "r.csv", "--replicates-out", "plan.json"],
         "cannot write plan.json: it is also the input plan.json"),
    ],
    ids=["report-and-replicates", "dotdot", "plan-report", "plan-replicates"],
)
def test_simulate_refuses_outputs_that_clash(tmp_path, capsys, monkeypatch, source, outputs,
                                             message):
    monkeypatch.setattr(cli, "run_plan", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plan.json").write_text(json.dumps(small_plan_dict()))
    (tmp_path / "sub").mkdir()
    argv = ["simulate", *source, "--n", "300", "--estimators", "ratio", "--reps", "2", *outputs]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""  # refused before any replicate ran
    assert sorted(os.listdir(tmp_path)) == ["plan.json", "sub"]
    assert json.loads((tmp_path / "plan.json").read_text()) == small_plan_dict()


def test_defaults_agree():
    # Every default that names the same value takes it from one place.
    import inspect
    from dataclasses import fields

    from eigencoint.baselines import (
        johansen_trace,
        trace_critical_table,
        unit_root_critical_table,
    )
    from eigencoint.cli import build_parser

    def defaults(fn):
        return {name: param.default for name, param in inspect.signature(fn).parameters.items()
                if param.default is not inspect.Parameter.empty}

    parser = build_parser()
    analyze = vars(parser.parse_args(["analyze", "--input", "x.csv"]))
    crit = vars(parser.parse_args(["crit", "--dim", "1", "--out", "x.json"]))
    plan = {f.name: f.default for f in fields(ExperimentPlan)}
    trace = defaults(trace_critical_table)
    unit_root = defaults(unit_root_critical_table)
    same = {
        "j0": [analyze["j0"], plan["j0"], defaults(fit)["j0"]],
        "level": [analyze["level"], crit["level"], plan["level"], *trace["levels"],
                  *unit_root["levels"], defaults(johansen_trace)["level"]],
        "trace T": [crit["T"], plan["crit_T"], trace["T"]],
        "trace reps": [crit["reps"], plan["crit_reps"], trace["reps"]],
        "unit-root reps": [plan["ur_reps"], unit_root["reps"]],
        "seed": [analyze["seed"], crit["seed"], plan["master_seed"], trace["seed"],
                 unit_root["seed"]],
        "penalty": [analyze["penalty"], defaults(PenaltySpec)["variant"]],
    }
    assert {name: values for name, values in same.items() if len(set(values)) > 1} == {}


def test_analyze_degenerate_panel_is_numerical_failure(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text("1.0,2.0\n" * 30)
    assert main(["analyze", "--input", str(flat)]) == 3
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate

def printed_cells(stdout, sizes, estimators):
    """``{(column, n, estimator): text}`` read off :func:`_print_tables`'s blocks."""
    blocks = {"correct-rank frequency": "freq", "mean distance": "dist_mean"}
    header = "".join(f"{'n=' + str(n):>10}" for n in sizes)
    printed, column = {}, None
    for line in stdout.splitlines():
        text = line.strip()
        if text in blocks:
            column = blocks[text]
        elif text.startswith("n="):
            assert line.endswith(header)
        elif column is not None and text.partition(" ")[0] in estimators:
            est, *values = text.split()
            assert len(values) == len(sizes)
            printed.update({(column, n, est): v for n, v in zip(sizes, values)})
    return printed


def test_simulate_preset_subset(tmp_path, capsys):
    out = tmp_path / "report.csv"
    argv = [
        "simulate", "--preset", "example2", "--cells", "6,2", "--n", "200,300",
        "--estimators", "ratio,ic_omega2", "--reps", "5",
    ]
    assert main(argv + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("scenario,p,r,n,estimator,freq,dist_mean,")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [(row["scenario"], row["n"], row["estimator"]) for row in rows] == [
        ("p6_r2", n, est) for n in ("200", "300") for est in ("ratio", "ic_omega2")
    ]
    stdout = capsys.readouterr().out
    assert "scenario p6_r2 (p=6, r=2)" in stdout
    printed = printed_cells(stdout, (200, 300), ("ratio", "ic_omega2"))
    expected = {
        (column, int(row["n"]), row["estimator"]): row[column]
        for row in rows for column in ("freq", "dist_mean")
    }
    assert printed == expected

    again = tmp_path / "again.csv"
    assert main(argv + ["--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("flag, value, message", [
    ("--n", "300,300", "n_grid entries must be distinct, got [300, 300] (repeated: [300])"),
    ("--estimators", "ratio,ic_omega2,ratio",
     "estimators must be distinct, got ['ratio', 'ic_omega2', 'ratio'] (repeated: ['ratio'])"),
], ids=["n", "estimators"])
def test_simulate_rejects_repeated_sizes_and_estimators(tmp_path, capsys, flag, value, message):
    out = tmp_path / "report.csv"
    reps_out = tmp_path / "reps.csv"
    rc = main([
        "simulate", "--preset", "example2", "--cells", "6,2", "--reps", "5", flag, value,
        "--out", str(out), "--replicates-out", str(reps_out),
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: invalid plan: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


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


FRACTIONAL_SCENARIO = {
    "name": "frac",
    "p": 3,
    "r": 1,
    "stationary_law": {"kind": "uniform", "low": -0.8, "high": 0.8},
    "nonstationary_blocks": [{"count": 2, "d": 1.4}],
}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"scenarios": [FRACTIONAL_SCENARIO], "estimators": ["fractional_ratio"],
          "fractional_delta": 0.7}, "delta must lie in [0, 1/2)"),
        ({"reps": 2.5}, "reps must be an integer, got 2.5"),
        ({"scenarios": [dict(FRACTIONAL_SCENARIO, mixing={"kind": "identity"})]},
         "unknown scenario fields: ['mixing']"),
        ({"scenarios": [dict(FRACTIONAL_SCENARIO, p=3.5, r=1.5)]},
         "p must be an integer, got 3.5"),
        ({"scenarios": [dict(FRACTIONAL_SCENARIO, stationary_law={
            "kind": "uniform", "low": "-0.8", "high": "0.8"})]},
         "uniform law needs finite numbers low < high"),
        ({"scenarios": [dict(FRACTIONAL_SCENARIO, mixing_law={
            "kind": "uniform", "low": float("-inf"), "high": 3.0})]},
         "uniform law needs finite numbers low < high"),
        ({"scenarios": [dict(FRACTIONAL_SCENARIO, seed=7)]},
         "sets seed; a plan's master_seed sets it"),
        ({"scenarios": [dict(FRACTIONAL_SCENARIO, name="p4,r1")]},
         "scenario names must be strings without ',', '\"', CR or LF, got 'p4,r1'"),
    ],
    ids=["fractional_delta", "reps", "typo", "fractional_p", "string_law", "infinite_law",
         "seed", "comma_name"],
)
def test_simulate_rejects_bad_plan_file_before_running(tmp_path, capsys, fields, message):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(dict(small_plan_dict(), **fields)))
    out = tmp_path / "report.csv"
    assert main(["simulate", "--plan", str(plan_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid plan:")
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_simulate_degenerate_fractional_threshold_warns_once(tmp_path):
    # d_min + delta < 1 makes the threshold degenerate on every replicate;
    # the default warning filter should still show the warning only once.
    import eigencoint

    scenario = dict(FRACTIONAL_SCENARIO, nonstationary_blocks=[{"count": 2, "d": 0.8}])
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(dict(
        small_plan_dict(), scenarios=[scenario], n_grid=[300, 500], reps=40,
        estimators=["fractional_ratio"], fractional_delta=0.1,
    )))
    src = str(Path(eigencoint.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    out = subprocess.run(
        [sys.executable, "-c", "import sys; from eigencoint.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "simulate", "--plan", str(plan_path), "--out", str(tmp_path / "r.csv")],
        env={**env, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert out.stderr.count("RuntimeWarning") == 1


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
        ["--preset", "example2", "--cells", "6"],
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
    table = CriticalTable.from_dict(json.loads(out.read_text()))
    assert table.dims == (1,)
    assert table.levels == (0.05,)
    assert table.meta["T"] == 100
    assert "wrote" in capsys.readouterr().out


def test_crit_merges_compatible_cache(tmp_path):
    out = tmp_path / "cache.json"
    main(crit_args(out, dim="1"))
    first = CriticalTable.from_dict(json.loads(out.read_text()))
    main(crit_args(out, dim="2"))
    merged = CriticalTable.from_dict(json.loads(out.read_text()))
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
    assert CriticalTable.from_dict(json.loads(out.read_text())).dims == (1, 2, 3)
    listed = tmp_path / "cache2.json"
    assert main(crit_args(listed, dim="2,3")) == 0
    assert CriticalTable.from_dict(json.loads(listed.read_text())).dims == (2, 3)


def test_crit_dims_sorted_and_distinct(tmp_path, capsys):
    out = tmp_path / "cache.json"
    assert main(crit_args(out, dim="2,1,1")) == 0
    assert json.loads(out.read_text())["dims"] == [1, 2]
    assert "dims [1, 2]" in capsys.readouterr().out
    alone = tmp_path / "alone.json"
    main(crit_args(alone, dim="1..2"))
    assert out.read_bytes() == alone.read_bytes()


def test_crit_incompatible_cache_replaced(tmp_path):
    out = tmp_path / "cache.json"
    main(crit_args(out, dim="1", seed="0"))
    main(crit_args(out, dim="2", seed="1"))
    table = CriticalTable.from_dict(json.loads(out.read_text()))
    assert table.dims == (2,)
    assert table.meta["seed"] == 1


def test_crit_replaces_cache_of_old_sampler(tmp_path):
    # Tables of earlier samplers must not be merged with new rows: an
    # untagged one comes from another draw layout, and a "nested" one formed
    # its products as stacked gemms, whose rows differ in the last bits.
    out = tmp_path / "cache.json"
    for tag in ({}, {"sampler": "nested"}):
        old = {"dims": [3], "levels": [0.05], "values": [[30.0]],
               "meta": {"T": 100, "reps": 1000, "seed": 0, "statistic": "trace", **tag}}
        out.write_text(json.dumps(old))
        assert main(crit_args(out, dim="1..2")) == 0
        table = CriticalTable.from_dict(json.loads(out.read_text()))
        assert table.dims == (1, 2)
        assert table.meta["sampler"] == "nested-dot"


def test_crit_corrupt_cache_replaced(tmp_path):
    out = tmp_path / "cache.json"
    # Not JSON, JSON that is not a table object, then a compatible table
    # with a row missing.
    short = {"dims": [1, 2], "levels": [0.05], "values": [[1.0]],
             "meta": {"T": 100, "reps": 1000, "seed": 0, "statistic": "trace",
                      "sampler": "nested-dot"}}
    for content in ("garbage", "[]", "3", json.dumps(short)):
        out.write_text(content)
        assert main(crit_args(out)) == 0
        assert CriticalTable.from_dict(json.loads(out.read_text())).dims == (1,)


def test_crit_replaces_a_cache_whose_dims_break_the_table_rule(tmp_path, capsys):
    out = tmp_path / "cache.json"
    meta = {"T": 100, "reps": 1000, "seed": 0, "statistic": "trace", "sampler": "nested-dot"}
    for dims in ([1.5, 2.9], [2, 1, 1]):
        values = [[float(k)] for k in range(1, len(dims) + 1)]
        out.write_text(json.dumps({"dims": dims, "levels": [0.05], "values": values,
                                   "meta": meta}))
        assert main(crit_args(out)) == 0
        assert "not a readable critical-value table" in capsys.readouterr().err
        assert CriticalTable.from_dict(json.loads(out.read_text())).dims == (1,)


def test_crit_notes_why_it_replaces_a_cache(tmp_path, capsys):
    out = tmp_path / "cache.json"
    assert main(crit_args(out, dim="1")) == 0
    assert main(crit_args(out, dim="2")) == 0  # a compatible cache is merged quietly
    assert "note:" not in capsys.readouterr().err
    assert main(crit_args(out, dim="2", seed="1")) == 0
    err = capsys.readouterr().err
    assert err.count("note:") == 1
    assert f"note: replacing {out} instead of merging" in err
    assert "its meta differs from this run's: seed 0 vs 1" in err
    assert main(crit_args(out, dim="2", seed="1") + ["--level", "0.1"]) == 0
    err = capsys.readouterr().err
    assert err.count("note:") == 1 and "its levels [0.05] are not this run's [0.1]" in err
    meta = {"T": 100, "reps": 1000, "seed": 0, "statistic": "trace"}
    for tag, expected in (({}, "no sampler tag"), ({"sampler": "nested"}, "tag 'nested'")):
        out.write_text(json.dumps({"dims": [3], "levels": [0.05], "values": [[30.0]],
                                   "meta": dict(meta, **tag)}))
        assert main(crit_args(out)) == 0
        err = capsys.readouterr().err
        assert err.count("note:") == 1 and expected in err and "older sampler" in err
    for content in ("garbage", json.dumps({"dims": [1, 2], "levels": [0.05], "values": [[1.0]],
                                            "meta": dict(meta, sampler="nested-dot")})):
        out.write_text(content)
        assert main(crit_args(out)) == 0
        err = capsys.readouterr().err
        assert err.count("note:") == 1 and "not a readable critical-value table" in err


def test_crit_replaces_a_cache_with_values_that_are_not_finite(tmp_path, capsys):
    out = tmp_path / "cache.json"
    assert main(crit_args(out, dim="1..2")) == 0
    fresh = out.read_bytes()
    data = json.loads(fresh)
    data["values"][1][0] = float("nan")
    out.write_text(json.dumps(data))  # a NaN literal, which json.load reads back
    capsys.readouterr()
    assert main(crit_args(out, dim="1")) == 0
    err = capsys.readouterr().err
    assert err.count("note:") == 1 and "not a readable critical-value table" in err
    table = CriticalTable.from_dict(json.loads(out.read_text()))
    assert table.dims == (1,)
    assert table.values[0].tobytes() == CriticalTable.from_dict(
        json.loads(fresh)).values[0].tobytes()


def test_crit_note_gives_the_reason_merged_raises(tmp_path, capsys):
    out = tmp_path / "cache.json"
    assert main(crit_args(out, dim="1")) == 0
    assert main(crit_args(out, dim="2", seed="1")) == 0
    err = capsys.readouterr().err
    assert err == (f"note: replacing {out} instead of merging into it: cannot merge tables "
                   "with different levels or meta: its meta differs from this run's: "
                   "seed 0 vs 1\n")


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


BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name, monkeypatch):
    """Import ``bench/<name>.py`` as a module (its dataclasses look it up)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_trace_layer_targets_resolve(monkeypatch):
    # A traced benchmark run exits early when a wrapped target is missing.
    import importlib

    trace = load_bench("trace", monkeypatch)
    targets = [t for group in trace.LAYERS.values() for t in group]
    assert targets
    for target in targets:
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), target


def test_bench_expected_layers_are_called(tmp_path, monkeypatch):
    # A traced benchmark run fails when an expected layer records no call,
    # say when a caller stops going through the module global that
    # bench/trace.py wraps.  This runs every workload scaled down, in this
    # process, under the same wrappers.
    import importlib

    trace = load_bench("trace", monkeypatch)
    bench = load_bench("run", monkeypatch)
    recorder = trace.SpanRecorder()
    for layer, targets in trace.LAYERS.items():
        for target in targets:
            module_name, attr = target.rsplit(".", 1)
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr, recorder.wrap(layer, getattr(module, attr)))
    monkeypatch.chdir(BENCH.parent)  # the benchmark's paths are relative to the checkout
    assert bench.WORKLOADS
    for name, workload_cls in bench.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        workload = workload_cls(0, str(work))
        if isinstance(workload, bench.Simulate):
            plan = work / "plan.json"
            plan.write_text(json.dumps(dict(workload.plan(), reps=2, crit_T=100,
                                            crit_reps=1000, ur_reps=1000)))
            argv = ["simulate", "--plan", str(plan), "--out", str(work / "report.csv")]
        else:
            argv = workload.args(str(work))
        recorder.spans.clear()
        assert main(argv) == 0, name
        called = {span[0] for span in recorder.spans}
        assert [layer for layer in workload.expected_layers if layer not in called] == [], name


def test_bench_simulate_workloads_build_one_plan(tmp_path, monkeypatch):
    # The benchmark runs each simulate workload from CLI flags and its pool
    # probe from a plan document; both must give the same plan.
    import eigencoint.cli as cli
    from eigencoint.harness import load_plan

    bench = load_bench("run", monkeypatch)

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


def test_simulate_names_a_malformed_preset_cell(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["simulate", "--preset", "example2", "--cells", "6", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: invalid plan: example2 cells are (p, r), got [6]\n"
    assert captured.out == ""
    assert not out.exists()
