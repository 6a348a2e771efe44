"""Command-line front end.

Four commands::

    eigencoint analyze  --input panel.csv [--j0 5] [--methods ratio,ic]
                        [--penalty omega2] [--level 0.05] [--seed 0] [--out report.json]
    eigencoint simulate (--plan plan.json | --preset example2) [--reps 200]
                        [--cells 6,2;10,4] [--n 300,1000] [--estimators ratio,...]
                        [--seed 0] [--out report.csv] [--format csv|json]
                        [--replicates-out reps.csv]
    eigencoint crit     --dim 1..3 [--level 0.05] [--T 1000] [--reps 2000]
                        [--seed 0] --out cache.json
    eigencoint version

``simulate`` starts from the preset or the plan file and lets each flag
given replace one plan field: ``--reps``, ``--seed``, ``--n`` and
``--estimators`` apply to both, ``--cells`` to presets only (with a plan
file it exits 2).  Every replicate runs in this process.

Exit codes: 0 success, 2 usage or input error (also an output file that
cannot be written, or that is the input file or another output), 3
numerical failure.  All numeric work and every default it uses belong to
the library modules; this layer only parses arguments and files, formats
output and writes it (:func:`_write`).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from array import array
from collections.abc import Iterable
from math import isfinite

import numpy as np

from . import __version__
from .baselines import (
    _UNIT_ROOT_MIN_N,
    DEFAULT_LEVEL,
    DEFAULT_TRACE_REPS,
    DEFAULT_TRACE_T,
    CriticalTable,
    sequential_unit_root,
    trace_critical_table,
    unit_root_critical_table,
)
from .covstack import DEFAULT_J0
from .errors import EigencointError
from .harness import check_distinct, emit_replicates, emit_report, load_plan, run_plan
from .ranksel import PenaltySpec, fit, penalty, rank_ic, rank_ratio, split

_ANALYZE_METHODS = ("ratio", "ic", "unitroot")


class _InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _write(path: str, pieces: Iterable[str]) -> None:
    """Write one output file from ``pieces``, in order.

    The pieces are written one at a time, so a large output (``analyze``'s
    ``x_hat``, one row of text per piece) is never held as one string.  A
    path that cannot be written is an input error.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(paths: Iterable[str], inputs: Iterable[str] = ()) -> None:
    """Refuse an output path that is a directory, whose directory does not
    exist, or that names the same file as an input or another output (after
    ``os.path.realpath``), before any input is read or any table simulated;
    :func:`_write` still maps whatever else goes wrong when the file is
    written."""
    taken = {os.path.realpath(path): f"the input {path}" for path in inputs}
    for path in paths:
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise _InputError(f"cannot write {path}: not a file in an existing directory")
        real = os.path.realpath(path)
        if real in taken:
            raise _InputError(f"cannot write {path}: it is also {taken[real]}")
        taken[real] = f"the output {path}"


def _read_panel_csv(path: str) -> np.ndarray:
    """Parse a panel CSV: optional header row, then rows = time points.

    One pass over the file's lines appends each cell's ``float(field)`` to
    one float buffer, which becomes the ``(n, p)`` panel without a copy; no
    line, field or row is kept.  Blank lines are skipped anywhere, CRLF is
    accepted and a leading UTF-8 BOM is ignored.  The first non-blank line is
    a header if any of its fields is not a number; ``p`` is the width of the
    first data row.

    Raises
    ------
    _InputError
        On an unreadable or non-UTF-8 file, a missing data row, a row of the
        wrong width or a non-numeric cell, each naming its physical line (and
        column), as met in file order; then, once the whole file has parsed,
        on the first ``nan``/``inf`` cell, named by its text as written.
    """
    values = array("d")
    width = 0
    header = False
    nonfinite = None
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if line.strip() == "":
                    continue
                fields = line.split(",")
                try:
                    row = [float(f) for f in fields]
                except ValueError:
                    row = None
                if width == 0:
                    if row is None and not header:
                        header = True  # the first non-blank line
                        continue
                    width = len(fields)
                if len(fields) != width:
                    raise _InputError(
                        f"{path}: line {lineno} has {len(fields)} fields, expected {width}"
                    )
                if row is None:
                    for col, field in enumerate(fields, start=1):
                        try:
                            float(field)
                        except ValueError:
                            raise _InputError(
                                f"{path}: non-numeric cell {field!r} at row {lineno}, "
                                f"column {col}"
                            ) from None
                # A finite sum means finite cells; one that overflows finds none.
                if nonfinite is None and not isfinite(sum(row)):
                    for col, value in enumerate(row, start=1):
                        if not isfinite(value):
                            nonfinite = (f"{path}: non-finite cell {fields[col - 1]!r} "
                                         f"at row {lineno}, column {col}")
                            break
                values.fromlist(row)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    if width == 0:
        raise _InputError(f"{path}: header only, no data rows" if header
                          else f"{path}: no data rows")
    if nonfinite is not None:
        raise _InputError(nonfinite)
    return np.frombuffer(values, dtype=float).reshape(-1, width)


def _parse_penalty(text: str) -> PenaltySpec:
    if text.startswith("custom="):
        try:
            value = float(text.split("=", 1)[1])
        except ValueError:
            raise ValueError(f"bad custom penalty {text!r}") from None
        return PenaltySpec("custom", value)
    return PenaltySpec(text)


def cmd_analyze(args) -> int:
    try:
        spec = _parse_penalty(args.penalty)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if args.j0 < 0:
        raise _InputError(f"need j0 >= 0, got {args.j0}")
    if not 0.0 < args.level < 0.5:
        raise _InputError(f"need level in (0, 0.5), got {args.level}")
    if args.seed < 0:
        raise _InputError(f"need seed >= 0, got {args.seed}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise _InputError("need at least one method")
    for m in methods:
        if m not in _ANALYZE_METHODS:
            raise _InputError(f"unknown method {m!r}; expected {_ANALYZE_METHODS}")
    try:
        check_distinct("methods", methods)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    out = args.out or os.path.splitext(args.input)[0] + "_report.json"
    xhat_path = os.path.splitext(out)[0] + "_xhat.csv"
    _check_writable((out, xhat_path), inputs=(args.input,))

    y = _read_panel_csv(args.input)
    n, p = y.shape
    if n <= args.j0 + 1:
        raise _InputError(
            f"{args.input}: {n} rows is too short for j0={args.j0} (need n > j0 + 1)"
        )
    if "unitroot" in methods and n < _UNIT_ROOT_MIN_N:
        raise _InputError(
            f"{args.input}: {n} rows is too short for unitroot (need n >= {_UNIT_ROOT_MIN_N})"
        )
    # The table's two threads need both cores: build it before the fit wakes
    # OpenBLAS's worker (baselines._draw_and_score).
    if "unitroot" in methods:
        crit = unit_root_critical_table(n=n, levels=(args.level,), seed=args.seed)
    fitted = fit(y, args.j0)
    report = {
        "input": args.input,
        "n": n,
        "p": p,
        "j0": args.j0,
        "eigenvalues": [float(v) for v in fitted.eigen.values],
    }
    ranks = {}
    if "ratio" in methods:
        ranks["ratio"] = rank_ratio(fitted.eigen, n)
    if "ic" in methods:
        omega = penalty(spec, n, fitted.eigen.values[-1])
        ranks["ic"] = rank_ic(fitted.eigen, omega)
        report["penalty"] = {"variant": spec.variant, "omega": float(omega)}
    if "unitroot" in methods:
        ranks["unitroot"] = sequential_unit_root(fitted.x_hat, args.level, crit)
        report["level"] = args.level
    report["ranks"] = ranks
    # A2 uses the rank of the first requested method.
    r_sel = ranks[methods[0]]
    report["selected_r"] = r_sel
    report["a2"] = [[float(v) for v in row] for row in split(fitted, r_sel)[1]]

    _write(out, [json.dumps(report, indent=2) + "\n"])
    header = ",".join(f"x{i + 1}" for i in range(p)) + "\n"
    # One row of text at a time: no n*p Python floats, no whole-file string.
    rows = (",".join(map(repr, row.tolist())) + "\n" for row in fitted.x_hat)
    _write(xhat_path, itertools.chain([header], rows))
    print(f"wrote {out} and {xhat_path}")
    return 0


def _print_tables(report) -> None:
    """Benchmark-style layout: per scenario, estimator rows x sample-size
    columns, a block of correct-rank frequencies then one of mean distances.
    :func:`run_plan` returns a cell for every (scenario, n, estimator)."""
    n_grid = list(report.plan.n_grid)
    by_key = {(c.scenario, c.estimator, c.n): c for c in report.cells}
    width = max([len(e) for e in report.plan.estimators] + [9])
    for scenario in report.plan.scenarios:
        print(f"scenario {scenario.name} (p={scenario.p}, r={scenario.r})")
        header = " " * (width + 2) + "".join(f"{'n=' + str(n):>10}" for n in n_grid)
        for label, attr in (("correct-rank frequency", "freq_correct"),
                            ("mean distance", "dist_mean")):
            print(f"  {label}")
            print(header)
            for est in report.plan.estimators:
                row = "".join(
                    f"{getattr(by_key[scenario.name, est, n], attr):>10.3f}" for n in n_grid
                )
                print(f"  {est:<{width}}{row}")
        print()


def cmd_simulate(args) -> int:
    if (args.plan is None) == (args.preset is None):
        raise _InputError("simulate needs exactly one of --plan or --preset")
    try:
        if args.plan is None:
            data = {"preset": args.preset}
        else:
            data = load_plan(args.plan).to_dict()
        flags = {"reps": args.reps, "master_seed": args.seed}
        if args.n:
            flags["n_grid"] = [int(v) for v in args.n.split(",")]
        if args.estimators:
            flags["estimators"] = args.estimators.split(",")
        if args.cells:
            flags["cells"] = [[int(v) for v in c.split(",")] for c in args.cells.split(";")]
        data.update({key: value for key, value in flags.items() if value is not None})
        plan = load_plan(data)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"invalid plan: {exc}") from exc
    out = args.out or f"simulation_report.{args.format}"
    written = [path for path in (out, args.replicates_out) if path]
    # The plan may run for minutes, and its file was read above.
    _check_writable(written, inputs=[args.plan] if args.plan else ())

    report = run_plan(plan)
    _print_tables(report)
    _write(out, [emit_report(report, format=args.format)])
    if args.replicates_out:
        _write(args.replicates_out, [emit_replicates(report)])
    print("wrote " + " and ".join(written))
    return 0


def _parse_dims(text: str):
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(v) for v in text.split(","))


def _merged_with_cache(path: str, table: CriticalTable) -> tuple:
    """``(merged table, "")`` when the table cached at ``path`` can take
    ``table``'s rows, else ``(table, why the cache is replaced)``."""
    unreadable = "it is not a readable critical-value table"
    try:
        with open(path, encoding="utf-8") as fh:
            cached = CriticalTable.from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError):
        return table, unreadable
    old, new = cached.meta.get("sampler"), table.meta.get("sampler")
    if old != new:
        tag = "no sampler tag" if old is None else f"sampler tag {old!r}"
        return table, f"it has {tag}, from an older sampler than {new!r}"
    if cached.levels != table.levels:
        return table, f"its levels {list(cached.levels)} are not this run's {list(table.levels)}"
    differ = [f"{key} {cached.meta.get(key)!r} vs {table.meta.get(key)!r}"
              for key in sorted(cached.meta.keys() | table.meta.keys(), key=str)
              if cached.meta.get(key) != table.meta.get(key)]
    if differ:
        return table, f"its meta differs from this run's: {', '.join(differ)}"
    try:
        return cached.merged(table), ""
    except (ValueError, KeyError, TypeError, IndexError):
        return table, unreadable


def cmd_crit(args) -> int:
    try:
        dims = _parse_dims(args.dim)
    except ValueError as exc:
        raise _InputError(f"bad --dim {args.dim!r}: {exc}") from exc
    if not dims:
        raise _InputError(f"bad --dim {args.dim!r}: no dimensions")
    _check_writable((args.out,))
    try:
        table = trace_critical_table(
            dims=dims, levels=(args.level,), T=args.T, reps=args.reps, seed=args.seed
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if os.path.exists(args.out):
        table, reason = _merged_with_cache(args.out, table)
        if reason:
            print(f"note: replacing {args.out} instead of merging into it: {reason}",
                  file=sys.stderr)
    _write(args.out, [json.dumps(table.to_dict(), indent=2, sort_keys=True)])
    print(f"wrote {args.out} (dims {list(table.dims)}, levels {list(table.levels)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigencoint",
        description="Cointegration analysis by eigenanalysis of a quadratic "
        "lag-covariance matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="estimate cointegration rank and space "
                        "from a CSV panel (rows = time points)")
    pa.add_argument("--input", required=True, help="panel CSV path")
    pa.add_argument("--j0", type=int, default=DEFAULT_J0, help="max lag (default %(default)s)")
    pa.add_argument("--methods", default="ratio,ic",
                    help="comma list from ratio,ic,unitroot (default %(default)s)")
    pa.add_argument("--penalty", default=PenaltySpec().variant,
                    help="omega1|omega2|omega3|custom=VALUE with VALUE finite and "
                    "positive (default %(default)s)")
    pa.add_argument("--level", type=float, default=DEFAULT_LEVEL,
                    help="unit-root test size, in (0, 0.5) (default %(default)s)")
    pa.add_argument("--seed", type=int, default=0, help="seed for the unit-root "
                    "critical-value simulation (default %(default)s)")
    pa.add_argument("--out", default="",
                    help="report JSON path (default <input>_report.json; the "
                    "transformed panel goes to <out>_xhat.csv)")

    ps = sub.add_parser("simulate", help="run a Monte Carlo experiment plan")
    ps.add_argument("--plan", help="plan JSON path")
    ps.add_argument("--preset", help="benchmark preset: example1|example2|example3")
    ps.add_argument("--reps", type=int, help="replicates per cell")
    ps.add_argument("--cells", help="preset cell subset, e.g. '6,2;10,4' (presets only)")
    ps.add_argument("--n", help="sample sizes, e.g. '300,1000'")
    ps.add_argument("--estimators", help="comma list, e.g. 'ratio,ic_omega2'")
    ps.add_argument("--seed", type=int, help="master seed (default: the plan's master_seed)")
    ps.add_argument("--out", default="", help="report path (default "
                    "simulation_report.<format>)")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--replicates-out", default="",
                    help="also write per-replicate distances CSV (boxplot data)")

    pc = sub.add_parser("crit", help="simulate and cache trace critical values")
    pc.add_argument("--dim", required=True,
                    help="dimensions: '3', '1,2,3', or '1..3'")
    pc.add_argument("--level", type=float, default=DEFAULT_LEVEL,
                    help="test size (default %(default)s)")
    pc.add_argument("--T", type=int, default=DEFAULT_TRACE_T,
                    help="inner sample length (default %(default)s)")
    pc.add_argument("--reps", type=int, default=DEFAULT_TRACE_REPS,
                    help="repetitions per dimension (default %(default)s)")
    pc.add_argument("--seed", type=int, default=0, help="seed (default %(default)s)")
    pc.add_argument("--out", required=True, help="cache JSON path")

    sub.add_parser("version", help="print version and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "version":
            print(__version__)
            return 0
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_crit(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EigencointError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
