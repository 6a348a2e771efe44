"""eigencoint benchmark: cold CLI runs, output checks and a traced run.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --trace 0|1 [--seed N --seconds S]
    python3 bench/run.py --record LABEL [--seed N --seconds S]

Load shape: a closed loop with one client.  Each operation is a fresh
``eigencoint`` CLI process (``bench/cold.py``); the next starts only after
the previous one exits.  Processes are launched until the next one would
end after ``--seconds`` (judged by the median wall time so far), and at
least ``MIN_PROCESSES`` run.  Every process's outputs are checked against
the generating truth, and all processes of a run must write byte-identical
reports; their sha256 is printed so that runs of one seed can be compared.
The package is imported from ``src/`` of this checkout.

``--trace 0`` prints the end-to-end metrics, each the median over the run's
processes: ``wall_s`` (process start to exit), ``setup_s`` (``import
eigencoint.cli`` inside that process), ``replicates_per_s`` (cells x reps
per second of ``cli.main``; an ``analyze`` call counts as one replicate)
and ``peak_rss_mb``.  ``attempted``/``failed`` count operations: replicate
records for ``simulate``, methods for ``analyze``; a process that exits
non-zero or fails a check fails all of its operations.

``--trace 1`` runs the same loop untraced, then one traced in-process run
(``bench/trace.py``) whose reports must equal the untraced ones, and on
``mc_i2_small`` the worker-pool probe.  It prints the per-layer metrics:
self time (span minus child spans) and call counts per layer, ``eigh_desc``
median call time by matrix size, ``trace.overhead_s`` (traced wall minus
median untraced wall), ``trace.unattributed_s`` (time in ``main`` outside
every span), and the rank accuracy and subspace distance of the outputs.
Every per-layer metric is printed on every workload; a layer the workload
does not run reads 0.  A layer the workload is expected to run that records
no call fails the run, as does a wrapped attribute that no longer exists.

``--record LABEL`` runs every workload in both modes and appends the numbers,
with a machine record, to ``bench/history.json``.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
HISTORY = os.path.join(BENCH, "history.json")

MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 100
#: Pool probe: two workers with one BLAS thread each stay within two cores.
POOL_WORKERS = 2
POOL_BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("replicates_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

TIMED_LAYERS = (
    "cli.cmd_analyze", "cli.cmd_simulate", "harness.run_plan", "simgen.gen_panel",
    "ranksel.fit", "covstack.build_stack", "linalg.eigh_desc", "linalg.solve_spd",
    "ranksel.rules", "subspace.dist_d1", "baselines.trace_critical_table",
    "baselines.unit_root_critical_table", "baselines.unit_root_stat",
    "baselines.johansen_trace", "baselines.sequential_unit_root",
)
COUNTED_LAYERS = (
    "linalg.eigh_desc", "linalg.solve_spd", "simgen.gen_panel", "baselines.unit_root_stat",
)
EIGH_SIZES = (6, 8, 10, 12, 20)

PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in TIMED_LAYERS]
    + [(f"{layer}.calls", "count") for layer in COUNTED_LAYERS]
    + [(f"linalg.eigh_desc.p50_ms.p{p}", "ms") for p in EIGH_SIZES]
    + [
        ("baselines.trace_dims_useful_ratio", "ratio"),
        ("harness.replicates", "count"),
        ("harness.pool_speedup", "ratio"),
        ("cli.import_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"),
        ("quality.rank_accuracy", "ratio"),
        ("quality.subspace_dist", "dist"),
        ("quality.error_rate", "ratio"),
    ]
)


class CheckFailed(Exception):
    """An output of the program does not match what the check expects."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def dist_d1(a2, b2) -> float:
    """Subspace distance of orthonormal ``a2`` from ``span(b2)``, in [0, 1]."""
    q = np.linalg.qr(b2)[0]
    overlap = np.sum((a2.T @ q) ** 2)
    return float(np.sqrt(min(max(1.0 - overlap / max(a2.shape[1], b2.shape[1]), 0.0), 1.0)))


def digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads

def rel(path):
    """Path as given to the CLI, which runs from the checkout root.

    Relative paths keep the ``input`` field of an ``analyze`` report the
    same in every checkout, so reports of one seed are byte-identical.
    """
    return os.path.relpath(path, ROOT)


@dataclass
class Outcome:
    """What the checks extracted from one process's outputs."""

    ops: int
    failed: int
    hits: int
    decisions: int
    dists: list
    fingerprint: Optional[str]


class AnalyzeCold:
    """``eigencoint analyze --methods ratio,ic,unitroot`` on one I(1) panel.

    The panel is shaped like the example1 (20, 5) design: 15 ARIMA(1,1,1)
    components (AR ~ U(0.3, 0.8), MA ~ U(0, 0.95)) and 5 stationary AR(1)
    (coefficient ~ U(-0.8, 0.8)), mixed by a U(-3, 3) matrix.  It is drawn
    here, not by ``eigencoint.simgen``, so a change to the simulator cannot
    change this input.
    """

    name = "analyze_cold"
    methods = ("ratio", "ic", "unitroot")
    p, n, r = 20, 2500, 5
    replicates = 1
    expected_layers = (
        "cli.cmd_analyze", "ranksel.fit", "covstack.build_stack", "linalg.eigh_desc",
        "ranksel.rules", "baselines.unit_root_critical_table", "baselines.unit_root_stat",
        "baselines.sequential_unit_root",
    )

    def __init__(self, seed, work):
        self.y, self.b2 = self.make_panel(seed)
        self.input = os.path.join(work, "panel.csv")
        header = ",".join(f"y{i + 1}" for i in range(self.p))
        rows = "\n".join(",".join(repr(float(v)) for v in row) for row in self.y)
        with open(self.input, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + rows + "\n")

    @classmethod
    def make_panel(cls, seed, burn=100):
        rng = np.random.default_rng(seed)
        k = cls.p - cls.r
        ar = np.concatenate([rng.uniform(0.3, 0.8, k), rng.uniform(-0.8, 0.8, cls.r)])
        ma = np.concatenate([rng.uniform(0.0, 0.95, k), np.zeros(cls.r)])
        e = rng.standard_normal((cls.n + burn, cls.p))
        u = np.empty_like(e)
        u[0] = e[0]
        for t in range(1, len(e)):
            u[t] = ar * u[t - 1] + e[t] + ma * e[t - 1]
        u = u[burn:]
        x = np.hstack([np.cumsum(u[:, :k], axis=0), u[:, k:]])
        mixing = rng.uniform(-3.0, 3.0, (cls.p, cls.p))
        while np.linalg.cond(mixing) > 1e6:
            mixing = rng.uniform(-3.0, 3.0, (cls.p, cls.p))
        return x @ mixing.T, np.linalg.inv(mixing).T[:, k:]

    def args(self, out):
        return ["analyze", "--input", rel(self.input), "--methods", ",".join(self.methods),
                "--out", rel(os.path.join(out, "report.json"))]

    def check(self, out) -> Outcome:
        report_path = os.path.join(out, "report.json")
        xhat_path = os.path.join(out, "report_xhat.csv")
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        keys = {"input", "n", "p", "j0", "eigenvalues", "penalty", "level", "ranks",
                "selected_r", "a2"}
        require(set(report) == keys, f"report keys {sorted(report)}")
        p, n = self.p, self.n
        require(report["input"] == rel(self.input), "report input path")
        require((report["n"], report["p"]) == (n, p), "report n/p do not match the panel")
        eig = np.array(report["eigenvalues"])
        require(eig.shape == (p,), f"{eig.size} eigenvalues, expected {p}")
        require(np.all(eig[:-1] >= eig[1:]), "eigenvalues are not non-increasing")
        ranks = report["ranks"]
        require(list(ranks) == list(self.methods), f"ranks for {list(ranks)}")
        require(all(isinstance(v, int) and 0 <= v <= p for v in ranks.values()),
                f"ranks out of range: {ranks}")
        r_sel = report["selected_r"]
        require(r_sel == ranks[self.methods[0]], "selected_r is not the first method's rank")
        a2 = np.array(report["a2"], dtype=float).reshape(p, r_sel)
        require(np.allclose(a2.T @ a2, np.eye(r_sel), atol=1e-10), "a2 is not orthonormal")
        with open(xhat_path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            x_hat = np.loadtxt(fh, delimiter=",", ndmin=2)
        require(header == ",".join(f"x{i + 1}" for i in range(p)), "x_hat header")
        require(x_hat.shape == (n, p), f"x_hat shape {x_hat.shape}")
        expect = self.y @ a2
        require(np.allclose(x_hat[:, p - r_sel:], expect, rtol=1e-9,
                            atol=1e-9 * max(np.abs(expect).max(), 1.0)),
                "last selected_r columns of x_hat differ from y @ a2")
        hits = sum(v == self.r for v in ranks.values())
        return Outcome(len(self.methods), 0, hits, len(ranks), [dist_d1(a2, self.b2)],
                       digest(report_path, xhat_path))

    def failed_outcome(self) -> Outcome:
        return Outcome(len(self.methods), len(self.methods), 0, 0, [], None)


class Simulate:
    """``eigencoint simulate --preset ...`` with the master seed set to the
    benchmark seed; outputs are checked against the replicate records."""

    report_header = "scenario,p,r,n,estimator,freq,dist_mean,dist_sd,reps,failures,seed"
    replicate_header = "scenario,p,r,n,estimator,replicate,r_est,dist,error"

    def __init__(self, seed, work):
        self.seed = seed

    @property
    def replicates(self):
        return len(self.cells) * len(self.n_grid) * self.reps

    def args(self, out):
        argv = ["simulate", "--preset", self.preset,
                "--cells", ";".join(f"{p},{r}" for p, r in self.cells),
                "--n", ",".join(str(n) for n in self.n_grid),
                "--reps", str(self.reps), "--seed", str(self.seed),
                "--out", rel(os.path.join(out, "report.csv")),
                "--replicates-out", rel(os.path.join(out, "replicates.csv"))]
        if self.pass_estimators:
            argv += ["--estimators", ",".join(self.estimators)]
        return argv

    def plan(self):
        """The same experiment as a plan document, for the pool probe."""
        return {"preset": self.preset, "cells": [list(c) for c in self.cells],
                "n_grid": list(self.n_grid), "estimators": list(self.estimators),
                "reps": self.reps, "master_seed": self.seed}

    def check(self, out) -> Outcome:
        report_path = os.path.join(out, "report.csv")
        reps_path = os.path.join(out, "replicates.csv")
        with open(report_path, encoding="utf-8") as fh:
            text = fh.read()
        require(text.startswith(self.report_header + "\n"), "report header")
        rows = list(csv.DictReader(io.StringIO(text)))
        with open(reps_path, encoding="utf-8") as fh:
            text = fh.read()
        require(text.startswith(self.replicate_header + "\n"), "replicates header")
        records = list(csv.DictReader(io.StringIO(text)))

        keys = [(f"p{p}_r{r}", str(n), est) for p, r in self.cells for n in self.n_grid
                for est in self.estimators]
        require(len(rows) == len(keys), f"{len(rows)} report rows, expected {len(keys)}")
        require(len(records) == len(keys) * self.reps,
                f"{len(records)} replicate rows, expected {len(keys) * self.reps}")
        groups = {}
        for rec in records:
            groups.setdefault((rec["scenario"], rec["n"], rec["estimator"]), []).append(rec)
        for row in rows:
            key = (row["scenario"], row["n"], row["estimator"])
            require(key in groups, f"report row {key} has no replicates")
            recs = groups[key]
            require(len(recs) == self.reps, f"cell {key}: {len(recs)} replicates")
            require((row["reps"], row["seed"]) == (str(self.reps), str(self.seed)),
                    f"cell {key}: reps/seed columns")
            good = [rec for rec in recs if not rec["error"]]
            require(row["failures"] == str(len(recs) - len(good)), f"cell {key}: failures")
            if good:
                dists = np.array([float(rec["dist"]) for rec in good])
                freq = float(np.mean([int(rec["r_est"]) == int(row["r"]) for rec in good]))
                sd = float(dists.std(ddof=1)) if dists.size > 1 else 0.0
                expect = [round(freq, 3), round(float(dists.mean()), 3), round(sd, 3)]
            else:
                expect = [float("nan")] * 3
            got = [row["freq"], row["dist_mean"], row["dist_sd"]]
            require(got == [f"{v:.3f}" for v in expect],
                    f"cell {key}: report {got} vs replicates {expect}")
        require(sorted(groups) == sorted(keys), "replicate cells differ from the plan")

        good = [rec for rec in records if not rec["error"]]
        hits = sum(int(rec["r_est"]) == int(rec["r"]) for rec in good)
        return Outcome(len(records), len(records) - len(good), hits, len(good),
                       [float(rec["dist"]) for rec in good], digest(report_path, reps_path))

    def failed_outcome(self) -> Outcome:
        ops = self.replicates * len(self.estimators)
        return Outcome(ops, ops, 0, 0, [], None)


class McI2Small(Simulate):
    name = "mc_i2_small"
    preset, cells, n_grid, reps = "example2", ((6, 2), (10, 4)), (300, 1000), 100
    estimators = ("ratio", "ic_omega1", "ic_omega2", "unitroot")
    pass_estimators = True
    expected_layers = (
        "cli.cmd_simulate", "harness.run_plan", "simgen.gen_panel", "ranksel.fit",
        "covstack.build_stack", "linalg.eigh_desc", "ranksel.rules", "subspace.dist_d1",
        "baselines.unit_root_critical_table", "baselines.unit_root_stat",
        "baselines.sequential_unit_root",
    )


class McI1Johansen(Simulate):
    name = "mc_i1_johansen"
    preset, cells, n_grid, reps = "example1", ((8, 2), (12, 3)), (2500,), 20
    estimators = ("johansen", "ratio", "ic_omega1", "ic_omega2")  # the preset's own
    pass_estimators = False
    expected_layers = (
        "cli.cmd_simulate", "harness.run_plan", "simgen.gen_panel", "ranksel.fit",
        "covstack.build_stack", "linalg.eigh_desc", "linalg.solve_spd", "ranksel.rules",
        "subspace.dist_d1", "baselines.trace_critical_table", "baselines.johansen_trace",
    )


WORKLOADS = {w.name: w for w in (AnalyzeCold, McI2Small, McI1Johansen)}


# ---------------------------------------------------------------------------
# processes

def child_env(blas_threads=None):
    # Byte-code caches are written, as an installed package has them, so that
    # import time does not depend on the caller's PYTHONDONTWRITEBYTECODE.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if blas_threads is not None:
        env.update({name: str(blas_threads) for name in BLAS_ENV})
    return env


def run_child(argv, log_path, env=None):
    """Run one child process to completion; return (exit code, wall seconds)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, stdout=subprocess.DEVNULL,
                                stderr=log, cwd=ROOT, env=env or child_env())
        try:
            code = proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = -9
        wall = time.perf_counter() - t0
    return code, wall


def tail(path, lines=5):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:]).strip()


def closed_loop(workload, work, seconds):
    """Run cold CLI processes back to back; return one record per process."""
    out = os.path.join(work, "cold")
    os.makedirs(out, exist_ok=True)
    timings = os.path.join(work, "timings.json")
    log = os.path.join(work, "stderr.log")
    procs = []
    start = time.perf_counter()
    while True:
        if os.path.exists(timings):
            os.remove(timings)
        code, wall = run_child([os.path.join(BENCH, "cold.py"), timings]
                               + workload.args(out), log)
        rec = {"wall_s": wall}
        try:
            require(code == 0, f"exit code {code}: {tail(log)}")
            with open(timings, encoding="utf-8") as fh:
                rec.update(json.load(fh))
            require(os.path.realpath(rec["module"]).startswith(os.path.realpath(SRC) + os.sep),
                    f"imported eigencoint from {rec['module']}, not from {SRC}")
            rec["outcome"] = workload.check(out)
            first = procs[0]["outcome"].fingerprint if procs else None
            require(first in (None, rec["outcome"].fingerprint),
                    "outputs differ from the first process of this run")
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["outcome"] = workload.failed_outcome()
        procs.append(rec)
        elapsed = time.perf_counter() - start
        if "error" in rec:
            break
        typical = statistics.median(p["wall_s"] for p in procs)
        if len(procs) >= MIN_PROCESSES and elapsed + typical > seconds:
            break
    return procs


def warm_up(work):
    """Import the package once, untimed, so byte-code caches exist."""
    code, _ = run_child(["-c", "import eigencoint.cli"], os.path.join(work, "warmup.log"))
    if code != 0:
        raise SystemExit(f"error: cannot import eigencoint from {SRC}: "
                         f"{tail(os.path.join(work, 'warmup.log'))}")


# ---------------------------------------------------------------------------
# metrics

def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    return 100 * (len(ordered) - 10) // len(ordered), ordered[len(ordered) - 11]


def quality(procs):
    outcomes = [p["outcome"] for p in procs]
    ops = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    good = [o for o in outcomes if o.fingerprint is not None]
    # Outputs repeat exactly within a run, so one process carries the statistics.
    first = good[0] if good else None
    return {
        "attempted": ops,
        "failed": failed,
        "fingerprint": first.fingerprint if first else None,
        "error_rate": failed / ops if ops else 1.0,
        "rank_accuracy": first.hits / first.decisions if first and first.decisions else 0.0,
        "subspace_dist": float(np.mean(first.dists)) if first and first.dists else 0.0,
    }


def end_to_end(workload, procs):
    values = {
        "wall_s": [p["wall_s"] for p in procs],
        "setup_s": [p["import_s"] for p in procs],
        "replicates_per_s": [workload.replicates / p["main_s"] for p in procs],
        "peak_rss_mb": [p["maxrss_kb"] / 1024.0 for p in procs],
    }
    for name, unit in END_TO_END:
        vals = values[name]
        line = f"  {name:<18} median {statistics.median(vals):.4f} {unit}"
        tp = tail_percentile(vals)
        if tp is not None:
            line += f", p{tp[0]} {tp[1]:.4f} {unit}"
        print(line + f"  (n={len(vals)} processes)")
    return {name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in END_TO_END}


def layer_metrics(trace, untraced_wall, traced_wall):
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, info in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    self_s = dict.fromkeys(TIMED_LAYERS, 0.0)
    calls = dict.fromkeys(TIMED_LAYERS, 0)
    eigh_ms = {}
    dims, replicates, roots = [], 0, 0.0
    for i, (name, t0, t1, parent, info) in enumerate(spans):
        self_s[name] += (t1 - t0) - child_time[i]
        calls[name] += 1
        if parent < 0:
            roots += t1 - t0
        if name == "linalg.eigh_desc":
            eigh_ms.setdefault(info[0], []).append((t1 - t0) * 1e3)
        elif name == "baselines.trace_critical_table":
            dims.extend(info)
        elif name == "harness.run_plan":
            replicates += info
    metrics = {f"{layer}.self_s": self_s[layer] for layer in TIMED_LAYERS}
    metrics.update({f"{layer}.calls": calls[layer] for layer in COUNTED_LAYERS})
    metrics.update({f"linalg.eigh_desc.p50_ms.p{p}": statistics.median(eigh_ms[p])
                    if p in eigh_ms else 0.0 for p in EIGH_SIZES})
    metrics["baselines.trace_dims_useful_ratio"] = len(set(dims)) / len(dims) if dims else 0.0
    metrics["harness.replicates"] = replicates
    metrics["cli.import_s"] = trace["import_s"]
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.unattributed_s"] = trace["main_s"] - roots
    return metrics, calls


def shares(metrics):
    """Each layer's self time as a share of in-process time (import + main)."""
    timed = ["cli.import_s", "trace.unattributed_s"] + [f"{layer}.self_s" for layer in TIMED_LAYERS]
    total = sum(metrics[k] for k in timed)
    return {k: metrics[k] / total for k in timed if metrics[k] > 0}


def run_trace(workload, work, procs):
    """Traced in-process run (and the pool probe); returns (metrics, errors)."""
    errors = []
    out = os.path.join(work, "traced")
    os.makedirs(out)
    spans_path = os.path.join(work, "spans.json")
    log = os.path.join(work, "trace.log")
    code, traced_wall = run_child([os.path.join(BENCH, "trace.py"), "trace", spans_path]
                                  + workload.args(out), log)
    if code != 0:
        raise SystemExit(f"error: traced run exited {code}: {tail(log)}")
    with open(spans_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    try:
        outcome = workload.check(out)
        require(outcome.fingerprint == procs[0]["outcome"].fingerprint,
                "traced outputs differ from the untraced ones")
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        errors.append(f"traced run: {exc}")
    untraced_wall = statistics.median(p["wall_s"] for p in procs)
    metrics, calls = layer_metrics(trace, untraced_wall, traced_wall)
    silent = [layer for layer in workload.expected_layers if calls[layer] == 0]
    if silent:
        errors.append("layers with no recorded call (wrapper off the call path): "
                      + ", ".join(silent))

    metrics["harness.pool_speedup"] = 0.0
    if workload.name == McI2Small.name:
        probe = os.path.join(work, "pool.json")
        log = os.path.join(work, "pool.log")
        code, _ = run_child([os.path.join(BENCH, "trace.py"), "pool", probe,
                             json.dumps(workload.plan()), str(POOL_WORKERS)], log,
                            env=child_env(POOL_BLAS_THREADS))
        if code != 0:
            raise SystemExit(f"error: pool probe exited {code}: {tail(log)}")
        with open(probe, encoding="utf-8") as fh:
            pool = json.load(fh)
        if not pool["identical"]:
            errors.append("parallelism=1 and parallelism=2 reports differ")
        metrics["harness.pool_speedup"] = pool["serial_s"] / pool["pool_s"]
        print(f"  pool probe ({POOL_WORKERS} workers x {POOL_BLAS_THREADS} BLAS thread): "
              f"run_plan {pool['serial_s']:.3f} s serial, {pool['pool_s']:.3f} s pooled, "
              f"reports identical: {pool['identical']}")
    print("  self time by layer, as a share of in-process time:")
    for name, share in sorted(shares(metrics).items(), key=lambda kv: -kv[1]):
        print(f"    {name:<42} {metrics[name]:9.4f} s  {100 * share:5.1f}%")
    return metrics, errors


# ---------------------------------------------------------------------------
# entry points

def run_workload(name, seed, seconds, trace):
    workload_cls = WORKLOADS[name]
    work = os.path.join(WORK_ROOT, f"{name}-{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        warm_up(work)
        workload = workload_cls(seed, work)
        procs = closed_loop(workload, work, seconds)
        errors = [p["error"] for p in procs if "error" in p]
        q = quality(procs)
        print(f"{name} seed={seed} trace={trace}: {len(procs)} processes; "
              f"error_rate {q['error_rate']:.4f} ({q['failed']}/{q['attempted']} operations), "
              f"rank_accuracy {q['rank_accuracy']:.4f}, subspace_dist {q['subspace_dist']:.6f}; "
              f"outputs sha256 {q['fingerprint']}")
        if errors:
            metrics = {}
        elif trace:
            metrics, trace_errors = run_trace(workload, work, procs)
            errors += trace_errors
            metrics["quality.rank_accuracy"] = q["rank_accuracy"]
            metrics["quality.subspace_dist"] = q["subspace_dist"]
            metrics["quality.error_rate"] = q["error_rate"]
            for metric, unit in PER_LAYER:
                print(f"  {metric:<42} {metrics[metric]:.6g} {unit}")
            metrics = {m: {"value": metrics[m], "unit": unit} for m, unit in PER_LAYER}
        else:
            metrics = end_to_end(workload, procs)
        for err in errors:
            print(f"  CHECK FAILED: {err}", file=sys.stderr)
        return {"correct": not errors, "attempted": q["attempted"], "failed": q["failed"],
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def machine_record():
    """Hardware and library versions (read only when recording history)."""
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {"vendor": "unknown", "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    if libs:
        import ctypes

        lib = ctypes.CDLL(libs[0])
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}get_config{suffix}"):
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                    config.restype = ctypes.c_char_p
                    blas = {"vendor": config().decode(),
                            "threads": getattr(lib, f"{prefix}get_num_threads{suffix}")()}
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas["vendor"],
        "blas_threads": blas["threads"],
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "pool_probe": {"workers": POOL_WORKERS, "blas_threads": POOL_BLAS_THREADS},
    }


def record(label, seed, seconds):
    entry = {"label": label, "date": time.strftime("%Y-%m-%d"), "seed": seed,
             "seconds": seconds, "machine": machine_record(), "workloads": {}}
    for name in WORKLOADS:
        results = {f"trace{t}": run_workload(name, seed, seconds, t) for t in (0, 1)}
        if not all(r["correct"] for r in results.values()):
            print(f"error: {name} failed its checks; nothing recorded", file=sys.stderr)
            return False
        layers = {k: v["value"] for k, v in results["trace1"]["metrics"].items()}
        entry["workloads"][name] = {
            "end_to_end": {k: v["value"] for k, v in results["trace0"]["metrics"].items()},
            "per_layer": layers,
            "shares": shares(layers),
        }
    history = {"entries": []}
    if os.path.exists(HISTORY):
        with open(HISTORY, encoding="utf-8") as fh:
            history = json.load(fh)
    history["entries"].append(entry)
    with open(HISTORY, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=2)
        fh.write("\n")
    print(f"appended '{label}' to {HISTORY}")
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL",
                        help="run every workload in both modes and append to history.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "eigencoint", "cli.py")):
        print(f"error: no eigencoint sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return 0 if record(args.record, args.seed, args.seconds) else 1
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        ok &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
