"""Traced in-process runs: layer spans, and the worker-pool probe.

Usage::

    python3 bench/trace.py trace SPANS_JSON CLI_ARG...
    python3 bench/trace.py pool OUT_JSON PLAN_JSON WORKERS

``trace`` imports ``eigencoint.cli``, wraps each layer's public functions
at the module attribute its caller resolves them through (so
``eigencoint.ranksel.eigh_desc`` and ``eigencoint.baselines.eigh_desc`` are
both wrapped, as ``linalg.eigh_desc``), runs ``cli.main`` on the arguments
and writes every span as ``[layer, start, end, parent, info]``.  Spans are
kept in memory until the run ends.  A wrapped attribute that no longer
exists is reported by name and the process exits with code 4, so a
refactor can never make a layer read as zero.

``pool`` runs one plan through ``eigencoint.harness.run_plan`` with
``parallelism`` 1 and then ``WORKERS``, in this process, and writes both times and
whether the emitted reports are byte-identical.  The caller sets the BLAS
thread count in the environment; spawned workers inherit it.
"""

import functools
import importlib
import json
import sys
import time

MISSING_EXIT = 4

#: Layer name -> the module attributes its callers resolve it through.
LAYERS = {
    "cli.cmd_analyze": ("eigencoint.cli.cmd_analyze",),
    "cli.cmd_simulate": ("eigencoint.cli.cmd_simulate",),
    "harness.run_plan": ("eigencoint.cli.run_plan",),
    "simgen.gen_panel": ("eigencoint.harness.gen_panel",),
    "ranksel.fit": ("eigencoint.cli.fit", "eigencoint.harness.fit"),
    "covstack.build_stack": ("eigencoint.ranksel.build_stack",),
    "linalg.eigh_desc": ("eigencoint.ranksel.eigh_desc", "eigencoint.baselines.eigh_desc"),
    "linalg.solve_spd": ("eigencoint.baselines.solve_spd",),
    "ranksel.rules": tuple(
        f"eigencoint.{module}.{fn}"
        for module in ("cli", "harness")
        for fn in ("rank_ratio", "rank_ic", "penalty", "split")
    ) + ("eigencoint.harness.rank_ratio_fractional",),
    "subspace.dist_d1": ("eigencoint.harness.dist_d1",),
    "baselines.trace_critical_table": ("eigencoint.harness.trace_critical_table",),
    "baselines.unit_root_critical_table": (
        "eigencoint.cli.unit_root_critical_table",
        "eigencoint.harness.unit_root_critical_table",
    ),
    "baselines.unit_root_stat": ("eigencoint.baselines.unit_root_stat",),
    "baselines.johansen_trace": ("eigencoint.harness.johansen_trace",),
    "baselines.sequential_unit_root": (
        "eigencoint.cli.sequential_unit_root",
        "eigencoint.harness.sequential_unit_root",
    ),
}


def _first_shape(args, result):
    shape = getattr(args[0], "shape", None) if args else None
    return list(shape) if shape is not None else None


#: Per-layer span info, computed from the call's arguments and result.
INFO = {
    "baselines.trace_critical_table": lambda args, result: list(result.dims),
    "harness.run_plan": lambda args, result: len(result.plan.cells()) * result.plan.reps,
}


class SpanRecorder:
    """Wraps callables so that each call appends one span to ``spans``."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        info = INFO.get(layer, _first_shape)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = info(args, result)
            return result

        return traced

    def install(self, layers) -> list:
        """Wrap every target; return the targets that could not be found."""
        missing = []
        for layer, targets in layers.items():
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    missing.append(f"{layer} ({target})")
                    continue
                setattr(module, attr, self.wrap(layer, fn))
        return missing


def run_traced(spans_path, argv) -> int:
    recorder = SpanRecorder()
    t0 = time.perf_counter()
    import eigencoint.cli as cli

    import_s = time.perf_counter() - t0
    missing = recorder.install(LAYERS)
    if missing:
        print("missing layers: " + ", ".join(missing), file=sys.stderr)
        return MISSING_EXIT
    t1 = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - t1
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"exit": code, "import_s": import_s, "main_s": main_s, "spans": recorder.spans},
            fh,
        )
    return code


def run_pool_probe(out_path, plan_json, pool_workers) -> int:
    from eigencoint.harness import emit_replicates, emit_report, load_plan, run_plan

    plan = json.loads(plan_json)
    seconds, outputs = {}, {}
    for workers in (1, pool_workers):
        spec = load_plan(dict(plan, parallelism=workers))
        t0 = time.perf_counter()
        report = run_plan(spec)
        seconds[workers] = time.perf_counter() - t0
        outputs[workers] = (emit_report(report), emit_replicates(report))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "serial_s": seconds[1],
                "pool_s": seconds[pool_workers],
                "identical": outputs[1] == outputs[pool_workers],
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    mode, out, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "trace":
        sys.exit(run_traced(out, rest))
    sys.exit(run_pool_probe(out, rest[0], int(rest[1])))
