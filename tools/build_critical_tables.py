"""Rebuild the default critical tables shipped in the eigencoint package.

Usage (from the root of a checkout)::

    python3 tools/build_critical_tables.py [--out PATH]

It simulates, from ``src/`` of this checkout, the two tables that
``trace_critical_table`` and ``unit_root_critical_table`` read instead of
simulating, and writes them to ``src/eigencoint/data/critical_default.json``
(or ``--out``):

- the trace table for dims 1..60 at ``T=1000``, 2000 repetitions;
- the unit-root table for every length of the presets' ``n`` grids
  (300, 500, 1000, 1500, 2000, 2500) at 4000 repetitions;

both at level 0.05 and seed 0.  Each is simulated by the private function
that the public one calls when no stored row serves a request, so the
file holds exactly what those calls would compute.  The output is the same
bytes on every run; ``cmp`` it against the committed file to check that a
change to a sampler kept its tables, or rebuild the file when a change of
sampler tag says the bits moved.  It takes about 10 s on two cores.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from eigencoint import baselines  # noqa: E402

OUT = baselines._PACKAGED_PATH
LEVELS = (baselines.DEFAULT_LEVEL,)
SEED = 0
TRACE_DIMS = tuple(range(1, 61))
UNIT_ROOT_LENGTHS = (300, 500, 1000, 1500, 2000, 2500)


def build() -> str:
    """The file's text: the two tables as a JSON list of ``to_dict`` entries."""
    tables = [
        baselines._simulate_trace_table(
            TRACE_DIMS, LEVELS, baselines.DEFAULT_TRACE_T, baselines.DEFAULT_TRACE_REPS, SEED
        ),
        baselines._simulate_unit_root_table(
            UNIT_ROOT_LENGTHS, LEVELS, baselines.DEFAULT_UNIT_ROOT_REPS, SEED
        ),
    ]
    return json.dumps([table.to_dict() for table in tables], indent=1, sort_keys=True) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=OUT, help="output path (default: the package file)")
    args = parser.parse_args()
    text = build()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
