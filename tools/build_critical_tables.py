"""Rebuild the default critical tables shipped in the eigencoint package.

Usage (from the root of a checkout)::

    python3 tools/build_critical_tables.py [--out PATH]

It runs the two public functions, ``trace_critical_table`` and
``unit_root_critical_table``, from ``src/`` of this checkout with no stored
tables, so every request misses and is simulated by the lines any miss
runs, and writes their tables to
``src/eigencoint/data/critical_default.json`` (or ``--out``):

- the trace table for dims 1..60;
- the unit-root table for every length of the presets' ``n`` grids
  (300, 500, 1000, 1500, 2000, 2500);

each at its function's default ``T``, repetitions, seed and level, which
the tables' ``meta`` records.  The output is the same bytes on every run;
``cmp`` it against the committed file to check that a change to a sampler
kept its tables, or rebuild the file when a change of sampler tag says
the bits moved.  It takes about 10 s on two cores.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from eigencoint import baselines  # noqa: E402
from eigencoint.harness import PRESET_N_GRID  # noqa: E402

OUT = baselines._PACKAGED_PATH
TRACE_DIMS = range(1, 61)
UNIT_ROOT_LENGTHS = tuple(sorted(set().union(*PRESET_N_GRID.values())))


def build() -> str:
    """The file's text: the two tables as a JSON list of ``to_dict`` entries."""
    baselines._packaged = ()  # no stored table: every request is simulated
    tables = [
        baselines.trace_critical_table(TRACE_DIMS),
        baselines.unit_root_critical_table(UNIT_ROOT_LENGTHS),
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
