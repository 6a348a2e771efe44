"""One cold ``eigencoint`` CLI process with its own timings.

Usage: ``python3 bench/cold.py TIMINGS_JSON CLI_ARG...``

Imports ``eigencoint.cli`` in this fresh interpreter, runs ``main`` on the
given arguments and writes ``{"import_s", "main_s", "maxrss_kb", "module"}``
to ``TIMINGS_JSON``.  The process exits with the CLI's exit
code.  Only the standard library is imported before ``eigencoint``, so the
import time is what a user's ``eigencoint`` command pays.
"""

import json
import resource
import sys
import time


def main() -> int:
    timings_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import eigencoint.cli as cli

    t1 = time.perf_counter()
    code = cli.main(argv)
    t2 = time.perf_counter()
    with open(timings_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_s": t1 - t0,
                "main_s": t2 - t1,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "module": cli.__file__,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
