"""Run one cnotcalc CLI command with every layer traced.

    python3 perfbench/traced_cli.py SPANS_FILE [cnotcalc arguments ...]

Imports ``cnotcalc.cli`` (timing the import), installs the ``tracer``
wrappers, runs the command, writes its spans to SPANS_FILE (one file per
command, its arguments in the header) and exits with the command's exit
code.  ``cnotcalc`` must be importable (PYTHONPATH=src).
"""

import sys
import time

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import cnotcalc.cli

    import_s = time.perf_counter() - t0
    t = tracer.Tracer()
    tracer.install(t)
    try:
        code = cnotcalc.cli.run(argv)
    finally:
        sys.stdout.flush()
        t.write(spans_path, {"command": argv, "import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
