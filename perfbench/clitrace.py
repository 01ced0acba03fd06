"""A traced ``ordstat`` CLI invocation, for the traced run of the ``cli`` workload.

Usage: python3 clitrace.py SPANS_PATH CLI_ARGS...

Behaves like ``python -m ordstat.cli CLI_ARGS...`` (same output, same exit
code), and records a ``cli.import`` span for importing ``ordstat.cli`` and
the layer spans of the call to ``main``, written to SPANS_PATH.
"""

import sys
from time import perf_counter

import spans


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    start = perf_counter()
    import ordstat.cli

    tracer.add("cli.import", -1, 0, start, perf_counter())
    tracer.install()
    try:
        return ordstat.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
