"""Run the wfsim CLI with span tracing: ``traced_cli.py TRACE_OUT CLI_ARGS...``.

Installs the benchmark's wrappers, calls ``wfsim.cli.main`` with the CLI
arguments and writes the recorded spans to TRACE_OUT when it returns.
"""

import sys

import wfsim.cli

from tracing import Tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return wfsim.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
