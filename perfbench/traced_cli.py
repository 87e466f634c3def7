"""Run one ``equiloday`` command with per-layer tracing switched on.

Usage: python3 perfbench/traced_cli.py TRACE_FILE CLI_ARG...

Behaves like ``python3 -m equiloday.cli CLI_ARG...`` (same stdout, same exit
status) and writes the spans and counts to TRACE_FILE as it ends.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    trace_file, cli_args = argv[0], argv[1:]
    from equiloday import cli
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
