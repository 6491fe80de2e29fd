"""Run one pdtcomp CLI command under the tracer.

Usage: ``python traced_cli.py SUMMARY.json <pdtcomp arguments>`` with
pdtcomp importable.  The command runs inside a root span named
``cli.<command>``; the trace summary is written to SUMMARY.json and the
process exits with the command's status.
"""

import json
import sys

from tracer import Tracer, instrumented


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    from pdtcomp import cli

    tracer = Tracer()
    with instrumented(tracer), tracer.span(f"cli.{argv[0]}"):
        status = cli.cli_dispatch(argv)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
