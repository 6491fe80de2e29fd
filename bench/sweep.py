"""The rho-sweep pass in a fresh interpreter.

Usage: ``python sweep.py [SUMMARY.json]`` with pdtcomp importable.  Calls
``analysis.ratio_series(k, n)`` for every (k, n) of ``run.RHO_SWEEP`` and
prints one JSON object: the wall time of each k, the calibration loops timed
before, between and after them, and each final checkpoint as ``[symbols
read, symbols written, rho]``.  With SUMMARY.json the sweep runs under the
tracer, inside a root span named ``rho-sweep``, without calibration loops,
and the span summary is written there.
"""

import json
import sys
import time
from contextlib import ExitStack

from run import RHO_SWEEP, calib_loop
from tracer import Tracer, instrumented


def main() -> int:
    from pdtcomp import analysis

    tracer = Tracer() if len(sys.argv) > 1 else None
    finals, times, loops = [], [], []
    with ExitStack() as stack:
        if tracer is None:
            loops.append(calib_loop())
        else:
            stack.enter_context(instrumented(tracer))
            stack.enter_context(tracer.span("rho-sweep"))
        for k, n, _, _ in RHO_SWEEP:
            start = time.perf_counter()
            finals.append(analysis.ratio_series(k, n)[-1])
            times.append(time.perf_counter() - start)
            if tracer is None:
                loops.append(calib_loop())
    if tracer is not None:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    points = [[p.symbols_read, p.symbols_written, p.rho] for p in finals]
    print(json.dumps({"times": times, "loops": loops, "finals": points}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
