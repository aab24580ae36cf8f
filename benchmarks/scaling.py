"""CPU timing, instruction counts and log-log slopes for the
complexity-slope gates.

Not a benchmark itself (pytest collects only ``bench_*.py``): the E-T3.1
and E-T4.1 series time a solver with :func:`best_cpu_seconds` over a
growing input and gate on :func:`loglog_slope` of time against edges.
:func:`opcode_count` counts the bytecode instructions of the same call,
which depends only on the code, the input and the CPython version, not on
how busy the host is.
"""

from __future__ import annotations

import gc
import math
import sys
import time


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


def best_cpu_seconds(fn, runs: int = 3) -> float:
    """Best CPU time of ``runs`` calls, with the cyclic GC paused as timeit
    does: a full collection walks every live object, including the other
    sizes' graphs."""
    best = math.inf
    for _ in range(runs):
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            fn()
            best = min(best, time.process_time() - start)
        finally:
            gc.enable()
    return best


def opcode_count(fn, *args) -> int:
    """Bytecode instructions CPython executes in ``fn(*args)``, callees
    included.  Work done in C (sorts, set operations, ``sum``) counts as
    the one instruction that calls it.  Tracing slows the call about
    fortyfold, so never time a counted call."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            count += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count
