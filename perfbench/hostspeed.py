"""Fixed reference loops that measure how fast the host runs right now.

On a shared host the same round can run 1.6x slower for minutes at a time
while other tenants load the machine.  The process's own CPU time rises with
its wall time then, so it is not waiting but running slower, and even the
fastest task of a whole run is slow.  The benchmark times a reference loop
just before every task and takes the task's time in units of the loop's
time.  Both slow down together, so the ratio removes most of the drift
between runs.

Contention slows kinds of code by different amounts: interpreted integer
arithmetic, object bookkeeping and vectorised numpy each have their own
loop here, and each workload is scaled by the loop that does the kind of
work it spends most time on.  The loops belong to the benchmark and must
not change, or scaled figures from before and after stop being comparable.
Set-up time is scaled the same way, by the time to start an interpreter
that imports numpy.
"""

import subprocess
import sys
import time

import numpy as np

_P = 2**31 - 1
_COEFFS = [[(i * 7919 + j * 104729) % _P for j in range(12)] for i in range(111)]


def arithmetic() -> int:
    """Modular Horner evaluation on Python ints, like share arithmetic."""
    acc = 0
    for x in range(1, 361):
        for vec in _COEFFS:
            v = 0
            for c in reversed(vec):
                v = (v * x + c) % _P
            acc ^= v
    return acc


def bookkeeping() -> int:
    """Small tuples grouped into dicts of lists, then formatted as text,
    like transcript records and their export."""
    total = 0
    for _ in range(8):
        records = []
        for i in range(20000):
            records.append((i, i % 7, "inter" if i & 1 else "intra", i * 3 % 11))
        by_phase = {}
        for r in records:
            by_phase.setdefault(r[2], []).append(r[0])
        lines = [f"{a},{b},{c},{d}" for a, b, c, d in records[:2000]]
        total += len(by_phase["inter"]) + len(lines)
    return total


def arrays() -> int:
    """Element-wise arithmetic and histograms on 3125-wide int64 arrays,
    like the privacy checker's batched protocol runs."""
    values = np.arange(3125, dtype=np.int64)
    distinct = 0
    for _ in range(3000):
        values = (values * 3 + 1) % 5
        distinct += len(np.unique(values, return_counts=True)[0])
    return distinct


# name -> (loop, seconds per pass on the 2-vCPU host the benchmark was built
# on when it was quiet).  Scaled task times are seconds at that speed.
LOOPS = {
    "arithmetic": (arithmetic, 0.065),
    "bookkeeping": (bookkeeping, 0.045),
    "arrays": (arrays, 0.095),
}


# Seconds to run `python3 -c "import numpy"` on that host when it was
# quiet: the reference for set-up time, which is mostly starting an
# interpreter and loading modules and their shared libraries.  In one run of
# 33 set-up probes, each scaled by this reference timed just before it, the
# spread (IQR / median) fell from 18% to 8%; a bare `python3 -c pass` as the
# reference left 16%.
INTERPRETER_START_S = 0.15


def time_interpreter_start() -> float:
    """Wall seconds to run ``python3 -c "import numpy"`` to completion."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def time_reference(loop: str, passes: int = 1) -> float:
    """Wall seconds per pass of ``passes`` back-to-back passes of ``loop``."""
    run, _ = LOOPS[loop]
    t0 = time.perf_counter()
    for _ in range(passes):
        run()
    return (time.perf_counter() - t0) / passes
