"""A fixed amount of CPU work that reads the machine's speed.

On a small shared virtual machine the same code runs up to a third slower
for stretches of a fraction of a second to a minute, in CPU time as much as
in wall time (the process is not descheduled; each instruction takes
longer).  The worker runs `speed_probe` before each operation and after
the last, and run.py divides each operation's time by the mean of the two
probes around it.  Multiplied by REFERENCE_S that gives the operation's
time at a fixed machine speed: the speed at which one probe takes
REFERENCE_S seconds.

The probe does not touch cpshift, so no change to the program can move it.
Its mix, interpreter bytecode and ufuncs on 29-element complex arrays, is
that of the program's quadrature loops and reflection-kernel batches, so
the two slow down together.
"""
from __future__ import annotations

import time

import numpy as np

ROUNDS = 2000
# wall time of one probe at the reference speed; on a 2-core x86_64 VM
# (Python 3.11, numpy 2.4) one probe takes 0.015 to 0.03 s
REFERENCE_S = 0.015

_BATCH = np.linspace(0.1, 2.0, 29) + 0.5j


def speed_probe() -> tuple:
    """(wall s, CPU s) of one probe."""
    w0, c0 = time.perf_counter(), time.process_time()
    acc = 0.0
    for i in range(ROUNDS):
        b = np.sqrt(_BATCH * _BATCH + 1.0)
        acc += float((np.exp(-b) / (b + 2.0)).real.sum()) + i * 0.5
    return time.perf_counter() - w0, time.process_time() - c0
