"""A fixed, program-independent kernel that gauges the machine's speed.

The baseline machine's single-thread speed drifts by up to about 1.7x, over
fractions of a second to minutes (see the README, Limits). The measured
worker runs this kernel just before each operation of a pass and then, from
a timer signal, every ``SAMPLE_EVERY_S`` while the operation runs. It takes
the kernel's own time off the operation's time and scales what is left by
``REF_S`` over the mean kernel time of that operation. The kernel is stdlib
only and shares no code with the program, so a change to the program moves
the scaled times as much as the raw ones.

The kernel is integer arithmetic on a small dict, the kind of work the
program's Smith normal form does on its sparse rows.
"""

from __future__ import annotations

import time

# The kernel's median time on the baseline machine (2 vCPU Xeon at 2.1 GHz,
# Python 3.11.7). A scaled time is in seconds at that machine's median speed.
REF_S = 0.009
SAMPLE_EVERY_S = 0.4


def kernel() -> int:
    d: dict[int, int] = {}
    for i in range(40000):
        k = i * 7 % 1009
        d[k] = d.get(k, 0) + i
    return len(d)


def timed() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
