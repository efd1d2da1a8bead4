"""Host speed probe: a fixed pure-Python loop that shares no code with skewrec.

Shared hosts drift in speed by tens of percent, over seconds and over
minutes.  The benchmark times this loop next to every timed step and
scales the step's time by REFERENCE_S / (loop time), which reports each
time at one reference host speed: a change in the program still shows,
a change in the host's load mostly does not.  The loop imports nothing,
so neither skewrec nor the mpmath backend can change its speed.
"""

import time

LOOPS = 250_000
# About calibrate()[0] on the quiet reference host (2-core x86-64, CPython 3.11.7);
# it only sets the scale of the reported seconds.
REFERENCE_S = 0.025


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of the fixed loop."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    acc, big = 0, 1
    for i in range(LOOPS):
        acc = (acc * 31 + i) % 1_000_003
        if not i & 63:
            big = (big * 0x9E3779B97F4A7C15 + acc) & ((1 << 1024) - 1)
    return time.perf_counter() - wall0, time.process_time() - cpu0
