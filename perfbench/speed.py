"""Host-speed probe used to scale wall times to a reference CPU speed.

On a shared host the CPU a process gets can run 1.5x slower for tens of
seconds at a time, which moves every wall time of a run together. A fixed
pure-Python loop timed right before and after each measured interval tells
how fast the host ran meanwhile; ``scaled`` converts the interval to the
seconds it would have taken with the probe at ``REFERENCE_S``.
The probe does not touch the program, so a change to the program cannot
move it.
"""

import time

PROBE_ITERATIONS = 200_000
REFERENCE_S = 0.013      # probe time on an unloaded 2-core x86-64 host (Python 3.11)


def probe() -> float:
    """Seconds for one fixed loop of integer arithmetic."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i
    return time.perf_counter() - t0


def scaled(wall_s: float, probe_before: float, probe_after: float) -> float:
    """``wall_s`` at reference speed, from the probes that bracket it."""
    return wall_s * REFERENCE_S * 2.0 / (probe_before + probe_after)
