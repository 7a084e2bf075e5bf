"""Reference loop that converts wall times to reference-speed seconds.

On a shared 2-vCPU cloud machine, other tenants' load slows every process by
up to ~30% for stretches of seconds to minutes, so raw wall times of the same
code spread by that much from run to run. Each timed interval is therefore
divided by the time of this fixed loop, measured just before and just after
it, and multiplied by REFERENCE_S. The loop mixes small numpy products and
interpreter work like the learners do, and uses nothing from lqlearn, so a
change to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

# A round figure near the loop's median time on a 2.1 GHz Xeon vCPU with
# Python 3.11 and numpy 2.4 (0.06-0.11 s observed); it only sets the scale.
REFERENCE_S = 0.1

_ITERATIONS = 8000


def seconds() -> float:
    """Wall time of one pass of the reference loop."""
    m = np.arange(9.0).reshape(3, 3) / 10.0
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(_ITERATIONS):
        a = m @ m.T
        b = (a + a.T) / 2.0
        acc += float(np.linalg.norm(b - m))
        acc += sum(j * 0.5 for j in range(20))
    elapsed = time.perf_counter() - t0
    if not acc > 0.0:
        raise RuntimeError("reference loop produced no result")
    return elapsed


def to_reference(wall_s: float, loop_s: float) -> float:
    """Wall time rescaled to the reference speed, given the loop's time around it."""
    return wall_s * REFERENCE_S / loop_s
