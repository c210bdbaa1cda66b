"""The reference loop that benchmark times are scaled by.

A fixed mix of heap, dict and float work, like the program's own Python
loops.  It is timed around every measured interval; a time scaled by it is
the time the interval would take at the machine speed where one pass takes
REFERENCE_S, which is about its speed on a 2.1 GHz Xeon.  The loop does not
depend on the program, so drift in the host's speed cancels out while a
change in the program's speed does not.
"""

import gc
import heapq
import time

REFERENCE_ITERS = 15_000
REFERENCE_S = 0.02


def reference_s() -> float:
    """Wall time of one pass.  The collector is off, so the caller's heap
    cannot change the loop's cost."""
    gc.disable()
    try:
        start = time.perf_counter()
        heap, seen, x = [], {}, 0.3
        for i in range(REFERENCE_ITERS):
            x = 3.9 * x * (1.0 - x)
            heapq.heappush(heap, (x, i))
            seen[i & 4095] = seen.get((i * 7) & 4095, 0.0) + x
            if len(heap) > 256:
                heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(wall_s: float, ref_s: float) -> float:
    """``wall_s`` at the speed where one pass of the loop takes REFERENCE_S."""
    return wall_s * REFERENCE_S / ref_s
