"""How fast the machine runs Python right now, measured inside each pass.

On a virtual machine shared with other tenants the same pass can take 30-70%
longer from one minute to the next, for minutes at a time, so raw times of
two runs of the same code do not agree.  A ``SpeedProbe`` times a fixed
pure-Python reference task between operations, about every
``SAMPLE_EVERY_S`` seconds, and ``scale`` turns the pass's samples into the
factor that converts its raw times to times at ``REFERENCE_S`` per task:
``REFERENCE_S / median(samples)``.  The task never calls the library, so a
faster library still reads faster; only the machine's speed cancels out.
"""

from __future__ import annotations

import math
import statistics
import time

# Median time of one reference task on the machine the bounds were set on
# (2-vCPU virtual machine, Intel Xeon, Python 3.11, a calm minute), so that
# there scaled times read close to raw ones.
REFERENCE_S = 0.0030
SAMPLE_EVERY_S = 0.1


def reference_task() -> int:
    """About 3 ms of pure Python in two halves: an integer loop, and row
    operations on small integer matrices built with list comprehensions.
    Of several candidate tasks timed beside every workload, this pair
    followed the workloads' slow spells most closely, in proportion."""
    total = 0
    for i in range(24000):
        total += i * i % 7
    for _ in range(30):
        rows = [[(i * 7 + j * 13) % 23 - 11 for j in range(8)] for i in range(8)]
        for c in range(8):
            for i in range(c + 1, 8):
                a, b = rows[c][c] or 1, rows[i][c]
                rows[i] = [a * x - b * y for x, y in zip(rows[i], rows[c])]
        total += rows[-1][-1] % 5
    return total


class SpeedProbe:
    """Times the reference task at most every ``every`` seconds."""

    def __init__(self, every: float = SAMPLE_EVERY_S):
        self.every = every
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        reference_task()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.every:
            self.sample()


def scale(samples) -> float:
    """Factor from a pass's raw times to times at the reference speed."""
    return REFERENCE_S / statistics.median(samples)
