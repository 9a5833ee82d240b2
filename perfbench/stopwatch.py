"""Machine-normalized timing of chunks of work.

On a shared 2-vCPU host the same code ran up to 1.8x slower from one run to
the next, and by 20% or more from one second to the next, which swamps the
differences the benchmark exists to show. So every end-to-end timing is
normalized: a fixed calibration loop (pure-Python float arithmetic and small
numpy reductions, nothing from fuzzyloc) runs just before and just after each
timed chunk, and the chunk's raw time is scaled by ``REFERENCE_S`` over the
mean of those two loop times. A chunk that ran while the host was slow is
scaled down by as much as the loop slowed. The raw times are reported beside
the normalized ones.
"""

import math
import time

import numpy as np

# the calibration loop's median time on the 2-vCPU host the bounds were set on
REFERENCE_S = 0.0022


def _calibration_unit():
    acc = 0.0
    for i in range(1500):
        a = (i * 0.001, i * 0.002, i * 0.003)
        acc += math.exp(-abs(a[0] - a[2])) * (1.0 - abs(a[1] - 0.5))
    x = np.arange(300.0).reshape(100, 3)
    for _ in range(15):
        acc += float(((x[:, None, :] - x[None, :5, :]) ** 2).sum(axis=2).argmin(axis=1).sum())
    return acc


def calibration_s():
    """Seconds the fixed calibration loop takes right now."""
    t0 = time.perf_counter()
    for _ in range(3):
        _calibration_unit()
    return time.perf_counter() - t0


class Stopwatch:
    """Scale factors for consecutive timed chunks.

    Call ``start()`` before a run of chunks and ``lap()`` right after each
    one; ``lap`` returns the factor that turns the chunk's raw seconds into
    normalized seconds. With ``calibrated=False`` every factor is 1.
    """

    def __init__(self, calibrated=True):
        self.calibrated = calibrated
        self._before = None

    def start(self):
        if self.calibrated:
            self._before = calibration_s()

    def lap(self):
        if not self.calibrated:
            return 1.0
        after = calibration_s()
        factor = REFERENCE_S / ((self._before + after) / 2.0)
        self._before = after
        return factor
