"""Times in seconds of an uncontended core, measured against a reference chunk.

The benchmark's host shares its cores with other tenants. For stretches of
several seconds to a minute they slow every instruction stream on the core
by up to 1.9x, with no steal time reported, so raw wall times of the same
work spread by far more than any change worth detecting.

A `RefClock` times a fixed reference chunk (benchmark code, independent of
the package) every `INTERVAL_S`, from a SIGALRM handler in the measured
thread. Each segment of measured time between two chunks is scaled by the
chunk's nominal time over the mean time of the two chunks that bracket it.
A slowdown that hits the chunk and the measured code alike cancels; a change
to the package does not touch the chunk.

Solves use `numpy_chunk`: small-array numpy arithmetic, a slice-accumulated
grid product and scalar Python floats, the three kinds of work the
package's kernels do. The set-up import uses `python_chunk`, scalar floats
and dict stores, because numpy's own import is part of what it times.
Importing this module loads only the standard library, so the set-up
worker can start its clock before numpy is imported.
"""

import functools
import signal
import time

INTERVAL_S = 0.05
# each chunk's nominal time: about its 5th percentile over a minute on the
# 2-core Xeon (2.1 GHz) the benchmark was built on; it only sets the scale
# of the reported seconds
NUMPY_NOMINAL_S = 0.55e-3
PYTHON_NOMINAL_S = 0.2e-3


@functools.lru_cache(maxsize=None)
def _grid():
    import numpy as np
    grid = np.random.default_rng(0).uniform(0.1, 1.0, (4, 4, 4))
    return grid, [tuple(int(v) for v in ijk) for ijk in np.argwhere(grid > 0.3)]


def numpy_chunk():
    import numpy as np
    grid, nz = _grid()
    s = 0.0
    a = np.full((4, 4), 0.5)
    for i in range(100):
        s += float((a * a + 1.0).sum()) + i * 0.25
    out = np.zeros((4, 4, 4))
    for i, j, k in nz:
        out[i:, j:, k:] += grid[i, j, k] * grid[:4 - i, :4 - j, :4 - k]
    return s + float(out[3, 3, 3])


def python_chunk():
    s, d = 0.0, {}
    for i in range(1500):
        s = s * 0.999 + 1.0001 * i
        d[i & 63] = s
    return s


class RefClock:
    """Accumulates the raw seconds and reference-core seconds of one stretch.

    Chunk time is excluded from both. Use as start() ... stop(); the measured
    code runs in between, in the thread that called start().
    """

    def __init__(self, chunk=numpy_chunk, nominal_s=NUMPY_NOMINAL_S):
        self._chunk = chunk
        self._nominal_s = nominal_s
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.chunks = []
        self._running = False

    def _close_segment(self, end, chunk_s):
        seg = end - self._seg_start
        self.raw_s += seg
        self.ref_s += seg * self._nominal_s / (0.5 * (chunk_s + self.chunks[-1]))
        self.chunks.append(chunk_s)

    def _on_alarm(self, signum, frame):
        if not self._running:
            return
        end = time.perf_counter()
        self._close_segment(end, self._time_chunk())
        self._seg_start = time.perf_counter()

    def _time_chunk(self):
        t0 = time.perf_counter()
        self._chunk()
        return time.perf_counter() - t0

    def start(self):
        self.chunks.append(self._time_chunk())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self._seg_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        end = time.perf_counter()
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._close_segment(end, self._time_chunk())
        return self.raw_s, self.ref_s
