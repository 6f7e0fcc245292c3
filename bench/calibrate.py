"""Calibrated time: wall time scaled by the machine's speed at that moment.

On shared machines the same work can take 1.7 times longer for seconds at
a time, on every core at once.  A fixed calibration kernel that does not
touch oscquad (small complex QR factorizations and solves plus a Python
loop, the mix the integrators run) slows by the same factor: over a
20-second run on a 2-vCPU Intel Xeon, the ratio of I1 call time to kernel
time stayed within 2% while both moved by 70%.

So the benchmark runs the kernel every ``CADENCE_S`` seconds between calls
and reports every time as

    calibrated = wall * REF_KERNEL_S / local kernel time,

where the local kernel time is the median of the ``NEIGHBOURS`` kernel
runs nearest in time.  ``REF_KERNEL_S`` is the kernel's time on that Xeon
when the machine is quiet, so on it calibrated times read as wall times of
a quiet machine.  A change to the program moves calibrated times as much
as wall times; only changes in the machine's speed cancel.
"""

from time import perf_counter

import numpy as np

REF_KERNEL_S = 3.0e-4
CADENCE_S = 0.02
NEIGHBOURS = 15

_rng = np.random.default_rng(12345)
_MATS = [_rng.standard_normal((12, 12)) + 1j * _rng.standard_normal((12, 12))
         for _ in range(8)]
_RHS = _rng.standard_normal(12) + 0j


def kernel() -> float:
    s = 0.0
    for a in _MATS:
        _q, r = np.linalg.qr(a)
        x = np.linalg.solve(a, _RHS)
        s += abs(x[0]) + abs(r[0, 0])
        for k in range(40):
            s = s * 0.5 + k
    return s


class Clock:
    """Kernel samples taken during a run, and the speed factors they give."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._last = -np.inf

    def sample(self):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        self._last = t1

    def tick(self):
        """Sample if ``CADENCE_S`` has passed since the last sample."""
        if perf_counter() - self._last >= CADENCE_S:
            self.sample()

    def scale(self, times) -> np.ndarray:
        """REF_KERNEL_S / local kernel time, at each of the given instants."""
        at, took = np.asarray(self.at), np.asarray(self.took)
        order = np.argsort(at)
        at, took = at[order], took[order]
        n = at.size
        k = min(NEIGHBOURS, n)
        pos = np.searchsorted(at, np.asarray(times, dtype=float))
        lo = np.clip(pos - k // 2, 0, n - k)
        local = np.array([np.median(took[i:i + k]) for i in lo])
        return REF_KERNEL_S / local
