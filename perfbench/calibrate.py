"""Host speed calibration.

The shared machines this benchmark runs on change speed by up to 1.8x
over tens of seconds (a fixed pure-Python loop, timed in 1 s buckets,
ranged from 0.69 to 1.20 of its median on a 2-core VM), which is more
than a timing can be held to.  So every timed interval is paired with
runs of a fixed kernel on the same CPU at the same time, and reported in
reference seconds:

    reference seconds = measured seconds * reference kernel time / kernel time

The slowdown is not the same for every kind of work, so a workload is
calibrated with a kernel of the kind of work it does, and only where that
measurably steadied it.  Over five to ten seeds the spread (IQR over
median) of wall_s fell from 0.12 to 0.06 on exact-lane with the Python
kernel and from 0.19 to 0.05 on io-certify with the mixed one, and that of
interpreter starts from about 0.17 to 0.02-0.10.  grid-sweep, whose time
goes to large numpy FFTs, slowed far less than any kernel did: raw, its
spread was 0.07-0.12; scaled by a 2^18-point FFT kernel it was 0.09, and
by a Python-heavy one up to 0.21.  It is reported unscaled.  No kernel
calls renyiconv, so no change to the program can move it.
"""
from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

_SIGNAL = np.random.default_rng(0).random(1 << 15)
# bound now, so the transform counting that tracing installs later never
# sees the kernel's transforms
_rfft, _irfft = np.fft.rfft, np.fft.irfft


def python_work() -> None:
    """Interpreter-bound integer and Fraction arithmetic, like the exact lane."""
    s = 0
    for i in range(20000):
        s += i * i
    q = Fraction(1, 3)
    for i in range(300):
        q = q * Fraction(2 * i + 1, 3 * i + 2) + Fraction(1, i + 7)


def fft_work() -> None:
    """A zero-padded FFT convolution as the grid layer does it, with
    buffers of about 2 MB, a per-core L2."""
    n_fft = 2 * _SIGNAL.size
    spectrum = _rfft(_SIGNAL, n_fft)
    _irfft(spectrum * spectrum, n_fft)


# name: (parts, reference kernel time in s, timer interval in s).  The
# reference time is the kernel's typical time on the machine the baseline
# was taken on; it fixes the unit only, comparisons are always between
# runs on one machine.  The interval keeps the kernel near 1% of a run.
KERNELS = {
    "python": ((python_work,), 0.004, 0.5),
    "mixed": ((python_work, fft_work), 0.006, 0.5),
}


class Calibration:
    def __init__(self, name: str):
        self.parts, self.ref_s, self.interval_s = KERNELS[name]

    def run(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        t = perf_counter()
        for part in self.parts:
            part()
        return perf_counter() - t

    def scale(self, seconds: float, kernel_samples: list[float]) -> float:
        """seconds in reference seconds, at the median kernel time given."""
        return seconds * self.ref_s / statistics.median(kernel_samples)
