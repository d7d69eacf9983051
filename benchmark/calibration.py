"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts: on the 2-core
reference machine one ``brown:50 dr-cnk`` solve took anywhere from 50 to
100 ms within one minute, in plateaus of 10 to 30 s, and process CPU time
moved with wall time.  So the timed work is interleaved with runs of a fixed
kernel that uses no code of the package: small-vector numpy calls in a
Python loop (the solvers' loop shape), a dense 1000 x 200 product, a small
least-squares solve, and formatting floats into text.  A timing is reported
in reference seconds, ``seconds * REFERENCE_S / median(kernel runs)``, over
the kernel runs made right around the timed work.  The drift does not slow
numpy calls and pure-Python string work alike, and the numpy part alone
tracked the renderings worse than no calibration did; so the renderings,
which are string formatting, are scaled by the formatting part alone
(``format_seconds``, ``FORMAT_REFERENCE_S``).  The package cannot move the
kernel, so a change to the package moves reference seconds as it moves wall
seconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# typical kernel times on the reference machine (README.md), so that reference
# seconds read close to wall seconds there
REFERENCE_S = 0.025
FORMAT_REFERENCE_S = 0.005


class Calibrator:
    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(20221))
        self._vec = rng.standard_normal(200)
        self._mat = rng.standard_normal((1000, 200))
        self._lsq = rng.standard_normal((10, 210))
        self._rhs = rng.standard_normal(10)
        self._floats = rng.standard_normal(3000)
        self.kernel()  # the first run pays numpy's one-time set-up, outside any timing or heap count

    def kernel(self) -> float:
        acc = 0.0
        for i in range(200):
            u = self._vec * (1.0 + 1e-3 * i)
            acc += float(u @ u) + float(np.median(u)) + float(np.cumsum(u)[-1])
            acc += float((self._mat @ u)[0])
            if i % 10 == 0:
                acc += float(np.linalg.lstsq(self._lsq, self._rhs, rcond=None)[0][0])
        return acc + self.format_kernel()

    def format_kernel(self) -> int:
        return sum(len(f"{i},{v:.17g}\n") for i, v in enumerate(self._floats))

    def seconds(self) -> float:
        """Wall seconds of one kernel run."""
        started = time.perf_counter()
        self.kernel()
        return time.perf_counter() - started

    def format_seconds(self) -> float:
        """Wall seconds of one run of the formatting part alone."""
        started = time.perf_counter()
        self.format_kernel()
        return time.perf_counter() - started


def scale(kernels: list[float], reference: float = REFERENCE_S) -> float:
    """Factor from wall seconds to reference seconds for work interleaved
    with kernel runs of ``kernels`` seconds; their median resists the
    single runs that an interrupt stretches."""
    return reference / statistics.median(kernels)
