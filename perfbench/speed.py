"""Machine-speed probe that corrects pass times for host speed swings.

On a shared host the same pass can take 0.8 s in one minute and 1.4 s
in the next, in phases of seconds to tens of seconds.  A fixed
reference kernel, timed before and after each timed call and every
``SAMPLE_EVERY_S`` seconds during it (from a SIGALRM handler), measures
the host's speed over that interval.  The call's time, minus the time
the samples inside it took, multiplied by ``REFERENCE_S / mean probe
time`` is the time the call would have taken on a host that runs the
kernel in ``REFERENCE_S``.

The kernel belongs to the benchmark, not to spdrose, so no change to the
program moves it.  Its mix follows the workloads: small symmetric
eigensolves in a Python loop (d=6 divergences), larger ones (d=43), and
FFT convolutions (the Gabor bank).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.signal import fftconvolve

REFERENCE_S = 0.05
SAMPLE_EVERY_S = 1.0


class SpeedProbe:
    """Times the reference kernel; ``time`` samples it around and during a call.

    With ``sample_during=False`` only the probes around the call are
    taken, for calls whose own timing must not be interrupted (traced
    passes, whose span clock would count the samples).
    """

    def __init__(self, sample_during=True):
        self.sample_during = sample_during
        self.last = None
        rng = np.random.default_rng(20260814)
        self.small = [self._spd(rng, 6) for _ in range(32)]
        self.large = [self._spd(rng, 43) for _ in range(8)]
        self.image = rng.standard_normal((128, 128))
        self.kernel = rng.standard_normal((25, 25))

    @staticmethod
    def _spd(rng, dim):
        a = rng.standard_normal((dim, dim))
        return a @ a.T + dim * np.eye(dim)

    def seconds(self) -> float:
        """Wall time of one run of the reference kernel."""
        started = time.perf_counter()
        total = 0.0
        for _ in range(2):
            for i, a in enumerate(self.small):
                for b in self.small[i + 1:]:
                    total += float(np.sum(np.log(np.linalg.eigvalsh((a + b) / 2.0))))
            for a in self.large:
                for b in self.large:
                    total += float(np.sum(np.log(np.linalg.eigvalsh((a + b) / 2.0))))
            for _ in range(4):
                total += float(fftconvolve(self.image, self.kernel, mode="valid")[0, 0])
        if not np.isfinite(total):
            raise ArithmeticError("speed probe produced a non-finite sum")
        self.last = time.perf_counter() - started
        return self.last

    def time(self, call):
        """Run ``call()``; return its result, wall seconds and reference seconds.

        Wall seconds exclude the samples taken during the call.  The probe
        taken after the previous call serves as this call's probe before.
        """
        samples = [self.last if self.last is not None else self.seconds()]
        during = []

        def sample(signum, frame):
            during.append(self.seconds())

        if self.sample_during:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        started = time.perf_counter()
        try:
            result = call()
        finally:
            if self.sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            seconds = time.perf_counter() - started - sum(during)
        samples += during
        samples.append(self.seconds())
        return result, seconds, seconds * REFERENCE_S / statistics.fmean(samples)
