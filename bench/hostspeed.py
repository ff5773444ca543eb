"""Host speed, sampled while a timed segment runs, and times scaled to full speed.

The test host runs the benchmark at full speed or at about half speed, in
phases that last from seconds to minutes (other load on the shared machine;
no steal time is reported, and CPU time equals wall time).  While a timed
segment runs, a timer signal every ``INTERVAL_S`` times a fixed probe of
about 0.2 ms in the benchmark's own thread.  A segment that took ``t``
seconds while the probes took ``p`` on average is reported as
``t * REFERENCE_S / p``: its time at full speed.

The probe uses only numpy and the standard library, never slowphase, so a
change to the program moves the scaled times exactly as it moves the raw
ones.  Sampling adds about 1% to every segment, the same at every commit.
"""

from __future__ import annotations

import signal
import statistics
from functools import cache
from time import perf_counter

INTERVAL_S = 0.02
# Mean probe time at full speed on the test host (Intel Xeon VM, 2 vCPUs,
# Python 3.11, numpy 2.4).  It only sets the scale of the scaled times.
REFERENCE_S = 2.0e-4


@cache
def _state():
    # numpy is imported on first use, after the benchmark has fixed the
    # OpenBLAS thread count (see ``workloads.import_program``).
    import numpy as np

    state = np.linspace(-0.5, 0.5, 6)
    for _ in range(50):  # warm-up: first calls pay for lazy set-up in numpy
        _probe(np, state)
    return np, state


def _probe(np, state):
    x = state
    for _ in range(40):
        x = np.tanh(x * x[::-1] - 0.5 * x + state)
    ",".join(repr(float(v)) for v in x)


class Sampler:
    """Context manager: probe the host's speed while the block runs."""

    def __init__(self):
        self.probe_s = []

    def __enter__(self):
        np, state = _state()

        def sample(signum, frame):
            start = perf_counter()
            _probe(np, state)
            self.probe_s.append(perf_counter() - start)

        self._sample = sample
        self._previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.probe_s:  # a block shorter than one interval
            self._sample(signal.SIGALRM, None)
        return False

    def mean_s(self) -> float:
        return statistics.fmean(self.probe_s)


def scaled(seconds: float, probe_mean_s: float) -> float:
    """``seconds`` at full host speed, given the segment's mean probe time."""
    return seconds * REFERENCE_S / probe_mean_s
