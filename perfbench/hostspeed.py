"""Host-speed probe: how fast the host runs this process right now.

On the shared 2-vCPU Xeon VM the benchmark was built on, the host's speed
drifts by 20-40 % over minutes while the process stays on-CPU (no steal
time shows), so the same pass can take 7 s or 11 s.  ``SpeedProbe`` samples that speed while a
pass runs: every ``INTERVAL_S`` of wall time a timer signal runs ``probe``,
a fixed kernel of small numpy operations and interpreter work like the
suites' own, in the pass's own thread, and records how long it took.
A time measured under the probe is reported at the reference speed, the
speed at which ``probe`` takes ``REF_PROBE_S``:

    at reference speed = measured * REF_PROBE_S / mean probe time

``probe`` first runs its kernel ``WARMUP`` times untimed, so that what the
pass left in the caches does not change the probe time: without it, a
probe right after a 64^3 FFT reads 35-45 % slower than one after a small
operation, and a change to the program's memory traffic would move the
reference.  With it the two agree to within 1 %.  A probe costs about
0.2 ms per 50 ms, 0.5 % of the pass.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REF_PROBE_S = 2.0e-4
WARMUP = 2

_A = np.arange(512.0).reshape(8, 8, 8)


def _kernel(n: int) -> float:
    acc = 0.0
    for _ in range(n):
        acc += float(np.sum(_A * _A)) + sum(j * 0.5 for j in range(30))
    return acc


def probe() -> float:
    """Wall time of 20 warm runs of the probe kernel."""
    _kernel(WARMUP)
    t0 = time.perf_counter()
    _kernel(20)
    return time.perf_counter() - t0


def at_reference(seconds: float, probe_s: float) -> float:
    """A time measured while the probe took ``probe_s``, at reference speed."""
    return seconds * REF_PROBE_S / probe_s


class SpeedProbe:
    """Runs ``probe`` on a timer signal while the ``with`` block runs and
    keeps (``perf_counter`` at the probe's start, probe time) pairs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._old_handler = None

    def _sample(self, *_):
        self.samples.append((time.perf_counter(), probe()))

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()                 # a block shorter than one tick
        return False

    def mean_s(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Mean probe time of the samples taken between ``start`` and
        ``end``; of all samples if none was."""
        inside = [p for t, p in self.samples if start <= t <= end]
        return statistics.fmean(inside or [p for _, p in self.samples])
