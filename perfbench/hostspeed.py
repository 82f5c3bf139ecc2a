"""Host-speed normalisation of wall times.

On the 2-vCPU Intel Xeon VM (Python 3.11.7) where this benchmark was
written, host speed changes by up to 2x within seconds: a fixed 20k-term
Fraction sum took 32 ms in one stretch and 58 ms in the next, and CPU time
tracked wall time, so the cause is host speed, not scheduling.  Raw wall
times therefore spread far beyond any useful regression bound.

``SpeedSampler`` times a fixed calibration snippet (benchmark code only: a
small fraction-free elimination, Fraction sums and tuple-keyed dict traffic,
the same kinds of work apolar does) every ``PERIOD`` seconds from a SIGALRM
handler.  ``measure`` runs one call, subtracts the time spent in the
handler, and scales the remaining wall time by ``REF_S / median(calibration
samples taken during the call and just before it)``.  The result is the
call's wall time at the reference host speed, at which the snippet takes
``REF_S``.  No apolar code runs in the snippet, so a change to apolar
cannot move the scale.  The correction is not exact: in some host phases
the snippet slows down more than apolar code does, which leaves normalised
times of one case about 10% apart between phases (raw: up to 2x).
"""

import signal
import statistics
from fractions import Fraction
from math import gcd
from time import perf_counter

PERIOD = 0.05
REF_S = 2.5e-4  # snippet time in the fast phase of the VM named above


def calibration_snippet():
    """Fixed work whose duration measures host speed.  Changing it changes
    the scale of every normalised time, so it is never edited."""
    work = [[(i * 7 + j * 3) % 11 - 5 for j in range(8)] for i in range(6)]
    for r0 in range(6):
        piv = work[r0][r0] or 1
        for r in range(6):
            if r != r0:
                c = work[r][r0]
                row = [piv * a - c * b for a, b in zip(work[r], work[r0])]
                g = 0
                for x in row:
                    g = gcd(g, x)
                work[r] = [x // g for x in row] if g > 1 else row
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(k % 7 - 3, k)
    counts = {}
    for a in range(12):
        for b in range(12):
            e = (a, b, a ^ b)
            counts[e] = counts.get(e, 0) + a * b
    return acc, len(counts)


class SpeedSampler:
    """Context manager sampling host speed while it is active."""

    def __init__(self):
        self.samples = []  # calibration snippet durations, seconds
        self.paused = 0.0  # total time spent in the handler
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = perf_counter()
        calibration_snippet()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        self.paused += elapsed

    def __enter__(self):
        for _ in range(3):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def measure(self, fn, *args):
        """Run ``fn(*args)``; returns (result, exception or None, timing).

        ``timing`` is (wall, net, normalised) in seconds: the raw wall time,
        the wall time minus time spent in the sampler, and the net time at
        the reference speed."""
        n0, p0 = len(self.samples), self.paused
        t0 = perf_counter()
        result = err = None
        try:
            result = fn(*args)
        except Exception as exc:  # the caller counts it as a failed case
            err = exc
        wall = perf_counter() - t0
        net = wall - (self.paused - p0)
        scale = REF_S / statistics.median(self.samples[max(0, n0 - 2):])
        return result, err, (wall, net, net * scale)
