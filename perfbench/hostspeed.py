"""The host's current speed, from a fixed reference loop timed in-process.

A shared host can run every process on it 1.5-1.8x slower for seconds
to minutes at a time, and that shows in process CPU time as much as in
wall time.  Timings taken minutes apart then differ by more than any
change to the program.  The benchmark therefore reports times at a
fixed reference speed: a measured time is multiplied by
``REF_S / (mean time of the reference loop around it)``, the mean taken
without the fastest and the slowest TRIM of the samples, so that one
sample stalled by the scheduler does not set it.

``Sampler`` times ``reference`` about INTERVAL_S apart from a SIGALRM
handler, which Python runs in the main thread between bytecodes, so the
samples fall inside long library calls as well as between them, evenly
in time.  The time the samples themselves take inside an interval is
subtracted from it.  The library is not changed and does not see the
sampler.
"""

import bisect
import signal
import time

# nominal time of one reference loop: a normalized time is what the
# measured one would be on a host where the loop takes this long
REF_S = 0.001
# the timer is re-armed at the end of each sample, so samples never nest
INTERVAL_S = 0.04
# samples this far before and after an interval also count for its speed
MARGIN_S = 0.5
# share of the samples dropped at each end before the mean is taken
TRIM = 0.1


def reference():
    """A fixed slice of interpreter work like the library's own: tuple
    keys, dict and set updates, list appends, a sort and calls."""
    seen = {}
    marks = set()
    order = []
    for i in range(1600):
        key = (i % 61, i % 7)
        seen[key] = seen.get(key, 0) + 1
        marks.add(i % 113)
        order.append((i * 7919) % 1009)
    order.sort()
    return len(seen) + len(marks) + order[-1]


def probe(count):
    """Times of ``count`` reference loops in a row."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return times


class Sampler:
    """Reference-loop samples, as (start, duration) in perf_counter time."""

    def __init__(self):
        self.starts = []
        self.costs = []
        self._sums = [0.0]
        self._old = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        cost = time.perf_counter() - t0
        self.starts.append(t0)
        self.costs.append(cost)
        self._sums.append(self._sums[-1] + cost)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def _range(self, t0, t1):
        return (bisect.bisect_left(self.starts, t0),
                bisect.bisect_right(self.starts, t1))

    def inside(self, t0, t1):
        """Seconds of sampling that started within [t0, t1]."""
        lo, hi = self._range(t0, t1)
        return self._sums[hi] - self._sums[lo]

    def factor(self, t0, t1):
        """REF_S over the trimmed mean reference time within MARGIN_S of
        [t0, t1]; multiply a time measured in it by this."""
        lo, hi = self._range(t0 - MARGIN_S, t1 + MARGIN_S)
        costs = sorted(self.costs[lo:hi])
        cut = int(TRIM * len(costs))
        kept = costs[cut:len(costs) - cut]
        if not kept:
            raise RuntimeError("no host-speed sample near an interval")
        return REF_S * len(kept) / sum(kept)

    def normalized(self, t0, t1):
        """The interval [t0, t1] less its sampling, at reference speed."""
        return (t1 - t0 - self.inside(t0, t1)) * self.factor(t0, t1)
