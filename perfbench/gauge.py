"""CPU time rescaled to a reference CPU speed.

On a shared host the same code runs at different speeds from one millisecond
to the next: on the 2-vCPU Xeon VM this benchmark was written on, a fixed
pure-Python loop's CPU time switched between two levels about 40% apart,
with runs of either level from a few milliseconds to seconds, and the share
of fast time changed over minutes.  Taking the fastest of a few repeats does
not remove that from calls of 100 ms or more, which never run at one level
throughout.

The gauge measures the speed while the benchmark runs.  A SIGALRM interval
timer interrupts the program every INTERVAL_S seconds of wall time; the
handler times a fixed slice of pure-Python work (reference_work) with the
process CPU clock.  A timed call's CPU time is then rescaled by the speed
sampled during it:

    work = cpu_time * mean(REFERENCE_NS / slice_time)

over the slices taken inside the call, or the MIN_SAMPLES nearest ones when
the call is too short to hold that many.  Because the slices sample the call
uniformly in time, the mean of the inverse slice times is the share of the
call's CPU time that a CPU at the reference speed would need.  The result is
a time in seconds at the reference speed: the speed at which one slice takes
REFERENCE_NS, the faster level of the host above.

The handler's own time is not part of a call's CPU time; it is subtracted.
ITIMER_PROF would sample CPU time directly, but while it is armed Linux
serves the process CPU clock at tick resolution (4 ms on that host), so the
wall-clock timer is used.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from time import process_time_ns

INTERVAL_S = 0.001
MIN_SAMPLES = 8
REFERENCE_NS = 12_500


def reference_work() -> int:
    """The slice the handler times: pure Python, no allocation the
    garbage collector tracks, about 12.5 µs at the reference speed."""
    s = 0
    for i in range(200):
        s += i * i % 7
    return s


class SpeedGauge:
    """Speed samples for one process; ``with gauge:`` samples inside the block.

    ``begin()`` and ``end(mark)`` bracket a timed call and return its window;
    ``seconds(window)`` gives the call's time at the reference speed, or its
    plain CPU time when the gauge has no samples.
    """

    def __init__(self) -> None:
        self.at = array("q")  # process CPU clock when each slice started
        self.slice_ns = array("q")
        self.overhead_ns = 0  # time spent in the handler
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = process_time_ns()
        reference_work()
        end = process_time_ns()
        self.at.append(start)
        self.slice_ns.append(max(end - start, 1))
        self.overhead_ns += process_time_ns() - start

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def begin(self) -> tuple[int, int]:
        return process_time_ns(), self.overhead_ns

    def end(self, mark: tuple[int, int]) -> tuple[int, int, int]:
        """(start, end, CPU time of the call less the handler's) in ns."""
        now = process_time_ns()
        return mark[0], now, now - mark[0] - (self.overhead_ns - mark[1])

    def speed(self, start_ns: int, end_ns: int) -> float:
        """Mean of REFERENCE_NS / slice time over the window's samples."""
        lo = bisect_left(self.at, start_ns)
        hi = bisect_right(self.at, end_ns)
        n = len(self.at)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            if lo > 0:
                lo -= 1
            if hi < n and hi - lo < MIN_SAMPLES:
                hi += 1
        window = self.slice_ns[lo:hi]
        return sum(REFERENCE_NS / d for d in window) / len(window)

    def seconds(self, window: tuple[int, int, int]) -> float:
        start, end, cpu_ns = window
        if not self.at:
            return cpu_ns / 1e9
        return cpu_ns * self.speed(start, end) / 1e9
