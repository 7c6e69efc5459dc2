"""Host speed index: timings corrected for the host CPU's drifting speed.

The benchmark runs on a few vCPUs of a shared host.  There, one fixed
CPU-bound loop takes anywhere from 1x to 1.6x its fastest time, in
stretches of a few seconds, and each vCPU drifts on its own; CPU time
equals wall time throughout, so the slowdown is the core's, not steal or
scheduling.  Wall time alone therefore measures the host as much as the
program.

:class:`SpeedIndex` samples the speed of the CPU the calling process
runs on, while the program works: a ``SIGALRM`` interval timer
interrupts the main thread every :data:`PERIOD` seconds, and the handler
times :data:`REFERENCE_LOOPS` turns of a fixed pure-Python loop that is
the benchmark's own code (no program code runs in it, so no program
change can speed it up or slow it down).  The loop is timed with the
thread's CPU clock, so it measures how fast the core runs, not how long
the thread waited for it.

:meth:`SpeedIndex.normalized` turns a wall-clock interval into *reference
seconds*: the interval's wall time minus the handler's own time, times
the mean over the samples taken inside it of ``REFERENCE_S / sample``.
A reference second is a second on a core where the loop takes
:data:`REFERENCE_S`.  Work that waits rather than computes (a sleep, a
peer process on another core) is scaled too, so the index is applied
only to work that computes on the sampled core: the ``paper`` and
``sweep`` workers, set-up, and ``serve`` with its server on the load
generator's CPU and no batch window.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import Callable, List, Tuple

#: Seconds between samples.
PERIOD = 0.01
#: Turns of the reference loop per sample (about 0.3 ms on the sizing
#: host, so sampling costs about 3% of the wall time, all subtracted).
REFERENCE_LOOPS = 2000
#: CPU seconds one sample took on the sizing host's typical stretch;
#: fixed, so reference seconds compare across runs and commits.
REFERENCE_S = 0.0003
#: An interval's speed is the mean over the samples taken within this
#: many seconds of it: the host's speed holds for seconds at a time, and
#: one sample alone is noisy.
MARGIN = 0.1


def reference_loop(turns: int = REFERENCE_LOOPS) -> int:
    """The fixed loop: integer arithmetic and a small dict, the staples
    of an interpreter-bound simulator."""
    total = 0
    table = {}
    for index in range(turns):
        total += index * index % 7
        table[index & 63] = total
    return total


class SpeedIndex:
    """Samples the host CPU's speed in this process, on ``SIGALRM``.

    Use from the main thread, around single-threaded work::

        index = SpeedIndex()
        index.start()
        started = time.perf_counter()
        work()
        seconds = index.normalized(started, time.perf_counter())
        index.stop()
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        #: ``(wall start, wall duration, CPU duration)`` per sample,
        #: on ``clock``.
        self.samples: List[Tuple[float, float, float]] = []
        self._starts: List[float] = []
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, _signum, _frame) -> None:
        wall = self.clock()
        collecting = gc.isenabled()
        gc.disable()            # the program's garbage is not the loop's
        cpu = time.thread_time()
        reference_loop()
        cpu = time.thread_time() - cpu
        if collecting:
            gc.enable()
        self._starts.append(wall)
        self.samples.append((wall, self.clock() - wall, cpu))

    def _inside(self, start: float, end: float):
        low = bisect.bisect_left(self._starts, start)
        high = bisect.bisect_right(self._starts, end)
        return self.samples[low:high]

    def normalized(self, start: float, end: float) -> float:
        """Reference seconds of the work done in ``[start, end]``
        (``clock`` values): the wall time less the samples' own, scaled
        by the host's speed around it."""
        own = sum(wall for _s, wall, _c in self._inside(start, end))
        return (end - start - own) * self.scale(start, end)

    def scale(self, start: float, end: float) -> float:
        """Mean ``REFERENCE_S / sample`` over the samples within
        :data:`MARGIN` of ``[start, end]`` (1.0 if there are none)."""
        near = self._inside(start - MARGIN, end + MARGIN)
        if not near:
            return 1.0
        return sum(REFERENCE_S / cpu for _s, _w, cpu in near) / len(near)

    def cpu_ms(self) -> float:
        """Median sample, in ms: the host's speed over the run (recorded
        with each result, so a slow hour shows)."""
        ordered = sorted(cpu for _s, _w, cpu in self.samples)
        return 1000.0 * ordered[len(ordered) // 2] if ordered else 0.0
