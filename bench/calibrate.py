"""A fixed reference loop that measures how fast the machine runs Python now.

On a shared machine the speed of the same code drifts by 20% and more
from minute to minute, and flips between fast and slow states within tens
of milliseconds.  Runs of the benchmark made at different times would
then differ more than most changes to the program.  So a timer signal
interleaves this loop with the workload, in chunks, for a fixed share of
the time, also inside calls that take seconds; the time a chunk takes
inside a call is taken off that call's latency.  A chunk's time over
``REF_CHUNK_S``, its time on the reference machine, is the slow-down at
that moment, and the benchmark divides measured times by the slow-down
around them, giving times in reference seconds.  The loop does the kind
of work the library does (small dicts, sets, tuples, sorting with a key,
generators, calls) and never changes, so a change to the program moves
reference times and a change of machine speed does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

REF_CHUNK_S = 0.001
# chunks this close to a call also count for its slow-down factor
NEAR_S = 0.02


def chunk() -> int:
    """One unit of reference work, about 1 ms on the reference machine."""
    acc = 0
    for i in range(56):
        d = {j: (j * 7 + i) % 13 for j in range(30)}
        ranked = sorted(d.items(), key=lambda kv: (kv[1], kv[0]))
        members = frozenset(k for k, v in ranked if v % 2)
        acc += len({v for _, v in ranked}) + sum(k for k, _ in ranked[:5])
        acc += len(members & frozenset(range(0, 30, 3)))
        acc += len(tuple(str(k) for k in members))
    return acc


class Calibrator:
    """Chunk timings of one run."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []  # (start, end) per chunk
        self.starts: list[float] = []
        self.total = 0.0
        self._busy = False
        self._seen = 0

    def run_chunk(self) -> None:
        if self._busy:  # a timer signal arrived during a chunk
            return
        self._busy = True
        t0 = perf_counter()
        chunk()
        t1 = perf_counter()
        self.spans.append((t0, t1))
        self.starts.append(t0)
        self.total += t1 - t0
        self._busy = False

    def start(self, share: float) -> None:
        """Run chunks from a timer signal, ``share`` of the time from now."""
        interval = REF_CHUNK_S / share
        signal.signal(signal.SIGALRM, lambda signum, frame: self.run_chunk())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time_between(self, t0: float, t1: float) -> float:
        """Chunk time spent inside [t0, t1]; call with increasing intervals.

        A chunk runs between two bytecodes of the main thread, so it lies
        wholly before or after any time read there.
        """
        spent = 0.0
        i = self._seen
        while i < len(self.spans) and self.spans[i][1] <= t1:
            start, end = self.spans[i]
            if start >= t0:
                spent += end - start
            i += 1
        self._seen = i
        return spent

    def keep_up(self, work_s: float, share: float) -> None:
        """Run chunks until they make up ``share`` of all time spent."""
        while self.total < share / (1 - share) * work_s:
            self.run_chunk()

    def factor(self) -> float:
        """Slow-down against the reference machine (above 1 is slower)."""
        return statistics.fmean(e - s for s, e in self.spans) / REF_CHUNK_S

    def local_factor(self, t0: float, t1: float) -> float:
        """Slow-down during [t0, t1], from the chunks run within it or, if
        none, within ``NEAR_S`` of it; the whole run's if there are none."""
        for near in (0.0, NEAR_S):
            lo = bisect.bisect_left(self.starts, t0 - near)
            hi = bisect.bisect_right(self.starts, t1 + near)
            if hi > lo:
                spans = self.spans[lo:hi]
                return statistics.fmean(e - s for s, e in spans) / REF_CHUNK_S
        return self.factor()
