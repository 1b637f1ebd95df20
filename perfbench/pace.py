"""The machine's pace: how fast it runs plain Python at a given moment.

On a shared host the same pass of pure-Python work takes up to about 1.6
times longer in one stretch than in the next, and CPU time grows with it, so
neither wall time nor CPU time alone stays steady from run to run. A fixed
chunk of pure-Python work, timed in wall time, slows down in the same
stretches, and also when the host takes the CPU away. Its pace is
REFERENCE_CHUNK_S over the chunk's time: 1 at the reference speed, 0.6 when
the host is 1.6 times slower. A time multiplied by the pace of the same
moments is a time at the reference speed.

The pace module imports nothing from fibkit, so it stays the same however
the program changes.
"""

from __future__ import annotations

import signal
import statistics
import time

CHUNK_ITERATIONS = 2000
# About the chunk's wall time on the benchmark's machine (README.md, Machine)
# in its fast stretches. It only sets the scale of the times reported.
REFERENCE_CHUNK_S = 0.0005
INTERVAL_S = 0.05
BRACKET_CHUNKS = 4


def chunk() -> float:
    """The pace of one fixed chunk of small-integer arithmetic, dict stores
    and 48-bit products."""
    t0 = time.perf_counter()
    table = {}
    total = 0
    x = 3
    for i in range(CHUNK_ITERATIONS):
        total += (i * 7) % 13
        table[i & 63] = total
        x = (x * 1103515245 + 12345) & 0xFFFFFFFFFFFF
    return REFERENCE_CHUNK_S / (time.perf_counter() - t0)


def bracketed(work) -> tuple[float, object]:
    """Run work() between BRACKET_CHUNKS chunks before and after it; return
    the mean pace of those chunks and what work() returned. For work too
    short to sample, such as one interpreter's set-up."""
    paces = [chunk() for _ in range(BRACKET_CHUNKS)]
    result = work()
    paces += [chunk() for _ in range(BRACKET_CHUNKS)]
    return statistics.fmean(paces), result


class Sampler:
    """Runs a chunk every INTERVAL_S of wall time, from a SIGALRM handler in
    the main thread, while the `with` block runs. `paces` holds the chunks'
    paces and `overhead_s` the wall time the handler took.

    The samples are evenly spaced in time, so their mean pace, times the
    block's wall time without the handler's, is the block's time at the
    reference speed, even when the host changes speed within the block. The
    samples show the speed of the thread that takes them, so this holds for
    work done in that thread, not in other processes."""

    def __init__(self) -> None:
        self.paces: list[float] = []
        self.overhead_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.paces.append(chunk())
        self.overhead_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
