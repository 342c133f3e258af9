"""Interpreter speed samples, taken all through the timed part of a pass.

The benchmark's host shares its cores.  While a neighbour is busy, the same
pure-Python work runs up to about 1.6 times slower; the busy share changes
within milliseconds and its average drifts over minutes, so raw times of
runs a few minutes apart differ by a quarter or more.

While ``Speed.sampling`` is active, a wall-clock timer (``SIGALRM`` every
``INTERVAL_S``) runs a fixed reference block in the pass's own thread:
integer arithmetic and int-keyed dict stores, nothing the library touches.
The block durations sample the interpreter's speed evenly over the timed
part.  ``now`` is a clock that leaves out the time spent in the samples, so
they never count in a unit, a build or a wall time.  The runner divides a
pass's times by the pass's mean block duration over ``NOMINAL_BLOCK_S``:
the times then read as at the nominal speed and the neighbour's share
cancels, while a change in the library's own work shows in full.
"""

from __future__ import annotations

import contextlib
import signal
import time

BLOCK_ITERATIONS = 2500
# one reference block at the nominal speed, about the mean block on the
# 2-core x86-64 host (Python 3.11.7) the bounds were set on
NOMINAL_BLOCK_S = 0.0004
INTERVAL_S = 0.01
SETUP_BLOCKS = 30


def reference_block() -> int:
    table = {}
    acc = 0
    for i in range(BLOCK_ITERATIONS):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    return acc


class Speed:
    """Reference-block durations and a clock that excludes them."""

    def __init__(self):
        self.blocks: list[float] = []
        self.spent = 0.0
        self._busy = False

    def now(self) -> float:
        while True:  # a sample may land between the two reads; then read again
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:
                return t - spent

    def sample(self, blocks: int = 1) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        for _ in range(blocks):
            t0 = time.perf_counter()
            reference_block()
            self.blocks.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - start
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Sample every ``INTERVAL_S`` of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float | None:
        """Mean block duration over the nominal one (1.0 = nominal speed)."""
        if not self.blocks:
            return None
        return sum(self.blocks) / len(self.blocks) / NOMINAL_BLOCK_S
