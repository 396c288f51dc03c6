"""The machine's speed, sampled during a pass.

On a shared host the same pass can take 30% longer from one minute to the
next: every process on the machine slows and speeds up together.  Timing
more passes does not remove that drift, because it is slower than a run.
A fixed slice of reference work, timed every `PERIOD` seconds while the
pass runs, is slowed by the same drift.  So the pass time divided by the
mean slice time (the pass time in reference units) stays steady while
both raw times move.

The slices run from a SIGALRM handler in the main thread, between two
bytecodes of whatever the pass is doing.  They touch no state of the
program.  The garbage collector is paused during a slice, so that a
collection the program caused is not charged to the slice.  Time spent in
slices is taken out of the pass time.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

PERIOD = 0.1
SLICE_ITEMS = 4000


def reference_work(n: int = SLICE_ITEMS) -> int:
    """Fixed pure-Python work that uses no cubeworks code: tuple keys in a
    dict, string formatting and a sort, the operations cubeworks spends its
    time on."""
    table = {}
    for i in range(n):
        key = (i % 613, f"c{i * 7919 % 10007}")
        table[key] = table.get(key, 0) + i
    return len(sorted(table, key=lambda k: (k[1], k[0])))


class Sampler:
    """Times `reference_work` every `PERIOD` seconds inside a `with` block.

    `slices` holds the slice times; their sum is the time the block spent
    in slices.  The previous SIGALRM handler and timer are restored on
    exit."""

    def __init__(self):
        self.slices = []
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a stall longer than PERIOD; never nest slices
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            reference_work()
            self.slices.append(perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def mean(self) -> float:
        """Mean slice time; takes one slice now if the block ended before
        the timer fired."""
        if not self.slices:
            self._tick(None, None)
        return sum(self.slices) / len(self.slices)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
