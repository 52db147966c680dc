"""Host-speed reference for the timed metrics.

The benchmark runs on a few cores of a shared host whose speed drifts with
the load of its other tenants: the same fixed work took from 240 to 430 ms
between 0.3-second stretches of one minute, and CPU time followed wall
time, so the slowdown is in the cores, not in waiting for them. The drift is
slower than one operation and faster than one run.

So a run samples the host's speed during the timed work: at most every
``Clock.every`` seconds, between two operations, it times small fixed
kernels of the benchmark's own, one per kind of work fo2words does: a loop
of small-int bytecode, shifts and masks on 256-kbit ints, numpy arithmetic
on a 300×300 array, and, for the workloads that spend much of their time in
the operating system, the first touch of 4 MB of fresh memory. A sample's
factor is the geometric mean of measured / nominal time over the kernels:
1.0 when the host runs at its reference speed, 1.5 when it runs a third
slower. Every timing is divided by the mean factor of the samples before and
after it, so the benchmark reports seconds at the reference speed. The
kernels do not call fo2words, so a faster program reads faster and a slower
one slower, whatever the factor.
"""

from __future__ import annotations

import math
import mmap
import random
import time

import numpy as np

_RNG = random.Random(20090705)
# operands small enough to stay below malloc's mmap threshold and buffers
# made once, so the first three kernels do not page-fault: their time is
# user time
_BIG = [_RNG.getrandbits(1 << 18) for _ in range(4)]
_ARRAY = np.arange(90_000, dtype=np.int64).reshape(300, 300)
_BUFFER = np.empty_like(_ARRAY)


def _small_ints() -> None:
    s = 0
    for i in range(15_000):
        s += i * i % 7


def _big_ints() -> None:
    a, b, c, d = _BIG
    for _ in range(5):
        for k in range(1, 12):
            a = ((a >> k) & b) | (c ^ (d << k) >> k)


def _arrays() -> None:
    for _ in range(6):
        np.multiply(_ARRAY, 3, out=_BUFFER)
        np.add(_BUFFER, _ARRAY, out=_BUFFER)
        np.remainder(_BUFFER, 1_000_003, out=_BUFFER)


def _fresh_pages() -> None:
    # the first touch of new anonymous memory, as numpy's large arrays and a
    # starting interpreter pay it: this one does fault, on purpose
    m = mmap.mmap(-1, 1 << 22)
    view = np.frombuffer(m, dtype=np.uint8)
    view[::4096] = 1
    del view
    m.close()


# name: (kernel, seconds it takes at the reference speed: about the middle
# of its range on the machine whose figures the README gives)
KERNELS = {
    "small_ints": (_small_ints, 0.0014),
    "big_ints": (_big_ints, 0.0022),
    "arrays": (_arrays, 0.0030),
    "fresh_pages": (_fresh_pages, 0.0035),
}
CPU = ("small_ints", "big_ints", "arrays")


def times(names) -> list[float]:
    """One timing of each named kernel, in seconds."""
    out = []
    for name in names:
        t = time.perf_counter()
        KERNELS[name][0]()
        out.append(time.perf_counter() - t)
    return out


def sample(names) -> float:
    """The host's slowdown now, from the named kernels: 1.0 at the reference
    speed. The lesser of two samples, because the first after an idle wait
    or a child process runs a few percent slow on cold caches."""
    return min(math.exp(sum(math.log(t / KERNELS[n][1]) for t, n in zip(times(names), names)) / len(names))
               for _ in range(2))


class Clock:
    """Samples the host's speed at most every ``every`` seconds between
    operations and scales each operation's time by the samples around it."""

    every = 0.25

    def __init__(self, names):
        self.names = names
        self.factors: list[float] = []
        self._last = -math.inf

    def before(self) -> int:
        """Call before an operation; returns its token for ``scale``."""
        if time.perf_counter() - self._last >= self.every:
            self.factors.append(sample(self.names))
            self._last = time.perf_counter()
        return len(self.factors) - 1

    def close(self) -> None:
        """Call once after the last operation, so every token has a sample after it."""
        self.factors.append(sample(self.names))

    def scale(self, seconds: float, token: int) -> float:
        return seconds / math.sqrt(self.factors[token] * self.factors[token + 1])
