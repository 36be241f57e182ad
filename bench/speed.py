"""Machine-speed sampling: wall time rescaled to a fixed machine speed.

The benchmark's host is shared.  Other tenants slow whole stretches of a run
by up to 1.8x, switching within seconds and drifting over minutes, and the
process's CPU time slows with the wall time.  No estimator over wall times
alone (median pass, fastest pass, per-operation minimum) stays within a
usable bound through such stretches.

So a ``Sampler`` runs a fixed reference kernel, which is independent of
domsplit, every ``PERIOD_S`` seconds from a ``SIGALRM`` handler in the
measured process itself.  The kernel mixes the three kinds of work the
program does: a Python loop, small numpy calls and a memory stream.  Its
time says how fast the machine is running just then.  ``Sampler.scaled``
cuts an interval at the ticks, drops the time spent in the ticks, and
rescales each piece by ``REFERENCE_S / (the kernel's time around it)``.
The result is the interval's wall time on a machine that runs the kernel in
``REFERENCE_S``.  A change to domsplit's speed shows in full, because the
kernel does not depend on domsplit.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1

# a fixed constant: the usual time of ``reference_kernel`` on a 2-vCPU Intel
# Xeon (scipy-openblas 0.3.31, Python 3.11), where it ran in 3.0 to 4.5 ms
REFERENCE_S = 3.6e-3

_rng = np.random.default_rng(12345)
_SMALL = _rng.normal(size=(3, 3))
_BATCH = _rng.normal(size=(64, 4, 4))
_ROWS = _rng.normal(size=(400, 6))
_STREAM = np.ones(400_000)
_STREAM_OUT = np.empty_like(_STREAM)


def reference_kernel() -> None:
    """A fixed mix of a Python loop, small numpy calls and a memory stream."""
    x = _SMALL
    for _ in range(120):
        x = x @ _SMALL
        x = x / np.abs(x).max()
    np.linalg.svd(_BATCH)
    np.einsum("ij,kj->ik", _ROWS, _ROWS[:100])
    s = 0
    for i in range(6000):
        s += i * i % 7
    for _ in range(2):
        np.copyto(_STREAM_OUT, _STREAM)
        np.copyto(_STREAM, _STREAM_OUT)


class Sampler:
    """Times ``reference_kernel`` every ``PERIOD_S`` seconds while started.

    Ticks are (start, end) pairs on ``time.monotonic``, which is the same
    clock in every process, so ticks recorded in a child process can scale
    an interval timed by its parent.
    """

    def __init__(self, ticks: list[tuple[float, float]] | None = None):
        self.starts: list[float] = []
        self.ends: list[float] = []
        for start, end in ticks or ():
            self.starts.append(start)
            self.ends.append(end)
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        """Time the reference kernel once."""
        start = time.monotonic()
        reference_kernel()
        self.starts.append(start)
        self.ends.append(time.monotonic())

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        self.sample()
        self._busy = False

    def start(self) -> None:
        # the first call pays one-off costs (page faults, lazy loads)
        reference_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def ticks(self) -> list[tuple[float, float]]:
        return list(zip(self.starts, self.ends))

    def durations(self, t0: float, t1: float) -> list[float]:
        """Kernel times of the ticks that started in [t0, t1)."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return [self.ends[k] - self.starts[k] for k in range(i, j)]

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds, seconds at the reference speed) of [t0, t1].

        Both leave out the time spent in ticks.  A piece between two ticks
        is rescaled by the median kernel time of the ticks at its ends and
        the tick before, which keeps a single preempted tick from counting.
        """
        S, E = self.starts, self.ends
        if not S:
            raise RuntimeError("no speed samples were taken")
        i, j = bisect.bisect_left(S, t0), bisect.bisect_left(S, t1)
        edges = [t0]
        for k in range(i, j):
            edges += (S[k], min(E[k], t1))
        edges.append(t1)
        wall = scaled = 0.0
        for piece in range(len(edges) // 2):
            k = i + piece  # the first tick after this piece
            lo, hi = max(k - 2, 0), min(k + 1, len(S))
            kernel = statistics.median(E[m] - S[m] for m in range(lo, hi))
            dt = edges[2 * piece + 1] - edges[2 * piece]
            wall += dt
            scaled += dt * REFERENCE_S / kernel
        return wall, scaled
