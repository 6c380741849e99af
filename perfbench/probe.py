"""Machine-speed probe interleaved with the measured work.

On the shared VM this benchmark was defined on, the speed of one vCPU
changes by 20% and more within seconds, and neither a calibration run
before and after a batch nor a calibration process on the other core
follows it.  So an interval timer interrupts the work every PERIOD_S and
times, in CPU seconds, a ~2 ms kernel shaped like the library's work:
small numpy and scipy calls, a 10 x 10 Cholesky, interpreter-bound Python.
Each sample runs the kernel once untimed, then times a read of a buffer
twice the size of the L2 cache of the machine the benchmark was defined on
followed by the kernel: the kernel always starts with its data in L3,
whatever footprint the work left behind, and the timed part still meets
the cache and memory contention of the moment.  Each
stretch of work between two samples is scaled by KERNEL_REF_S over the
local kernel time (the median of the nearest five), and the stretches add
up to reference seconds: the CPU seconds the work would take at the speed
where the kernel takes KERNEL_REF_S.  The samples' own CPU time is left
out.  The handler runs between bytecodes of the main thread and touches no
library state.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import process_time

import numpy as np
from numpy.linalg import cholesky  # bound at import, so trace wrappers never see it
from scipy.special import logsumexp

PERIOD_S = 0.05
KERNEL_REF_S = 0.0025  # kernel CPU seconds at the reference speed (see NOTES.md)
LOCAL = 2  # kernels on each side that set the local speed

_ROWS = np.random.default_rng(0).standard_normal((12, 40))
_SPD = np.eye(10) * 2.0 + 0.1
_FLUSH = np.ones(2 * 2 * 2**20 // 8)  # 4 MB: twice a 2 MB L2


def kernel() -> float:
    acc = 0.0
    for i in range(13):
        row = _ROWS[i % len(_ROWS)]
        acc += float(logsumexp(row)) + float(np.exp(row).sum())
        acc += float(cholesky(_SPD)[3, 2])
        acc += sum([x * 0.5 for x in range(30)])
        acc += {"i": i, "acc": acc}["acc"] * 1e-9
    return acc


def timed_kernel() -> tuple[float, float]:
    """One sample: the CPU clock when it started and its timed CPU seconds."""
    begin = process_time()
    kernel()
    start = process_time()
    float(_FLUSH.sum())
    kernel()
    return begin, process_time() - start


@contextmanager
def _held():
    """Hold the timer signal so a kernel cannot run between two reads."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []  # CPU clock when each sample started
        self.ends: list[float] = []  # ... and ended
        self.kernels: list[float] = []  # kernel CPU seconds of each sample
        self._previous = None

    def _sample(self, signum, frame) -> None:
        begin, seconds = timed_kernel()
        self.starts.append(begin)
        self.kernels.append(seconds)
        self.ends.append(process_time())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, int]:
        with _held():
            return process_time(), len(self.starts)

    def since(self, mark: tuple[float, int], until=None) -> tuple[float, float]:
        """CPU seconds of work from `mark` to the mark `until` (default: now),
        without the kernels, and the same in reference seconds (equal to the
        CPU seconds if no kernel ran yet).  Kernels that ran after `until`
        count among the nearest ones."""
        now, count = until or self.mark()
        begin, first = mark
        # stretches of work: mark -> kernel `first` -> ... -> kernel count-1 -> now
        edges = [begin, *(t for i in range(first, count) for t in (self.starts[i], self.ends[i])),
                 now]
        cpu = ref = 0.0
        for j in range(len(edges) // 2):
            stretch = edges[2 * j + 1] - edges[2 * j]
            cpu += stretch
            ref += stretch * self._scale(min(first + j, len(self.kernels) - 1))
        return cpu, ref

    def _scale(self, i: int) -> float:
        if i < 0:
            return 1.0
        near = range(max(0, i - LOCAL), min(len(self.starts), i + LOCAL + 1))
        return KERNEL_REF_S / statistics.median(self.kernels[k] for k in near)
