"""Host speed reference, for times that do not depend on what other tenants run.

On a shared host the same code runs up to three times as fast in one minute
as in the next. So while a workload runs, an interval timer interrupts it every
50 ms and times a fixed reference kernel. Each 50 ms stretch of workload time
is scaled by how fast the kernel ran right after it. Workload times are
reported in seconds at the reference speed: the speed at which the kernel
takes ``REF_KERNEL_S``.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

REF_KERNEL_S = 500e-6  # the kernel's time at the reference speed
INTERVAL_S = 0.05  # workload time between two runs of the kernel


class _Obj:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = a * 0.5


def kernel_s() -> float:
    """Time to allocate 2,000 small objects and sum a field of each.

    Object allocation and attribute access are what jamloop's per-sample path
    and its training loop spend their time on, and they slow down the most
    when the host is busy.
    """
    gc.disable()  # a collection here would scan the program's heap
    t0 = time.perf_counter()
    objs = [_Obj(i) for i in range(2000)]
    sum(o.b for o in objs)
    t1 = time.perf_counter()
    gc.enable()
    return t1 - t0


class Speedometer:
    """Measures the time between ``start`` and ``stop`` at the reference speed.

    The kernel runs in a SIGALRM handler, between two bytecodes of whatever
    the program is doing, and its own time is left out of both totals. A
    disabled speedometer (traced runs) sets no timer and only measures time.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.raw_s = 0.0  # measured time, kernels excluded
        self.ref_s = 0.0  # the same time at the reference speed
        self.kernels: list[float] = []
        self._ends: list[float] = []  # end of each stretch, before its kernel
        self._factors: list[float] = []  # reference time per measured second
        self._mark = 0.0
        self._busy = False
        self._running = False

    def start(self, t0: float | None = None) -> None:
        """Start measuring, from ``t0`` (a ``perf_counter`` value) if given."""
        self._mark = time.perf_counter() if t0 is None else t0
        self._running = True
        if self.enabled:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop measuring and disarm the timer; a second call does nothing."""
        if not self._running:
            return
        self._running = False
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._end_stretch()
        else:
            self.raw_s = self.ref_s = time.perf_counter() - self._mark

    def _on_alarm(self, _signum, _frame) -> None:
        if not self._busy:
            self._end_stretch()

    def _end_stretch(self) -> None:
        self._busy = True
        stretch = time.perf_counter() - self._mark
        k = kernel_s()
        self.kernels.append(k)
        self._ends.append(self._mark + stretch)
        self._factors.append(REF_KERNEL_S / k)
        self.raw_s += stretch
        self.ref_s += stretch * REF_KERNEL_S / k
        self._mark = time.perf_counter()
        self._busy = False

    def scaled(self, starts: list[float], durations: list[float]) -> list[float]:
        """Durations of calls that began at ``starts``, at the reference speed.

        Each call is scaled like the stretch it began in.
        """
        if not self._factors:
            return list(durations)
        last = len(self._factors) - 1
        return [d * self._factors[min(bisect.bisect(self._ends, t), last)]
                for t, d in zip(starts, durations, strict=True)]

    @property
    def kernel_p50_us(self) -> float:
        return statistics.median(self.kernels) * 1e6 if self.kernels else 0.0
