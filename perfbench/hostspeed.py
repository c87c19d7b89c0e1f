"""Host speed, measured on a fixed reference kernel.

The machines this benchmark runs on are shared: the CPU speed seen by
one process moves by up to 2x, in spells that can outlast a whole run,
and pure-Python work slows by about the same factor whatever code it
runs.  So every run times :func:`kernel`, a fixed piece of
interpreter work that touches none of the oracle's code, at fixed
points spread over every pass, and reports its times scaled to a host on
which the kernel takes :data:`REFERENCE_NS`:

    reported = measured * REFERENCE_NS / kernel_ns

Per-call estimates take ``kernel_ns`` from the kernel timings of the
whole run (:meth:`HostSpeed.kernel_ns`), a set-up from bursts of
kernels just before and after it (:meth:`HostSpeed.timed_setup`).

A change to the oracle moves the measured times and leaves the kernel
alone, so it shows in full; a slow spell of the host moves both.  The
report prints the measured values and the scale beside the scaled ones.
"""

from __future__ import annotations

import gc
import os
import statistics
from time import perf_counter_ns, process_time

#: kernel time (ns) of the reference host, to which times are scaled:
#: about the fastest time of :func:`kernel` on a shared 2-vCPU Xeon
#: (KVM) under CPython 3.11
REFERENCE_NS = 22_000
#: kernel timings per sample point (and CPU)
REPS = 10
#: weight of the per-call-minimum estimate against the median in
#: :meth:`HostSpeed.kernel_ns`
FASTEST_WEIGHT = 0.75
#: kernel timings just before and just after a timed set-up (per CPU)
SETUP_REPS = 20


def kernel(n: int = 100) -> int:
    """Fixed interpreter work of the oracle's kind and of the size of one
    oracle call: tuple keys, dict updates, list appends, small calls and
    integer arithmetic."""
    table: dict[tuple[int, int], int] = {}
    out: list[int] = []
    get = table.get
    for i in range(n):
        key = (i % 61, i % 7)
        table[key] = get(key, 0) + 1
        out.append(key[0] * 31 + key[1])
    return sum(out) + len(table)


class HostSpeed:
    """Kernel timings of one run, taken at fixed points of each pass
    (every ``every`` calls of :meth:`tick`), on each of ``cpus`` (None:
    wherever the scheduler runs the caller).

    Each kernel timed is treated like one more call of the pass: its
    fastest time across passes, then the median over the kernels of a
    pass, is the estimate the oracle's per-call minima get, on work
    that is the same in every run.
    """

    def __init__(self, cpus: list[int] | None = None, every: int = 1) -> None:
        self.cpus = cpus or [None]
        self.every = every
        self._ticks = 0
        #: per pass: every kernel time (ns), in sampling order
        self.passes: list[list[int]] = []
        #: CPU time this process spent sampling (s), to take out of
        #: CPU-per-op figures
        self.cpu_s = 0.0

    def start_pass(self) -> None:
        self.passes.append([])
        self._ticks = 0

    def tick(self) -> None:
        """Count one call of the pass; sample before the first and then
        every ``every`` calls, so that the samples spread over the pass
        the way the calls do."""
        if self._ticks % self.every == 0:
            self.sample()
        self._ticks += 1

    def sample(self) -> None:
        """Time :data:`REPS` kernels on each CPU, as a point of the pass."""
        self.passes[-1].extend(self._burst(REPS))

    def timed_setup(self, fn) -> tuple[int, float, object]:
        """``fn()`` timed, as ``(measured ns, scaled ns, result)``.

        A set-up takes tens to hundreds of ms, so it is scaled by the
        median kernel time of bursts just before and just after it."""
        before = self._burst(SETUP_REPS)
        t0 = perf_counter_ns()
        out = fn()
        ns = perf_counter_ns() - t0
        kernel_ns = statistics.median(before + self._burst(SETUP_REPS))
        return ns, ns * REFERENCE_NS / kernel_ns, out

    def _burst(self, reps: int) -> list[int]:
        """Time ``reps`` kernels on each CPU, with the collector off; the
        caller's affinity is restored afterwards."""
        home = os.sched_getaffinity(0) if self.cpus != [None] else None
        cpu0 = process_time()
        collecting = gc.isenabled()
        gc.disable()
        times = []
        try:
            for cpu in self.cpus:
                if cpu is not None:
                    os.sched_setaffinity(0, {cpu})
                for _ in range(reps):
                    t0 = perf_counter_ns()
                    kernel()
                    times.append(perf_counter_ns() - t0)
        finally:
            if collecting:
                gc.enable()
            if home is not None:
                os.sched_setaffinity(0, home)
            self.cpu_s += process_time() - cpu0
        return times

    def fastest_ns(self) -> float:
        """Median over the kernels of a pass of each one's fastest pass."""
        return statistics.median(min(point) for point in zip(*self.passes))

    def median_ns(self) -> float:
        """Median of every kernel time of the run."""
        return statistics.median(x for samples in self.passes for x in samples)

    def kernel_ns(self) -> float:
        """The kernel time per-call estimates are scaled by: a weighted
        geometric mean of :meth:`fastest_ns` and :meth:`median_ns`.

        The short kernel finds the host's quick moments more easily than
        the oracle's calls do, so in a noisy run the calls' minima land
        between the two.  The weight was chosen on four sets of ten runs
        per workload: the widest quartile spread of a scaled per-event
        metric was 0.13 of its median, against 0.18 with the
        per-call-minimum estimate alone and 0.28 unscaled."""
        fastest, median = self.fastest_ns(), self.median_ns()
        return fastest ** FASTEST_WEIGHT * median ** (1 - FASTEST_WEIGHT)

    def count(self) -> int:
        return sum(len(samples) for samples in self.passes)
