"""The benchmark's clock: CPU time rescaled by a reference probe.

The CPU a repetition runs on is shared with other work at the hardware
level.  On the 2-core shared container the benchmark was built on, a fixed
piece of pure-Python work took either about 0.14 or about 0.27 ms, switching
between the two every tenth of a second or so, while the kernel counted
almost no steal time; the share of slow stretches changed from minute to
minute.  CPU time does not see this (the process runs all along, only
slower), so it moved a repetition's throughput by a fifth or more.

:class:`RefClock` therefore interrupts the measured code about every
``PROBE_EVERY_NS`` of CPU time (a ``SIGPROF`` interval timer) to run a
short, fixed *probe* of pure-Python work, and times each probe.  Between two
probes the CPU time is rescaled by ``PROBE_REF_NS`` over the mean of their
durations: a stretch where the probe ran at its reference speed counts as it
is, a stretch where it ran at half speed counts half.  Times read from this
clock are *reference seconds*: the time the code would take on a CPU that
runs the probe in ``PROBE_REF_NS``.  The probes count for nothing, so an
operation in flight while a probe ran is not charged for it.

This removes the machine's speed changes as far as the engine's code slows
down alike with the probe; both are interpreter work, and over repetitions
of the same operations the rescaled throughput spread a half to a fifth as
much as the raw one.  A change to the engine does not change the probe, so
it shows in full.  The probe takes about 6% of the CPU; ``probe_us`` and
``cpu_share`` in the report show the machine's state during a run.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

#: The raw clock: CPU time of the calling thread, which runs the whole
#: repetition (the cluster is in memory, nothing sleeps and the
#: ``parallel_io`` pool is off).  Not the process clock: while a process
#: CPU timer is armed, Linux reads that one at tick granularity.
clock_ns = time.thread_time_ns

#: CPU time between two probes (the kernel rounds it to its tick).
PROBE_EVERY_NS = 5_000_000
#: The probe's duration on the reference CPU: about its fast-stretch
#: duration on the container above.
PROBE_REF_NS = 200_000
PROBE_LOOPS = 400


def probe_work(loops: int = PROBE_LOOPS) -> int:
    """The probe: dictionary, integer, string and bytes work.  It makes no
    object the garbage collector tracks but its one dictionary."""
    table: dict[int, int] = {}
    total = 0
    for i in range(loops):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += len(str(i)) + len(b"%d" % i)
    return total + len(table)


class RefClock:
    """Probes, taken from creation to :meth:`stop`, and the reference time
    they imply.

    Create it, run the measured code in this thread, call :meth:`stop`,
    then :meth:`freeze`; ``seconds(a, b)`` then gives the reference seconds
    between two ``clock_ns()`` readings taken in between.
    """

    def __init__(self) -> None:
        #: (start, end) raw clock of each probe.
        self._probes: list[tuple[int, int]] = []
        self._busy = False
        #: After freeze(): end of each probe, reference ns at that end and
        #: reference ns per raw ns from there to the next probe.
        self._ends: list[int] = []
        self._at_end: list[float] = []
        self._rate: list[float] = []
        # Let the interpreter specialize the probe before it is timed.
        probe_work()
        self.probe()
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        every = PROBE_EVERY_NS / 1e9
        signal.setitimer(signal.ITIMER_PROF, every, every)

    def _on_timer(self, _signum, _frame) -> None:
        if not self._busy:
            self.probe()

    def probe(self) -> None:
        """Time one probe now.  The collector stays off during it, and a
        short untimed lead-in brings its code and data back into the CPU
        caches the measured code used."""
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        probe_work(PROBE_LOOPS // 4)
        start = clock_ns()
        probe_work()
        end = clock_ns()
        if collecting:
            gc.enable()
        self._probes.append((start, end))
        self._busy = False

    def stop(self) -> None:
        """Stop the timer and close the last stretch with a probe."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.probe()

    def freeze(self) -> None:
        probes = self._probes
        durations = [end - start for start, end in probes]
        self._ends = [end for _start, end in probes]
        self._rate, self._at_end = [], [0.0]
        for k, (_start, end) in enumerate(probes):
            after = durations[k + 1] if k + 1 < len(probes) else durations[k]
            rate = 2 * PROBE_REF_NS / (durations[k] + after)
            self._rate.append(rate)
            if k + 1 < len(probes):
                gap = probes[k + 1][0] - end
                self._at_end.append(self._at_end[k] + gap * rate)

    def _ref_ns(self, raw: int) -> float:
        k = max(bisect.bisect_right(self._ends, raw) - 1, 0)
        return self._at_end[k] + (raw - self._ends[k]) * self._rate[k]

    def seconds(self, start: int, end: int) -> float:
        """Reference seconds between two raw readings."""
        return (self._ref_ns(end) - self._ref_ns(start)) / 1e9

    def probe_us(self, start: int, end: int) -> float:
        """Median duration of the probes taken between two readings."""
        durations = sorted(b - a for a, b in self._probes if start <= a <= end)
        return durations[len(durations) // 2] / 1e3 if durations else 0.0
