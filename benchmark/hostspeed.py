"""Host speed meter: pairs every timing with a measurement of the CPU's speed.

On a shared host a fixed pure-Python loop runs at one of two speeds, about
1.0x and 1.5x, switching every few milliseconds, and the share of time spent
at the fast speed drifts from run to run. Raw wall times inherit that drift.
The meter runs a short fixed loop (the probe) from an interval-timer signal
every few milliseconds, and once more at the start and the end of every timed
interval. A timed interval is reported twice:

    raw     wall time minus the time the timer's probes took inside it
    scaled  raw * mean(REFERENCE_PROBE_NS / probe_ns) over the probes taken
            during the interval, i.e. the time the same work would take at
            the fixed reference speed

The meter also samples the resident set size on each tick while asked to,
so the peak RSS of one step can be read from the process itself.
"""

from __future__ import annotations

import os
import resource
import signal
import time

PROBE_WARMUP_LOOPS = 200
PROBE_LOOPS = 200
REFERENCE_PROBE_NS = 10000
"""Probe duration that defines the reference speed: a fixed round figure near
the probe's duration (7-10 us) on the host the reference figures in
README.md were taken on. Scaled times compare across runs and commits on one
host, not across hosts."""

PERIOD_S = 0.004


def probe() -> int:
    """Run the fixed loop once; return its duration in nanoseconds.

    An untimed warm-up pass comes first: timed cold, right after the program
    has evicted the loop from the caches, the probe reads slower and noisier
    than the speed it is meant to show.
    """
    clock = time.perf_counter_ns
    x = 0
    for i in range(PROBE_WARMUP_LOOPS):
        x += i
    t0 = clock()
    for i in range(PROBE_LOOPS):
        x += i
    return clock() - t0


class Interval:
    __slots__ = ("raw_s", "scaled_s")

    def __init__(self, raw_s: float, scaled_s: float):
        self.raw_s = raw_s
        self.scaled_s = scaled_s


class SpeedMeter:
    """Interval timer plus probe bookkeeping. Use as a context manager."""

    def __init__(self):
        self.probes = 0          # probes taken, timer and inline
        self.ratio_sum = 0.0     # sum of REFERENCE_PROBE_NS / probe_ns
        self.tick_ns = 0         # time spent in timer probes
        self.watch_rss = False
        self.rss_peak_pages = 0
        self._statm = None
        self._old_handler = None

    def __enter__(self) -> "SpeedMeter":
        try:
            self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        except OSError:
            self._statm = None
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        if self._statm is not None:
            os.close(self._statm)
            self._statm = None

    def _record(self, ns: int) -> None:
        self.probes += 1
        self.ratio_sum += REFERENCE_PROBE_NS / max(ns, 1)

    def _tick(self, signum, frame) -> None:
        ns = probe()
        self.tick_ns += ns
        self._record(ns)
        if self.watch_rss:
            self.sample_rss()

    def sample_rss(self) -> None:
        if self._statm is None:
            return
        resident = int(os.pread(self._statm, 128, 0).split()[1])
        if resident > self.rss_peak_pages:
            self.rss_peak_pages = resident

    def rss_peak_mb(self) -> float:
        """Peak RSS seen since the last reset, in MiB."""
        if self._statm is None:  # no procfs: fall back to the process peak
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return self.rss_peak_pages * os.sysconf("SC_PAGE_SIZE") / 2**20

    def begin(self) -> tuple[int, float, int, int]:
        """Start a timed interval (probes once, then reads the clock)."""
        n0, r0 = self.probes, self.ratio_sum
        self._record(probe())
        return n0, r0, self.tick_ns, time.perf_counter_ns()

    def end(self, mark) -> Interval:
        """Close an interval opened by begin()."""
        t1 = time.perf_counter_ns()
        ticks = self.tick_ns
        self._record(probe())
        n0, r0, k0, t0 = mark
        raw_ns = t1 - t0 - (ticks - k0)
        speed = (self.ratio_sum - r0) / (self.probes - n0)
        return Interval(raw_ns / 1e9, raw_ns * speed / 1e9)
