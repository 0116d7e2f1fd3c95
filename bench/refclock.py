"""Reference clock: scales host time to a fixed reference speed.

The 2-core host this benchmark was built on changes speed in steps of about
2x and 4x that last from a tenth of a second to several seconds, so raw
timings of the same work drift far more than any change worth measuring.
A fixed reference kernel, standard library only, is timed every
``INTERVAL_S`` seconds of wall time from a SIGALRM handler while the program
runs.  Each sample gives the host's current speed relative to the
reference, ``REF_KERNEL_US / k``.  Work done in an interval at reference
speed is its wall time times the mean speed over the samples taken in it,
so a scaled time is in "milliseconds on the reference host".  The samples
are taken in the main thread between bytecodes; no thread or process is
started, and the sampler's own time is subtracted from every interval.
"""

from __future__ import annotations

import gc
import signal
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

# About the kernel's duration inside the sampler in the host's fastest state
# (Intel Xeon at 2.0 GHz, Python 3.11).  It only fixes the unit of scaled
# times: a scaled time is what the work would take where the kernel takes
# this many microseconds.
REF_KERNEL_US = 200.0
# Wall seconds between samples; an interval holding fewer samples is
# widened to MIN_SAMPLES.
INTERVAL_S = 0.02
MIN_SAMPLES = 3

_NAMES = tuple(f"N{i}.{port}" for i in range(64) for port in ("A", "B"))
_HALF = Fraction(1, 2)
_ONE = Fraction(1)


@dataclass(frozen=True)
class _Record:
    phase: int
    node: str
    port: str
    ident: int
    mass: Fraction


def reference_kernel() -> int:
    """Fixed dict, tuple, Fraction and sort work, shaped like one small
    phase-synchronous run: bucket arrivals by phase, place them in sorted
    order as frozen records, total their mass, sort the records.  Returns
    a checksum so nothing is optimised away."""
    arrivals: dict[int, list[tuple[str, str, int]]] = {}
    for i in range(60):
        arrivals.setdefault(i % 6, []).append(
            (_NAMES[(i * 37) % len(_NAMES)], "A" if i & 1 else "B", i))
    records = []
    final: dict[int, tuple[str, str]] = {}
    total = Fraction(0)
    for phase in sorted(arrivals):
        for node, port, ident in sorted(arrivals[phase]):
            mass = _HALF if ident % 5 == 0 else _ONE
            records.append(_Record(phase, node, port, ident, mass))
            final[ident] = (node, port)
            total += mass
    records.sort(key=lambda r: (r.phase, r.node, r.port, r.ident))
    return len(records) + len(final) + total.numerator


def time_kernel() -> float:
    """Duration of one reference kernel in seconds, garbage collector
    paused so the program's heap cannot change it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class RefClock:
    """Samples host speed on a wall-clock timer and scales intervals."""

    def __init__(self):
        self.stamps: list[float] = []    # midpoint of each sample
        self.kernel_us: list[float] = []
        self.ends: list[float] = []      # end of each sample
        self.costs: list[float] = []     # cumulative handler time
        self._busy = False
        self._previous = None

    def __enter__(self) -> "RefClock":
        time_kernel()  # warm the kernel's code and constants
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            begin = time.perf_counter()
            kernel = time_kernel()
            end = time.perf_counter()
            self.stamps.append((begin + end) / 2)
            self.kernel_us.append(kernel * 1e6)
            self.ends.append(end)
            self.costs.append((self.costs[-1] if self.costs else 0.0)
                              + end - begin)
        finally:
            self._busy = False

    def now(self) -> float:
        return time.perf_counter()

    def _cost_before(self, t: float) -> float:
        i = bisect_right(self.ends, t)
        return self.costs[i - 1] if i else 0.0

    def host_seconds(self, start: float, end: float) -> float:
        """Wall time of [start, end] minus the sampler's own time in it."""
        return (end - start) - (self._cost_before(end)
                                - self._cost_before(start))

    def speed(self, start: float, end: float) -> float:
        """Mean host speed, ``REF_KERNEL_US / k``, over the samples in
        [start, end], widened symmetrically to at least MIN_SAMPLES."""
        pad = 0.0
        while True:
            lo = bisect_left(self.stamps, start - pad)
            hi = bisect_right(self.stamps, end + pad)
            if hi - lo >= MIN_SAMPLES or (lo == 0 and hi == len(self.stamps)):
                break
            pad += INTERVAL_S
        chosen = self.kernel_us[lo:hi]
        if not chosen:
            raise RuntimeError("reference clock took no samples")
        return sum(REF_KERNEL_US / k for k in chosen) / len(chosen)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval would take on the reference host."""
        return self.host_seconds(start, end) * self.speed(start, end)
