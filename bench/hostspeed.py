"""Host-speed normalisation of the benchmark's wall times.

The host runs the benchmark on a share of a VM whose speed switches between
a fast and a slow mode, about 1.5x apart, in spells that last from a few
milliseconds to minutes. CPU time follows wall time, so no clock of the
process sees it, and whole runs can fall into a slow stretch.

`HostClock` measures that speed while the program runs. A fixed pure-Python
probe of about 0.25 ms runs every `INTERVAL_S` (on SIGALRM, so also inside
long ops and builds) and just before and after each timed op. The time of an
interval, less the probe time inside it, is divided by its *speed factor*:
the mean probe time around the interval over `PROBE_REF_S`. The result is
the time the work would take at the reference speed, where one probe takes
`PROBE_REF_S`. The probe uses none of linperm and allocates no object the
garbage collector tracks, so a change to linperm moves a normalised time as
much as a raw one.

The probe mixes integer arithmetic with attribute and dict access, so that
in the slow mode it slows by about as much as linperm's ops do.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_REF_S = 0.23e-3
INTERVAL_S = 0.005
PAD_S = 0.003
_ARITH_ROUNDS = 2000
_LOOKUP_ROUNDS = 500


class _Cell:
    __slots__ = ("v", "next")


_CELLS = [_Cell() for _ in range(64)]
for _i, _cell in enumerate(_CELLS):
    _cell.v = (_i * 37 + 11) % 251
    _cell.next = _CELLS[(_i + 1) % 64]
_TABLE = {i: (i * 7919) % 8192 for i in range(8192)}


def _mix(a: int, b: int) -> int:
    return (a * b + 1) % 65521


def _probe_work() -> int:
    acc, cell, table = 1, _CELLS[0], _TABLE
    for i in range(_LOOKUP_ROUNDS):
        acc = table[_mix(acc, cell.v) & 8191] + i % 7
        cell = cell.next
    for i in range(_ARITH_ROUNDS):
        acc += i * i % 7
    return acc


class HostClock:
    """Probe samples (end time, duration) and the total time spent probing."""

    def __init__(self):
        self.ends = array("d")
        self.durations = array("d")
        self.spent_s = 0.0
        self._previous = None

    def probe(self, *_signal_args) -> None:
        t0 = perf_counter()
        _probe_work()
        t1 = perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self.spent_s += t1 - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """Mean probe time in [t0 - PAD_S, t1 + PAD_S] over PROBE_REF_S (> 1: slower than the reference)."""
        lo = bisect_left(self.ends, t0 - PAD_S)
        hi = bisect_right(self.ends, t1 + PAD_S)
        if hi <= lo:
            raise ValueError("no probe sample near the interval")
        return sum(self.durations[lo:hi]) / (hi - lo) / PROBE_REF_S

    def mean_factor(self) -> float:
        """Speed factor over every sample taken so far."""
        return sum(self.durations) / len(self.durations) / PROBE_REF_S
