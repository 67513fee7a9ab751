"""Machine-speed gauge: rescales wall times to a quiet machine's speed.

Other tenants of a shared machine slow every process on it, by up to half or
more, for seconds to minutes at a time; within one benchmark run that moves
wall times far more than the changes the benchmark exists to detect.  While
a benchmark process measures, the gauge interrupts it every
:data:`INTERVAL_S` (``SIGALRM``) and times a fixed loop of the two kinds of
work the program does: pure-Python dict, float and branch operations (the
simulator's tick) and interval arithmetic on small numpy arrays
(certification and training).  The ratio of that time to
:data:`NOMINAL_SPIN_S`, the loop's time on a quiet machine of the
benchmark's class, is the factor by which the machine currently runs slow.
A timed span (its own time minus the gauge's) divided by the mean factor of
the samples around it is the time the same work would have taken on the
quiet machine.  The loop is the benchmark's, not the program's, so a change
to the program moves rescaled times as it moves raw ones.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import List, Tuple

import numpy as np

__all__ = ["INTERVAL_S", "NOMINAL_SPIN_S", "SpeedGauge"]

#: Best time of :func:`_spin` on a quiet machine (2 vCPUs, CPython 3.11,
#: numpy 2.4, one BLAS thread).
NOMINAL_SPIN_S = 3.2e-3

#: Seconds between two samples.
INTERVAL_S = 0.2


_RNG = np.random.default_rng(0)
_WEIGHTS = _RNG.standard_normal((21, 64))
_LO = _RNG.standard_normal((50, 21))
_HI = _LO + 0.1


def _spin() -> float:
    table = {}
    total = 0.0
    for i in range(10000):
        key = i & 63
        total += table.get(key, 0.5) * 1.000001
        table[key] = total % 7.0
    lo, hi = _LO, _HI
    for _ in range(60):
        center, radius = (lo + hi) * 0.5, (hi - lo) * 0.5
        mid, spread = center @ _WEIGHTS, radius @ np.abs(_WEIGHTS)
        lo = np.maximum(mid - spread, 0.0)[:, :21] * 0.01 + _LO
        hi = np.maximum(mid + spread, 0.0)[:, :21] * 0.01 + _HI
    return total + float(hi[0, 0])


class SpeedGauge:
    """Samples the slowdown factor on entry, on :meth:`sample` and, with
    ``timer``, every :data:`INTERVAL_S` while it is entered.

    The traced run uses no timer, so its spans never contain the gauge's
    loop: it samples only between units, outside every span.
    """

    def __init__(self, timer: bool = True) -> None:
        self.timer = timer
        self.factors: List[float] = []
        self.spent_s = 0.0
        self._previous_handler = None

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        best = float("inf")
        for _ in range(2):
            begin = perf_counter()
            _spin()
            best = min(best, perf_counter() - begin)
        self.factors.append(best / NOMINAL_SPIN_S)
        self.spent_s += perf_counter() - start

    def __enter__(self) -> "SpeedGauge":
        self.sample()
        if self.timer:
            self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)

    def mark(self) -> Tuple[int, float]:
        """``(samples taken, gauge seconds spent)`` so far."""
        return len(self.factors), self.spent_s

    def factor(self, first: int, last: int) -> float:
        """The mean factor over the span between marks with sample counts
        ``first`` and ``last``: the samples taken during it plus the ones just
        before and just after it (when taken yet)."""
        recent = self.factors[max(first - 1, 0):last + 1]
        return sum(recent) / len(recent)
