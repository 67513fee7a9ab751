"""Bandwidth trace container and Mahimahi-format interoperability.

A :class:`BandwidthTrace` is a piecewise-constant capacity schedule: a list of
(segment duration, capacity in Mbps) pairs.  Lookup is by simulation time and
wraps around (loops) when the simulation outlives the trace, matching how
Mahimahi replays its packet-delivery trace files.

There is one lookup implementation, the vectorized
:meth:`BandwidthTrace.capacity_mbps_many`; the scalar
:meth:`~BandwidthTrace.capacity_mbps` and :meth:`~BandwidthTrace.sample`
delegate to it.  The network simulator calls it once per block of ticks to
precompute every hop's capacity schedule, so the tick loop does no trace
lookups of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.cc.base import MSS_BYTES

__all__ = ["BandwidthTrace", "read_mahimahi_trace", "write_mahimahi_trace", "mbps_to_pps", "pps_to_mbps"]


def mbps_to_pps(mbps: float) -> float:
    """Convert a capacity in Mbps to MSS-sized packets per second."""
    return mbps * 1e6 / (MSS_BYTES * 8)


def pps_to_mbps(pps: float) -> float:
    """Convert packets per second back to Mbps."""
    return pps * MSS_BYTES * 8 / 1e6


@dataclass
class BandwidthTrace:
    """Piecewise-constant bandwidth schedule.

    Attributes:
        name: Human-readable identifier (used in reports).
        segments: Sequence of ``(duration_seconds, capacity_mbps)`` pairs.
        loop: Whether lookups past the end wrap around to the beginning.
    """

    name: str
    segments: Sequence[Tuple[float, float]]
    loop: bool = True
    _cum: np.ndarray = field(init=False, repr=False)
    _mbps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("trace must have at least one segment")
        for duration, mbps in self.segments:
            if duration <= 0:
                raise ValueError("segment durations must be positive")
            if mbps < 0:
                raise ValueError("capacities must be non-negative")
        durations = np.array([seg[0] for seg in self.segments], dtype=np.float64)
        self._cum = np.concatenate([[0.0], np.cumsum(durations)])
        self._mbps = np.array([seg[1] for seg in self.segments], dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def constant(cls, mbps: float, duration: float = 60.0, name: str | None = None) -> "BandwidthTrace":
        return cls(name or f"constant-{mbps:g}mbps", [(duration, mbps)])

    @classmethod
    def from_samples(cls, samples_mbps: Iterable[float], sample_duration: float, name: str) -> "BandwidthTrace":
        """Build a trace from equally-spaced capacity samples."""
        segments = [(sample_duration, float(mbps)) for mbps in samples_mbps]
        return cls(name, segments)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def duration(self) -> float:
        """Total trace length in seconds."""
        return float(self._cum[-1])

    @property
    def mean_mbps(self) -> float:
        total = sum(duration * mbps for duration, mbps in self.segments)
        return total / self.duration

    @property
    def min_mbps(self) -> float:
        return min(mbps for _, mbps in self.segments)

    @property
    def max_mbps(self) -> float:
        return max(mbps for _, mbps in self.segments)

    def capacity_mbps_many(self, times) -> np.ndarray:
        """Capacities (Mbps) at every simulation time in ``times``, elementwise.

        A looping trace wraps each time modulo its duration; a non-looping one
        holds its last segment's capacity from the end onwards.  A time on a
        segment boundary belongs to the segment that starts there.
        """
        times = np.asarray(times, dtype=np.float64)
        if (times < 0).any():
            raise ValueError("time must be non-negative")
        if self.loop:
            times = np.mod(times, self._cum[-1])
        # A non-negative time lands at index >= 0; only a time past the end
        # of a non-looping trace needs clipping (to the last segment).
        index = self._cum.searchsorted(times, side="right") - 1
        return self._mbps[np.minimum(index, self._mbps.size - 1)]

    def capacity_mbps(self, time: float) -> float:
        """Capacity (Mbps) at simulation time ``time``."""
        return float(self.capacity_mbps_many(time))

    def capacity_pps(self, time: float) -> float:
        """Capacity at ``time`` in packets per second."""
        return mbps_to_pps(self.capacity_mbps(time))

    def sample(self, dt: float, duration: float | None = None) -> np.ndarray:
        """Capacity samples (Mbps) every ``dt`` seconds for ``duration`` seconds."""
        duration = duration if duration is not None else self.duration
        return self.capacity_mbps_many(np.arange(0.0, duration, dt))

    def scaled(self, factor: float, name: str | None = None) -> "BandwidthTrace":
        """A copy of the trace with every capacity multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        segments = [(duration, mbps * factor) for duration, mbps in self.segments]
        return BandwidthTrace(name or f"{self.name}-x{factor:g}", segments, loop=self.loop)

    def bdp_packets(self, min_rtt: float) -> float:
        """Bandwidth-delay product at the mean capacity, in packets."""
        if min_rtt <= 0:
            raise ValueError("min_rtt must be positive")
        return mbps_to_pps(self.mean_mbps) * min_rtt


# ---------------------------------------------------------------------- #
# Mahimahi trace-format interoperability
# ---------------------------------------------------------------------- #
def read_mahimahi_trace(path: str | Path, name: str | None = None, bucket_ms: float = 100.0) -> BandwidthTrace:
    """Read a Mahimahi packet-delivery trace file.

    Mahimahi traces list one integer millisecond timestamp per line, each
    representing one MSS packet-delivery opportunity.  We bucket them into
    ``bucket_ms`` windows and convert counts to Mbps.
    """
    path = Path(path)
    timestamps: List[int] = []
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            timestamps.append(int(float(line)))
    if not timestamps:
        raise ValueError(f"trace file {path} is empty")
    horizon_ms = max(timestamps) + 1
    n_buckets = int(np.ceil(horizon_ms / bucket_ms))
    counts = np.zeros(n_buckets)
    for ts in timestamps:
        counts[int(ts // bucket_ms)] += 1
    bucket_s = bucket_ms / 1000.0
    mbps = counts * MSS_BYTES * 8 / bucket_s / 1e6
    return BandwidthTrace.from_samples(mbps, bucket_s, name or path.stem)


def write_mahimahi_trace(trace: BandwidthTrace, path: str | Path, duration: float | None = None) -> None:
    """Write a trace as a Mahimahi packet-delivery schedule (1 ms resolution)."""
    path = Path(path)
    duration = duration if duration is not None else trace.duration
    lines: List[str] = []
    credit = 0.0
    times_s = np.arange(int(duration * 1000)) / 1000.0
    per_ms = mbps_to_pps(trace.capacity_mbps_many(times_s)) / 1000.0
    for ms, packets in enumerate(per_ms.tolist()):
        credit += packets
        while credit >= 1.0:
            lines.append(str(ms))
            credit -= 1.0
    path.write_text("\n".join(lines) + "\n")
