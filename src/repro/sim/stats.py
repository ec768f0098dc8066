"""Measurement helpers: histograms, percentiles, line rate, SMT yield.

The paper reports P50/P90/P99 latencies (netperf) and maximum lossless
packet rates (TRex).  The histograms reduce latency samples; the line
rate and the SMT yield are the two terms
:func:`repro.experiments.common.reduce_run` applies when it turns lane
busy time into a packet rate.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, ``0 < p <= 100``.

    Matches the convention netperf's omni output uses: the value below
    which ``p`` percent of observations fall.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    ordered = sorted(samples)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


class Histogram:
    """A simple sample accumulator with summary statistics."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def add(self, value: float) -> None:
        self._samples.append(value)

    def extend(self, values: Iterable[float]) -> None:
        self._samples.extend(values)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Sequence[float]:
        return tuple(self._samples)

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("empty histogram")
        return sum(self._samples) / len(self._samples)

    def min(self) -> float:
        return min(self._samples)

    def max(self) -> float:
        return max(self._samples)

    def percentile(self, p: float) -> float:
        return percentile(self._samples, p)

    def percentiles(self, ps: Sequence[float] = (50, 90, 99)) -> Dict[float, float]:
        return {p: percentile(self._samples, p) for p in ps}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._samples:
            return "Histogram(empty)"
        return (
            f"Histogram(n={len(self._samples)}, mean={self.mean():.1f}, "
            f"p50={self.percentile(50):.1f}, p99={self.percentile(99):.1f})"
        )


class StreamingHistogram:
    """A log-bucketed streaming histogram (the DDSketch construction).

    Long-running series (the metrics sampler's ns-per-packet track, hour
    -scale latency sweeps) cannot afford :class:`Histogram`'s
    per-sample storage.  This sketch keeps one counter per logarithmic
    bucket: value ``v`` lands in bucket ``ceil(log_gamma(v))`` with
    ``gamma = (1 + a) / (1 - a)``, and a bucket's representative is its
    midpoint — so any percentile estimate is within relative error ``a``
    of the true sample value, regardless of how many samples streamed
    through.

    Memory is bounded twice over: bucket count grows with the *dynamic
    range* of the data (log-many buckets), and ``max_buckets`` caps even
    that by collapsing the lowest pair (sacrificing low-end accuracy,
    exactly DDSketch's trade).  Exact ``n``/``sum``/``min``/``max`` are
    kept on the side.
    """

    __slots__ = ("rel_error", "max_buckets", "gamma", "_log_gamma",
                 "_buckets", "_zero", "_n", "_sum", "_min", "_max")

    def __init__(self, rel_error: float = 0.01,
                 max_buckets: int = 4096) -> None:
        if not 0.0 < rel_error < 1.0:
            raise ValueError(f"relative error out of range: {rel_error}")
        if max_buckets < 2:
            raise ValueError("need at least two buckets")
        self.rel_error = rel_error
        self.max_buckets = max_buckets
        self.gamma = (1.0 + rel_error) / (1.0 - rel_error)
        self._log_gamma = math.log(self.gamma)
        #: bucket index -> count; index i covers (gamma^(i-1), gamma^i].
        self._buckets: Dict[int, int] = {}
        #: values <= 0 (no logarithm): counted exactly, reported as 0.0.
        self._zero = 0
        self._n = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        self._n += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            self._zero += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        if len(self._buckets) > self.max_buckets:
            self._collapse_lowest()

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def _collapse_lowest(self) -> None:
        low, second = sorted(self._buckets)[:2]
        self._buckets[second] += self._buckets.pop(low)

    def _bucket_value(self, index: int) -> float:
        # Midpoint of (gamma^(i-1), gamma^i]: 2*gamma^i / (gamma + 1).
        return 2.0 * self.gamma ** index / (self.gamma + 1.0)

    def __len__(self) -> int:
        return self._n

    @property
    def n_buckets(self) -> int:
        return len(self._buckets)

    def mean(self) -> float:
        if not self._n:
            raise ValueError("empty histogram")
        return self._sum / self._n

    def min(self) -> float:
        if not self._n:
            raise ValueError("empty histogram")
        return self._min

    def max(self) -> float:
        if not self._n:
            raise ValueError("empty histogram")
        return self._max

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (same convention as :func:`percentile`),
        accurate to ``rel_error`` relative to the true sample value."""
        if not self._n:
            raise ValueError("no samples")
        if not 0 < p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        rank = math.ceil(p / 100.0 * self._n)
        if rank <= self._zero:
            return 0.0
        cumulative = self._zero
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= rank:
                # The true sample lies in this bucket; clamping to the
                # exact extremes only ever tightens the estimate.
                return min(max(self._bucket_value(index), self._min),
                           self._max)
        return self._max

    def percentiles(self, ps: Sequence[float] = (50, 90, 99)) -> Dict[float, float]:
        return {p: self.percentile(p) for p in ps}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._n:
            return "StreamingHistogram(empty)"
        return (
            f"StreamingHistogram(n={self._n}, {len(self._buckets)} buckets, "
            f"p50={self.percentile(50):.1f}, p99={self.percentile(99):.1f})"
        )


def line_rate_mpps(link_gbps: float, frame_bytes: int) -> float:
    """Maximum packet rate of an Ethernet link.

    Accounts for the 20 bytes of per-frame overhead on the wire (7 preamble
    + 1 SFD + 12 interframe gap) plus the 4-byte FCS not included in the
    L2 frame length used throughout the paper (64 B, 1518 B frames include
    FCS per Ethernet convention; TRex line-rate numbers in §5.5 — 33 Mpps
    at 64 B and 2.1 Mpps at 1518 B on 25 GbE — imply FCS-inclusive sizes,
    which we match).
    """
    if frame_bytes < 64:
        raise ValueError("minimum Ethernet frame is 64 bytes")
    wire_bits = (frame_bytes + 20) * 8
    return link_gbps * 1e3 / wire_bits


#: Throughput multiplier for a logical CPU whose hyperthread sibling is
#: also saturated.  Two HTs share one physical core's execution resources;
#: for packet-processing loads each runs at roughly 55 % of a solo thread
#: (the standard SMT yield for memory-bound networking work).  This is
#: why the kernel "uses almost 8 CPU cores" (~10 HT) for modest rates in
#: the paper's Table 4.
SMT_SIBLING_EFFICIENCY = 0.55


def smt_effective_lanes(n_busy_hyperthreads: int, n_hyperthreads: int) -> float:
    """Effective full-speed lanes when ``n_busy`` HTs are saturated.

    HTs pair up: 2i and 2i+1 share a physical core.  Busy HTs fill
    distinct physical cores first (irqbalance spreads them), then start
    doubling up at reduced per-thread efficiency.
    """
    if n_busy_hyperthreads < 0 or n_busy_hyperthreads > n_hyperthreads:
        raise ValueError("busy HT count out of range")
    n_physical = n_hyperthreads // 2 if n_hyperthreads > 1 else 1
    solo = min(n_busy_hyperthreads, n_physical)
    paired = max(0, n_busy_hyperthreads - n_physical)
    # A paired physical core yields 2 * efficiency instead of 1.0 + 1.0,
    # and the previously-solo sibling also drops to the shared rate.
    return (solo - paired) + paired * 2 * SMT_SIBLING_EFFICIENCY
