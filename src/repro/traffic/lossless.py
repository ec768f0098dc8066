"""TRex-style maximum-lossless-rate binary search.

The real harnesses (``ovs_perf``, the NFV-benchmarking methodology of
Niu et al. and Zhang et al.) find a device's maximum lossless rate by
*offering* traffic at a trial rate, counting loss, and bisecting: a
lossless trial raises the floor, a lossy one lowers the ceiling, until
the bracket is narrower than the requested resolution.

:class:`LosslessSearch` reproduces that discipline against any loss
model — a callable mapping an offered rate (Mpps) to the fraction of
packets lost at that rate.  For the simulator the loss model is derived
from a measured capacity (see :func:`capacity_loss_model`): a pipeline
whose bottleneck lane processes a packet in ``t`` ns drops nothing
until the offered rate exceeds ``1/t``, after which its queues grow
without bound and the excess is lost.  The search therefore converges
to the same quantity :func:`repro.traffic.trex.max_lossless_mpps`
computes in closed form — but it converges the way the physical TRex
harness does, probe by probe, and records the full search trace so a
reader can audit *how* a rate was found, not just the rate.

Every step is deterministic: identical inputs produce an identical
trace, which is what lets the results record compare it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

__all__ = [
    "LossModel",
    "Probe",
    "SearchResult",
    "LosslessSearch",
    "capacity_loss_model",
    "aggregate_capacity_mpps",
]

#: offered rate (Mpps) -> fraction of offered packets lost in [0, 1].
LossModel = Callable[[float], float]


@dataclass(frozen=True)
class Probe:
    """One trial of the binary search."""

    offered_mpps: float
    loss_fraction: float
    lossless: bool


@dataclass
class SearchResult:
    """The converged rate plus the evidence that produced it."""

    rate_mpps: float
    #: Highest offered rate observed lossless / lowest observed lossy.
    #: ``bracket_hi`` is ``max_rate_mpps`` when no trial ever lost.
    bracket_lo: float
    bracket_hi: float
    iterations: int
    converged: bool
    trace: List[Probe] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "rate_mpps": self.rate_mpps,
            "bracket": [self.bracket_lo, self.bracket_hi],
            "iterations": self.iterations,
            "converged": self.converged,
            "trace": [
                {
                    "offered_mpps": p.offered_mpps,
                    "loss": p.loss_fraction,
                    "lossless": p.lossless,
                }
                for p in self.trace
            ],
        }


class LosslessSearch:
    """Binary search for the maximum lossless rate.

    ``resolution_mpps`` bounds the final bracket width (the returned
    rate is within one resolution of the true capacity); a trial counts
    as lossless while its loss fraction is at most ``loss_tolerance``
    (0.0 = strictly zero loss, the paper's definition).
    ``max_iterations`` is a safety net only — the bisection needs
    ``log2(range / resolution)`` trials and is marked unconverged if it
    runs out first.
    """

    def __init__(
        self,
        max_rate_mpps: float,
        min_rate_mpps: float = 0.0,
        resolution_mpps: float = 0.01,
        loss_tolerance: float = 0.0,
        max_iterations: int = 64,
    ) -> None:
        if max_rate_mpps <= 0:
            raise ValueError("max rate must be positive")
        if not 0 <= min_rate_mpps < max_rate_mpps:
            raise ValueError("need 0 <= min rate < max rate")
        if resolution_mpps <= 0:
            raise ValueError("resolution must be positive")
        if not 0 <= loss_tolerance < 1:
            raise ValueError("loss tolerance must be in [0, 1)")
        if max_iterations < 1:
            raise ValueError("need at least one iteration")
        self.max_rate_mpps = max_rate_mpps
        self.min_rate_mpps = min_rate_mpps
        self.resolution_mpps = resolution_mpps
        self.loss_tolerance = loss_tolerance
        self.max_iterations = max_iterations

    def run(self, loss_model: LossModel) -> SearchResult:
        trace: List[Probe] = []

        def probe(rate: float) -> bool:
            loss = loss_model(rate)
            if not 0.0 <= loss <= 1.0:
                raise ValueError(
                    f"loss model returned {loss!r} at {rate} Mpps"
                )
            ok = loss <= self.loss_tolerance
            trace.append(Probe(rate, loss, ok))
            return ok

        # Trial 1 is always the line: if the wire itself is lossless
        # there is nothing to bisect (TRex does the same first probe).
        if probe(self.max_rate_mpps):
            return SearchResult(
                rate_mpps=self.max_rate_mpps,
                bracket_lo=self.max_rate_mpps,
                bracket_hi=self.max_rate_mpps,
                iterations=len(trace),
                converged=True,
                trace=trace,
            )
        lo, hi = self.min_rate_mpps, self.max_rate_mpps
        converged = False
        while len(trace) < self.max_iterations:
            if hi - lo <= self.resolution_mpps:
                converged = True
                break
            mid = (lo + hi) / 2.0
            if probe(mid):
                lo = mid
            else:
                hi = mid
        else:  # pragma: no cover - needs a pathological resolution
            converged = hi - lo <= self.resolution_mpps
        return SearchResult(
            rate_mpps=lo,
            bracket_lo=lo,
            bracket_hi=hi,
            iterations=len(trace),
            converged=converged,
            trace=trace,
        )


def aggregate_capacity_mpps(
    per_lane_busy_ns: Sequence[float],
    packets_per_lane: Sequence[int],
) -> float:
    """Sum of per-lane sustainable rates, in Mpps (uncapped).

    Each lane (a PMD thread, a softirq core) sustains
    ``packets / busy_ns`` before its queue grows without bound; the
    pipeline aggregate is their sum.  Shared by the closed form
    (:func:`repro.traffic.trex.max_lossless_mpps`) and the probe-based
    search (:func:`capacity_loss_model`).
    """
    if len(per_lane_busy_ns) != len(packets_per_lane):
        raise ValueError("lane arrays must align")
    total = 0.0
    for busy, pkts in zip(per_lane_busy_ns, packets_per_lane):
        if pkts == 0:
            continue
        if busy <= 0:
            raise ValueError("a lane that processed packets must have cost")
        total += pkts / busy * 1e3  # Mpps
    return total


def capacity_loss_model(capacity_mpps: float) -> LossModel:
    """The open-loop UDP loss model of a fixed-capacity pipeline.

    Below capacity every offered packet is forwarded; above it the
    bottleneck lane saturates and the overflow — and only the
    overflow — is dropped.  This is exactly what a TRex trial observes
    against a DUT whose per-packet cost does not depend on offered rate
    (true of every datapath here: costs are charged per packet, queues
    are serviced to empty between bursts).
    """
    if capacity_mpps <= 0:
        raise ValueError("capacity must be positive")

    def loss(offered_mpps: float) -> float:
        if offered_mpps <= capacity_mpps:
            return 0.0
        return (offered_mpps - capacity_mpps) / offered_mpps

    return loss
