"""netperf TCP_RR: request/response latency and transaction rate.

§5.3: "netperf's TCP_RR test ... sends a single byte of data back and
forth between a client and a server as quickly as possible and reports
the latency distribution."  We reproduce that: the caller provides a
``transaction`` callable that moves one byte each way through the
simulated path while every involved execution context carries a shared
:class:`~repro.sim.cpu.LatencyTrace`; stochastic service terms (IRQ
wait, scheduler wakeup) draw per-transaction jitter, yielding the
P50/P90/P99 columns of Figures 10 and 11.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

from repro.sim.cpu import ExecContext, LatencyTrace
from repro.sim.rng import make_rng
from repro.sim.stats import Histogram


@dataclass
class NetperfResult:
    p50_us: float
    p90_us: float
    p99_us: float
    mean_us: float
    transactions_per_s: float
    component_means_us: Dict[str, float]

    def row(self) -> str:  # pragma: no cover - display helper
        return (
            f"P50={self.p50_us:.0f}us P90={self.p90_us:.0f}us "
            f"P99={self.p99_us:.0f}us ({self.transactions_per_s:,.0f} tps)"
        )


class TcpRrRunner:
    """Drive n request/response transactions and collect the distribution.

    ``jitter_terms`` maps a label to ``(median_ns, sigma)``: each
    transaction adds one lognormal sample per term — the wakeups and
    interrupt service variance that create the latency *tail*.  A purely
    polling path (DPDK) has small sigma; an interrupt-driven path
    (kernel) has more and heavier terms.
    """

    def __init__(
        self,
        contexts: Sequence[ExecContext],
        jitter_terms: Dict[str, "tuple[float, float]"],
        seed: int = 3,
    ) -> None:
        self.contexts = list(contexts)
        self.jitter_terms = dict(jitter_terms)
        self._rng = make_rng("netperf", seed)

    def run(
        self,
        transaction: Callable[[], None],
        n_transactions: int = 400,
    ) -> NetperfResult:
        if n_transactions <= 0:
            raise ValueError("need at least one transaction")
        samples = Histogram()
        component_acc: Dict[str, float] = defaultdict(float)
        # ``lognormal_jitter`` per term, its check made once and its
        # bound method read once: the same draws in the same order.
        jitter = []
        for label, (median, sigma) in self.jitter_terms.items():
            if median <= 0:
                raise ValueError("median must be positive")
            jitter.append((label, median, sigma))
        lognormvariate = self._rng.lognormvariate
        # One trace stays attached for the run and starts every
        # transaction empty; a run nested in ``with ctx.tracing(outer):``
        # hands ``outer`` back afterwards, not None.
        trace = LatencyTrace()
        previous = [ctx.trace for ctx in self.contexts]
        for ctx in self.contexts:
            ctx.trace = trace
        try:
            for _ in range(n_transactions):
                trace.total_ns = 0.0
                components = trace.components = {}
                transaction()
                for label, median, sigma in jitter:
                    trace.add(median * lognormvariate(0.0, sigma), label)
                samples.add(trace.total_ns / 1_000.0)  # us
                for label, ns in components.items():
                    component_acc[label] += ns
        finally:
            for ctx, prev in zip(self.contexts, previous):
                ctx.trace = prev
        mean_us = samples.mean()
        return NetperfResult(
            p50_us=samples.percentile(50),
            p90_us=samples.percentile(90),
            p99_us=samples.percentile(99),
            mean_us=mean_us,
            transactions_per_s=1e6 / mean_us,
            component_means_us={
                k: v / n_transactions / 1_000.0
                for k, v in component_acc.items()
            },
        )
