"""PMD threads: dedicated poll-mode packet processing (§3.2 O1).

"Each PMD thread runs in a loop and processes packets for one AF_XDP
receive queue."  A :class:`PmdThread` is pinned to a core, owns a private
EMC (as in real dpif-netdev), and polls its assigned (port, queue) pairs.
Enabling PMD threads was the paper's single largest optimization (6×).

The non-PMD configuration (``main_thread_mode``) models the default
"userspace datapath" behaviour the paper strace'd: the shared main thread
interleaves packet processing with OpenFlow/OVSDB work, paying poll()
syscalls and context switches between bursts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.ovs.dpif_netdev import DpifNetdev, DpPort, PipelineStats
from repro.ovs.emc import ExactMatchCache
from repro.sim import trace
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext


@dataclass
class RxqAssignment:
    port: DpPort
    queue: int


class PmdThread:
    def __init__(
        self,
        dpif: DpifNetdev,
        cpu_model: CpuModel,
        core: int,
        name: str = "",
        main_thread_mode: bool = False,
        batch_size: int = 32,
    ) -> None:
        self.dpif = dpif
        self.ctx = ExecContext(
            cpu_model, core, CpuCategory.USER,
            name=name or f"pmd-c{core}",
        )
        self.emc = ExactMatchCache()
        self.rxqs: List[RxqAssignment] = []
        self.main_thread_mode = main_thread_mode
        self.batch_size = batch_size
        self.packets_processed = 0
        self.iterations = 0
        self.empty_polls = 0
        #: Per-core pipeline outcomes, fed to pmd-stats-show.
        self.stats = PipelineStats()

    def add_rxq(self, port: DpPort, queue: int = 0) -> None:
        self.rxqs.append(RxqAssignment(port, queue))

    @property
    def cycles_ns(self) -> float:
        """Virtual time this thread has consumed (busy + modelled waits);
        the 'processing cycles' line of pmd-stats-show."""
        return self.ctx.local_time_ns

    @property
    def avg_batch(self) -> float:
        """Mean packets per rx batch handed to the datapath; under load
        this exceeds 1 and the burst classifier amortizes per-packet
        work across it (pmd-perf-show's 'rx batches' line)."""
        return self.stats.avg_batch

    def run_iteration(self) -> int:
        """One trip around the poll loop; returns packets processed."""
        costs = DEFAULT_COSTS
        self.iterations += 1
        processed = 0
        ctx = self.ctx
        # Profiler-only frame: attributes everything this iteration
        # charges to this PMD thread in the call tree.
        rec = trace.ACTIVE
        prof = rec.profiler if rec is not None else None
        if prof is not None:
            prof.enter(f"pmd/{ctx.name}")
        try:
            for rxq in self.rxqs:
                port = rxq.port
                if self.main_thread_mode:
                    # The shared main thread: a poll() syscall per service
                    # and a context switch back from whatever else it was
                    # doing (OpenFlow handling, OVSDB, stats) — what strace
                    # showed before O1.
                    with ctx.as_category(CpuCategory.SYSTEM):
                        ctx.charge(costs.poll_ns, label="poll")
                    ctx.charge(costs.context_switch_ns, label="resched")
                    trace.count("kernel.ctx_switches")
                pkts = port.adapter.rx_burst(
                    ctx, batch=self.batch_size, queue=rxq.queue
                )
                if not pkts:
                    self.empty_polls += 1
                    continue
                self.dpif.process_batch(
                    pkts, port.port_no, ctx, self.emc,
                    tx_queue=rxq.queue, stats=self.stats,
                )
                processed += len(pkts)
        finally:
            if prof is not None:
                prof.exit_()
        self.packets_processed += processed
        return processed

    def run_until_idle(self, max_iterations: int = 100_000) -> int:
        total = 0
        for _ in range(max_iterations):
            n = self.run_iteration()
            total += n
            if n == 0:
                return total
        raise RuntimeError("PMD did not drain its queues")


def assign_rxqs_round_robin(
    threads: List[PmdThread], rxqs: List[Tuple[DpPort, int]]
) -> None:
    """dpif-netdev's default rxq-to-PMD placement."""
    if not threads:
        raise ValueError("no PMD threads")
    for i, (port, queue) in enumerate(rxqs):
        threads[i % len(threads)].add_rxq(port, queue)
