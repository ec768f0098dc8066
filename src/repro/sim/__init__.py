"""Simulation substrate: virtual time, cost model, CPU accounting, statistics.

Everything in this reproduction that claims a performance number derives it
from this package.  Code under :mod:`repro.kernel`, :mod:`repro.afxdp`,
:mod:`repro.dpdk` and :mod:`repro.ovs` performs *real work* on real data
structures; as it does so it charges virtual nanoseconds to the executing
:class:`~repro.sim.cpu.ExecContext`.  Experiments then read busy time off the
:class:`~repro.sim.cpu.CpuModel` to compute throughput, CPU utilisation and
latency, exactly the way ``perf`` and ``top`` were used in the paper.
"""

from repro.sim.clock import Clock
from repro.sim.costs import CostModel, DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext
from repro.sim.stats import Histogram, percentile
from repro.sim.trace import TraceRecorder, recording

__all__ = [
    "Clock",
    "CostModel",
    "DEFAULT_COSTS",
    "CpuCategory",
    "CpuModel",
    "ExecContext",
    "Histogram",
    "percentile",
    "TraceRecorder",
    "recording",
]
