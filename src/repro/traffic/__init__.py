"""Workload generators: TRex-, iperf- and netperf-shaped drivers.

These reproduce the paper's measurement methodology:

* :mod:`repro.traffic.trex` — packet streams: 64 B / 1518 B frames, 1
  or 1000 flows (§5.2, §5.5).  The rate a world sustains under one is
  measured by :func:`repro.experiments.common.reduce_run`;
* :mod:`repro.traffic.iperf` — single-flow bulk TCP throughput with a
  pipeline-bottleneck reduction (§5.1);
* :mod:`repro.traffic.netperf` — TCP_RR latency distributions and
  transaction rates (§5.3).
"""

from repro.traffic.trex import FlowSpec, TrexStream
from repro.traffic.iperf import IperfResult, measure_throughput
from repro.traffic.netperf import NetperfResult, TcpRrRunner

__all__ = [
    "FlowSpec",
    "TrexStream",
    "IperfResult",
    "measure_throughput",
    "NetperfResult",
    "TcpRrRunner",
]
