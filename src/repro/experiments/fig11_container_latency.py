"""Figure 11: container-to-container latency within a host (§5.3).

=========  =================  ==========================================
Config     P50/P90/P99 us     Why
=========  =================  ==========================================
Kernel     ~15 / 16 / 20      veth -> in-kernel switch -> veth, cheap
AF_XDP     ~15 / 16 / 20      XDP program between the veths, equally cheap
DPDK       81 / 136 / 241     "packets to or from a container must pass
                              through the host TCP/IP stack ... DPDK needs
                              extra user/kernel transitions and packet
                              data copies"
=========  =================  ==========================================

netperf TCP_RR between two containers; the DPDK path crosses OVS's
AF_PACKET sockets twice per direction, each crossing adding syscalls,
copies, and a scheduler wakeup chain (ksoftirqd -> OVS poll -> netserver)
whose variance produces the enormous tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.reporting import format_table
from repro.ebpf.programs import container_redirect_program
from repro.hosts.container import Container
from repro.hosts.host import Host
from repro.net.builder import make_tcp_packet
from repro.net.packet import Packet
from repro.ovs.match import Match
from repro.ovs.ofactions import OutputAction
from repro.ovs.openflow import OpenFlowConnection
from repro.ovs.pmd import PmdThread
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, ExecContext
from repro.traffic.netperf import NetperfResult, TcpRrRunner

N_TRANSACTIONS = 400
#: The PMD drains a direction in 2-3 iterations; see fig10.
PUMP_ITERATIONS = 20

PAPER_US = {
    "kernel": (15, 16, 20),
    "afxdp": (15, 16, 20),
    "dpdk": (81, 136, 241),
}

_JITTER = {
    "kernel": {
        "netserver_wakeup": (4_200.0, 0.3),
        "client_wakeup": (4_200.0, 0.3),
    },
    "afxdp": {
        "netserver_wakeup": (4_200.0, 0.3),
        "client_wakeup": (4_200.0, 0.3),
    },
    "dpdk": {
        # Two AF_PACKET crossings per direction, each a ksoftirqd ->
        # OVS-poll -> consumer wakeup chain with heavy variance.
        "afpacket_chain_fwd": (29_000.0, 0.68),
        "afpacket_chain_back": (29_000.0, 0.68),
        "netserver_wakeup": (4_200.0, 0.4),
        "client_wakeup": (4_200.0, 0.4),
    },
}


@dataclass
class Fig11Result:
    results: Dict[str, NetperfResult]

    def render(self) -> str:
        rows = []
        for config, r in self.results.items():
            paper = PAPER_US[config]
            rows.append((
                config,
                f"{r.p50_us:.0f}/{r.p90_us:.0f}/{r.p99_us:.0f}",
                f"{paper[0]}/{paper[1]}/{paper[2]}",
                f"{r.transactions_per_s:,.0f}",
            ))
        return format_table(
            ["Config", "P50/P90/P99 (us)", "Paper (us)", "Transactions/s"],
            rows,
            title="Figure 11: container <-> container TCP_RR latency",
        )


class _ContainerRrPath:
    def __init__(self, config: str) -> None:
        self.config = config
        host = Host("dut", n_cpus=16)
        self.host = host
        self.c1 = Container(host, "c1", "172.17.0.2")
        self.c2 = Container(host, "c2", "172.17.0.3")
        self.client_ctx = ExecContext(host.cpu, 10, CpuCategory.USER,
                                      name="netperf")
        self.server_ctx = ExecContext(host.cpu, 11, CpuCategory.USER,
                                      name="netserver")
        self._at_server: List[Packet] = []
        self._at_client: List[Packet] = []
        self.pmd = None

        if config == "kernel":
            vs = host.install_ovs("system")
            vs.add_bridge("br0")
            p1 = vs.add_system_port("br0", self.c1.outside)
            p2 = vs.add_system_port("br0", self.c2.outside)
            of = OpenFlowConnection(vs.bridge("br0"))
            of.add_flow(0, 10, Match(in_port=p1.ofport),
                        [OutputAction(self.c2.outside.name)])
            of.add_flow(0, 10, Match(in_port=p2.ofport),
                        [OutputAction(self.c1.outside.name)])
        elif config == "afxdp":
            # The XDP program forwards between the veths in the kernel
            # (Figure 5 path C applied to container<->container traffic),
            # inline in the sender's context as real veth XDP runs.
            costs = DEFAULT_COSTS

            def veth_xdp(dst_dev):
                def handler(pkt, ctx):
                    ctx.charge(
                        costs.xdp_ctx_setup_ns + costs.dma_first_touch_ns
                        + costs.ebpf_map_lookup_ns + costs.xdp_redirect_ns,
                        label="veth_xdp",
                    )
                    dst_dev.transmit(pkt, ctx)
                return handler

            self.c1.outside.set_rx_handler(veth_xdp(self.c2.outside))
            self.c2.outside.set_rx_handler(veth_xdp(self.c1.outside))
        elif config == "dpdk":
            vs = host.install_ovs("netdev")
            vs.add_bridge("br0")
            p1 = vs.add_system_port("br0", self.c1.outside)
            p2 = vs.add_system_port("br0", self.c2.outside)
            of = OpenFlowConnection(vs.bridge("br0"))
            of.add_flow(0, 10, Match(in_port=p1.ofport),
                        [OutputAction(self.c2.outside.name)])
            of.add_flow(0, 10, Match(in_port=p2.ofport),
                        [OutputAction(self.c1.outside.name)])
            self.pmd = PmdThread(vs.dpif_netdev, host.cpu, core=0)
            dpif = vs.dpif_netdev
            self.pmd.add_rxq(dpif.ports[dpif.port_no(self.c1.outside.name)], 0)
            self.pmd.add_rxq(dpif.ports[dpif.port_no(self.c2.outside.name)], 0)
        else:
            raise ValueError(config)

        # Container apps: stash arriving frames (the stacks' costs are
        # charged explicitly in the transaction).
        self.c1.inside.set_rx_handler(
            lambda pkt, ctx: self._at_client.append(pkt))
        self.c2.inside.set_rx_handler(
            lambda pkt, ctx: self._at_server.append(pkt))
        # Built once, cloned per transaction (see fig10's _RrPath).
        self._request = make_tcp_packet(
            self.c1.inside.mac, self.c2.inside.mac,
            "172.17.0.2", "172.17.0.3", 40000, 12865, payload=b"x")
        self._reply = make_tcp_packet(
            self.c2.inside.mac, self.c1.inside.mac,
            "172.17.0.3", "172.17.0.2", 12865, 40000, payload=b"y")
        for _ in range(4):
            self.one_transaction()

    def contexts(self) -> List[ExecContext]:
        ctxs = [self.client_ctx, self.server_ctx]
        if self.pmd is not None:
            ctxs.append(self.pmd.ctx)
        ctxs.extend(self.host.kernel._softirq_ctx.values())
        return ctxs

    def _pump(self) -> None:
        pmd = self.pmd
        if pmd is None:
            return
        for _ in range(PUMP_ITERATIONS):
            if not pmd.run_iteration():
                return
        raise AssertionError(
            f"PMD did not quiesce in {PUMP_ITERATIONS} pump iterations")

    def one_transaction(self) -> None:
        costs = DEFAULT_COSTS
        # Client container: netperf writes a byte through its stack.
        self.client_ctx.charge(costs.tcp_segment_ns, label="client_tcp")
        self.c1.inside.transmit(self._request.clone(), self.client_ctx)
        self._pump()
        if not self._at_server:
            raise AssertionError("request did not reach the server container")
        self._at_server.clear()
        # Server container: stack rx + netserver + stack tx.
        self.server_ctx.charge(2 * costs.tcp_segment_ns, label="server_tcp")
        self.c2.inside.transmit(self._reply.clone(), self.server_ctx)
        self._pump()
        if not self._at_client:
            raise AssertionError("reply did not reach the client container")
        self._at_client.clear()
        self.client_ctx.charge(costs.tcp_segment_ns, label="client_tcp")


def run_fig11(n_transactions: int = N_TRANSACTIONS) -> Fig11Result:
    results: Dict[str, NetperfResult] = {}
    for config in ("kernel", "afxdp", "dpdk"):
        path = _ContainerRrPath(config)
        runner = TcpRrRunner(path.contexts(), _JITTER[config],
                             seed=hash(config) & 0xFFFF)
        results[config] = runner.run(path.one_transaction, n_transactions)
    return Fig11Result(results=results)


def main() -> None:  # pragma: no cover - CLI entry
    print(run_fig11().render())


if __name__ == "__main__":  # pragma: no cover
    main()
