#!/usr/bin/env python3
"""Container networking: Figure 5's three paths compared (§3.4, §5.2).

Two containers on one host exchange traffic three ways:

* **path through the kernel datapath** — veth to veth through the OVS
  kernel module;
* **path C** — the XDP program redirects container traffic veth-to-veth
  inside the driver layer, never touching userspace;
* **path A** — everything goes up to OVS userspace and back down.

The example runs a real UDP request/response between the containers'
network stacks, then measures packet-rate for the two AF_XDP-era paths
to show why the paper made path C the default for containers
(Outcome #2).

Run:  python examples/container_networking.py
"""

from repro.experiments.world import build_world
from repro.hosts.container import Container
from repro.hosts.host import Host
from repro.ovs.match import Match
from repro.ovs.ofactions import OutputAction
from repro.ovs.openflow import OpenFlowConnection
from repro.tools.nstat import nstat_dict
from repro.traffic.trex import FlowSpec, TrexStream


def demo_request_response() -> None:
    """Containers exchanging real UDP through the kernel datapath."""
    host = Host("node-1")
    c1 = Container(host, "web", "172.17.0.2")
    c2 = Container(host, "db", "172.17.0.3")
    vs = host.install_ovs("system")
    vs.add_bridge("br0")
    p1 = vs.add_system_port("br0", c1.outside)
    p2 = vs.add_system_port("br0", c2.outside)
    of = OpenFlowConnection(vs.bridge("br0"))
    of.add_flow(0, 10, Match(in_port=p1.ofport),
                [OutputAction(c2.outside.name)])
    of.add_flow(0, 10, Match(in_port=p2.ofport),
                [OutputAction(c1.outside.name)])

    ctx = host.user_ctx(0)
    server = c2.stack.udp_socket(ip="172.17.0.3", port=5432)
    server.on_receive = lambda payload, src_ip, src_port: (
        c2.stack.udp_send(server, src_ip, src_port,
                          b"rows: 42", host.user_ctx(1))
    )
    client = c1.stack.udp_socket(port=3333)
    c1.stack.udp_send(client, "172.17.0.3", 5432, b"SELECT 1", ctx)
    host.pump()
    reply = client.recv()
    print("container 'web' -> 'db' UDP request/response over OVS:")
    print(f"  reply payload: {reply[0].decode()!r}")
    stats = nstat_dict(c2.ns)
    print(f"  db container stack counters: "
          f"UdpIn={stats.get('UdpInDatagrams')}, "
          f"UdpOut={stats.get('UdpOutDatagrams')}")


def compare_paths() -> None:
    print("\nForwarding-rate comparison, physical->container->physical "
          "(64B, one core each):")
    stream = lambda: TrexStream(FlowSpec(1, vary_dst=False), frame_len=64)  # noqa: E731
    rows = [
        ("kernel datapath (veth)", build_world("kernel", "PCP")),
        ("AF_XDP, XDP redirect (path C)", build_world("afxdp_zc", "PCP")),
        ("DPDK (AF_PACKET to the veth)", build_world("dpdk", "PCP")),
    ]
    results = []
    for label, bench in rows:
        m = bench.drive(stream(), 1_200)
        results.append((label, m))
        print(f"  {label:32s} {m.mpps:5.2f} Mpps   "
              f"(CPU: {m.cpu_util['total']:.2f} HT)")
    best = max(results, key=lambda r: r[1].mpps)
    print(f"\n  winner: {best[0]} — the packet never left the kernel "
          "(Outcome #2)")


if __name__ == "__main__":
    demo_request_response()
    compare_paths()
