"""Figure 8: TCP throughput through the NSX pipeline (§5.1).

Three panels, each iperf-style single-flow bulk TCP through a
production-shaped pipeline (conntrack + recirculation, Geneve for the
cross-host panel), exactly the §5.1 methodology:

(a) VM -> VM across hosts over Geneve on a 10 GbE link
    kernel+tap 2.2 | AF_XDP+tap interrupt 1.9 | +polling ~3 |
    AF_XDP+vhost 4.4 | +checksum 6.5   (Gbps)
(b) VM -> VM within one host
    kernel+tap ~12 | AF_XDP+tap (low) | vhost 3.8 | +csum 8.4 | +TSO 29
(c) container -> container within one host
    kernel veth 5.9 | kernel veth +offloads 49 | XDP redirect 5.7 |
    AF_XDP userspace 4.1 / 5.0 / 8.0

TSO is unavailable across the Geneve tunnel on this NIC generation, so
panel (a) runs per-MSS segments; panel (b)'s TSO bar moves 64 kB
super-segments end-to-end without any segmentation — the paper's
"vhostuser packets do not traverse the userspace QEMU process".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.afxdp.driver import AfxdpOptions
from repro.afxdp.umempool import LockStrategy
from repro.analysis.reporting import format_table
from repro.experiments.world import Endpoints, World, build_world
from repro.kernel.conntrack import CT_ESTABLISHED, CT_NEW
from repro.net.ipv4 import IPProto
from repro.net.tunnel import GENEVE_PORT
from repro.ovs.match import Match
from repro.ovs.ofactions import CtAction, OutputAction, PopTunnel
from repro.ovs.ofproto import OfPort
from repro.ovs.openflow import OpenFlowConnection
from repro.ovs.vswitchd import VSwitchd
from repro.sim.cpu import CpuCategory, ExecContext
from repro.traffic.iperf import measure_throughput

TOTAL_BYTES = 400_000
CHUNK = 32 * 1448
LINK_GBPS = 10.0

PAPER_GBPS = {
    ("a", "kernel+tap"): 2.2,
    ("a", "afxdp+tap interrupt"): 1.9,
    ("a", "afxdp+tap polling"): 3.0,
    ("a", "afxdp+vhost"): 4.4,
    ("a", "afxdp+vhost+csum"): 6.5,
    ("b", "kernel+tap"): 12.0,
    ("b", "afxdp+tap"): 2.5,
    ("b", "afxdp+vhost"): 3.8,
    ("b", "afxdp+vhost+csum"): 8.4,
    ("b", "afxdp+vhost+csum+tso"): 29.0,
    ("c", "kernel veth"): 5.9,
    ("c", "kernel veth offload"): 49.0,
    ("c", "xdp redirect"): 5.7,
    ("c", "afxdp user"): 4.1,
    ("c", "afxdp user+csum"): 5.0,
    ("c", "afxdp user+csum+tso"): 8.0,
}


@dataclass
class Fig8Result:
    gbps: Dict["tuple[str, str]", float]

    def render(self, panel: str) -> str:
        rows = [
            (config, f"{v:.1f}", PAPER_GBPS[(p, config)])
            for (p, config), v in self.gbps.items()
            if p == panel
        ]
        titles = {
            "a": "Figure 8a: VM-to-VM cross-host over Geneve (Gbps)",
            "b": "Figure 8b: VM-to-VM within a host (Gbps)",
            "c": "Figure 8c: container-to-container within a host (Gbps)",
        }
        return format_table(["Configuration", "Gbps", "Paper"], rows,
                            title=titles[panel])

    def render_all(self) -> str:
        return "\n\n".join(self.render(p) for p in ("a", "b", "c"))


# ---------------------------------------------------------------------------
# Pipeline helpers.
# ---------------------------------------------------------------------------
def install_overlay_pipeline(
    vs: VSwitchd,
    bridge: str,
    vif_port: str,
    zone: int,
    uplink_port: Optional[str] = None,
    tunnel_port: Optional[str] = None,
    peer_vif_port: Optional[str] = None,
) -> None:
    """The §5.1 three-lookup shape: classify, conntrack, forward.

    Cross-host: vif -> ct -> tunnel out, and tunnel in -> ct -> vif.
    Intra-host: vif -> ct -> peer vif.
    """
    of = OpenFlowConnection(vs.bridge(bridge))
    br = vs.bridge(bridge)
    vif = br.port(vif_port)
    of.add_flow(0, 100, Match(in_port=vif.ofport),
                [CtAction(zone=zone, commit=True, table=1)])
    allow_new = Match(ct_state=(CT_NEW, CT_NEW))
    allow_est = Match(ct_state=(CT_ESTABLISHED, CT_ESTABLISHED))
    egress_target = tunnel_port or peer_vif_port
    if egress_target is None:
        raise ValueError("need a tunnel or a peer vif")
    of.add_flow(1, 100, allow_new, [OutputAction(egress_target)])
    of.add_flow(1, 100, allow_est, [OutputAction(egress_target)])
    if uplink_port and tunnel_port:
        uplink = br.port(uplink_port)
        tun = br.port(tunnel_port)
        of.add_flow(0, 90,
                    Match(in_port=uplink.ofport, eth_type=0x0800,
                          nw_proto=IPProto.UDP, tp_dst=GENEVE_PORT),
                    [PopTunnel(tunnel_port)])
        of.add_flow(0, 80, Match(in_port=tun.ofport),
                    [CtAction(zone=zone, commit=True, table=2)])
        of.add_flow(2, 100, allow_new, [OutputAction(vif_port)])
        of.add_flow(2, 100, allow_est, [OutputAction(vif_port)])


def _vm_pair_pipeline(vs: VSwitchd, bridge: str, a: OfPort, b: OfPort) -> None:
    """Panel (b): classify, conntrack, forward, in both directions."""
    install_overlay_pipeline(vs, bridge, a.name, zone=5, peer_vif_port=b.name)
    _reverse_pipeline(vs, bridge, b.name, a.name, zone=5)


def _geneve_pipeline(vs: VSwitchd, bridge: str, vif: OfPort,
                     tunnel: OfPort) -> None:
    """Panel (a): vif -> ct -> tunnel, and the uplink's tunnel -> ct -> vif."""
    install_overlay_pipeline(vs, bridge, vif.name, zone=5,
                             uplink_port="ens1", tunnel_port=tunnel.name)


def _reverse_pipeline(vs: VSwitchd, bridge: str, vif: str, peer: str,
                      zone: int) -> None:
    """ACK-direction rules (tables 3/4 mirror tables 0/1)."""
    of = OpenFlowConnection(vs.bridge(bridge))
    br = vs.bridge(bridge)
    port = br.port(vif)
    of.add_flow(0, 100, Match(in_port=port.ofport),
                [CtAction(zone=zone, commit=True, table=3)])
    of.add_flow(3, 100, Match(ct_state=(CT_NEW, CT_NEW)),
                [OutputAction(peer)])
    of.add_flow(3, 100, Match(ct_state=(CT_ESTABLISHED, CT_ESTABLISHED)),
                [OutputAction(peer)])


def _tcp_gbps(
    world: World,
    config: str,
    client_ctx: ExecContext,
    tso: bool,
    total_bytes: int,
    link_gbps: Optional[float] = None,
) -> float:
    """One iperf run between the world's two ends: a handshake from the
    client end to port 5001 on the server end, then bulk TCP until
    ``total_bytes`` have arrived, the world settled after every chunk."""
    client, server_end = world.ends
    stack = client.stack
    server = server_end.stack.tcp_listen(server_end.ip, 5001)
    conn = stack.tcp_connect(client.ip, server_end.ip, 5001, client_ctx)
    world.pump()
    if conn.state.value != "ESTABLISHED":
        raise AssertionError(f"{config}: no connection")
    server_sock = server.accept_queue.popleft()
    state = {"seen": server_sock.bytes_received}

    def step() -> int:
        stack.tcp_send(conn, b"\x00" * CHUNK, client_ctx, tso=tso)
        world.pump()
        now = server_sock.bytes_received
        got = now - state["seen"]
        state["seen"] = now
        return got

    cpus = list(dict.fromkeys(end.host.cpu for end in world.ends))
    return measure_throughput(cpus, step, total_bytes,
                              link_gbps=link_gbps).gbps


# ---------------------------------------------------------------------------
# Panel (a): cross-host over Geneve.
# ---------------------------------------------------------------------------
def run_panel_a(config: str, total_bytes: int = TOTAL_BYTES) -> float:
    interrupt = "interrupt" in config
    if interrupt:
        # "using AF_XDP in an interrupt-driven fashion, which cannot
        # take advantage of any of the optimizations described in
        # Section 3" — no PMD, mutexes, no batching, no prealloc.
        options = AfxdpOptions(
            interrupt_mode=True,
            lock_strategy=LockStrategy.MUTEX,
            batched_locking=False,
            preallocated_metadata=False,
            sw_checksum_on_tx=True,
            batch_size=8,
        )
    else:
        options = AfxdpOptions(sw_checksum_on_tx="csum" not in config)
    world = build_world(
        "kernel" if config == "kernel+tap" else "afxdp_zc",
        # No TSO across the tunnel on this NIC generation.
        Endpoints("V2V-geneve", pipeline=_geneve_pipeline, tso=False),
        link_gbps=LINK_GBPS, options=options,
        pmd_main_thread_mode=interrupt,
        vm_attach="tap" if "tap" in config else "vhostuser")
    return _tcp_gbps(world, config, world.ends[0].ctx, False, total_bytes,
                     link_gbps=LINK_GBPS)


# ---------------------------------------------------------------------------
# Panel (b): VM to VM within one host.
# ---------------------------------------------------------------------------
def run_panel_b(config: str, total_bytes: int = TOTAL_BYTES) -> float:
    # Panel (b)'s tap VMs run without vhost-net: "packets ... traverse the
    # userspace QEMU process to the kernel" is exactly what the paper
    # says vhostuser avoids.
    kernel = config == "kernel+tap"
    tso = "tso" in config or kernel
    world = build_world(
        "kernel" if kernel else "afxdp_zc",
        Endpoints("V2V", pipeline=_vm_pair_pipeline,
                  csum="csum" in config or kernel, tso=tso),
        vm_attach="tap" if "tap" in config else "vhostuser")
    return _tcp_gbps(world, config, world.ends[0].ctx, tso, total_bytes)


# ---------------------------------------------------------------------------
# Panel (c): container to container within one host.
# ---------------------------------------------------------------------------
def run_panel_c(config: str, total_bytes: int = TOTAL_BYTES) -> float:
    # "xdp redirect" is path C between the veths: in-kernel, but no
    # GSO/csum offload through XDP (§5.1: "XDP does not yet support
    # checksum offload and TSO").  "afxdp user" is veth -> XSK -> OVS
    # userspace -> veth.
    if config.startswith("kernel veth"):
        datapath = "kernel"
    else:
        datapath = "afxdp_zc" if config == "xdp redirect" else "afxdp_copy"
    tso = "tso" in config or config == "kernel veth offload"
    world = build_world(datapath, Endpoints(
        "C2C", csum="offload" in config or "csum" in config, tso=tso))
    client_ctx = ExecContext(world.host.cpu, 10, CpuCategory.USER,
                             name="iperf-c")
    return _tcp_gbps(world, config, client_ctx, tso, total_bytes)


# ---------------------------------------------------------------------------
PANEL_CONFIGS = {
    "a": ["kernel+tap", "afxdp+tap interrupt", "afxdp+tap polling",
          "afxdp+vhost", "afxdp+vhost+csum"],
    "b": ["kernel+tap", "afxdp+tap", "afxdp+vhost", "afxdp+vhost+csum",
          "afxdp+vhost+csum+tso"],
    "c": ["kernel veth", "kernel veth offload", "xdp redirect",
          "afxdp user", "afxdp user+csum", "afxdp user+csum+tso"],
}

_RUNNERS = {"a": run_panel_a, "b": run_panel_b, "c": run_panel_c}


def run_fig8(
    panels: "tuple[str, ...]" = ("a", "b", "c"),
    total_bytes: int = TOTAL_BYTES,
) -> Fig8Result:
    gbps: Dict["tuple[str, str]", float] = {}
    for panel in panels:
        for config in PANEL_CONFIGS[panel]:
            gbps[(panel, config)] = _RUNNERS[panel](config, total_bytes)
    return Fig8Result(gbps=gbps)


def main() -> None:  # pragma: no cover - CLI entry
    print(run_fig8().render_all())


if __name__ == "__main__":  # pragma: no cover
    main()
