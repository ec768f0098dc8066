"""Differential trace tests: the ledger must attribute costs to the
stage that actually ran, not merely balance in aggregate."""

import pytest

from repro.ebpf.programs import l2_forward_program, l2_key
from repro.ebpf.vm import EbpfVm
from repro.ebpf.verifier import verify
from repro.experiments.world import build_world
from repro.hosts.host import Host
from repro.net.addresses import MacAddress
from repro.net.builder import make_udp_packet
from repro.ovs.emc import ExactMatchCache
from repro.ovs.match import Match
from repro.ovs.ofactions import OutputAction
from repro.ovs.openflow import OpenFlowConnection
from repro.sim import trace
from repro.sim.cpu import CpuCategory, ExecContext
from repro.traffic.trex import FlowSpec, TrexStream


def _udp_pkt():
    return make_udp_packet(MacAddress.local(1), MacAddress.local(2),
                           "10.0.0.1", "10.0.0.2", 1000, 2000)


@pytest.fixture
def netdev_world():
    host = Host("trace-dut", n_cpus=2)
    vs = host.install_ovs("netdev")
    vs.add_bridge("br0")
    p1, _a1 = vs.add_sim_port("br0", "p1")
    p2, _a2 = vs.add_sim_port("br0", "p2")
    of = OpenFlowConnection(vs.bridge("br0"))
    of.add_flow(0, 10, Match(in_port=p1.ofport), [OutputAction("p2")])
    ctx = ExecContext(host.cpu, 0, CpuCategory.USER)
    return vs, p1, ctx, ExactMatchCache()


# ----------------------------------------------------------------------
# Cache-tier attribution.
# ----------------------------------------------------------------------
def test_emc_hit_charges_no_megaflow_or_upcall(netdev_world):
    vs, p1, ctx, emc = netdev_world
    # Warm outside the recorder: first packet upcalls and installs both
    # the megaflow and the EMC entry.
    vs.dpif_netdev.process_batch([_udp_pkt()], p1.dp_port_no, ctx, emc)
    with trace.recording() as rec:
        vs.dpif_netdev.process_batch(
            [_udp_pkt() for _ in range(8)], p1.dp_port_no, ctx, emc
        )
    assert rec.counter("emc.hit") == 8
    assert rec.counter("emc.miss") == 0
    assert rec.counter("dpcls.hit") == 0
    assert rec.counter("dp.upcall") == 0
    assert rec.span_ns("dpcls") == 0.0
    assert rec.span_ns("upcall") == 0.0
    assert "upcall" not in rec.span_totals
    assert rec.conserved()


def test_emc_miss_walks_exactly_one_tier_down(netdev_world):
    vs, p1, ctx, emc = netdev_world
    vs.dpif_netdev.process_batch([_udp_pkt()], p1.dp_port_no, ctx, emc)
    # A fresh EMC forces a megaflow lookup but not an upcall.
    with trace.recording() as rec:
        vs.dpif_netdev.process_batch(
            [_udp_pkt()], p1.dp_port_no, ctx, ExactMatchCache()
        )
    assert rec.counter("emc.miss") == 1
    assert rec.counter("dpcls.hit") == 1
    assert rec.counter("dp.upcall") == 0
    assert rec.span_ns("dpcls") > 0.0
    assert rec.span_ns("upcall") == 0.0
    assert rec.conserved()


def test_cold_start_records_the_upcall_span(netdev_world):
    vs, p1, ctx, emc = netdev_world
    with trace.recording() as rec:
        vs.dpif_netdev.process_batch([_udp_pkt()], p1.dp_port_no, ctx, emc)
    assert rec.counter("dp.upcall") == 1
    assert rec.counter("emc.miss") == 1
    assert rec.counter("dpcls.miss") == 1
    assert rec.span_ns("upcall") > 0.0
    # The nested span's inclusive total contains the slow-path charge.
    assert rec.span_totals["upcall"][1] >= rec.span_ns("upcall")
    assert rec.conserved()


# ----------------------------------------------------------------------
# AF_XDP copy-mode attribution.
# ----------------------------------------------------------------------
def _afxdp_run(force_copy: bool) -> trace.TraceRecorder:
    bench = build_world("afxdp_copy" if force_copy else "afxdp_zc", "P2P",
                        link_gbps=10.0)
    with trace.recording() as rec:
        bench.drive(TrexStream(FlowSpec(1), frame_len=128), 256)
    return rec


def test_copy_mode_records_strictly_more_copy_bytes():
    zerocopy = _afxdp_run(force_copy=False)
    copy = _afxdp_run(force_copy=True)
    assert zerocopy.counter("afxdp.copy_bytes") == 0
    assert copy.counter("afxdp.copy_bytes") > 0
    assert copy.counter("afxdp.copies") > 0
    # Copy mode copies on rx and tx: at least 2 copies * 128B per packet.
    assert copy.counter("afxdp.copy_bytes") >= 256 * 2 * 128
    assert zerocopy.conserved() and copy.conserved()


def test_afxdp_run_counts_tx_kick_syscalls():
    rec = _afxdp_run(force_copy=False)
    assert rec.counter("afxdp.tx_kick_syscalls") > 0
    assert rec.counter("dp.rx_packets") > 0


# ----------------------------------------------------------------------
# eBPF attribution.
# ----------------------------------------------------------------------
def test_ebpf_span_matches_vm_retired_totals():
    program, fib = l2_forward_program()
    vm = EbpfVm(verify(program))
    pkt = _udp_pkt()
    fib.update(l2_key(pkt.data[0:6]), (7).to_bytes(4, "little"))
    with trace.recording() as rec:
        for _ in range(5):
            vm.run(pkt.data)
    assert rec.counter("ebpf.insns_retired") == vm.insns_executed
    assert rec.counter("ebpf.helper_calls") == vm.helper_calls
    assert rec.counter("ebpf.runs") == 5


def test_ebpf_retired_counter_is_per_recording_window():
    program, fib = l2_forward_program()
    vm = EbpfVm(verify(program))
    pkt = _udp_pkt()
    fib.update(l2_key(pkt.data[0:6]), (7).to_bytes(4, "little"))
    vm.run(pkt.data)  # outside any recorder
    before = vm.insns_executed
    with trace.recording() as rec:
        vm.run(pkt.data)
    # Only the window's instructions, not the VM's cumulative total.
    assert rec.counter("ebpf.insns_retired") == vm.insns_executed - before
    assert rec.counter("ebpf.helper_calls") < vm.helper_calls
