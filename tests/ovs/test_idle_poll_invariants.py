"""An idle poll is cheap to simulate, not free to the simulated CPU.

A TCP_RR transaction polls ten times and finds a packet twice (Figs.
10/11 run at burst size 1), so the poll path returns early when a queue
is empty — but what an idle poll *charges* is part of the published P50.
One idle ``PmdThread.run_iteration()`` must keep charging exactly what it
charged before the early-outs went in (the lists below were recorded on
that tree) and keep bumping every idle counter once.
"""

import pytest

from repro.afxdp.driver import AfxdpOptions
from repro.dpdk.ethdev import bind_device
from repro.experiments.p2p import _base_host
from repro.hosts.vm import VirtualMachine
from repro.ovs.pmd import PmdThread
from repro.sim import trace
from repro.sim.costs import DEFAULT_COSTS as COSTS


def record_charges(ctx):
    """Log ``(label, ns, bucket)`` for every charge and wait of ``ctx``;
    the bucket is the accounting category the time landed in."""
    log = []
    charge, wait = ctx.charge, ctx.wait

    def spy_charge(ns, label="work", category=None):
        log.append((label, ns, (category or ctx.category).value))
        charge(ns, label=label, category=category)

    def spy_wait(ns, label="wait"):
        log.append((label, ns, "wait"))
        wait(ns, label=label)

    ctx.charge, ctx.wait = spy_charge, spy_wait
    return log


def world(nic_kind, main_thread_mode=False, interrupt_mode=False):
    """A PMD over one NIC rxq (AF_XDP or DPDK) and one vhost-user rxq,
    nothing queued anywhere."""
    host, nic, _ = _base_host(1, 25.0)
    vm = VirtualMachine(host, "vm1", "10.0.0.5", vcpu_core=12)
    vs = host.install_ovs("netdev")
    vs.add_bridge("br0")
    if nic_kind == "afxdp":
        vs.add_afxdp_port("br0", nic,
                          AfxdpOptions(interrupt_mode=interrupt_mode))
    else:
        vs.add_dpdk_port("br0", bind_device(host.kernel.init_ns, "ens1"))
    vs.add_vhostuser_port("br0", vm.attach_vhostuser())
    dpif = vs.dpif_netdev
    pmd = PmdThread(dpif, host.cpu, core=0,
                    main_thread_mode=main_thread_mode)
    nic_port = dpif.ports[dpif.port_no("ens1")]
    pmd.add_rxq(nic_port, 0)
    pmd.add_rxq(dpif.ports[dpif.port_no("vhost-vm1")], 0)
    return pmd, nic_port


RX_BATCH = ("rx_batch", COSTS.ring_batch_ns, "user")
POLL = ("poll", COSTS.poll_ns, "system")
RESCHED = ("resched", COSTS.context_switch_ns, "user")

#: (NIC kind, main_thread_mode, interrupt_mode) -> what one idle
#: iteration over [NIC rxq, vhost rxq] charges, in order.
IDLE_CHARGES = {
    # A polling AF_XDP rxq peeks its rx ring; vhost and DPDK polls are
    # plain memory reads, free until something is there.
    ("afxdp", False, False): [RX_BATCH],
    ("dpdk", False, False): [],
    # poll() first (system time), then the ring peek; no wakeup is paid
    # when nothing arrived.
    ("afxdp", False, True): [POLL, RX_BATCH],
    # The shared main thread pays poll() + a reschedule per rxq service.
    ("afxdp", True, False): [POLL, RESCHED, RX_BATCH, POLL, RESCHED],
    ("dpdk", True, False): [POLL, RESCHED, POLL, RESCHED],
    ("afxdp", True, True): [POLL, RESCHED, POLL, RX_BATCH, POLL, RESCHED],
}


@pytest.mark.parametrize("nic_kind,main_thread_mode,interrupt_mode",
                         list(IDLE_CHARGES))
def test_idle_iteration_charges_and_counts(nic_kind, main_thread_mode,
                                           interrupt_mode):
    pmd, nic_port = world(nic_kind, main_thread_mode, interrupt_mode)
    log = record_charges(pmd.ctx)
    with trace.recording() as rec:
        assert pmd.run_iteration() == 0
    assert log == IDLE_CHARGES[nic_kind, main_thread_mode, interrupt_mode]
    assert pmd.ctx.category.value == "user"  # every scope was left
    assert pmd.ctx.local_time_ns == sum(ns for _label, ns, _bucket in log)
    assert (pmd.iterations, pmd.empty_polls, pmd.packets_processed) \
        == (1, 2, 0)
    assert rec.counter("kernel.ctx_switches") \
        == (2 if main_thread_mode else 0)
    if nic_kind == "afxdp":
        sock = nic_port.adapter.driver.sockets[0]
        assert sock.rx_ring.empty_events == 1
        assert rec.counter("afxdp.rx_ring_empty") == 1
        assert nic_port.adapter.driver.rx_packets == 0
    else:
        assert rec.counter("afxdp.rx_ring_empty") == 0
        assert nic_port.adapter.ethdev.mempool.free_count \
            == nic_port.adapter.ethdev.mempool.n_mbufs  # nothing allocated
    # No counter but the ones named above moved.
    assert set(rec.counters) <= {"kernel.ctx_switches",
                                 "afxdp.rx_ring_empty"}


def test_idle_polls_repeat_exactly():
    """Five idle iterations are five times one: no state is left behind
    that would make the next idle poll cheaper or dearer."""
    pmd, nic_port = world("afxdp")
    log = record_charges(pmd.ctx)
    with trace.recording() as rec:
        for _ in range(5):
            assert pmd.run_iteration() == 0
    assert log == [RX_BATCH] * 5
    assert pmd.empty_polls == 10
    assert nic_port.adapter.driver.sockets[0].rx_ring.empty_events == 5
    assert rec.counter("afxdp.rx_ring_empty") == 5
