"""Determinism of the simulation and the lossless-rate machinery."""

import pytest

from repro.experiments.p2p import afxdp_p2p, dpdk_p2p
from repro.traffic.trex import FlowSpec, TrexStream


class TestDeterminism:
    def test_identical_runs_identical_numbers(self):
        """Seeded RNG + virtual time = bit-identical measurements."""
        def run():
            bench = afxdp_p2p(link_gbps=10)
            return bench.drive(TrexStream(FlowSpec(64), frame_len=64),
                               800).mpps

        assert run() == run()

    def test_latency_distributions_deterministic(self):
        from repro.experiments.fig11_container_latency import run_fig11

        a = run_fig11(n_transactions=50)
        b = run_fig11(n_transactions=50)
        assert a.results["dpdk"].p99_us == b.results["dpdk"].p99_us

    def test_stream_seed_changes_flows(self):
        s1 = TrexStream(FlowSpec(100), seed=1)
        s2 = TrexStream(FlowSpec(100), seed=2)
        assert s1.next_packet().data != s2.next_packet().data


class TestVaryDst:
    def test_fixed_destination_spec(self):
        stream = TrexStream(FlowSpec(50, vary_dst=False), frame_len=64)
        dsts = {stream.next_packet().data[30:34] for _ in range(100)}
        assert len(dsts) == 1
        srcs = {stream.next_packet().data[26:30] for _ in range(100)}
        assert len(srcs) > 20


class TestLossDetection:
    def test_ring_overflow_counts_missed(self):
        """Offered load beyond the ring's capacity shows up as 'missed'
        frames — the signal the TRex lossless search keys off."""
        bench = dpdk_p2p(link_gbps=25)
        nic = bench.nic_in
        nic.ring_size = 64
        stream = TrexStream(FlowSpec(1), frame_len=64)
        # Blast 200 frames with nobody draining the ring.
        accepted = sum(1 for pkt in stream.burst(200)
                       if nic.host_receive(pkt))
        assert accepted == 64
        assert nic.rx_missed == 136

    def test_no_loss_when_serviced(self):
        bench = afxdp_p2p(link_gbps=10)
        bench.drive(TrexStream(FlowSpec(1), frame_len=64), 2_000)
        assert bench.nic_in.rx_missed == 0


class TestVSwitchdPortTypes:
    def test_dpdk_and_vhost_ports_via_vswitchd(self):
        from repro.dpdk.ethdev import bind_device
        from repro.hosts.host import Host
        from repro.hosts.vm import VirtualMachine

        host = Host("ports", n_cpus=4)
        host.add_nic("ens1")
        vs = host.install_ovs("netdev")
        vs.add_bridge("br0")
        eth = bind_device(host.kernel.init_ns, "ens1")
        dpdk_port = vs.add_dpdk_port("br0", eth)
        vm = VirtualMachine(host, "vm1", "10.0.0.5", vcpu_core=2)
        vhost_port = vs.add_vhostuser_port("br0", vm.attach_vhostuser())
        assert vs.bridge("br0").port("ens1") is dpdk_port
        assert vs.bridge("br0").port("vhost-vm1") is vhost_port
        # OVSDB recorded the types.
        [iface] = vs.ovsdb.find("Interface", name="ens1")
        assert iface["type"] == "dpdk"
        [iface] = vs.ovsdb.find("Interface", name="vhost-vm1")
        assert iface["type"] == "dpdkvhostuser"

    def test_port_types_rejected_on_kernel_datapath(self):
        from repro.hosts.host import Host

        host = Host("sys", n_cpus=2)
        vs = host.install_ovs("system")
        vs.add_bridge("br0")
        with pytest.raises(ValueError, match="netdev datapath"):
            vs.add_afxdp_port("br0", host.add_nic("ens1"))
