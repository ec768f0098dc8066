"""Fast, small-scale versions of the paper's headline claims.

The benchmarks regenerate the full tables; these integration tests pin
the *orderings* — the facts the paper's takeaways and outcomes assert —
at reduced packet counts so they run inside the normal test suite.
"""

import pytest

from repro.afxdp.driver import AfxdpOptions
from repro.afxdp.umempool import LockStrategy
from repro.experiments.world import build_world
from repro.traffic.trex import FlowSpec, TrexStream

N = 600


def _p2p(datapath, **knobs):
    return build_world(datapath, "P2P", **knobs)


def _mpps(bench, flows=1, frame=64, vary_dst=True):
    stream = TrexStream(FlowSpec(flows, vary_dst=vary_dst), frame_len=frame)
    return bench.drive(stream, N).mpps


class TestTakeaways:
    def test_takeaway4_ebpf_slower_than_kernel(self):
        """'eBPF packet switching [is] 10-20% slower than ... the
        conventional OVS kernel module.'"""
        kernel = _mpps(_p2p("kernel", n_queues=1, link_gbps=10))
        ebpf = _mpps(_p2p("ebpf", link_gbps=10))
        slowdown = 1 - ebpf / kernel
        assert 0.05 < slowdown < 0.25

    def test_dpdk_much_faster_than_kernel(self):
        """'Conventional in-kernel packet processing is now much slower
        than newer options such as DPDK.'"""
        kernel = _mpps(_p2p("kernel", n_queues=1, link_gbps=10))
        dpdk = _mpps(_p2p("dpdk", link_gbps=10))
        assert dpdk > 3 * kernel


class TestSection3Optimizations:
    def test_o1_pmd_threads_big_win(self):
        base_opts = AfxdpOptions(lock_strategy=LockStrategy.MUTEX,
                                 batched_locking=False,
                                 preallocated_metadata=False,
                                 batch_size=8)
        no_pmd = _mpps(_p2p("afxdp_zc", options=base_opts,
                            pmd_main_thread_mode=True, link_gbps=10))
        pmd = _mpps(_p2p("afxdp_zc", options=AfxdpOptions(
            lock_strategy=LockStrategy.MUTEX, batched_locking=False,
            preallocated_metadata=False), link_gbps=10))
        assert pmd > 3 * no_pmd  # paper: 6x

    def test_o2_spinlock_beats_mutex(self):
        mutex = _mpps(_p2p("afxdp_zc", options=AfxdpOptions(
            lock_strategy=LockStrategy.MUTEX, batched_locking=False),
            link_gbps=10))
        spin = _mpps(_p2p("afxdp_zc", options=AfxdpOptions(
            batched_locking=False), link_gbps=10))
        assert spin > mutex

    def test_o5_checksum_estimate_helps(self):
        sw = _mpps(_p2p("afxdp_zc", options=AfxdpOptions(), link_gbps=10))
        est = _mpps(_p2p("afxdp_zc", options=AfxdpOptions(
            sw_checksum_on_tx=False), link_gbps=10))
        assert est > sw


class TestOutcome2Containers:
    def test_afxdp_wins_pcp(self):
        """'OVS AF_XDP outperforms the other solutions when the endpoints
        are containers.'"""
        results = {
            label: _mpps(build_world(datapath, "PCP"), flows=1,
                         vary_dst=False)
            for label, datapath in (("kernel", "kernel"),
                                    ("afxdp", "afxdp_zc"), ("dpdk", "dpdk"))
        }
        assert results["afxdp"] == max(results.values())


class TestFlowScaling:
    def test_thousand_flows_hurt_userspace_help_kernel(self):
        """'For all of the userspace datapath cases, 1,000 flows perform
        worse than a single flow because of the increased flow lookup
        overhead. The opposite is true only for the kernel datapath.'"""
        afxdp = _p2p("afxdp_zc", link_gbps=25)
        one = _mpps(afxdp, flows=1)
        many = _mpps(_p2p("afxdp_zc", link_gbps=25), flows=1000)
        assert many < one
        kernel_one = _mpps(_p2p("kernel", link_gbps=25), flows=1)
        kernel_many = _mpps(_p2p("kernel", link_gbps=25),
                            flows=1000)
        assert kernel_many > kernel_one


class TestUpgradeStory:
    def test_afxdp_deployment_never_loads_the_module(self):
        """§6: easier deployment/upgrading — the whole lifecycle without
        ever touching openvswitch.ko."""
        from repro.hosts.host import Host

        host = Host("prod", n_cpus=4)
        nic = host.add_nic("ens1")
        vs = host.install_ovs("netdev")
        vs.add_bridge("br0")
        vs.add_afxdp_port("br0", nic, AfxdpOptions())
        vs.restart()  # an upgrade
        vs.restart()  # a bugfix
        assert not host.kernel.module_loaded
        # And the NIC is still kernel-managed throughout.
        assert host.kernel.init_ns.has_device("ens1")
