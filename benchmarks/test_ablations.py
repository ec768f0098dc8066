"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation isolates one mechanism the paper's design leans on and
measures the cost of taking it away:

* the flow-cache hierarchy (EMC -> megaflow -> classifier),
* umempool lock strategy (O2/O3),
* interrupt- vs poll-mode AF_XDP service (O1 / Figure 8a),
* XDP-redirect vs a userspace round trip for container traffic (path C
  vs path A of Figure 5),
* zero-copy vs copy-mode AF_XDP binding (§3.5 Limitations).
"""

import pytest
from conftest import run_once

from repro.afxdp.driver import AfxdpOptions
from repro.afxdp.umempool import LockStrategy
from repro.experiments.world import build_world
from repro.traffic.trex import FlowSpec, TrexStream

PACKETS = 1_500


def _rate(bench, flows=16):
    return bench.drive(TrexStream(FlowSpec(flows), frame_len=64),
                       PACKETS).mpps


def _afxdp(datapath="afxdp_zc", **knobs):
    return build_world(datapath, "P2P", link_gbps=25, **knobs)


# ---------------------------------------------------------------------------
def test_ablation_cache_hierarchy(benchmark):
    """EMC -> megaflow -> classifier: each cache level earns its keep."""
    from repro.hosts.host import Host
    from repro.kernel.kernel import Kernel
    from repro.ovs.emc import ExactMatchCache
    from repro.ovs.match import Match
    from repro.ovs.ofactions import OutputAction
    from repro.ovs.openflow import OpenFlowConnection
    from repro.ovs.vswitchd import VSwitchd
    from repro.sim.cpu import CpuCategory, CpuModel, ExecContext
    from repro.traffic.trex import FlowSpec, TrexStream

    def run(emc_size, flush_megaflows):
        host = Host("dut", n_cpus=2)
        vs = host.install_ovs("netdev")
        vs.add_bridge("br0")
        p1, a1 = vs.add_sim_port("br0", "p1")
        p2, a2 = vs.add_sim_port("br0", "p2")
        of = OpenFlowConnection(vs.bridge("br0"))
        of.add_flow(0, 10, Match(in_port=p1.ofport), [OutputAction("p2")])
        ctx = ExecContext(host.cpu, 0, CpuCategory.USER)
        emc = ExactMatchCache(n_entries=emc_size)
        stream = TrexStream(FlowSpec(64), frame_len=64)
        # Warm.
        vs.dpif_netdev.process_batch(stream.burst(256), p1.dp_port_no,
                                     ctx, emc)
        before = host.cpu.busy_ns()
        n = 1_500
        sent = 0
        while sent < n:
            if flush_megaflows:
                vs.dpif_netdev.megaflows.flush()
            vs.dpif_netdev.process_batch(stream.burst(32), p1.dp_port_no,
                                         ctx, emc)
            sent += 32
        return (host.cpu.busy_ns() - before) / sent  # ns per packet

    def measure():
        return {
            "full (EMC + megaflow)": run(8192, False),
            "no EMC (megaflow only)": run(2, False),
            "no caches (classifier every miss)": run(2, True),
        }

    results = run_once(benchmark, measure)
    print()
    for label, nspp in results.items():
        print(f"  {label:36s} {nspp:8.0f} ns/pkt")
    full = results["full (EMC + megaflow)"]
    no_emc = results["no EMC (megaflow only)"]
    no_cache = results["no caches (classifier every miss)"]
    assert full < no_emc < no_cache
    assert no_cache > 2 * full  # the caches matter a lot
    benchmark.extra_info.update({k: round(v) for k, v in results.items()})


def test_ablation_lock_strategy(benchmark):
    """O2/O3: mutex vs spinlock vs batched spinlock in the umempool."""
    def measure():
        out = {}
        for label, options in [
            ("mutex, per-frame", AfxdpOptions(
                lock_strategy=LockStrategy.MUTEX, batched_locking=False)),
            ("spinlock, per-frame", AfxdpOptions(
                lock_strategy=LockStrategy.SPINLOCK, batched_locking=False)),
            ("spinlock, batched", AfxdpOptions()),
        ]:
            out[label] = _rate(_afxdp(options=options))
        return out

    results = run_once(benchmark, measure)
    print()
    for label, mpps in results.items():
        print(f"  {label:24s} {mpps:6.2f} Mpps")
    assert (results["mutex, per-frame"]
            < results["spinlock, per-frame"]
            < results["spinlock, batched"])
    benchmark.extra_info.update({k: round(v, 2) for k, v in results.items()})


def test_ablation_interrupt_vs_polling(benchmark):
    """O1/Figure 8a: interrupt-driven service versus PMD busy polling."""
    def measure():
        polling = _rate(_afxdp())
        interrupt = _rate(_afxdp(
            options=AfxdpOptions(interrupt_mode=True, batch_size=8)))
        return {"polling": polling, "interrupt": interrupt}

    results = run_once(benchmark, measure)
    print()
    print(f"  polling   {results['polling']:6.2f} Mpps")
    print(f"  interrupt {results['interrupt']:6.2f} Mpps")
    assert results["polling"] > 1.2 * results["interrupt"]
    benchmark.extra_info.update({k: round(v, 2) for k, v in results.items()})


def test_ablation_container_redirect_path(benchmark):
    """Figure 5 path C (XDP redirect) vs the kernel and DPDK container
    paths — the Outcome #2 comparison as an ablation."""
    def measure():
        spec = FlowSpec(16, vary_dst=False)
        out = {}
        for label, datapath in [
            ("xdp-redirect (path C)", "afxdp_zc"),
            ("kernel veth", "kernel"),
            ("dpdk af_packet", "dpdk"),
        ]:
            bench = build_world(datapath, "PCP", link_gbps=25)
            out[label] = bench.drive(
                TrexStream(spec, frame_len=64), PACKETS).mpps
        return out

    results = run_once(benchmark, measure)
    print()
    for label, mpps in results.items():
        print(f"  {label:24s} {mpps:6.2f} Mpps")
    assert results["xdp-redirect (path C)"] == max(results.values())
    benchmark.extra_info.update({k: round(v, 2) for k, v in results.items()})


def test_ablation_copy_vs_zerocopy(benchmark):
    """§3.5: the universal copy-mode fallback costs real throughput."""
    def measure():
        zerocopy = _rate(_afxdp("afxdp_zc"))
        copy = _rate(_afxdp("afxdp_copy"))
        return {"zerocopy": zerocopy, "copy": copy}

    results = run_once(benchmark, measure)
    print()
    print(f"  zero-copy {results['zerocopy']:6.2f} Mpps")
    print(f"  copy-mode {results['copy']:6.2f} Mpps")
    assert results["zerocopy"] > 1.1 * results["copy"]
    benchmark.extra_info.update({k: round(v, 2) for k, v in results.items()})
