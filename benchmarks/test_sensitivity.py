"""Sensitivity analysis: the paper's orderings survive cost perturbation.

The reproduction's conclusions should not hinge on any single calibrated
constant.  These benches rerun key comparisons with major constants
perturbed ±50 % and assert the *orderings* (the things the paper's
takeaways claim) are unchanged.
"""

from conftest import run_once

from repro.afxdp.driver import AfxdpOptions
from repro.experiments.world import build_world
from repro.sim import costs
from repro.traffic.trex import FlowSpec, TrexStream

N = 800


def _mpps(bench):
    return bench.drive(TrexStream(FlowSpec(1), frame_len=64), N).mpps


def test_sensitivity_fig2_ordering(benchmark):
    """kernel > eBPF and DPDK >> kernel under cache/interpreter
    perturbation."""
    def measure():
        out = {}
        for label, kw in [
            ("baseline", {}),
            ("cache_miss +50%", {"cache_miss_ns": 63.0,
                                 "dma_first_touch_ns": 42.0}),
            ("ebpf_insn -30%", {"ebpf_insn_ns": 1.47}),
            ("skb +50%", {"skb_alloc_ns": 180.0, "skb_free_ns": 90.0}),
        ]:
            with costs.overridden(**kw):
                out[label] = {
                    dp: _mpps(build_world(dp, "P2P", n_queues=1,
                                          link_gbps=10))
                    for dp in ("kernel", "ebpf", "dpdk")
                }
        return out

    results = run_once(benchmark, measure)
    print()
    for label, r in results.items():
        print(f"  {label:18s} kernel={r['kernel']:.2f} "
              f"ebpf={r['ebpf']:.2f} dpdk={r['dpdk']:.2f}")
        assert r["ebpf"] < r["kernel"] < r["dpdk"]
        assert r["dpdk"] > 2.5 * r["kernel"]


def test_sensitivity_o1_speedup(benchmark):
    """O1's dominance survives syscall-cost perturbation."""
    from repro.afxdp.umempool import LockStrategy

    def measure():
        out = {}
        for label, kw in [
            ("baseline", {}),
            ("poll -40%", {"poll_ns": 720.0}),
            ("ctx-switch +50%", {"context_switch_ns": 5_250.0}),
        ]:
            with costs.overridden(**kw):
                base = AfxdpOptions(lock_strategy=LockStrategy.MUTEX,
                                    batched_locking=False,
                                    preallocated_metadata=False,
                                    batch_size=8)
                none = _mpps(build_world("afxdp_zc", "P2P", options=base,
                                         link_gbps=10,
                                         pmd_main_thread_mode=True))
                o1 = _mpps(build_world(
                    "afxdp_zc", "P2P", link_gbps=10, options=AfxdpOptions(
                        lock_strategy=LockStrategy.MUTEX,
                        batched_locking=False,
                        preallocated_metadata=False)))
                out[label] = o1 / none
        return out

    speedups = run_once(benchmark, measure)
    print()
    for label, speedup in speedups.items():
        print(f"  {label:18s} O1 speedup {speedup:.1f}x")
        assert speedup > 3  # paper: 6x; must stay decisive
