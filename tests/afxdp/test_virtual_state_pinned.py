"""The AF_XDP walk's virtual state, pinned to digests of an earlier tree.

The per-packet AF_XDP walk (DESIGN §21) was rewritten for wall-clock
speed under one contract: every charge keeps its value, lane and order,
and every counter its value.  The digests below were recorded on the
tree *before* that rewrite, so this test does not compare the code with
itself: it compares it with what the simulator printed before.

Each configuration builds a fresh ``afxdp_p2p`` world, warms it
untraced, then drives a measured window with a trace recorder attached
(so both branches of every ``trace.ACTIVE`` test run), and digests

* ``repr(cpu._busy)`` — every (cpu, category) busy lane, as floats;
* the trace ledger — spans, waits, nested totals and counters;
* the objects' own counters — sockets, rings, pools, drivers, NICs,
  the datapath, the megaflow cache, the fault plan and the conservation
  ledger.

The configurations cover the branches the walk has: cycled flows (EMC
and XDP memo hits), flows that never repeat (EMC misses, eBPF JIT
runs), copy mode, ``interrupt_mode``, mutex + unbatched locking + no
preallocated metadata (the malloc/mmap path), and a fault plan over
every ``afxdp.*`` point and ``ebpf.map_lookup_fault``.
"""

import contextlib
import hashlib

import pytest

from repro.afxdp.driver import AfxdpOptions
from repro.afxdp.umempool import LockStrategy
from repro.experiments.p2p import afxdp_p2p
from repro.sim import faults, trace
from repro.sim.faults import FaultPlan, FaultRule
from repro.tools.conservation import afxdp_packet_ledger
from repro.traffic.trex import FlowSpec, TrexStream

PACKETS = 1_500
#: Both drives' packets, each behind a 64-packet warm-up.
OFFERED = 64 + 500 + 64 + PACKETS


class Warm:
    """A stream whose flows the world has seen: 64 warm-up packets."""

    flows = FlowSpec(n_flows=1)
    frame_len = 64

    def __init__(self, stream):
        self.burst = stream.burst


def cycled():
    return TrexStream(FlowSpec(n_flows=1_000), frame_len=64, seed=1)


def distinct():
    """Every frame its own flow, like the bench's ``DistinctStream``."""
    return TrexStream(FlowSpec(n_flows=4_096), frame_len=64, seed=7)


def fault_plan():
    """Every ``afxdp.*`` point fires now and then; tx-kick EAGAIN fires
    often enough to exhaust the retry budget too."""
    points = sorted(p for p in faults.FAULT_POINTS if p.startswith("afxdp."))
    rules = [FaultRule(p, rate=0.6 if p == "afxdp.tx_kick_eagain" else 0.02)
             for p in points]
    rules.append(FaultRule("ebpf.map_lookup_fault", rate=0.02))
    return FaultPlan(seed=3, rules=rules)


CONFIGS = {
    "cycled": (AfxdpOptions(), cycled, None),
    "distinct": (AfxdpOptions(), distinct, None),
    "copy_mode": (AfxdpOptions(force_copy_mode=True), cycled, None),
    "interrupt_mode": (AfxdpOptions(interrupt_mode=True), cycled, None),
    "malloc": (AfxdpOptions(lock_strategy=LockStrategy.MUTEX,
                            batched_locking=False,
                            preallocated_metadata=False), cycled, None),
    "faults": (AfxdpOptions(), cycled, fault_plan),
}

#: name -> (busy lanes, ledger, counters) sha256 prefixes.
PINNED = {
    "copy_mode": ("9301bada24b89a42", "8475dc17adcbf3d5", "70effffc4a6caf8c"),
    "cycled": ("7fc26418737b3701", "308d3b31e500e97c", "4be92c285d694dfa"),
    "distinct": ("3de01b7bcb3a381d", "c7ac149d6ec1219c", "f68c9e443c0ede03"),
    "faults": ("ec6664d91da9c80d", "cd650e16fa0f465e", "dd368feda905513d"),
    "interrupt_mode": ("f2f5ceefc084b1dc", "c6945be0a60e7fdf",
                       "4be92c285d694dfa"),
    "malloc": ("f14b3dad255460d7", "0d923f2b235820f4", "d64701e3a50575b0"),
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def counters(bench, plan):
    dpif = bench.host.vswitchd.dpif_netdev
    out = []
    drivers = []
    for name in ("ens1", "ens2"):
        driver = dpif.ports[dpif.port_no(name)].adapter.driver
        drivers.append(driver)
        out.append((name, driver.rx_packets, driver.tx_packets,
                    driver._alloc_counter, sorted(driver.retired.items())))
        for queue, sock in sorted(driver.sockets.items()):
            rings = (sock.rx_ring, sock.tx_ring, sock.umem.fill_ring,
                     sock.umem.completion_ring)
            out.append((
                queue, sock.bind_mode.value, sock.rx_delivered,
                sock.rx_dropped_no_fill, sock.tx_sent,
                sock.rx_dropped_overrun, sock.tx_dropped_no_umem,
                sock.tx_dropped_ring_full, sock.tx_dropped_kick,
                sock.frames_leaked, sock.zc_fallbacks,
                [(len(r), r.full_events, r.empty_events) for r in rings],
                sock.pool.free_count, sock.pool.lock_acquisitions,
                sock.pool.futex_slow_paths,
            ))
    for nic in (bench.nic_in, bench.nic_out, bench.nic_out.wire_peer):
        out.append((nic.name, sorted(nic.stats.snapshot().items()),
                    getattr(nic, "rx_missed", None),
                    getattr(nic, "xdp_drops", None),
                    getattr(nic, "xdp_passes", None),
                    getattr(nic, "xdp_redirect_failed", None)))
    out.append(repr(dpif.stats))
    mf = dpif.megaflows
    out.append((mf.hits, mf.misses, mf.version,
                [(e.n_packets, e.n_bytes, e.last_used_ns)
                 for e in mf.entries()]))
    if plan is not None:
        out.append((sorted(plan.events.items()), sorted(plan.fired.items())))
    out.append(repr(afxdp_packet_ledger(OFFERED, bench.nic_in, *drivers,
                                        dpif)))
    return repr(out)


def observe(name):
    options, make_stream, make_plan = CONFIGS[name]
    bench = afxdp_p2p(options)
    stream = make_stream()
    bench.drive(Warm(stream), 500)
    plan = make_plan() if make_plan is not None else None
    injecting = (faults.injecting(plan) if plan is not None
                 else contextlib.nullcontext())
    with injecting, trace.recording() as rec:
        bench.drive(Warm(stream), PACKETS)
    return (digest(repr(bench.host.cpu._busy)), digest(rec.ledger()),
            digest(counters(bench, plan)))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_virtual_state_matches_the_pinned_digests(name):
    assert observe(name) == PINNED[name]
